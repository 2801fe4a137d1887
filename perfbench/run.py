"""glchar benchmark: CLI workloads timed end to end, checked against an oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere; glchar is imported from the src/ directory beside this
one, never from an installed copy.  Every timed CLI invocation, every
cold start and every traced process is a fresh interpreter, so glchar's
unbounded caches never carry over between runs or workloads.

Workloads (the seed picks labels; glchar receives only the labels):

  sheet-recover    `recover --q 13 --json`, every row, serial.  The
                   two-term pair scan is most of the time.
  rho-query        four `recover --q 19 --rho L`, one label per family.
                   Sheet build and first-call solver tables dominate.
  sheet-roundtrip  `table --q 17 --out F`, then `recover --sheet F --rho L`.
                   JSON emit, parse, triples and sheet validation.
  recover-jobs2    sheet-recover with GLCHAR_JOBS=2, the process-pool path.

--trace 0 prints the end-to-end metrics:
  wall_s        median over repeated passes of the workload's CLI
                invocations, each timed spawn to exit with stdout captured.
  setup_s       median over fresh processes that import glchar, run the
                density gate and build the GL_2 sheet at the workload's q.
                Before every pass come such cold starts, at least one and
                more while they have taken under 0.8 s, so setup_s samples
                the whole run as wall_s does.  A round (cold starts, then a
                pass) starts only if a round of median length would end
                within --seconds of the first one (there is always one), so
                a run stays near --seconds.
  peak_rss_mib  largest ru_maxrss over the workload's CLI processes, pool
                workers included (os.wait4 reports the reaped tree).
--trace 1 runs one untraced pass, the same pass under tracing.py, and one
tracing.py probe at the workload's q, and prints the per-layer metrics.

Every output row, exit status and byte-identity check is one operation;
failed_frac = failed / attempted is printed with the metrics, and any
failure makes `correct` false and the exit status 1.  The last line of
stdout is the result JSON; a results record with the commit, Python,
nproc, platform and seed goes to .bench_out/ and to the line before it.
--workload all runs the four workloads in turn (several minutes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0
SETUP_GAP_S = 0.8  # cold starts before each pass: one, and more until this

TORUS_KIND = {oracle.SPLIT: "split", oracle.ELLIPTIC: "elliptic"}
WORKLOAD_Q = {"sheet-recover": 13, "rho-query": 19,
              "sheet-roundtrip": 17, "recover-jobs2": 13}

COLD_START = """\
import sys
from glchar import GroupSpec, build_gl2_sheet, check_q_condition
q = int(sys.argv[1])
ok = check_q_condition(GroupSpec(2, q)).ok
build_gl2_sheet(q)
sys.exit(0 if ok else 2)
"""


class Checks:
    """Operations attempted and the ones that failed, with a reason each."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Proc:
    out: bytes
    code: int
    wall: float
    rss_kib: int
    cpu: float


@dataclass
class Pass:
    wall: float = 0.0
    rss_kib: int = 0
    cpu: float = 0.0
    outs: list[bytes] = field(default_factory=list)

    def add(self, p: Proc) -> None:
        self.wall += p.wall
        self.rss_kib = max(self.rss_kib, p.rss_kib)
        self.cpu += p.cpu
        self.outs.append(p.out)


class Runner:
    """Spawns glchar processes, one at a time, inside the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.n = 0
        OUT.mkdir(exist_ok=True)

    def spawn(self, cmd: list[str], jobs: int = 1) -> Proc:
        env = dict(os.environ, PYTHONPATH=str(SRC), GLCHAR_JOBS=str(jobs))
        self.n += 1
        out_path = OUT / f"proc-{os.getpid()}-{self.n}.out"
        with open(out_path, "wb") as out, \
                open(OUT / f"proc-{os.getpid()}.err", "ab") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                 cwd=ROOT, start_new_session=True)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    os.killpg, (p.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        data = out_path.read_bytes()
        out_path.unlink()
        return Proc(data, p.returncode, wall, ru.ru_maxrss,
                    ru.ru_utime + ru.ru_stime)

    def glchar(self, argv: list[str], jobs: int = 1,
               spans: Path | None = None) -> Proc:
        if spans is None:
            cmd = [sys.executable, "-m", "glchar", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), "cli",
                   "--out", str(spans), "--", *argv]
        return self.spawn(cmd, jobs)


# -- workloads ----------------------------------------------------------------

def one_per_family(q: int, rng: random.Random) -> list[str]:
    fams = oracle.labels_by_family(q)
    return [rng.choice(fams[f]) for f in oracle.FAMILIES]


def check_sheet_json(checks: Checks, out: bytes, q: int, what: str) -> None:
    """One operation per expected row of `recover --q Q --json`."""
    labels = oracle.all_labels(q)
    try:
        reports = json.loads(out)["reports"]
    except (ValueError, KeyError, TypeError):
        checks.check(False, f"{what}: stdout is not a recovery document")
        return
    for i, lab in enumerate(labels):
        got = reports[i] if i < len(reports) else None
        checks.check(got == oracle.expected(q, lab),
                     f"{what}: row {i} ({lab}) differs from the oracle")
    checks.check(len(reports) == len(labels),
                 f"{what}: {len(reports)} rows, expected {len(labels)}")


def check_line(checks: Checks, out: bytes, q: int, label: str,
               what: str) -> None:
    want = oracle.text_line(oracle.expected(q, label)) + "\n"
    checks.check(out == want.encode(),
                 f"{what}: {out[:200]!r} != oracle row {want!r}")


class Workload:
    """One pass = the workload's CLI invocations, checked as they finish."""

    def __init__(self, name: str, q: int, seed: int, runner: Runner,
                 checks: Checks):
        self.name, self.q, self.runner, self.checks = name, q, runner, checks
        rng = random.Random(seed)
        self.family_labels = one_per_family(q, rng)
        self.label = rng.choice(oracle.all_labels(q))
        self.jobs = 2 if name == "recover-jobs2" else 1
        # serial and parallel stdout must both be these bytes, so the two
        # workloads' stdout digests agree whenever both pass
        self.sheet_sha256 = hashlib.sha256(oracle.sheet_json(
            q, [oracle.expected(q, lab) for lab in oracle.all_labels(q)])
        ).hexdigest()
        # the sheet file of the first pass; later passes must match it
        self.sheet_file_sha256: str | None = None

    def run_pass(self, spans_dir: Path | None = None) -> Pass:
        ps = Pass()
        count = [0]

        def call(argv):
            spans = None
            if spans_dir is not None:
                count[0] += 1
                spans = spans_dir / f"cli-{count[0]}.json"
            p = self.runner.glchar(argv, self.jobs, spans)
            self.checks.check(p.code == 0,
                              f"{self.name}: exit {p.code} from {argv}")
            ps.add(p)
            return p

        q, name = self.q, self.name
        if name in ("sheet-recover", "recover-jobs2"):
            p = call(["recover", "--q", str(q), "--json"])
            check_sheet_json(self.checks, p.out, q, name)
            got = hashlib.sha256(p.out).hexdigest()
            self.checks.check(got == self.sheet_sha256,
                              f"{name}: stdout sha256 {got} differs from "
                              f"the full-sheet rendering")
        elif name == "rho-query":
            for lab in self.family_labels:
                p = call(["recover", "--q", str(q), "--rho", lab])
                check_line(self.checks, p.out, q, lab, f"{name} {lab}")
        elif name == "sheet-roundtrip":
            path = OUT / f"sheet-{os.getpid()}.json"
            call(["table", "--q", str(q), "--out", str(path)])
            digest = (hashlib.sha256(path.read_bytes()).hexdigest()
                      if path.exists() else "missing")
            if self.sheet_file_sha256 is None:
                self.sheet_file_sha256 = digest
            else:
                self.checks.check(digest == self.sheet_file_sha256,
                                  f"{name}: sheet file sha256 {digest} != "
                                  f"{self.sheet_file_sha256} of the first pass")
            p = call(["recover", "--sheet", str(path), "--rho", self.label])
            check_line(self.checks, p.out, q, self.label,
                       f"{name} {self.label}")
            path.unlink(missing_ok=True)
        else:
            raise ValueError(f"unknown workload {name!r}")
        return ps

    def probe_labels(self) -> tuple[list[str], list[str]]:
        """Rows the probe recovers serially, and with jobs=2."""
        fam = list(self.family_labels)
        if self.name == "sheet-roundtrip":
            fam[oracle.FAMILIES.index(self.label.split(":")[0])] = self.label
        if self.name in ("sheet-recover", "recover-jobs2"):
            rows = oracle.all_labels(self.q)
            return rows, rows if self.jobs == 2 else fam
        return fam, fam


# -- metrics ------------------------------------------------------------------

def pct(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def cold_start(runner: Runner, checks: Checks, q: int) -> float:
    p = runner.spawn([sys.executable, "-c", COLD_START, str(q)])
    checks.check(p.code == 0, f"cold start at q={q}: exit {p.code}")
    return p.wall


def end_to_end(w: Workload, seconds: float, setup_gap: float) -> dict:
    setups, passes, rounds = [], [], []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        setups.append(cold_start(w.runner, w.checks, w.q))
        while time.perf_counter() - t < setup_gap:
            setups.append(cold_start(w.runner, w.checks, w.q))
        passes.append(w.run_pass())
        rounds.append(time.perf_counter() - t)
        if time.perf_counter() - t0 + statistics.median(rounds) > seconds:
            break
    walls = [p.wall for p in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (max(p.rss_kib for p in passes) / 1024, "MiB"),
    }
    return metrics, {"wall_s": walls, "setup_s": setups}


def per_layer(w: Workload, run_dir: Path) -> dict:
    q, name = w.q, w.name
    untraced = w.run_pass()
    cli_dir = run_dir / "cli"
    cli_dir.mkdir(parents=True, exist_ok=True)
    traced = w.run_pass(spans_dir=cli_dir)
    for a, b in zip(untraced.outs, traced.outs):
        w.checks.check(a == b, f"{name}: traced stdout differs from untraced")

    rows, jobs2_rows = w.probe_labels()
    probe_out = run_dir / "probe.json"
    p = w.runner.spawn([sys.executable, str(HERE / "tracing.py"), "probe",
                        "--out", str(probe_out), "--q", str(q),
                        "--labels", *rows, "--jobs2-labels", *jobs2_rows])
    if not w.checks.check(p.code == 0 and probe_out.exists(),
                          f"{name}: probe exit {p.code}"):
        return {}, {}
    probe = json.loads(probe_out.read_text())
    for what, ok in probe["checks"].items():
        w.checks.check(ok, f"{name} probe: {what} failed")
    for lab in rows:
        w.checks.check(probe["reports"][lab] == oracle.expected(q, lab),
                       f"{name} probe: recover_E({lab}) differs from oracle")
    for lab in jobs2_rows:
        w.checks.check(probe["jobs2_reports"][lab] == oracle.expected(q, lab),
                       f"{name} probe: recover_E({lab}, jobs=2) differs")

    spans = probe["spans"]
    dur = lambda s: s[4] - s[3]  # noqa: E731
    named = lambda n: [s for s in spans if s[2] == n]  # noqa: E731
    total = lambda n: sum(dur(s) for s in named(n))  # noqa: E731

    imports = [dur(s) for f in sorted(cli_dir.glob("*.json"))
               for s in json.loads(f.read_text())["spans"]
               if s[2] == "cli.import"]
    imports += [dur(s) for s in named("cli.import")]

    rows_by_id = {s[0]: s for s in named("recovery.row")}
    decompose = [s for s in named("recovery.sparse_decompose")
                 if s[1] in rows_by_id]
    inner = {sid: 0.0 for sid in rows_by_id}
    sizes = ("zero", "one", "two")
    by_kind = {f"{t}.{z}": 0.0 for t in TORUS_KIND.values() for z in sizes}
    by_torus: dict[str, list[float]] = {t: [] for t in TORUS_KIND.values()}
    for s in decompose:
        inner[s[1]] += dur(s)
        torus = s[5]["torus"]
        size = oracle.expansion_size(q, rows_by_id[s[1]][5]["label"], torus)
        by_kind[f"{TORUS_KIND[torus]}.{sizes[size]}"] += dur(s)
        by_torus[TORUS_KIND[torus]].append(dur(s))
    # characters per torus: |T^F| = (q-1)^2 split, q^2-1 elliptic
    n_chars = {"split": (q - 1) ** 2, "elliptic": q * q - 1}
    cold = {s[5]["torus"]: dur(s) for s in named("recovery.cold_decompose")}
    warm = {s[5]["torus"]: dur(s) for s in named("recovery.warm_decompose")}
    row_ms = [dur(s) * 1e3 for s in rows_by_id.values()]

    m = {
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.cpu_s": (untraced.cpu, "s"),
        "tori.gate_s": (total("tori.gate"), "s"),
        "tori.regular_elements_s": (total("tori.regular_elements"), "s"),
        "tori.regular_points.split": (probe["points"][oracle.SPLIT], "count"),
        "tori.regular_points.elliptic":
            (probe["points"][oracle.ELLIPTIC], "count"),
        "tori.geom_class_id_s": (sum(dur(s) for s in named("tori.geom_class_id")
                                     if s[1] in rows_by_id), "s"),
        "sheets.build_s": (total("sheets.build"), "s"),
        "sheets.emit_s": (total("sheets.emit"), "s"),
        "sheets.emit_bytes": (probe["emit_bytes"], "bytes"),
        "sheets.parse_s": (total("sheets.parse"), "s"),
        "sheets.from_dict_s": (total("sheets.from_dict"), "s"),
        "sheets.validate_s": (total("sheets.validate"), "s"),
        "sheets.values": (probe["values"], "count"),
        "cyclotomic.to_triples_s": (total("cyclotomic.to_triples"), "s"),
        "cyclotomic.from_triples_s": (total("cyclotomic.from_triples"), "s"),
        "recovery.row_ms.p50": (pct(row_ms, 50), "ms"),
        "recovery.row_ms.p90": (pct(row_ms, 90), "ms"),
    }
    for key, secs in by_kind.items():
        m[f"recovery.decompose_s.{key}"] = (secs, "s")
    for tname, t in TORUS_KIND.items():
        pairs = n_chars[t] * (n_chars[t] - 1) // 2
        m[f"recovery.ns_per_pair.{t}"] = (
            sum(by_torus[t]) / (len(by_torus[t]) * pairs) * 1e9, "ns")
    m["recovery.assembly_s"] = (
        sum(dur(s) - inner[s[0]] for s in rows_by_id.values()), "s")
    for tname, t in TORUS_KIND.items():
        m[f"recovery.cold_decompose_s.{t}"] = (cold[tname] - warm[tname], "s")
    m["recovery.jobs2_row_ms.p50"] = (
        pct([dur(s) * 1e3 for s in named("recovery.jobs2_row")], 50), "ms")
    m["trace.overhead_frac"] = (traced.wall / untraced.wall - 1, "frac")
    return m, {"untraced_wall_s": [untraced.wall],
               "traced_wall_s": [traced.wall]}


# -- results ------------------------------------------------------------------

def environment() -> dict:
    commit = None  # a checkout without .git is identified by src_sha256
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    src = hashlib.sha256()
    for f in sorted((SRC / "glchar").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: int,
        q: int | None = None, setup_gap: float = SETUP_GAP_S) -> dict:
    """One benchmark run; returns the results record."""
    start = time.monotonic()
    checks = Checks()
    runner = Runner(start + DEADLINE_S)
    q = q or WORKLOAD_Q[workload]
    w = Workload(workload, q, seed, runner, checks)
    run_dir = OUT / f"{workload}-q{q}-seed{seed}-trace{trace}-{os.getpid()}"
    if trace:
        metrics, samples = per_layer(w, run_dir)
    else:
        metrics, samples = end_to_end(w, seconds, setup_gap)
    record = {
        "workload": workload, "q": q, "seed": seed, "seconds": seconds,
        "trace": trace, **environment(),
        "elapsed_s": time.monotonic() - start,
        "attempted": checks.attempted, "failed": len(checks.failures),
        "failed_frac": len(checks.failures) / max(1, checks.attempted),
        "failures": checks.failures[:20], "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def result_line(record: dict) -> dict:
    return {"correct": record["failed"] == 0 and record["attempted"] > 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": record["metrics"]}


def smoke() -> int:
    """Every workload at q=11, both trace modes: oracle, names, schema."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    q = 11
    checks = Checks()
    runner = Runner(time.monotonic() + DEADLINE_S)
    reports = [oracle.expected(q, lab) for lab in oracle.all_labels(q)]
    text = "".join(oracle.text_line(r) + "\n" for r in reports).encode()
    for argv, expect in ((["recover", "--q", str(q)], text),
                         (["recover", "--q", str(q), "--json"],
                          oracle.sheet_json(q, reports))):
        p = runner.glchar(argv)
        if p.code != 0 or p.out != expect:
            problems.append(f"oracle rendering differs from {argv}")
    check_line(checks, b"onedim:0 | 1+1: 0\n", q, "onedim:0", "mutant")
    mutant = [dict(r) for r in reports]
    mutant[5]["unipotent"] = not mutant[5]["unipotent"]
    check_sheet_json(checks, oracle.sheet_json(q, mutant), q, "mutant")
    if len(checks.failures) != 2:
        problems.append(f"checker missed a wrong row: {checks.failures}")
    for wl in sorted(WORKLOAD_Q):
        for trace in (0, 1):
            res = result_line(run(wl, 1, 0, trace, q=q, setup_gap=0.0))
            tag = f"{wl} --trace {trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: {res['failed']}/{res['attempted']} "
                                f"operations failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics {got} != {want[trace]}")
            for k, v in res["metrics"].items():
                if not (isinstance(v["value"], (int, float))
                        and math.isfinite(v["value"])):
                    problems.append(f"{tag}: {k} = {v['value']!r}")
            print(f"smoke {tag}: {res['attempted']} operations, "
                  f"{res['failed']} failed", flush=True)
    for msg in problems:
        print(f"smoke FAILED: {msg}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 0 if not problems else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOAD_Q) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (SRC / "glchar" / "__init__.py").is_file():
        print(f"error: no glchar sources at {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    names = list(WORKLOAD_Q) if args.workload == "all" else [args.workload]
    failed = 0
    for name in names:
        record = run(name, args.seed, args.seconds, args.trace)
        failed += record["failed"]
        for k, v in record["metrics"].items():
            print(f"# {name} {k} = {v['value']:.6g} {v['unit']}")
        print(f"# {name} failed_frac = {record['failed_frac']:.6g} "
              f"({record['failed']}/{record['attempted']})")
        for f in record["failures"]:
            print(f"# FAILED {f}", file=sys.stderr)
        print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
        print(json.dumps(result_line(record)))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
