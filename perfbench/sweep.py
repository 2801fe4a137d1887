"""One-shot scaling sweep over q, run by hand (not part of the timed runs).

    python3 perfbench/sweep.py [--q 11 13 17 19] [--sheet-only 23] \
        [--out perfbench/results/sweep.json]

For each q it times, in fresh processes: build_gl2_sheet, validate_sheet,
sheet_to_json_text plus the file write (with the file size), load_sheet
from that file, and `glchar recover --q Q` over every row.  The recovery
stdout is compared byte for byte with the oracle's rendering of the full
sheet, which is what makes the oracle's rows stand in for a full-sheet
recovery in the rho-query workload.  q values under --sheet-only get the
sheet columns only.  Single runs: expect the noise of a shared machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import oracle
import run as bench

SHEET_PARTS = """\
import json, sys, time
from glchar import build_gl2_sheet, load_sheet, validate_sheet
from glchar.sheets import sheet_to_json_text
q, path, part = int(sys.argv[1]), sys.argv[2], sys.argv[3]
out = {}
if part == "write":
    t = time.perf_counter(); sheet = build_gl2_sheet(q)
    out["build_s"] = time.perf_counter() - t
    t = time.perf_counter(); ok = validate_sheet(sheet).ok
    out["validate_s"] = time.perf_counter() - t
    t = time.perf_counter(); text = sheet_to_json_text(sheet)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    out["dump_s"] = time.perf_counter() - t
    out["dump_mib"] = len(text.encode()) / 2**20
else:
    t = time.perf_counter(); ok = len(load_sheet(path).rows) == q * q - 1
    out["load_s"] = time.perf_counter() - t
print(json.dumps(out))
sys.exit(0 if ok else 1)
"""


def sweep_q(runner: bench.Runner, q: int, recover: bool) -> dict:
    path = bench.OUT / f"sweep-sheet-{q}.json"
    row = {"q": q, "rows": q * q - 1}
    try:
        for part in ("write", "load"):
            p = runner.spawn([sys.executable, "-c", SHEET_PARTS, str(q),
                              str(path), part])
            if p.code != 0:
                raise RuntimeError(f"sheet {part} at q={q} exited {p.code}")
            row.update(json.loads(p.out))
            row[f"{part}_peak_rss_mib"] = p.rss_kib / 1024
    finally:
        path.unlink(missing_ok=True)
    if recover:
        p = runner.glchar(["recover", "--q", str(q)])
        want = "".join(oracle.text_line(oracle.expected(q, lab)) + "\n"
                       for lab in oracle.all_labels(q)).encode()
        row["recover_all_s"] = p.wall
        row["recover_peak_rss_mib"] = p.rss_kib / 1024
        row["recover_matches_oracle"] = p.code == 0 and p.out == want
    print(json.dumps(row), flush=True)
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--q", type=int, nargs="*", default=[11, 13, 17, 19])
    ap.add_argument("--sheet-only", type=int, nargs="*", default=[23])
    ap.add_argument("--out", type=Path,
                    default=bench.HERE / "results" / "sweep.json")
    args = ap.parse_args()
    runner = bench.Runner(time.monotonic() + 3600)
    rows = [sweep_q(runner, q, True) for q in args.q]
    rows += [sweep_q(runner, q, False) for q in args.sheet_only]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({**bench.environment(), "rows": rows},
                                   indent=1) + "\n")
    bad = [r["q"] for r in rows if r.get("recover_matches_oracle") is False]
    if bad:
        print(f"recovery output differs from the oracle at q={bad}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
