"""Repeat benchmark runs over seeds and summarise each metric's spread.

    python3 perfbench/repeat.py [--workloads NAME ...] [--seeds 1 2 ...] \
        [--seconds 24] [--trace 0] [--out FILE.json]

Each run is a separate `perfbench/run.py` process, workload by workload.
For every metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, the figure
the bounds in BENCHMARK.json are set against.  --out writes the
environment, the summaries and every run's metrics and raw samples
(perfbench/results/baseline.json has this shape).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench

ENV_KEYS = ("commit", "src_sha256", "python", "nproc", "platform")


def repeat(workload: str, seeds: list[int], seconds: float,
           trace: int) -> tuple[dict, list[dict]]:
    runs = []
    for seed in seeds:
        p = subprocess.run(
            [sys.executable, str(bench.HERE / "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or len(lines) < 2:
            raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}"
                               f"\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        record["metrics"] = result["metrics"]
        runs.append(record)
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    summary = {}
    for name, first in runs[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        summary[name] = {"unit": first["unit"], "median": med, "q1": q1,
                         "q3": q3, "spread": (q3 - q1) / med if med else None}
        print(f"{workload} {name}: median {med:.4g} {first['unit']}, "
              f"Q1 {q1:.4g}, Q3 {q3:.4g}, spread {summary[name]['spread']}")
    return summary, runs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=["sheet-recover", "sheet-roundtrip"],
                    choices=list(bench.WORKLOAD_Q))
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    doc = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
           "workloads": {}}
    for w in args.workloads:
        summary, runs = repeat(w, args.seeds, args.seconds, args.trace)
        doc.update({k: runs[0][k] for k in ENV_KEYS})
        doc["workloads"][w] = {
            "summary": summary,
            "runs": [{"seed": r["seed"], "elapsed_s": r["elapsed_s"],
                      "attempted": r["attempted"], "failed": r["failed"],
                      "samples": r["samples"],
                      "metrics": {k: v["value"]
                                  for k, v in r["metrics"].items()}}
                     for r in runs]}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
