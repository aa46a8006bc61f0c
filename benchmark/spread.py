#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's spread.

    python3 benchmark/spread.py [--workloads sweep,spectra,search] [--seeds 1-10]

Runs one workload after another (never two at once), untraced, for
BENCHMARK.json's run_seconds.  For every metric it prints the median, the
quartiles and the spread (Q3 - Q1) / median next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=None, help="comma list (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: correct={last['correct']} attempted={last['attempted']} "
                  f"failed={last['failed']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()), flush=True)
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bounds[name])
            print(f"  {workload:8s} {name:16s} median {med:10.5g}  Q1 {q1:10.5g}  Q3 {q3:10.5g}  "
                  f"spread {spread:.4f}  bound {bounds[name]}")
    print(f"largest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
