"""Time pole_scan on windows far from zero, where each bracket is long in absolute terms.

For each catalog graph and each start lambda in 1e2, 1e4, 1e6 and 1e8, the
window runs from the start to halfway between the K-th and (K+1)-th edge
pole above it, so it holds K edge poles (--edge-poles) and K brackets of
inner poles, whatever the spacing of the poles there.  Prints the poles
found, the stacked evaluations of the inner block C in one scan (calls of
the evaluator that spectra._inner_block builds; none on a graph without
inner vertices) and the median wall time over --repeats scans.

Example:
    python3 scripts/pole_scan_scaling.py --graphs lasso-4 two-cluster --edge-poles 8
"""

import argparse
import math
import statistics
import sys
import time

import dtnpos.spectra
from dtnpos import catalog, pole_scan
from dtnpos.catalog import catalog_names

STARTS = (1e2, 1e4, 1e6, 1e8)


def window(lengths, start, count):
    """(start, hi): hi halfway between the count-th and next distinct edge pole above start."""
    poles = set()
    for L in lengths:
        first = math.floor(math.sqrt(start) * L / math.pi)
        poles.update((math.pi * k / L) ** 2 for k in range(first, first + count + 2))
    above = sorted(p for p in poles if p > start)
    return start, 0.5 * (above[count - 1] + above[count])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--graphs", nargs="+", default=catalog_names(), choices=catalog_names())
    ap.add_argument("--edge-poles", type=int, default=8, help="edge poles per window (>= 1)")
    ap.add_argument("--repeats", type=int, default=20, help="timed scans per window (>= 1)")
    args = ap.parse_args()
    if args.edge_poles < 1 or args.repeats < 1:
        print("--edge-poles and --repeats must be at least 1", file=sys.stderr)
        return 1

    calls = []
    real = dtnpos.spectra._inner_block

    def counting(g):
        block = real(g)
        return lambda lams: calls.append(len(lams)) or block(lams)

    dtnpos.spectra._inner_block = counting
    print("graph        start   width         poles  calls  median_ms")
    for name in args.graphs:
        g = catalog(name)
        for start in STARTS:
            lo, hi = window(g.lengths, start, args.edge_poles)
            calls.clear()
            poles = pole_scan(g, lo, hi)
            n_calls = len(calls)
            if g.inner and not n_calls:
                raise RuntimeError("the scan evaluated no inner block: the count wraps a stale name")
            times = []
            for _ in range(args.repeats):
                t = time.perf_counter()
                pole_scan(g, lo, hi)
                times.append(time.perf_counter() - t)
            print(f"{name:11s}  {start:5.0e}  {hi - lo:12.6g}  {len(poles):5d}  {n_calls:5d}"
                  f"  {1e3 * statistics.median(times):9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
