"""Sweep a graph over a parameter window and print the classification bands.

Example:
    python3 scripts/interval_bands.py --graph catalog:interval --to 120
"""

import argparse
import sys

from dtnpos import load_graph, pole_scan, report, sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", default="catalog:interval")
    ap.add_argument("--from", dest="lo", type=float, default=-5.0)
    ap.add_argument("--to", dest="hi", type=float, default=60.0)
    ap.add_argument("--steps", type=int, default=10_000)
    args = ap.parse_args()

    g = load_graph(args.graph)
    table = sweep(g, args.lo, args.hi, args.steps)
    print(f"# {args.graph}: {args.steps} samples on ({args.lo}, {args.hi})")
    for band in report(table):
        width = band.hi - band.lo
        print(f"[{band.lo:12.6f}, {band.hi:12.6f}]  {band.tag:8s}  "
              f"width {width:10.6f}  ({band.count} samples)")

    poles = pole_scan(g, args.lo, args.hi)
    if poles:
        print("# singular parameters:", ", ".join("%.12g" % p for p in poles))
    return 0


if __name__ == "__main__":
    sys.exit(main())
