"""Time the lattice route of the Kronecker search as the edge count grows.

For each n, runs kronecker_sequence on the lengths sqrt(p) of the first n
primes with every gamma = 1 for four levels, and prints the wall time, the
candidates charged (budget_used) and the last level's lambda.  Levels past
the scan cap take the lattice route, whose enumeration box holds 5^n
vectors, so n is capped at 9: at n = 10 every CVP attempt rounds, sorts and
keeps up to 5^10 multipliers (78 MB per array), and the multipliers seen by
earlier attempts grow by as many each time.

Example:
    python3 scripts/lattice_scaling.py --edges 6 7 8 9
"""

import argparse
import math
import sys
import time

from dtnpos import TargetSpec, kronecker_sequence

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
LEVELS = 4
BUDGET = 10 ** 8


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--edges", type=int, nargs="+", default=[6, 7, 8, 9],
                    help="edge counts to run, each from 1 to %d" % len(PRIMES))
    args = ap.parse_args()
    bad = [n for n in args.edges if not 1 <= n <= len(PRIMES)]
    if bad:
        print(f"edge counts must lie in 1..{len(PRIMES)}, got {bad}: past {len(PRIMES)} "
              "the enumeration box no longer fits in a few GB of memory", file=sys.stderr)
        return 1

    print("edges  seconds  budget_used  lambda")
    for n in args.edges:
        lengths = [math.sqrt(p) for p in PRIMES[:n]]
        t = time.perf_counter()
        seq = kronecker_sequence(lengths, TargetSpec.uniform(1.0, n), count=LEVELS,
                                 budget=BUDGET, assert_independent=True)
        dt = time.perf_counter() - t
        print(f"{n:5d}  {dt:7.3f}  {seq.budget_used:11d}  {seq.lambdas[-1]!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
