"""Track the scaled reduction along a Kronecker sequence toward its limit.

Prints one row per level: the admissible parameter, the worst window defect,
and the distance of D / (level * sqrt(lambda)) from the predicted signed
Laplacian. Useful for eyeballing the 1/level decay.

Example:
    python3 scripts/limit_convergence.py --gamma 1,1,1,1 --count 12
"""

import argparse
import sys

from dtnpos import TargetSpec, kronecker_sequence, load_graph, verify_limit
from dtnpos.search import parse_gamma


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", default="catalog:lasso-4")
    ap.add_argument("--gamma", default=None,
                    help="comma list of per-edge targets (default: all ones)")
    ap.add_argument("--count", type=int, default=12)
    ap.add_argument("--budget", type=int, default=10 ** 7)
    args = ap.parse_args()

    g = load_graph(args.graph)

    if args.gamma is None:
        spec = TargetSpec.uniform(1.0, len(g.edges))
    else:
        spec = TargetSpec(tuple(parse_gamma(t) for t in args.gamma.split(",")))

    seq = kronecker_sequence(g, spec, count=args.count, budget=args.budget)
    ver = verify_limit(g, spec, seq)

    print(f"# {args.graph}, gammas {spec.gammas}, budget used {seq.budget_used}")
    print(f"{'level':>5s} {'lambda':>18s} {'window defect':>14s} {'limit error':>12s}")
    for level, lam, res, err in zip(seq.levels, seq.lambdas, seq.residuals, ver.errors):
        print(f"{level:5d} {lam:18.6f} {res:14.3e} {err:12.5f}")
    trend = "decreasing" if ver.decreased else "NOT decreasing"
    print(f"# limit error {ver.initial_error:.4f} -> {ver.final_error:.4f} ({trend})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
