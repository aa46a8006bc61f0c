"""Hunt one parameter for each positivity regime of a graph.

Runs the three searches (strong, none, eventual) above a common threshold
and prints what each found, including the per-level residual trail.

Example:
    python3 scripts/regime_hunt.py --graph catalog:lasso-4 --above 5
"""

import argparse
import json
import sys

from dtnpos import (
    NoCycle,
    find_eventual_not_positive_above,
    find_not_eventually_positive_above,
    find_strongly_positive_above,
    load_graph,
)

SEARCHES = [
    ("strong", find_strongly_positive_above),
    ("none", find_not_eventually_positive_above),
    ("eventual", find_eventual_not_positive_above),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", default="catalog:lasso-4")
    ap.add_argument("--above", type=float, default=5.0)
    ap.add_argument("--budget", type=int, default=10 ** 7)
    args = ap.parse_args()

    g = load_graph(args.graph)

    for label, hunt in SEARCHES:
        try:
            result = hunt(g, args.above, budget=args.budget)
        except NoCycle as e:
            print(f"{label:9s} skipped: {e}")
            continue
        except ValueError as e:
            print(f"{label:9s} skipped: {e}")
            continue
        print(f"{label:9s} {json.dumps(result.to_record())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
