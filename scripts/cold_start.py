"""Time each subcommand of the command line as a fresh process, from interpreter start to exit.

Every row runs --repeats new Python processes that import dtnpos.cli and
call main() once on a catalog graph with cheap arguments, so the wall time
is almost all start-up.  Prints the median wall time, the child's own peak
resident set (ru_maxrss) and whether scipy was loaded when main() returned.
No command imports scipy, so every row should say "no".

Example:
    python3 scripts/cold_start.py --repeats 9
    python3 scripts/cold_start.py --repeats 1 --only sweep spectrum-kirchhoff
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# (row name, argv) of every command, all of which must start without scipy
COMMANDS = [
    ("validate", ["validate", "--graph", "catalog:path-3"]),
    ("reduce", ["reduce", "--graph", "catalog:lasso-4"]),
    ("catalog", ["catalog", "path-3"]),
    ("assemble", ["assemble", "--graph", "catalog:lasso-4", "--lambda", "2.5"]),
    ("classify", ["classify", "--graph", "catalog:lasso-4", "--lambda", "2.5"]),
    ("sweep", ["sweep", "--graph", "catalog:lasso-4", "--from", "0", "--to", "20",
               "--steps", "40", "--report"]),
    ("poles", ["poles", "--graph", "catalog:lasso-4", "--from", "0", "--to", "20"]),
    ("spectrum-full", ["spectrum", "--graph", "catalog:lasso-4", "--kind", "full",
                       "--lambda-max", "50"]),
    ("find-positive", ["find-positive", "--graph", "catalog:lasso-4", "--above", "10"]),
    ("find-nonpositive", ["find-nonpositive", "--graph", "catalog:lasso-4", "--above", "10"]),
    ("find-eventual", ["find-eventual", "--graph", "catalog:lasso-4", "--above", "10"]),
    ("kronecker", ["kronecker", "--graph", "catalog:lasso-4", "--gamma", "1,1,1,1",
                   "--count", "2"]),
    ("commensurable", ["commensurable", "--graph", "catalog:two-cluster", "--mu", "0.5",
                       "--p", "1,2"]),
    ("spectrum-kirchhoff", ["spectrum", "--graph", "catalog:lasso-4", "--kind", "kirchhoff",
                            "--count", "3"]),
]

# the child runs the command as `dtnpos` would, then reports on stderr's last line
CHILD = """\
import resource, sys
from dtnpos.cli import main
rc = main(sys.argv[1:])
sys.stdout.flush()
loaded = any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print("cold-start", rss, "yes" if loaded else "no", file=sys.stderr)
sys.exit(rc)
"""


def run_once(argv, env):
    """(wall seconds, child ru_maxrss in KiB, scipy loaded) of one fresh process."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    tag, rss, loaded = proc.stderr.splitlines()[-1].split()
    assert tag == "cold-start", proc.stderr
    return wall, int(rss), loaded


def main():
    names = [name for name, _ in COMMANDS]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=9, help="fresh processes per row (>= 1)")
    ap.add_argument("--only", nargs="+", choices=names, default=names, metavar="ROW",
                    help="rows to run, in the order given (default: all)")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv_of = dict(COMMANDS)
    print(f"# {args.repeats} fresh processes per row, python {sys.version.split()[0]}, "
          f"{os.cpu_count()} cores")
    print(f"{'command':<20} {'median_ms':>10} {'maxrss_mb':>10}  scipy")
    for name in args.only:
        runs = [run_once(argv_of[name], env) for _ in range(args.repeats)]
        wall = statistics.median(w for w, _, _ in runs)
        rss = max(r for _, r, _ in runs) / 1024
        loaded = {s for _, _, s in runs}
        print(f"{name:<20} {1e3 * wall:>10.1f} {rss:>10.1f}  {'/'.join(sorted(loaded))}")


if __name__ == "__main__":
    main()
