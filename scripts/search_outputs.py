"""Fingerprint the outputs of benchmark workloads' requests, one sha256 per seed.

Builds the requests of a workload (``--workload``, default ``search``) for each
seed with the benchmark's own generator (``benchmark/inputs.py``, read as it
is), writes their graph files into a temporary directory, calls
``dtnpos.cli.main`` on every request in this process and hashes each request's
exit code, standard output and, for a request that writes an ``--out`` file
(every ``sweep`` request), that file, in request order.  Two checkouts whose
lines agree answer every request alike; ``--requests`` prints one short digest
per request to find the ones that differ.  With ``--verdicts`` an ``--out``
CSV enters the hash through its ``lambda``, ``class`` and ``near_pole``
columns only, so a change that moves eigenvalue digits can show that no tag,
near-pole flag or band moved.  A comma list such as
``--workload sweep,spectra,search`` runs each workload in turn and labels
every digest line with its workload.  The ``dtnpos`` it runs is the one in this
checkout's ``src``, whatever else is installed.

Example:
    python3 scripts/search_outputs.py --seeds 1-10
    python3 scripts/search_outputs.py --workload sweep --seeds 1-10 --verdicts
    python3 scripts/search_outputs.py --workload sweep,spectra,search --seeds 1-10
"""

import argparse
import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# this checkout's package, ahead of any installed dtnpos, and the benchmark's generator
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import inputs  # noqa: E402  (the benchmark's generator, found through the path above)

from dtnpos.cli import main as cli_main  # noqa: E402


def seed_range(text: str) -> list[int]:
    """'1-10' or '3' or '1,4,7-9' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def workload_list(text: str) -> list[str]:
    """'search' or 'sweep,spectra,search' as a list of benchmark workloads."""
    names = text.split(",")
    unknown = set(names) - {"sweep", "spectra", "search"}
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown workload {', '.join(sorted(unknown))}; "
                                         "choose from sweep, spectra, search")
    return names


def run_request(argv: list[str]) -> tuple[int | str, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaped error is an output too
            rc = f"uncaught {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


VERDICT_COLUMNS = ("lambda", "class", "near_pole")


def verdict_columns(text: str) -> bytes:
    """The lambda, class and near_pole columns of a sweep CSV, as CSV bytes."""
    rows = list(csv.reader(io.StringIO(text)))
    keep = [rows[0].index(name) for name in VERDICT_COLUMNS]
    return "".join(",".join(row[k] for k in keep) + "\n" for row in rows).encode()


def seed_digest(workload: str, seed: int, work: Path, per_request: bool,
                verdicts: bool) -> str:
    inp = inputs.build(workload, seed)
    directory = work / f"seed-{seed}"
    inputs.write(inp, directory)
    (directory / "out").mkdir()
    total = hashlib.sha256()
    for k, req in enumerate(inp.requests):
        argv = [str(directory / a) if a == req.graph else a for a in req.argv]
        out_file = directory / "out" / f"r{k}"
        if req.out_file:
            argv += ["--out", str(out_file)]
        rc, stdout = run_request(argv)
        record = f"{rc}\n{stdout}".encode()
        if req.out_file and out_file.exists():
            record += (verdict_columns(out_file.read_text()) if verdicts
                       else out_file.read_bytes())
        total.update(len(record).to_bytes(8, "little") + record)
        if per_request:
            digest = hashlib.sha256(record).hexdigest()[:12]
            print(f"  {k:3d} {req.kind:17s} {req.slot:22s} rc={rc} {digest}")
    return total.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", type=workload_list, default=["search"],
                    help="the benchmark workloads whose requests to run, comma-separated "
                         "(default search)")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                    help="seeds to run, e.g. 1-10 or 1,3,7 (default 1-10)")
    ap.add_argument("--requests", action="store_true",
                    help="also print one short digest per request")
    ap.add_argument("--verdicts", action="store_true",
                    help="hash only the lambda, class and near_pole columns of each --out CSV")
    args = ap.parse_args()
    for workload in args.workload:
        # one workload keeps the plain "seed N  digest" lines
        label = f"{workload:8s}" if len(args.workload) > 1 else ""
        with tempfile.TemporaryDirectory(prefix=f"{workload}-outputs-") as tmp:
            for seed in args.seeds:
                digest = seed_digest(workload, seed, Path(tmp), args.requests, args.verdicts)
                print(f"{label}seed {seed:3d}  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
