"""Fingerprint the outputs of one benchmark workload's requests, one sha256 per seed.

Builds the requests of a workload (``--workload``, default ``search``) for each
seed with the benchmark's own generator (``benchmark/inputs.py``, read as it
is), writes their graph files into a temporary directory, calls
``dtnpos.cli.main`` on every request in this process and hashes each request's
exit code, standard output and, for a request that writes an ``--out`` file
(every ``sweep`` request), that file, in request order.  Two checkouts whose
lines agree answer every request alike; ``--requests`` prints one short digest
per request to find the ones that differ.

Example:
    python3 scripts/search_outputs.py --seeds 1-10
    python3 scripts/search_outputs.py --workload sweep --seeds 1-10
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))

import inputs  # noqa: E402  (the benchmark's generator, found through the path above)

from dtnpos.cli import main as cli_main  # noqa: E402


def seed_range(text: str) -> list[int]:
    """'1-10' or '3' or '1,4,7-9' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


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


def seed_digest(workload: str, seed: int, work: Path, per_request: bool) -> str:
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
            record += out_file.read_bytes()
        total.update(len(record).to_bytes(8, "little") + record)
        if per_request:
            digest = hashlib.sha256(record).hexdigest()[:12]
            print(f"  {k:3d} {req.kind:17s} {req.slot:22s} rc={rc} {digest}")
    return total.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("sweep", "spectra", "search"), default="search",
                    help="the benchmark workload whose requests to run (default search)")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                    help="seeds to run, e.g. 1-10 or 1,3,7 (default 1-10)")
    ap.add_argument("--requests", action="store_true",
                    help="also print one short digest per request")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-outputs-") as tmp:
        for seed in args.seeds:
            digest = seed_digest(args.workload, seed, Path(tmp), args.requests)
            print(f"seed {seed:3d}  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
