#!/usr/bin/env python3
"""Closed-loop benchmark of the dtnpos command line.

    python3 benchmark/run.py --workload {sweep,spectra,search} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  One client calls
``dtnpos.cli.main(argv)`` in this process and sends the next request only
after the previous one returned.  The inputs are graph files written by the
seeded generator in ``inputs.py``.  Every output is verified after the timed
region.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer metrics from spans installed around the calls
into each layer (``tracing.py``).  The last line of standard output is one
JSON object; a human-readable report, the provenance and every failed request
come before it, and the full result is also written to ``.bench_results/``.
"""

import os

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("sweep", "spectra", "search")
SETUP_PROBES = 4  # fresh set-up processes timed before the loop, and as many after it
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10  # samples the reported tail percentile must leave above it
RUN_LIMIT_S = 170  # a run that takes longer fails without a result


class Overrun(BaseException):
    """Raised by the run's alarm; a BaseException so the per-request handler lets it through."""


def _overrun(signum, frame):
    raise Overrun(f"run exceeded {RUN_LIMIT_S} s")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR",
                    help="only set up in DIR, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def call(main, argv):
    """One request; returns (exit code or error text, stdout, seconds)."""
    out = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught program error fails the request, not the run
            rc = f"uncaught {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), perf_counter() - t0


def request_argv(req, directory: Path, out_name: str) -> list[str]:
    argv = [str(directory / a) if a == req.graph else a for a in req.argv]
    if req.out_file:
        argv += ["--out", str(directory / "out" / out_name)]
    return argv


def set_up(workload: str, seed: int, directory: Path):
    """Import the program, write the inputs, run one request of each kind."""
    import dtnpos.cli
    import inputs

    inp = inputs.build(workload, seed)
    shutil.rmtree(directory, ignore_errors=True)
    inputs.write(inp, directory)
    (directory / "out").mkdir()
    warmed = set()
    for req in inp.requests:
        if req.kind not in warmed:
            warmed.add(req.kind)
            call(dtnpos.cli.main, request_argv(req, directory, "warm-up"))
    return inp


def time_setup(workload: str, seed: int, first: int = 0) -> list[float]:
    """Wall seconds from process start to 'ready' for fresh set-up processes."""
    samples = []
    for k in range(first, first + SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--setup-probe", str(WORK / ("probe-%d" % k))]
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline().strip()
                samples.append(perf_counter() - t0)
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
    return samples


def closed_loop(requests, directory: Path, seconds: float, modes) -> list[tuple[list, float]]:
    """Send requests one after another in whole passes over the list, until `seconds` passed.

    Whole passes keep the request mix of every run the same, so a run that
    stops inside a pass cannot shift the throughput by the share of heavy
    requests it happened to include.  `modes` holds (main, context) pairs;
    pass k calls the main of modes[k % len(modes)] inside its context.
    Returns the records and the summed pass wall time of each mode.
    """
    out = [([], 0.0) for _ in modes]
    t_start = perf_counter()
    i = 0
    while perf_counter() - t_start < seconds or i < len(modes) * len(requests):
        k = (i // len(requests)) % len(modes)
        main, context = modes[k]
        records, wall = out[k]
        t_pass = perf_counter()
        with context():
            for req in requests:
                rc, stdout, dt = call(main, request_argv(req, directory, "%d.out" % i))
                records.append({"i": i, "req": req, "rc": rc, "stdout": stdout, "seconds": dt})
                i += 1
        out[k] = (records, wall + perf_counter() - t_pass)
    return out


def tail(latencies: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile (nearest rank) with TAIL_BEYOND samples above it.

    Never below the median: a run too short for TAIL_BEYOND samples above the
    median reports p50 with fewer.  Returns the percentile, its value and the
    number of samples above it.
    """
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            break
    return p, xs[rank - 1], n - rank


def unit_of(name: str) -> str:
    """Unit of a printed metric that BENCHMARK.json does not list."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def verify_all(records, verifier, directory: Path):
    failures, stats = [], {}
    for rec in records:
        req = rec["req"]
        out_text = None
        if req.out_file and rec["rc"] == 0:
            out_text = (directory / "out" / ("%d.out" % rec["i"])).read_text(encoding="utf-8")
        outcome = verifier.check(req, rec["rc"], rec["stdout"], out_text)
        rec["output_bytes"] = len(rec["stdout"].encode()) + len((out_text or "").encode())
        for k, v in outcome.stats.items():
            stats[k] = stats.get(k, 0) + v
        if outcome.failed:
            failures.append({"request": rec["i"], "kind": req.kind, "slot": req.slot,
                             "known_defect": not outcome.errors,
                             "errors": outcome.errors, "known": outcome.known})
    return failures, stats


def provenance(workload: str, seed: int, n_requests: int, pass_len: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "dtnpos").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        # a release checkout is no repository: do not let git find an enclosing one
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": workload, "seed": seed, "requests": n_requests, "requests_per_pass": pass_len,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "git_commit": commit, "source_sha256": digest.hexdigest(),
        "loop": "closed, 1 client, in-process dtnpos.cli.main",
    }


def end_to_end(records, wall, setup, rss_mb, failures) -> tuple[dict, dict]:
    lat = [r["seconds"] for r in records]
    p, tail_s, beyond = tail(lat)
    values = {
        "setup_s": statistics.median(setup),
        "requests_per_s": len(records) / wall,
        "request_p50_ms": 1e3 * statistics.median(lat),
        "request_tail_ms": 1e3 * tail_s,
        "failed_ratio": len(failures) / len(records),
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes: " + ", ".join("%.3f" % s for s in setup),
        "request_tail_ms": f"p{p} of {len(lat)} requests ({beyond} beyond)",
        "failed_ratio": f"{len(failures)} of {len(records)} requests",
        "requests_per_s": f"{len(records)} requests in {wall:.3f} s",
    }
    return values, notes


def per_layer(tracer, passes, traced_wall, untraced_pass_wall, stats, inp, records) -> dict:
    import tracing

    summary = tracer.summary(tracing.ROOT)
    values = {}
    for name, s in summary.items():
        values[name + ".calls"] = s["calls"]
        values[name + ".self_s"] = s["self_s"]
    values.update(tracer.counts)
    for key in ("samples", "marginal_samples", "pole_samples"):
        values["sweep." + key] = stats.get(key, 0)
    values["spectra.poles_reported"] = stats.get("poles_reported", 0)
    values["search.candidates_charged"] = stats.get("candidates_charged", 0)
    values["cli.output_bytes"] = sum(r["output_bytes"] for r in records)
    for layer in tracing.LAYERS:
        values["layer.%s.self_s" % layer] = sum(
            s["self_s"] for s in summary.values() if s["layer"] == layer)
    roots = summary.get(tracing.ROOT, {"total_s": 0.0})["total_s"]
    values["trace.wall_s"] = traced_wall
    values["trace.unattributed_s"] = traced_wall - roots
    # everything above is a total over the traced passes; report it per pass
    values = {k: v / passes for k, v in values.items()}
    levels = values.get("search.levels_solved", 0)
    charged = values["search.candidates_charged"]
    values["search.hit_ratio"] = levels / charged if charged else 0.0
    values["search.independence_false_alarms"] = inp.independence_false_alarms
    values["trace.overhead_ratio"] = values["trace.wall_s"] / untraced_pass_wall
    values["trace.passes"] = passes
    # the verifier checks each distinct output once: its oracle work is a run total
    oracle = tracer.summary("verify").get(tracing.ORACLE_WRAP[2], {"calls": 0, "self_s": 0.0})
    values[tracing.ORACLE_WRAP[2] + ".calls"] = oracle["calls"]
    values[tracing.ORACLE_WRAP[2] + ".self_s"] = oracle["self_s"]
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "dtnpos" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a dtnpos source checkout; {SRC / 'dtnpos'} or "
              f"{spec_path} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.setup_probe:
        set_up(args.workload, args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(RUN_LIMIT_S)
    shutil.rmtree(WORK, ignore_errors=True)
    # set-up is timed in fresh processes before and after the loop, so its
    # median spans the run rather than one moment of the machine's speed
    setup = [] if args.trace else time_setup(args.workload, args.seed)
    directory = WORK / "run"
    inp = set_up(args.workload, args.seed, directory)

    import dtnpos.cli
    import tracing
    import verify

    verifier = verify.Verifier(directory, args.seed)
    if args.trace:
        tracer = tracing.Tracer()
        # traced and untraced passes alternate, which cancels drift of the
        # machine's speed out of the overhead ratio
        traced = lambda argv: tracer.call(tracing.ROOT, "cli", dtnpos.cli.main, argv)
        (records, wall), (plain, plain_wall) = closed_loop(
            inp.requests, directory, seconds,
            [(traced, tracer.installed), (dtnpos.cli.main, contextlib.nullcontext)])
        passes = len(records) // len(inp.requests)
        with tracer.installed([tracing.ORACLE_WRAP]):
            failures, stats = tracer.call("verify", "verify", verify_all, records, verifier, directory)
            # the untraced passes are checked too; the per-pass stats come from the traced ones
            failures += tracer.call("verify", "verify", verify_all, plain, verifier, directory)[0]
        untraced = plain_wall / (len(plain) // len(inp.requests))
        values = per_layer(tracer, passes, wall, untraced, stats, inp, records)
        notes = {}
        wanted = spec["per_layer"]
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        plain = []
        [(records, wall)] = closed_loop(inp.requests, directory, seconds,
                                        [(dtnpos.cli.main, contextlib.nullcontext)])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += time_setup(args.workload, args.seed, first=SETUP_PROBES)
        failures, _ = verify_all(records, verifier, directory)
        values, notes = end_to_end(records, wall, setup, rss_mb, failures)
        wanted = spec["end_to_end"]

    attempted = len(records) + len(plain)
    prov = provenance(args.workload, args.seed, attempted, len(inp.requests))
    prov["independence_probe"] = {"length_sets": inp.length_sets,
                                  "false_alarms": inp.independence_false_alarms}
    prov.update(oracle_checked=verifier.oracle_checked, oracle_skipped_gray_zone=verifier.oracle_skipped,
                oracle_strong_below_floor=verifier.oracle_resolution_limited)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(records)} requests in {wall:.3f} s" + (f", {len(plain)} untraced" if plain else ""))
    for name in sorted(values):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:42s} {values[name]:.6g} {units.get(name) or unit_of(name)}{note}")
    print("provenance " + json.dumps(prov))
    for f in failures:
        known = [f"{verify.KNOWN_DEFECT}: " + "; ".join(f["known"])] if f["known"] else []
        print(f"failed request {f['request']} {f['kind']} {f['slot']}: "
              + "; ".join(f["errors"] + known))

    correct = not any(f["errors"] for f in failures)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    RESULTS.mkdir(exist_ok=True)
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        **result, "all_metrics": values, "notes": notes, "provenance": prov,
        "failures": failures, "latencies_s": [r["seconds"] for r in records],
    }, indent=1), encoding="utf-8")
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Overrun as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
