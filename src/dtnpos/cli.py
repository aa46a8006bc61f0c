"""Command line interface.

Exit codes: 0 success (and --help), 1 invalid input, a command-line usage
error included, or internal failure, 2 the requested search needs a cycle in
the reduced graph, 3 search budget exhausted, 4 a classification landed in
the numerically marginal band.

The argument parser is built once per process and reused by every main()
call; each call still parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys

import numpy as np

from .assembly import assemble_full, assemble_outer
from .catalog import catalog_names, catalog_raw
from .errors import BudgetExhausted, DtnError, NoCycle
from .graphs import graph_to_json, is_tree, load_graph, reduced_graph
from .positivity import TAG_MARGINAL, classify
from .search import (
    TargetSpec,
    commensurable_family,
    find_eventual_not_positive_above,
    find_not_eventually_positive_above,
    find_strongly_positive_above,
    kronecker_sequence,
    parse_gamma,
    verify_limit,
)
from .spectra import dirichlet_spectrum_full, kirchhoff_spectrum, pole_scan
from .sweep import report, sweep, write_csv, write_json

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CYCLE = 2
EXIT_BUDGET = 3
EXIT_MARGINAL = 4


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _matrix_payload(D) -> dict:
    return {
        "lambda": D.lam,
        "dim": D.dim,
        "provenance": D.provenance,
        "entries": [[float(x) for x in row] for row in D.entries],
    }


def cmd_validate(args) -> int:
    g = load_graph(args.graph)
    payload = graph_to_json(g)
    payload["inner"] = list(g.inner)
    payload["ok"] = True
    _emit(args, _json_dump(payload))
    return EXIT_OK


def cmd_reduce(args) -> int:
    g = load_graph(args.graph)
    red = reduced_graph(g)
    payload = {
        "vertices": list(red.vertices),
        "edges": [{"u": e.u, "v": e.v, "kind": e.kind} for e in red.edges],
        "is_tree": is_tree(red),
    }
    _emit(args, _json_dump(payload))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    g = load_graph(args.graph)
    if args.kind == "full":
        if args.lambda_max is None:
            raise ValueError("--lambda-max is required for the full Dirichlet spectrum")
        spec = dirichlet_spectrum_full(g, args.lambda_max)
    else:
        spec = kirchhoff_spectrum(g, count=args.count, resolution=args.resolution)
    _emit(args, _json_dump({"kind": spec.kind, "resolution": spec.resolution,
                            "values": list(spec.values)}))
    return EXIT_OK


def cmd_assemble(args) -> int:
    g = load_graph(args.graph)
    D = assemble_full(g, args.lam) if args.full else assemble_outer(g, args.lam)
    if args.format == "csv":
        lines = [",".join("%.17g" % x for x in row) for row in D.entries]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _json_dump(_matrix_payload(D)))
    return EXIT_OK


def cmd_classify(args) -> int:
    g = load_graph(args.graph)
    D = assemble_outer(g, args.lam)
    verdict = classify(D)
    payload = {"lambda": args.lam, "verdict": verdict.tag,
               "eigenvalues": [float(x) for x in np.linalg.eigvalsh(D.entries)],
               "evidence": {k: (v if not isinstance(v, float) or math.isfinite(v) else repr(v))
                            for k, v in verdict.evidence.items()}}
    _emit(args, _json_dump(payload))
    return EXIT_MARGINAL if verdict.tag == TAG_MARGINAL else EXIT_OK


def cmd_poles(args) -> int:
    g = load_graph(args.graph)
    poles = pole_scan(g, args.lo, args.hi)
    _emit(args, _json_dump({"poles": poles}))
    return EXIT_OK


def cmd_sweep(args) -> int:
    g = load_graph(args.graph)
    table = sweep(g, args.lo, args.hi, args.steps)
    # with --report the bands go to stdout, so the bulk data is written only to
    # --out, if given
    if args.out or not args.report:
        buf = io.StringIO()
        if args.format == "json":
            write_json(table, buf)
        else:
            write_csv(table, buf)
        _emit(args, buf.getvalue())
    if args.report:
        bands = [dict(vars(b)) for b in report(table)]
        sys.stdout.write(_json_dump({"bands": bands}))
    return EXIT_OK


def cmd_find(args) -> int:
    # the search is looked up here, at call time, not bound into the cached parser
    find = {"find-positive": find_strongly_positive_above,
            "find-nonpositive": find_not_eventually_positive_above,
            "find-eventual": find_eventual_not_positive_above}[args.command]
    result = find(load_graph(args.graph), args.above, args.budget,
                  assert_independent=args.assert_independent)
    _emit(args, _json_dump(result.to_record()))
    return EXIT_OK


def cmd_kronecker(args) -> int:
    g = load_graph(args.graph)
    gammas = tuple(parse_gamma(t) for t in args.gamma.split(","))
    spec = TargetSpec(gammas)
    seq = kronecker_sequence(g, spec, count=args.count, budget=args.budget,
                             assert_independent=args.assert_independent)
    ver = verify_limit(g, spec, seq)
    _emit(args, _json_dump({
        "levels": list(seq.levels),
        "lambdas": list(seq.lambdas),
        "residuals": list(seq.residuals),
        "budget_used": seq.budget_used,
        "limit_errors": list(ver.errors),
        "limit_converging": ver.decreased,
    }))
    return EXIT_OK


def cmd_commensurable(args) -> int:
    g = load_graph(args.graph)
    p_list = [int(p) for p in args.p.split(",")]
    fam = commensurable_family(g, args.mu, p_list)
    _emit(args, _json_dump(fam.to_record()))
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.name is None:
        _emit(args, _json_dump({"graphs": catalog_names()}))
        return EXIT_OK
    _emit(args, _json_dump(catalog_raw(args.name)))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dtnpos",
        description="Dirichlet-to-Neumann matrices on metric graphs and "
                    "positivity of the generated semigroups")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, graph=True, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn, floats=())
        if graph:
            p.add_argument("--graph", required=True, help="graph JSON file, or catalog:NAME")
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    def real(p, flag, **kw):
        # a float option; float() accepts inf and nan, so main() rejects them
        action = p.add_argument(flag, type=float, **kw)
        p.set_defaults(floats=p.get_default("floats") + ((action.dest, flag),))

    add("validate", cmd_validate, help="check a graph file and print its canonical form")
    add("reduce", cmd_reduce, help="print the reduced graph on the outer vertices")

    p = add("spectrum", cmd_spectrum, help="reference spectra of the graph")
    p.add_argument("--kind", choices=["full", "kirchhoff"], default="kirchhoff")
    real(p, "--lambda-max", dest="lambda_max", default=None)
    p.add_argument("--count", type=int, default=5)
    real(p, "--resolution", default=32)

    p = add("assemble", cmd_assemble, help="assemble the matrix at one parameter")
    real(p, "--lambda", dest="lam", required=True)
    p.add_argument("--full", action="store_true", help="keep inner vertices")
    p.add_argument("--format", choices=["csv", "json"], default="json")

    p = add("classify", cmd_classify, help="positivity class at one parameter")
    real(p, "--lambda", dest="lam", required=True)

    p = add("poles", cmd_poles, help="assembly singularities in a window")
    real(p, "--from", dest="lo", required=True)
    real(p, "--to", dest="hi", required=True)
    p.add_argument("--samples", type=int, default=None,
                   help="ignored: the scan counts poles by inertia and samples no grid")

    p = add("sweep", cmd_sweep, help="classify along a parameter grid")
    real(p, "--from", dest="lo", required=True)
    real(p, "--to", dest="hi", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--report", action="store_true", help="print merged class bands")

    for name, blurb in [
        ("find-positive", "parameter with a strongly positive semigroup"),
        ("find-nonpositive", "parameter without eventual positivity"),
        ("find-eventual", "parameter that is eventually positive only"),
    ]:
        p = add(name, cmd_find, help=blurb)
        real(p, "--above", required=True)
        p.add_argument("--budget", type=int, default=10 ** 7)
        p.add_argument("--assert-independent", action="store_true",
                       help="skip the rational-dependence probe")

    p = add("kronecker", cmd_kronecker, help="admissible parameter sequence for explicit targets")
    p.add_argument("--gamma", required=True,
                   help="comma list of per-edge targets, e.g. 1,1,-1,inf")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--budget", type=int, default=10 ** 7)
    p.add_argument("--assert-independent", action="store_true")

    p = add("commensurable", cmd_commensurable, help="shifted family for commensurable lengths")
    real(p, "--mu", required=True)
    p.add_argument("--p", required=True, help="comma list of shift indices")

    p = add("catalog", cmd_catalog, graph=False, help="print a named example graph")
    p.add_argument("name", nargs="?", default=None)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the code of EXIT_NO_CYCLE
        if exc.code == 2:
            return EXIT_ERROR
        raise
    try:
        for dest, flag in args.floats:
            value = getattr(args, dest)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{flag} must be a finite number, got {value!r}")
        return args.fn(args)
    except NoCycle as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CYCLE
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DtnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, KeyError) as exc:
        # str(KeyError) wraps the message in quotes; unwrap for display
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
