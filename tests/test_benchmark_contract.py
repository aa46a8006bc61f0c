"""The names the benchmark under benchmark/ needs from the program.

The tracer patches program functions by module and attribute name, the
verifier imports program internals, `inputs.build` calls the program while it
builds a workload, and every request is an argv for the command line.  A
rename or deletion in src/ breaks those at run time only, so each is
exercised here.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import dtnpos.search
from dtnpos.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    tracing = load("tracing", monkeypatch)
    wraps = list(tracing.WRAPS) + [tracing.ORACLE_WRAP]
    missing = [(module, attr) for module, attr, *_ in wraps
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def unused_imports(path):
    """The names a module imports at module level and never reads."""
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_unused_imports_are_traced(monkeypatch):
    # a module may keep an import it never uses only because the tracer wraps
    # the name there; once the tracer drops the wrap, the import must go too
    tracing = load("tracing", monkeypatch)
    wrapped = {(module, attr) for module, attr, *_ in tracing.WRAPS}
    unused = {(f"dtnpos.{path.stem}", name)
              for path in sorted((ROOT / "src" / "dtnpos").glob("*.py"))
              if path.name != "__init__.py" for name in unused_imports(path)}
    assert unused - wrapped == set()


def test_verifier_imports(monkeypatch):
    verify = load("verify", monkeypatch)
    assert verify.assemble_outer is not None


@pytest.mark.parametrize("workload", ["sweep", "spectra", "search"])
def test_inputs_build(monkeypatch, workload):
    inputs = load("inputs", monkeypatch)
    built = inputs.build(workload, 1)
    assert built.requests


@pytest.mark.parametrize("workload", ["sweep", "spectra", "search"])
def test_request_argv_parses(monkeypatch, workload):
    # argparse exits on an unknown or deleted flag, such as the --samples
    # that every poles request passes
    inputs = load("inputs", monkeypatch)
    parser = build_parser()
    for req in inputs.build(workload, 1).requests:
        try:
            args = parser.parse_args(req.argv)
        except SystemExit:
            pytest.fail(f"the command line rejects the {req.slot} request {req.argv}")
        assert args.command == req.kind


def test_traced_lattice_request(monkeypatch):
    # the tracer drives enumerate_near as a generator and counts what it
    # yields: one slab per value of the first box offset
    tracing = load("tracing", monkeypatch)
    argv = ["kronecker", "--graph", "catalog:braid-5", "--gamma=1,1,1,1,1", "--count", "4"]

    def run(call):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = call(argv)
        return rc, out.getvalue()

    plain = run(main)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run(lambda a: tracer.call(tracing.ROOT, "cli", main, a))
    assert traced == plain and plain[0] == 0
    calls = tracer.summary(tracing.ROOT)["lattice.enumerate_near"]["calls"]
    assert calls > 0
    side = 2 * dtnpos.search._LATTICE_RADIUS + 1
    assert tracer.counts["lattice.enumerate_near.vectors"] == side * calls
