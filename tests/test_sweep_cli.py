"""Sweep output formats, band reports, and command-line behavior."""

import contextlib
import csv
import importlib
import io
import json
import math
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dtnpos
from dtnpos import (
    AtPole,
    Band,
    InnerBlockSingular,
    SweepTable,
    assemble_outer,
    catalog,
    classify,
    report,
    sweep,
    write_csv,
    write_json,
)
from dtnpos.catalog import catalog_names
from dtnpos.cli import build_parser, main
from dtnpos.positivity import SIGN_TOL

from conftest import random_surd_graph

# the package re-exports the function sweep under the submodule's name
sweep_module = importlib.import_module("dtnpos.sweep")
cli_module = importlib.import_module("dtnpos.cli")

# lasso-4's most negative generator entry sits between one and ten zero bands
# below zero here (-2.83e-10 against a band of 8.63e-11): a marginal verdict
MARGINAL_LAMBDA = "7.895683520953057"


def test_sweep_record_grid(interval):
    table = sweep(interval, -1.0, 12.0, 40)
    assert table.lam.shape == (40,) and table.eigenvalues.shape == (40, 2)
    assert table.tag.shape == (40,) and table.tag.dtype == object
    assert table.near_pole.shape == (40,) and table.near_pole.dtype == bool
    assert table.lam[0] == -1.0 and table.lam[-1] == 12.0
    tags = set(table.tag)
    assert all(type(t) is str for t in tags)
    assert "strong" in tags and "none" in tags


def test_sweep_rejects_empty_window(interval):
    for lo, hi in ((1.0, 0.0), (1.0, 1.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            sweep(interval, lo, hi, 5)


def test_sweep_flags_pole_rows(interval):
    # place a sample exactly on pi^2: lam grid hits it when the endpoints
    # and step are chosen to match
    pi2 = math.pi**2
    table = sweep(interval, pi2 - 1.0, pi2 + 1.0, 3)
    assert table.lam[1] == pytest.approx(pi2, abs=1e-12)
    assert table.tag[1] == "pole"
    assert table.near_pole[1]
    assert np.isnan(table.eigenvalues[1]).all()


def csv_rows(table):
    buf = io.StringIO()
    write_csv(table, buf)
    return list(csv.reader(io.StringIO(buf.getvalue())))


def assert_printed_digits(g, table):
    # lambda round-trips bit for bit; each printed eigenvalue is within the
    # classifier's zero band, SIGN_TOL * max|eig|, of a fresh eigvalsh
    m = g.n_outer
    for row, lam, tag in zip(csv_rows(table)[1:], table.lam.tolist(), table.tag):
        assert float(row[0]) == lam
        printed = np.array([float(x) for x in row[1:1 + m]])
        if tag == "pole":
            assert np.isnan(printed).all()
            continue
        ref = np.linalg.eigvalsh(assemble_outer(g, lam).entries)
        assert np.abs(printed - ref).max() <= SIGN_TOL * np.abs(ref).max(), f"lam={lam!r}"


def test_write_csv_roundtrip(interval):
    table = sweep(interval, -2.0, 5.0, 25)
    rows = csv_rows(table)
    assert rows[0] == ["lambda", "eig_1", "eig_2", "class", "near_pole"]
    assert len(rows) == 26
    for row, lam, tag in zip(rows[1:], table.lam, table.tag):
        # %.17g output must round-trip bit for bit
        assert float(row[0]) == lam
        assert row[3] == tag
        assert row[4] in ("true", "false")
    assert_printed_digits(interval, table)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from([None, *catalog_names()]),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       lo=st.floats(-20.0, 200.0), width=st.floats(0.01, 100.0),
       steps=st.integers(min_value=2, max_value=40))
def test_write_csv_digits_within_zero_band(name, seed, lo, width, steps):
    g = random_surd_graph(np.random.default_rng(seed)) if name is None else catalog(name)
    assert_printed_digits(g, sweep(g, lo, lo + width, steps))


# the bytes write_csv printed through a per-field formatter: lambda at 17
# significant digits, eigenvalues at 12, "nan" for the eigenvalues of a pole
# row, "-0", "inf"
GOLDEN_CSV = (
    "lambda,eig_1,eig_2,class,near_pole\n"
    "-5,0.1,-0.333333333333,strong,false\n"
    "9.869604401089358,nan,nan,pole,true\n"
    "9.8696044060000006,-0,2.5e-300,marginal,true\n"
    "1e+21,-1.23456789012e+17,inf,none,false\n"
)


def _table(lams, tags, near=None, eigenvalues=None):
    n = len(lams)
    return SweepTable(
        lam=np.array(lams, dtype=float),
        eigenvalues=np.zeros((n, 1)) if eigenvalues is None else np.array(eigenvalues),
        tag=np.array(tags, dtype=object),
        near_pole=np.zeros(n, dtype=bool) if near is None else np.array(near, dtype=bool))


def test_write_csv_golden():
    table = _table(
        [-5.0, math.pi**2, 9.869604406, 1e21],
        ["strong", "pole", "marginal", "none"],
        [False, True, True, False],
        [(0.1, -1 / 3), (math.nan, math.nan), (-0.0, 2.5e-300),
         (-1.2345678901234567e17, math.inf)])
    buf = io.StringIO()
    write_csv(table, buf)
    assert buf.getvalue() == GOLDEN_CSV


def test_csv_deterministic(interval):
    a, b = io.StringIO(), io.StringIO()
    write_csv(sweep(interval, -2.0, 5.0, 30), a)
    write_csv(sweep(interval, -2.0, 5.0, 30), b)
    assert a.getvalue() == b.getvalue()


def test_write_json_handles_nan(interval):
    pi2 = math.pi**2
    table = sweep(interval, pi2 - 1.0, pi2 + 1.0, 3)
    buf = io.StringIO()
    write_json(table, buf)
    data = json.loads(buf.getvalue())
    assert data[1]["class"] == "pole"
    assert data[1]["eigenvalues"][0] is None


def test_sweep_json_and_csv_carry_equal_eigenvalues(tmp_path):
    # the interval's first edge pole pi^2 is the middle sample: a pole row
    pi2 = math.pi**2
    argv = ["sweep", "--graph", "catalog:interval", "--from", repr(pi2 - 1.0),
            "--to", repr(pi2 + 1.0), "--steps", "41"]
    assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 0
    assert main(argv + ["--format", "json", "--out", str(tmp_path / "s.json")]) == 0
    rows = list(csv.reader((tmp_path / "s.csv").open()))[1:]
    from_csv = np.array([[float(x) for x in row[1:-2]] for row in rows])
    data = json.loads((tmp_path / "s.json").read_text())
    from_json = np.array([[math.nan if e is None else e for e in r["eigenvalues"]] for r in data])
    assert np.isnan(from_csv).any()
    assert np.array_equal(from_csv, from_json, equal_nan=True)


def test_report_merges_runs():
    bands = report(_table([0.0, 1.0, 2.0, 3.0], ["strong", "strong", "none", "none"]))
    assert [(b.lo, b.hi, b.tag, b.count) for b in bands] == [
        (0.0, 1.0, "strong", 2),
        (2.0, 3.0, "none", 2),
    ]


def test_report_splits_at_pole():
    # a flagged sample separates two runs of the same class without forming
    # a band of its own
    bands = report(_table([0.0, 1.0, 2.0], ["strong", "pole", "strong"], [False, True, False]))
    assert [(b.lo, b.hi, b.tag) for b in bands] == [
        (0.0, 0.0, "strong"),
        (2.0, 2.0, "strong"),
    ]


def _report_by_walk(table):
    """Reference: walk the samples one at a time, closing a run at a skip or a new tag."""
    bands, current = [], []

    def flush():
        if current:
            bands.append(Band(lo=current[0][0], hi=current[-1][0], tag=current[0][1],
                              count=len(current)))
            current.clear()

    for lam, tag, near in zip(table.lam.tolist(), table.tag.tolist(),
                              table.near_pole.tolist()):
        if near:
            flush()
            continue
        if current and tag != current[0][1]:
            flush()
        current.append((lam, tag))
    flush()
    return bands


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["strong", "none", "eventual", "pole"]),
                          st.booleans()), min_size=1, max_size=40))
@example([("strong", False)])
@example([("strong", True)])
@example([("none", True)] * 5)
@example([("strong", False), ("none", False)] * 4)
@example([("pole", True), ("pole", True), ("strong", False), ("strong", False),
          ("none", False), ("none", True)])
def test_report_matches_run_walk(rows):
    tags, near = zip(*rows)
    table = _table(np.arange(len(rows)) * 0.25 - 3.0, tags, near)
    got = report(table)
    assert got == _report_by_walk(table)
    # the bands go to JSON as they are
    assert all(type(b.lo) is float and type(b.hi) is float and type(b.tag) is str
               and type(b.count) is int for b in got)


def _cli(argv, timeout):
    """Run the command line in a fresh child process; returns the completed process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "dtnpos.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the test, instead of hanging it, when the block runs past `seconds`."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestCli:
    def test_validate_ok(self, capsys):
        assert main(["validate", "--graph", "catalog:interval"]) == 0
        out = capsys.readouterr().out
        assert "v1" in out

    def test_validate_bad_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"vertices": ["a"], "edges": [], "outer": []}))
        assert main(["validate", "--graph", str(p)]) == 1

    def test_reduce(self, capsys):
        assert main(["reduce", "--graph", "catalog:lasso-4"]) == 0
        out = capsys.readouterr().out
        assert "through-inner" in out

    def test_assemble_csv(self, capsys):
        rc = main(
            ["assemble", "--graph", "catalog:interval", "--lambda", "2.5", "--format", "csv"]
        )
        assert rc == 0
        # bare matrix rows, no header
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        vals = [[float(x) for x in row] for row in rows]
        assert vals[0][0] == pytest.approx(-0.016353516652711806, rel=1e-15)
        assert vals[0][1] == pytest.approx(-1.5812233989879199, rel=1e-15)
        assert vals[0][1] == vals[1][0]

    def test_classify_exit_codes(self, capsys):
        assert main(["classify", "--graph", "catalog:interval", "--lambda", "2.0"]) == 0
        assert "strong" in capsys.readouterr().out
        # verdict none is still a clean exit
        assert main(["classify", "--graph", "catalog:interval", "--lambda", "15.0"]) == 0
        assert '"verdict": "none"' in capsys.readouterr().out
        # an off-diagonal entry between one and ten zero bands below zero
        assert main(["classify", "--graph", "catalog:lasso-4", "--lambda", MARGINAL_LAMBDA]) == 4
        evidence = json.loads(capsys.readouterr().out)["evidence"]
        assert -10.0 < evidence["metzler_margin"] / evidence["metzler_tolerance"] < -1.0

    def test_classify_at_pole_is_error(self):
        lam = str(math.pi**2)
        assert main(["classify", "--graph", "catalog:interval", "--lambda", lam]) == 1

    def test_poles(self, capsys):
        rc = main(["poles", "--graph", "catalog:interval", "--from", "0", "--to", "100"])
        assert rc == 0
        vals = json.loads(capsys.readouterr().out)["poles"]
        assert vals == pytest.approx([math.pi**2, 4 * math.pi**2, 9 * math.pi**2], rel=1e-10)

    def test_poles_next_to_window_ends(self, capsys):
        # path-3's first inner pole, 1e-8 inside either end of the window
        p = (math.pi / 2) ** 2 / 17
        for lo, hi, want in ((0.1, p + 1e-8, [p]), (p - 1e-8, 1.0, [p, math.pi**2 / 17])):
            assert main(["poles", "--graph", "catalog:path-3", "--from", repr(lo),
                         "--to", repr(hi)]) == 0
            vals = json.loads(capsys.readouterr().out)["poles"]
            assert vals == pytest.approx(want, rel=1e-10)

    def test_unknown_catalog_graph_exits_one(self, capsys):
        assert main(["validate", "--graph", "catalog:nope"]) == 1
        assert capsys.readouterr().err.startswith("error: unknown catalog graph 'nope'; known: ")

    def test_poles_in_narrow_window(self, capsys):
        # path-3's first inner pole inside a window narrower than 2e-7
        p = (math.pi / 2) ** 2 / 17
        for lo, hi in ((p - 1e-8, p + 1e-8), (p - 3e-8, p + 1e-7)):
            assert main(["poles", "--graph", "catalog:path-3", "--from", repr(lo),
                         "--to", repr(hi)]) == 0
            vals = json.loads(capsys.readouterr().out)["poles"]
            # located to the pole tolerance, 1e-10 * max(1, lam)
            assert vals == pytest.approx([p], abs=1e-10)

    def test_sweep_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--graph",
                "catalog:interval",
                "--from",
                "-2",
                "--to",
                "12",
                "--steps",
                "50",
                "--out",
                str(out),
                "--report",
            ]
        )
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert len(rows) == 51
        assert "strong" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_report_without_out_formats_nothing(self, monkeypatch, capsys, tmp_path, fmt):
        # the bands replace the bulk data on stdout, so it is never formatted
        calls = []
        for name in ("write_csv", "write_json"):
            real = getattr(cli_module, name)
            monkeypatch.setattr(cli_module, name,
                                lambda *a, real=real: calls.append(a) or real(*a))
        argv = ["sweep", "--graph", "catalog:interval", "--from", "-2", "--to", "12",
                "--steps", "50", "--format", fmt, "--report"]
        assert main(argv) == 0
        assert "strong" in json.loads(capsys.readouterr().out)["bands"][0]["tag"]
        assert calls == []
        assert main(argv + ["--out", str(tmp_path / "sweep.out")]) == 0
        assert len(calls) == 1

    def test_find_eventual_no_cycle_exit(self):
        rc = main(
            ["find-eventual", "--graph", "catalog:braid-5", "--above", "5", "--budget", "1000"]
        )
        assert rc == 2

    def test_budget_exit(self):
        rc = main(
            [
                "kronecker",
                "--graph",
                "catalog:lasso-4",
                "--gamma",
                "1,1,1,1",
                "--count",
                "20",
                "--budget",
                "10",
            ]
        )
        assert rc == 3

    @pytest.mark.parametrize("argv", [
        ["kronecker", "--graph", "catalog:lasso-4", "--gamma", "1,1,1,1", "--budget", "-1"],
        ["find-positive", "--graph", "catalog:path-3", "--above", "1", "--budget", "-5",
         "--assert-independent"],
        ["kronecker", "--graph", "catalog:lasso-4", "--gamma", "1,1,1,1", "--count", "0"],
    ])
    def test_rejects_negative_budget_and_empty_count(self, argv, capsys):
        # a deadline, so a search that never charges its budget fails the
        # test instead of hanging it
        with _deadline(60):
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv, named", [
        (["poles", "--graph", "catalog:lasso-4", "--from", "0", "--to", "inf"], "--to"),
        (["sweep", "--graph", "catalog:lasso-4", "--from", "0", "--to", "inf", "--steps", "5"],
         "--to"),
        (["spectrum", "--graph", "catalog:lasso-4", "--kind", "full", "--lambda-max", "inf"],
         "--lambda-max"),
        (["assemble", "--graph", "catalog:lasso-4", "--lambda", "nan"], "--lambda"),
        (["classify", "--graph", "catalog:lasso-4", "--lambda", "inf"], "--lambda"),
        (["find-positive", "--graph", "catalog:path-3", "--above=-inf"], "--above"),
        # in process too, the missing option is an error, not a SystemExit
        (["spectrum", "--graph", "catalog:path-3", "--kind", "full"], "--lambda-max"),
        (["spectrum", "--graph", "catalog:two-cluster", "--count", "0"], "count"),
        (["spectrum", "--graph", "catalog:two-cluster", "--resolution", "0"], "resolution"),
        (["spectrum", "--graph", "catalog:two-cluster", "--resolution", "0.25"], "resolution"),
    ])
    def test_rejects_non_finite_and_degenerate_options(self, argv, named, capsys, recwarn):
        # a deadline: an infinite window once looped forever
        with _deadline(10):
            assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err and "Warning" not in err
        # in process, a warning is recorded rather than printed
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("argv", [
        # argparse reads a value that starts with "-" as a flag
        ["find-positive", "--graph", "catalog:path-3", "--above", "-inf"],
        ["find-positive", "--graph", "catalog:path-3", "--above", "30", "--no-such-flag"],
        ["find-positive", "--graph", "catalog:path-3"],
        ["sweep", "--graph", "catalog:path-3", "--from", "0", "--to", "1", "--steps", "x"],
        ["no-such-command"],
        # a missing --graph is a usage error too, also in process
        ["validate"],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        # argparse's own exit code for a usage error is 2, the no-cycle code
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["validate", "--graph", "catalog:path-3", "--tol", "1"],
        ["reduce", "--graph", "catalog:path-3", "--tol", "1"],
        ["spectrum", "--graph", "catalog:path-3", "--tol", "1"],
        ["assemble", "--graph", "catalog:path-3", "--lambda", "3.7", "--tol", "1"],
        ["poles", "--graph", "catalog:path-3", "--from", "0", "--to", "4", "--tol", "1"],
        ["kronecker", "--graph", "catalog:lasso-4", "--gamma", "1,1,1,1", "--tol", "1"],
        ["catalog", "--tol", "1"],
        ["catalog", "--graph", "catalog:path-3"],
        ["classify", "--graph", "catalog:path-3", "--lambda", "15.0", "--tol", "1"],
        ["sweep", "--graph", "catalog:path-3", "--from", "0", "--to", "1", "--steps", "5",
         "--tol", "1"],
    ])
    def test_options_only_where_read(self, argv, capsys):
        # the zero band is fixed, so no command takes --tol; --graph is taken
        # by the commands that load a graph
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "usage:" in err and "unrecognized arguments" in err

    def test_help_exits_0_and_no_cycle_exits_2(self):
        # the exit codes of the module entry point, usage error included
        proc = _cli(["find-eventual", "--help"], timeout=30)
        assert proc.returncode == 0 and "--above" in proc.stdout
        proc = _cli(["find-positive", "--graph", "catalog:path-3"], timeout=30)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
        proc = _cli(["find-eventual", "--graph", "catalog:path-3", "--above", "5"], timeout=30)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        # options given to one call must not carry over to the next call,
        # which omits them
        sweep_argv = ["sweep", "--graph", "catalog:lasso-4", "--from", "-2", "--to", "40",
                      "--steps", "30"]
        search_argv = ["find-positive", "--graph", "catalog:path-3", "--above", "30",
                       "--budget", "100000"]
        out = str(tmp_path / "out.txt")
        sequence = [
            ["classify", "--graph", "catalog:lasso-4", "--lambda", MARGINAL_LAMBDA, "--out", out],
            ["classify", "--graph", "catalog:path-3", "--lambda", "15.0"],
            sweep_argv + ["--out", out, "--format", "json", "--report"],
            sweep_argv,
            search_argv + ["--assert-independent"],
            search_argv,
        ]

        def take_out():
            if not os.path.exists(out):
                return None
            with open(out, encoding="utf-8") as f:
                text = f.read()
            os.remove(out)
            return text

        in_process = []
        for argv in sequence:
            rc = main(argv)
            in_process.append((rc, capsys.readouterr().out, take_out()))
        fresh = []
        for argv in sequence:
            proc = _cli(argv, timeout=60)
            fresh.append((proc.returncode, proc.stdout, take_out()))
        assert in_process == fresh
        assert in_process[0][0] == 4 and in_process[0][2] is not None
        assert in_process[1][0] == 0 and in_process[1][2] is None
        assert in_process[2][2].startswith("[") and in_process[2][1].startswith('{\n  "bands"')
        assert in_process[3][2] is None and in_process[3][1].startswith("lambda,")

    def test_poles_ignores_samples(self, capsys):
        assert main(["poles", "--graph", "catalog:path-3", "--from", "0", "--to", "4"]) == 0
        plain = capsys.readouterr().out
        assert main(["poles", "--graph", "catalog:path-3", "--from", "0", "--to", "4",
                     "--samples", "7"]) == 0
        assert capsys.readouterr().out == plain

    def test_find_positive(self, capsys):
        rc = main(
            ["find-positive", "--graph", "catalog:path-3", "--above", "30", "--budget", "100000"]
        )
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["verdict"] == "strong"
        assert rec["lambda"] > 30.0

    def test_kronecker_reports_limit(self, capsys):
        rc = main(
            [
                "kronecker",
                "--graph",
                "catalog:lasso-4",
                "--gamma",
                "1,1,1,1",
                "--count",
                "6",
                "--budget",
                "1000000",
            ]
        )
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["levels"] == list(range(1, 7))
        assert rec["limit_converging"] is True

    def test_catalog_listing(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "lasso-4" in out and "two-cluster" in out
        assert main(["catalog", "interval"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["outer"] == ["v1", "v2"]

    def test_commensurable(self, capsys, tmp_path):
        g = {
            "vertices": ["a", "b", "c"],
            "edges": [
                {"u": "a", "v": "b", "length": 2.0},
                {"u": "b", "v": "c", "length": 4.0},
            ],
            "outer": ["a", "b", "c"],
        }
        p = tmp_path / "g.json"
        p.write_text(json.dumps(g))
        rc = main(["commensurable", "--graph", str(p), "--mu", "0.1", "--p", "1,2"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["base_length"] == pytest.approx(2.0)
        assert all(m["identity_residual"] <= 1e-9 for m in rec["members"])

    def test_spectrum_full(self, capsys):
        rc = main(
            [
                "spectrum",
                "--graph",
                "catalog:interval",
                "--kind",
                "full",
                "--lambda-max",
                "50",
            ]
        )
        assert rc == 0
        vals = json.loads(capsys.readouterr().out)["values"]
        assert vals == pytest.approx([math.pi**2, 4 * math.pi**2], rel=1e-12)


# report(sweep(g, -5, 60, 400)) before the sweep was stacked, as (lo, hi, tag, count)
FROZEN_BANDS = {
    "two-cluster": [
        (-5.0, 0.7017543859649118, "strong", 36),
        (0.8646616541353378, 5.263157894736841, "none", 28),
        (5.426065162907268, 5.5889724310776945, "eventual", 2),
        (5.75187969924812, 9.82456140350877, "strong", 26),
        (9.987468671679197, 39.473684210526315, "none", 182),
        (39.63659147869674, 50.71428571428571, "strong", 69),
        (50.87719298245614, 60.0, "none", 57),
    ],
    "lasso-4": [
        (-5.0, 0.8646616541353378, "strong", 37),
        (1.0275689223057638, 5.5889724310776945, "none", 29),
        (5.75187969924812, 7.8696741854636585, "strong", 14),
        (8.032581453634084, 8.358395989974937, "none", 3),
        (8.521303258145362, 11.127819548872179, "eventual", 17),
        (11.290726817042607, 22.531328320802004, "none", 70),
        (22.69423558897243, 29.536340852130323, "eventual", 43),
        (29.69924812030075, 30.51378446115288, "strong", 6),
        (30.67669172932331, 34.58646616541353, "none", 25),
        (34.749373433583955, 35.238095238095234, "eventual", 4),
        (35.40100250626566, 50.87719298245614, "none", 96),
        (51.040100250626566, 51.20300751879699, "eventual", 2),
        (51.365914786967416, 52.506265664160395, "strong", 8),
        (52.669172932330824, 53.8095238095238, "eventual", 8),
        (53.97243107769423, 60.0, "none", 38),
    ],
    "star-5": [
        (-5.0, 0.7017543859649118, "strong", 36),
        (0.8646616541353378, 60.0, "none", 364),
    ],
}


@pytest.mark.parametrize("name", sorted(FROZEN_BANDS))
def test_sweep_bands_frozen(name):
    got = [(b.lo, b.hi, b.tag, b.count) for b in report(sweep(catalog(name), -5.0, 60.0, 400))]
    assert got == FROZEN_BANDS[name]


def test_sweep_chunks_match_single_samples(monkeypatch, path3):
    # a tiny chunk puts chunk boundaries between poles, pole rows and plain
    # rows; every row must equal the one built from a single-lambda call
    monkeypatch.setattr(sweep_module, "STACK_CHUNK", 7)
    lo, hi = -3.0, 4.0
    table = sweep(path3, lo, hi, 64)
    poles = dtnpos.pole_scan(path3, lo, hi)
    for lam, eigs, tag, near in zip(table.lam.tolist(), table.eigenvalues.tolist(),
                                    table.tag, table.near_pole):
        try:
            D = assemble_outer(path3, lam)
        except (AtPole, InnerBlockSingular):
            assert tag == "pole" and near
            continue
        # the one-sample case of the classifier's eigh, and eigvalsh up to roundoff
        assert eigs == (-np.linalg.eigh(-D.entries)[0][::-1]).tolist()
        ref = np.linalg.eigvalsh(D.entries)
        assert np.abs(np.array(eigs) - ref).max() <= 1e-14 * np.abs(ref).max()
        assert tag == classify(D).tag
        assert near == any(abs(lam - p) <= 1e-9 * max(1.0, abs(p)) for p in poles)


def test_sweep_hits_inner_pole_between_chunks(monkeypatch, path3):
    # the inner singularity (pi/2)^2/17 is a grid sample at the start of the
    # second chunk
    monkeypatch.setattr(sweep_module, "STACK_CHUNK", 4)
    lam = (math.pi / 2) ** 2 / 17.0
    table = sweep(path3, lam - 0.4, lam + 0.4, 9)
    assert table.lam[4] == pytest.approx(lam, abs=1e-15)
    assert table.tag[4] == "pole" and table.near_pole[4]
    assert np.flatnonzero(table.tag == "pole").tolist() == [4]


def test_readme_command_lines_parse():
    # every example of the README's command-line block is a valid command
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("dtnpos ")]
    assert len(commands) >= 12
    for argv in commands:
        build_parser().parse_args(argv)


def test_public_names_are_not_modules():
    import types

    assert all(hasattr(dtnpos, name) for name in dtnpos.__all__)
    modules = [name for name in dtnpos.__all__
               if isinstance(getattr(dtnpos, name), types.ModuleType)]
    assert modules == []
