"""Sweep output formats, band reports, and command-line behavior."""

import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dtnpos
from dtnpos import (
    AtPole,
    Band,
    InnerBlockSingular,
    SweepRecord,
    assemble_outer,
    catalog,
    classify,
    report,
    sweep,
    write_csv,
    write_json,
)
from dtnpos.cli import build_parser, main

# the package re-exports the function sweep under the submodule's name
sweep_module = importlib.import_module("dtnpos.sweep")


def test_sweep_record_grid(interval):
    records = sweep(interval, -1.0, 12.0, 40)
    assert len(records) == 40
    assert records[0].lam == -1.0 and records[-1].lam == 12.0
    tags = {r.tag for r in records}
    assert "strong" in tags and "none" in tags


def test_sweep_rejects_empty_window(interval):
    for lo, hi in ((1.0, 0.0), (1.0, 1.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            sweep(interval, lo, hi, 5)


def test_sweep_flags_pole_rows(interval):
    # place a sample exactly on pi^2: lam grid hits it when the endpoints
    # and step are chosen to match
    pi2 = math.pi**2
    records = sweep(interval, pi2 - 1.0, pi2 + 1.0, 3)
    mid = records[1]
    assert mid.lam == pytest.approx(pi2, abs=1e-12)
    assert mid.tag == "pole"
    assert mid.near_pole
    assert all(math.isnan(v) for v in mid.eigenvalues)


def test_write_csv_roundtrip(interval):
    records = sweep(interval, -2.0, 5.0, 25)
    buf = io.StringIO()
    write_csv(records, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["lambda", "eig_1", "eig_2", "class", "near_pole"]
    assert len(rows) == 26
    for row, rec in zip(rows[1:], records):
        # %.17g output must round-trip bit for bit
        assert float(row[0]) == rec.lam
        assert float(row[1]) == rec.eigenvalues[0]
        assert row[3] == rec.tag
        assert row[4] in ("true", "false")


# the bytes write_csv printed through a per-field formatter: 17 significant
# digits, "nan" for the eigenvalues of a pole row, "-0", "inf"
GOLDEN_CSV = (
    "lambda,eig_1,eig_2,class,near_pole\n"
    "-5,0.10000000000000001,-0.33333333333333331,strong,false\n"
    "9.869604401089358,nan,nan,pole,true\n"
    "9.8696044060000006,-0,2.5e-300,marginal,true\n"
    "1e+21,-1.2345678901234566e+17,inf,none,false\n"
)


def test_write_csv_golden():
    records = [
        SweepRecord(-5.0, (0.1, -1 / 3), "strong", False),
        SweepRecord(math.pi**2, (math.nan, math.nan), "pole", True),
        SweepRecord(9.869604406, (-0.0, 2.5e-300), "marginal", True),
        SweepRecord(1e21, (-1.2345678901234567e17, math.inf), "none", False),
    ]
    buf = io.StringIO()
    write_csv(records, buf)
    assert buf.getvalue() == GOLDEN_CSV


def test_csv_deterministic(interval):
    a, b = io.StringIO(), io.StringIO()
    write_csv(sweep(interval, -2.0, 5.0, 30), a)
    write_csv(sweep(interval, -2.0, 5.0, 30), b)
    assert a.getvalue() == b.getvalue()


def test_write_json_handles_nan(interval):
    pi2 = math.pi**2
    records = sweep(interval, pi2 - 1.0, pi2 + 1.0, 3)
    buf = io.StringIO()
    write_json(records, buf)
    data = json.loads(buf.getvalue())
    assert data[1]["class"] == "pole"
    assert data[1]["eigenvalues"][0] is None


def _rec(lam, tag, near=False):
    return SweepRecord(lam=lam, eigenvalues=(0.0,), tag=tag, near_pole=near)


def test_report_merges_runs():
    records = [_rec(0.0, "strong"), _rec(1.0, "strong"), _rec(2.0, "none"), _rec(3.0, "none")]
    bands = report(records)
    assert [(b.lo, b.hi, b.tag, b.count) for b in bands] == [
        (0.0, 1.0, "strong", 2),
        (2.0, 3.0, "none", 2),
    ]


def test_report_splits_at_pole():
    # a flagged sample separates two runs of the same class without forming
    # a band of its own
    records = [
        _rec(0.0, "strong"),
        _rec(1.0, "pole", near=True),
        _rec(2.0, "strong"),
    ]
    bands = report(records)
    assert [(b.lo, b.hi, b.tag) for b in bands] == [
        (0.0, 0.0, "strong"),
        (2.0, 2.0, "strong"),
    ]


def _cli(argv, timeout):
    """Run the command line in a fresh child process; returns the completed process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "dtnpos.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


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
        # a dust band wider than the decisive margin forces the marginal verdict
        rc = main(
            ["classify", "--graph", "catalog:path-3", "--lambda", "15.0", "--tol", "0.333"]
        )
        assert rc == 4

    def test_classify_at_pole_is_error(self):
        lam = str(math.pi**2)
        assert main(["classify", "--graph", "catalog:interval", "--lambda", lam]) == 1

    def test_poles(self, capsys):
        rc = main(["poles", "--graph", "catalog:interval", "--from", "0", "--to", "100"])
        assert rc == 0
        vals = json.loads(capsys.readouterr().out)["poles"]
        assert vals == pytest.approx([math.pi**2, 4 * math.pi**2, 9 * math.pi**2], rel=1e-10)

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
    def test_rejects_negative_budget_and_empty_count(self, argv):
        # a child process with a timeout, so a search that never charges its
        # budget fails the test instead of hanging it
        proc = _cli(argv, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, named", [
        (["poles", "--graph", "catalog:lasso-4", "--from", "0", "--to", "inf"], "--to"),
        (["sweep", "--graph", "catalog:lasso-4", "--from", "0", "--to", "inf", "--steps", "5"],
         "--to"),
        (["spectrum", "--graph", "catalog:lasso-4", "--kind", "full", "--lambda-max", "inf"],
         "--lambda-max"),
        (["assemble", "--graph", "catalog:lasso-4", "--lambda", "nan"], "--lambda"),
        (["classify", "--graph", "catalog:lasso-4", "--lambda", "inf"], "--lambda"),
        (["find-positive", "--graph", "catalog:path-3", "--above=-inf"], "--above"),
        (["sweep", "--graph", "catalog:path-3", "--from", "0", "--to", "1", "--steps", "5",
          "--tol", "nan"], "--tol"),
        (["spectrum", "--graph", "catalog:two-cluster", "--count", "0"], "count"),
        (["spectrum", "--graph", "catalog:two-cluster", "--resolution", "0"], "resolution"),
        (["spectrum", "--graph", "catalog:two-cluster", "--resolution", "0.25"], "resolution"),
    ])
    def test_rejects_non_finite_and_degenerate_options(self, argv, named):
        # a child process with a timeout: an infinite window once looped forever
        proc = _cli(argv, timeout=10)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and named in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        # argparse reads a value that starts with "-" as a flag
        ["find-positive", "--graph", "catalog:path-3", "--above", "-inf"],
        ["find-positive", "--graph", "catalog:path-3", "--above", "30", "--no-such-flag"],
        ["find-positive", "--graph", "catalog:path-3"],
        ["sweep", "--graph", "catalog:path-3", "--from", "0", "--to", "1", "--steps", "x"],
        ["no-such-command"],
    ])
    def test_usage_error_exits_1(self, argv):
        # argparse's own exit code for a usage error is 2, the no-cycle code
        proc = _cli(argv, timeout=30)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "usage:" in proc.stderr and "Traceback" not in proc.stderr

    def test_help_exits_0_and_no_cycle_exits_2(self):
        proc = _cli(["find-eventual", "--help"], timeout=30)
        assert proc.returncode == 0 and "--above" in proc.stdout
        proc = _cli(["find-eventual", "--graph", "catalog:path-3", "--above", "5"], timeout=30)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        # options given to one call must not carry over to the next call,
        # which omits them
        sweep_argv = ["sweep", "--graph", "catalog:lasso-4", "--from", "-2", "--to", "40",
                      "--steps", "30", "--report"]
        search_argv = ["find-positive", "--graph", "catalog:path-3", "--above", "30",
                       "--budget", "100000"]
        out = str(tmp_path / "sweep.csv")
        sequence = [
            ["classify", "--graph", "catalog:path-3", "--lambda", "15.0", "--tol", "0.333"],
            ["classify", "--graph", "catalog:path-3", "--lambda", "15.0"],
            sweep_argv + ["--out", out, "--tol", "0.1"],
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
        assert in_process[0][0] == 4 and in_process[1][0] == 0
        assert in_process[2][2] is not None and in_process[3][2] is None

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
    # rows; every record must equal the one built from a single-lambda call
    monkeypatch.setattr(sweep_module, "STACK_CHUNK", 7)
    lo, hi = -3.0, 4.0
    records = sweep(path3, lo, hi, 64)
    poles = dtnpos.pole_scan(path3, lo, hi)
    for rec in records:
        try:
            D = assemble_outer(path3, rec.lam)
        except (AtPole, InnerBlockSingular):
            assert rec.tag == "pole" and rec.near_pole
            continue
        assert rec.eigenvalues == tuple(np.linalg.eigvalsh(D.entries).tolist())
        assert rec.tag == classify(D).tag
        assert rec.near_pole == any(abs(rec.lam - p) <= 1e-9 * max(1.0, abs(p)) for p in poles)


def test_sweep_hits_inner_pole_between_chunks(monkeypatch, path3):
    # the inner singularity (pi/2)^2/17 is a grid sample at the start of the
    # second chunk
    monkeypatch.setattr(sweep_module, "STACK_CHUNK", 4)
    lam = (math.pi / 2) ** 2 / 17.0
    records = sweep(path3, lam - 0.4, lam + 0.4, 9)
    assert records[4].lam == pytest.approx(lam, abs=1e-15)
    assert records[4].tag == "pole" and records[4].near_pole
    assert all(r.tag != "pole" for i, r in enumerate(records) if i != 4)


def test_public_names_are_not_modules():
    import types

    assert all(hasattr(dtnpos, name) for name in dtnpos.__all__)
    modules = [name for name in dtnpos.__all__
               if isinstance(getattr(dtnpos, name), types.ModuleType)]
    assert modules == []
