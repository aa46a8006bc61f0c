"""Smoke tests of the example scripts: each runs as its own process on a catalog graph."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, returncode=0, src_on_path=True):
    env = dict(os.environ)
    if src_on_path:
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    else:
        env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == returncode, proc.stderr
    return proc.stdout.splitlines()


def test_interval_bands():
    lines = run_script("interval_bands.py", "--graph", "catalog:path-3", "--steps", "200")
    assert lines[0] == "# catalog:path-3: 200 samples on (-5.0, 60.0)"
    bands = [line for line in lines if line.startswith("[")]
    assert [b.split("]")[1].split()[0] for b in bands] == ["strong", "none", "strong"]
    # path-3 on (-5, 60): edge poles (pi k)^2 of v1-v2 and (pi k)^2 / 17 of
    # v2-v3, inner poles ((k + 1/2) pi)^2 / 17 of the free tip v3
    assert lines[-1].startswith("# singular parameters: ")
    got = [float(x) for x in lines[-1].split(":", 1)[1].split(",")]
    want = sorted([math.pi ** 2, (2 * math.pi) ** 2]
                  + [(math.pi * k) ** 2 / 17 for k in range(1, 11)]
                  + [((k + 0.5) * math.pi) ** 2 / 17 for k in range(10)])
    assert len(got) == len(want)
    assert all(abs(p - q) <= 1e-10 * max(1.0, q) for p, q in zip(got, want))


def test_regime_hunt():
    lines = run_script("regime_hunt.py", "--graph", "catalog:path-3", "--above", "5",
                       "--budget", "200000")
    assert [line.split()[0] for line in lines] == ["strong", "none", "eventual"]
    assert lines[2] == "eventual  skipped: the reduced graph is a tree: no cycle edge to perturb"


def test_limit_convergence():
    lines = run_script("limit_convergence.py", "--graph", "catalog:lasso-4", "--count", "3")
    assert lines[0].startswith("# catalog:lasso-4, gammas (1.0, 1.0, 1.0, 1.0)")
    assert lines[1].split() == ["level", "lambda", "window", "defect", "limit", "error"]
    assert len(lines) == 6
    assert lines[-1].endswith("(decreasing)")


def test_lattice_scaling():
    lines = run_script("lattice_scaling.py", "--edges", "6", "7")
    assert lines[0].split() == ["edges", "seconds", "budget_used", "lambda"]
    rows = [line.split() for line in lines[1:]]
    assert [(r[0], r[2]) for r in rows] == [("6", "110968"), ("7", "48710")]
    assert float(rows[1][3]) == pytest.approx(4.165228250588749e+20, rel=1e-12)


def test_lattice_scaling_refuses_ten_edges():
    # refused before any work: ten edges would not fit the enumeration box
    assert run_script("lattice_scaling.py", "--edges", "10", returncode=1) == []


def test_pole_scan_scaling():
    lines = run_script("pole_scan_scaling.py", "--graphs", "path-3", "--edge-poles", "4",
                       "--repeats", "1")
    assert lines[0].split() == ["graph", "start", "width", "poles", "calls", "median_ms"]
    rows = [line.split() for line in lines[1:]]
    assert [(r[0], float(r[1])) for r in rows] == [("path-3", s) for s in (1e2, 1e4, 1e6, 1e8)]
    # four edge poles and four inner poles of the free tip; the root-find
    # takes 8 or 9 stacked calls there, quarter cuts took 12 to 17
    assert [int(r[3]) for r in rows] == [8, 8, 8, 8]
    assert all(0 < int(r[4]) <= 11 for r in rows)


def test_outputs_script_sweep_workload():
    # one digest over the exit code, stdout and --out file of every request;
    # the script finds this checkout's package without PYTHONPATH
    lines = run_script("search_outputs.py", "--workload", "sweep", "--seeds", "1", "--requests",
                       src_on_path=False)
    assert len(lines) == 13
    assert all(" sweep " in line and "rc=0" in line for line in lines[:12])
    label, digest = lines[-1].rsplit(None, 1)
    assert label.split() == ["seed", "1"] and len(digest) == 64


def test_outputs_script_verdicts():
    # --verdicts hashes only the lambda, class and near_pole columns of each
    # --out csv, so every request's digest differs from the full one
    full = run_script("search_outputs.py", "--workload", "sweep", "--seeds", "2", "--requests")
    verdicts = run_script("search_outputs.py", "--workload", "sweep", "--seeds", "2",
                          "--requests", "--verdicts")
    assert len(verdicts) == 13
    for a, b in zip(full, verdicts):
        assert a.rsplit(None, 1)[0] == b.rsplit(None, 1)[0]
        assert a.rsplit(None, 1)[1] != b.rsplit(None, 1)[1]


def test_outputs_script_workload_list():
    # a comma list runs each workload in turn and labels every digest line
    # with its workload; the digests are those of one run per workload
    both = run_script("search_outputs.py", "--workload", "spectra,search", "--seeds", "1-2")
    assert [line.split()[:3] for line in both] == [
        [w, "seed", s] for w in ("spectra", "search") for s in ("1", "2")]
    for w in ("spectra", "search"):
        alone = run_script("search_outputs.py", "--workload", w, "--seeds", "1-2")
        assert [line.split()[-1] for line in alone] == [
            line.split()[-1] for line in both if line.startswith(w)]
    run_script("search_outputs.py", "--workload", "sweep,bogus", returncode=2)


def test_outputs_script_digests_pinned():
    """The seed-1 digest of every workload, hashes in full.

    A change that moves an output on purpose updates the pinned line here and
    names the workload and both digests in CHANGES.md.
    """
    lines = run_script("search_outputs.py", "--workload", "sweep,spectra,search", "--seeds", "1")
    assert [line.split() for line in lines] == [
        ["sweep", "seed", "1", "3d438375547bb9c0b2df3453f01c3ec4d8b409b3212eec36355e3cd2646c0c5d"],
        ["spectra", "seed", "1", "ef78a2857170a57696d7ba9c12862d1560725e14453c6496b11c7f0aa6474962"],
        ["search", "seed", "1", "9e7758585085bf0cfaf5a219eef74324099b028f04f6ddbf46be61ffda69a382"],
    ]


def test_cold_start():
    lines = run_script("cold_start.py", "--repeats", "1", "--only", "sweep", "spectrum-kirchhoff")
    assert lines[0].startswith("# 1 fresh processes per row, python ")
    assert lines[1].split() == ["command", "median_ms", "maxrss_mb", "scipy"]
    rows = [line.split() for line in lines[2:]]
    assert [(row[0], row[-1]) for row in rows] == [("sweep", "no"), ("spectrum-kirchhoff", "no")]
    assert all(float(row[1]) > 0 and float(row[2]) > 0 for row in rows)
