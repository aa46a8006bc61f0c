"""Smoke tests of the example scripts: each runs as its own process on a catalog graph."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_interval_bands():
    lines = run_script("interval_bands.py", "--graph", "catalog:path-3", "--steps", "200")
    assert lines[0] == "# catalog:path-3: 200 samples on (-5.0, 60.0)"
    bands = [line for line in lines if line.startswith("[")]
    assert [b.split("]")[1].split()[0] for b in bands] == ["strong", "none", "strong"]
    assert lines[-1].startswith("# singular parameters: 0.145141241217, ")


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
