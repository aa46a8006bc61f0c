"""Cold start: only the exponential oracle loads scipy.

One fresh process runs every subcommand on the rows of scripts/cold_start.py
and then the Kirchhoff spectrum twice, and must not load scipy; expm_oracle
is the first call that loads it.  The spectra and the oracle must give what
they give in this process.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from dtnpos import catalog
from dtnpos.assembly import assemble_outer
from dtnpos.cli import main
from dtnpos.positivity import expm_oracle

ROOT = Path(__file__).resolve().parent.parent
ORACLE_GRAPH, ORACLE_LAMBDA = "lasso-4", 2.5

CHILD = """\
import contextlib, io, json, sys
from dtnpos import catalog
from dtnpos.assembly import assemble_outer
from dtnpos.cli import main
from dtnpos.positivity import expm_oracle

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()

commands, kirchhoff, (name, lam) = json.loads(sys.argv[1])
codes = [run(argv)[0] for argv in commands]
spectra = [run(kirchhoff), run(kirchhoff)]
before = scipy_modules()
oracle = repr(expm_oracle(assemble_outer(catalog(name), lam)))
print(json.dumps({"codes": codes, "before": before, "after_oracle": scipy_modules(),
                  "spectra": spectra, "oracle": oracle}))
"""


def cold_start_rows():
    spec = importlib.util.spec_from_file_location("cold_start", ROOT / "scripts" / "cold_start.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COMMANDS


def test_only_expm_oracle_loads_scipy(capsys):
    commands = cold_start_rows()
    kirchhoff = dict(commands)["spectrum-kirchhoff"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    payload = json.dumps([[argv for _, argv in commands], kirchhoff,
                          [ORACLE_GRAPH, ORACLE_LAMBDA]])
    proc = subprocess.run([sys.executable, "-c", CHILD, payload], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)

    assert got["codes"] == [0] * len(commands)
    assert got["before"] == []
    assert "scipy.linalg" in got["after_oracle"]

    assert main(kirchhoff) == 0
    want = [0, capsys.readouterr().out]
    assert got["spectra"] == [want, want]
    D = assemble_outer(catalog(ORACLE_GRAPH), ORACLE_LAMBDA)
    assert got["oracle"] == repr(expm_oracle(D))
