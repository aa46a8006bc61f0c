"""Exact command-line output of the searches, pinned.

Every value below was printed by the command line before the window test
moved to phase arithmetic; standard output and the exit code must stay
byte-identical, so any change in a lambda, a residual, a charged budget or a
budget-exhaustion message shows up here.
"""

import contextlib
import io
import json

import pytest

from dtnpos.cli import main

# the six-edge surd graph of the scan-route tests: level 2 scans ~340 chunks
SCAN6 = {
    "vertices": ["v1", "v2", "v3", "v4", "v5", "v6"],
    "edges": [{"u": u, "v": v, "length_expr": x} for u, v, x in (
        ("v1", "v2", "sqrt(19)"), ("v2", "v3", "1/2*sqrt(13)"), ("v2", "v5", "3/2*sqrt(23)"),
        ("v3", "v4", "1/2*sqrt(47)"), ("v3", "v6", "1/2*sqrt(2)"), ("v4", "v5", "1/2*sqrt(37)"))],
    "outer": ["v1", "v3", "v4", "v5", "v6"],
}

GOLDEN = [
    ("scan-route kronecker",
     ["kronecker", "--graph", "SCAN6", "--gamma=1,1,1,1,1,1", "--count", "2"], 0,
     {"levels": [1, 2],
      "lambdas": [3934879.691908792, 359183802463.12537],
      "residuals": [0.29289321881345076, 0.2495449972556345],
      "budget_used": 686173,
      "limit_errors": [1.8438745749909575, 1.527232344391306],
      "limit_converging": True}, ""),
    ("lattice-route kronecker",
     ["kronecker", "--graph", "catalog:braid-5", "--gamma=1,1,1,1,1", "--count", "4"], 0,
     {"levels": [1, 2, 3, 4],
      "lambdas": [5820.334831138847, 155096347.83175427, 6741102062658.26,
                  3.3017803308453276e+16],
      "residuals": [0.8079969722793559, 0.1249157156561776, 0.0967846379180968,
                    0.05657888698874436],
      "budget_used": 14813,
      "limit_errors": [4.208251202449554, 0.3330337230063021, 0.5622619407968998,
                       0.3918524328334465],
      "limit_converging": True}, ""),
    ("find-eventual",
     ["find-eventual", "--graph", "catalog:lasso-4", "--above", "1e5"], 0,
     {"lambda": 28596427.926445846,
      "verdict": "eventual",
      "level": 2,
      "residuals": [0.24151646684139105],
      "budget_used": 2119,
      "gammas": [1.0, 1.0, 1.0, -2.4000000000000004]}, ""),
    ("budget exhausted",
     ["kronecker", "--graph", "SCAN6", "--gamma=1,1,1,1,1,1", "--count", "2",
      "--budget", "274469"], 3,
     None, "error: search budget of 274469 points exhausted at level 2; "
           "best residual 1.346e-01\n"),
]


@pytest.mark.parametrize("argv,rc,stdout,stderr", [case[1:] for case in GOLDEN],
                         ids=[case[0] for case in GOLDEN])
def test_search_output_golden(tmp_path, argv, rc, stdout, stderr):
    graph = tmp_path / "scan6.json"
    graph.write_text(json.dumps(SCAN6), encoding="utf-8")
    argv = [str(graph) if a == "SCAN6" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(argv)
    assert got == rc
    # the command line prints json.dumps(record, indent=2); every float above
    # is the shortest repr of the printed double, so this is a byte comparison
    assert out.getvalue() == ("" if stdout is None else json.dumps(stdout, indent=2) + "\n")
    assert err.getvalue() == stderr
