"""Acceptance gate: one test per criterion, tolerances pinned.

Run with -v to get the one-line pass/fail verdict per criterion. Each test is
self-contained and uses its own seeded generator, so the gate is
deterministic across runs and machines.
"""

import math
import time

import numpy as np
import pytest

from dtnpos import (
    DtnError,
    NoCycle,
    TargetSpec,
    assemble_outer,
    catalog,
    classify,
    commensurable_family,
    edge_alpha_beta,
    expm_oracle,
    find_eventual_not_positive_above,
    find_not_eventually_positive_above,
    find_strongly_positive_above,
    graph_laplacian,
    is_irreducible,
    is_metzler,
    kirchhoff_spectrum,
    kronecker_sequence,
    lambda_1,
    limit_matrix_Q,
    pole_residue_probe,
    pole_scan,
    report,
    sweep,
    validate,
    verify_limit,
)
from dtnpos.cli import main
from dtnpos.errors import BudgetExhausted

from conftest import random_surd_graph

PI2 = math.pi**2
SQRT17 = math.sqrt(17)


def test_c01_interval_bands_and_poles():
    """Strong bands of the unit interval are bounded by (pi k)^2."""
    g = catalog("interval")
    t0 = time.perf_counter()
    table = sweep(g, -5.0, 60.0, 10_000)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"

    step = 65.0 / 9999.0
    bands = report(table)
    non_pole = [b for b in bands if b.tag != "pole"]
    assert [b.tag for b in non_pole] == ["strong", "none", "strong"]
    for got, want in [
        (non_pole[0].hi, PI2),
        (non_pole[1].lo, PI2),
        (non_pole[1].hi, 4 * PI2),
        (non_pole[2].lo, 4 * PI2),
    ]:
        assert abs(got - want) <= step + 1e-12, f"band edge {got} vs {want}"

    poles = pole_scan(g, -5.0, 60.0)
    assert len(poles) == 2
    assert abs(poles[0] - PI2) <= 1e-8
    assert abs(poles[1] - 4 * PI2) <= 1e-8
    print(f"criterion 01 PASS: bands at (pi k)^2 within {step:.2e}, sweep {elapsed:.2f}s")


def test_c02_two_edge_closed_form():
    """Schur reduction of the 1/sqrt(17) path equals the closed 2x2 form."""
    g = catalog("path-3")
    rng = np.random.default_rng(20260819)
    t0 = time.perf_counter()
    checked = 0
    while checked < 50:
        lam = float(rng.uniform(-10.0, 100.0))
        try:
            got = assemble_outer(g, lam).entries
        except DtnError:
            continue  # landed on a pole or the inner singularity: not admissible
        c12 = edge_alpha_beta(lam, 1.0)
        c23 = edge_alpha_beta(lam, SQRT17)
        want = np.array(
            [
                [c12.alpha, -c12.beta],
                [-c12.beta, c12.alpha + c23.alpha - c23.beta**2 / c23.alpha],
            ]
        )
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), f"lam={lam}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"50 comparisons took {elapsed:.2f}s"
    print(f"criterion 02 PASS: 50 admissible parameters matched in {elapsed:.3f}s")


def test_c03_positivity_tracks_first_edge():
    """On the path graph the class is strong exactly while sin(sqrt(lam)) > 0."""
    g = catalog("path-3")
    table = sweep(g, -5.0, 60.0, 3000)
    checked = 0
    for lam, tag, near in zip(table.lam.tolist(), table.tag, table.near_pole):
        if tag in ("pole", "marginal") or near:
            continue
        want_strong = lam <= 0.0 or math.sin(math.sqrt(lam)) > 0.0
        assert (tag == "strong") == want_strong, f"lam={lam}: {tag}"
        checked += 1
    assert checked > 2500
    print(f"criterion 03 PASS: {checked} samples follow the sign of sin(sqrt(lam))")


def test_c04_forbidden_entry_stays_zero():
    """Unlinked outer pair of the braid graph never couples, and no sample
    is eventually-but-not-immediately positive."""
    g = catalog("braid-5")
    rng = np.random.default_rng(44)
    checked = 0
    while checked < 100:
        lam = float(rng.uniform(-5.0, 40.0))
        try:
            D = assemble_outer(g, lam).entries
        except DtnError:
            continue
        assert abs(D[0, 2]) <= 1e-12 * np.abs(D).max(), f"lam={lam}"
        checked += 1

    tags = set(sweep(g, -5.0, 40.0, 1500).tag)
    assert "eventual" not in tags, sorted(tags)
    print(f"criterion 04 PASS: entry (1,3) below 1e-12 at 100 parameters; tags {sorted(tags)}")


def test_c05_random_graphs_below_lambda1():
    """Below 0.9 lambda_1 every random graph gives a Metzler, irreducible,
    strongly positive reduction."""
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    for _ in range(20):
        g = random_surd_graph(rng)
        lam1 = lambda_1(g)
        assert lam1 > 0.0
        for lam in rng.uniform(-0.5 * lam1, 0.9 * lam1, size=10):
            M = assemble_outer(g, float(lam))
            assert is_metzler(-M.entries).satisfied, f"lam={lam}"
            assert is_irreducible(M), f"lam={lam}"
            assert classify(M).tag == "strong", f"lam={lam}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"criterion 05 PASS: 20 graphs x 10 parameters in {elapsed:.1f}s")


def test_c06_commensurable_shift_identity():
    """(1/sqrt(lam)) D is invariant under sqrt(lam) -> sqrt(lam) + 2 pi p / L."""
    g246 = validate(
        {
            "vertices": ["a", "b", "c", "d"],
            "edges": [
                {"u": "a", "v": "b", "length": 2.0},
                {"u": "b", "v": "c", "length": 4.0},
                {"u": "c", "v": "d", "length": 6.0},
            ],
            "outer": ["a", "b", "c", "d"],
        }
    )
    for g, want_base in ((catalog("interval"), 1.0), (g246, 2.0)):
        lam1 = lambda_1(g)
        for frac in (0.3, 0.7):
            fam = commensurable_family(g, frac * lam1, [1, 2, 5])
            assert fam.base_length == pytest.approx(want_base, rel=1e-9)
            for member in fam.members:
                assert member.identity_residual <= 1e-9, (frac, member.p)
                assert member.verdict == "strong", (frac, member.p)
    print("criterion 06 PASS: identity within 1e-9 for p in {1,2,5}, all strong")


def test_c07_kronecker_limit_convergence():
    """Scaled reductions approach the signed Laplacian limit, and running out
    of budget is a loud failure."""
    lasso = catalog("lasso-4")
    L = graph_laplacian(lasso)
    for val, sign_word in ((1.0, "minus"), (-1.0, "plus")):
        spec = TargetSpec.uniform(val, 4)
        seq = kronecker_sequence(lasso, spec, count=20, budget=10**7)
        assert seq.levels[-1] == 20
        ver = verify_limit(lasso, spec, seq)
        assert ver.final_error < ver.initial_error
        assert ver.final_error < 0.1, f"gamma={val}: final {ver.final_error}"
        Q = limit_matrix_Q(lasso, spec)
        assert np.array_equal(Q, -L if val > 0 else L), sign_word

    with pytest.raises(BudgetExhausted):
        kronecker_sequence(lasso, TargetSpec.uniform(1.0, 4), count=20, budget=50)
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
            "50",
        ]
    )
    assert rc == 3
    print("criterion 07 PASS: level-20 errors below 0.1 both signs, exhaustion exits 3")


def test_c08_existence_searches():
    """Each predicted regime is realized by a found parameter above the mark."""
    path3 = catalog("path-3")
    res = find_strongly_positive_above(path3, 30.0, budget=10**7)
    assert res.lam > 30.0 and res.verdict == "strong"

    res = find_not_eventually_positive_above(path3, 30.0, budget=10**7)
    assert res.lam > 30.0 and res.verdict == "none"

    for name in ("lasso-4", "star-5"):
        res = find_eventual_not_positive_above(catalog(name), 5.0, budget=10**7)
        assert res.lam > 5.0 and res.verdict == "eventual", name
        # the verdict is from the classifier; confirm on the independent route
        assert expm_oracle(assemble_outer(catalog(name), res.lam)).klass == "strict_eventually"

    with pytest.raises(NoCycle):
        find_eventual_not_positive_above(catalog("braid-5"), 5.0, budget=10**6)
    rc = main(["find-eventual", "--graph", "catalog:braid-5", "--above", "5"])
    assert rc == 2
    print("criterion 08 PASS: strong/none above 30, eventual above 5, NoCycle exits 2")


def test_c09_residue_probe():
    """Numeric residues at the first two poles of the unit interval."""
    g = catalog("interval")
    r1 = pole_residue_probe(g, 1, 0)
    r2 = pole_residue_probe(g, 2, 0)
    assert r1 == pytest.approx(-2 * PI2, rel=1e-6)
    assert r2 == pytest.approx(8 * PI2, rel=1e-6)
    print(f"criterion 09 PASS: residues {r1:.9f}, {r2:.9f}")


def _metzlerized(rng, n):
    A = np.abs(rng.normal(size=(n, n))) + 0.05
    A = (A + A.T) / 2.0
    np.fill_diagonal(A, rng.normal(size=n))
    return -A


def _agreement_case(rng, i):
    n = int(rng.integers(3, 7))
    kind = i % 5
    if kind in (0, 1):
        B = rng.normal(size=(n, n))
        return (B + B.T) / 2.0
    if kind == 2:
        return _metzlerized(rng, n)
    if kind == 3:
        k = max(1, n // 2)
        M = np.zeros((n, n))
        M[:k, :k] = _metzlerized(rng, k)
        M[k:, k:] = _metzlerized(rng, n - k)
        return M
    return np.diag(rng.normal(size=n))


def test_c10_classifier_vs_oracle():
    """500 random symmetric matrices: the sign-pattern classifier and the
    exponential oracle never disagree outside the flagged gray zone."""
    expected = {
        "strong": "strict_all",
        "eventual": "strict_eventually",
        "none": "never",
        "positive": "never",
    }
    rng = np.random.default_rng(1010)
    t0 = time.perf_counter()
    flagged = 0
    disagreements = []
    for i in range(500):
        M = _agreement_case(rng, i)
        verdict = classify(M)
        oracle = expm_oracle(M)
        if verdict.tag == "marginal" or oracle.ambiguous:
            flagged += 1
            continue
        w = np.linalg.eigvalsh(-M)
        scale = max(1.0, abs(w[-1]), abs(w[0]))
        gap = w[-1] - w[-2]
        min_proj = abs(verdict.evidence.get("min_projection", 1.0))
        if gap < 5e-3 * scale or min_proj < 1e-6:
            # nearly degenerate top space: the crossover time can sit past
            # the oracle's grid, so neither route is authoritative
            flagged += 1
            continue
        if expected[verdict.tag] != oracle.klass:
            disagreements.append((i, verdict.tag, oracle.klass))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    assert disagreements == [], disagreements
    print(f"criterion 10 PASS: 0 unflagged disagreements ({flagged} flagged) in {elapsed:.1f}s")


def test_c11_fem_convergence_order():
    """Eigenvalue errors drop at second order under mesh halving."""
    g = catalog("interval")
    for label, graph, exact in (
        ("dirichlet-dirichlet", g, PI2),
        ("dirichlet-neumann", g.with_outer(["v1"]), (math.pi / 2) ** 2),
    ):
        errors = []
        for res in (16, 32, 64):
            got = kirchhoff_spectrum(graph, count=1, resolution=res).values[0]
            errors.append(abs(got - exact))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9, (label, orders)
    print("criterion 11 PASS: observed orders >= 1.9 for both endpoint conditions")
