"""Kronecker-style sequences, asymptotic limit matrices, and the searches."""

import contextlib
import io
import itertools
import json
import math
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dtnpos.lattice
import dtnpos.search

from dtnpos import (
    AtPole,
    BudgetExhausted,
    IndependenceNotAsserted,
    InnerBlockSingular,
    LatticeBoxTooLarge,
    LatticeSearchFailed,
    MuOutOfRange,
    NoCycle,
    NoEventualTarget,
    NotCommensurable,
    TargetSpec,
    assemble_outer,
    catalog,
    commensurable_family,
    expm_oracle,
    find_eventual_not_positive_above,
    find_not_eventually_positive_above,
    find_strongly_positive_above,
    graph_laplacian,
    kirchhoff_spectrum,
    kronecker_sequence,
    lambda_1,
    limit_matrix_Q,
    limit_schur,
    pole_scan,
    rationally_independent,
    surds_independent,
    validate,
    verify_limit,
)
from dtnpos.cli import main
from dtnpos.lattice import (
    DELTA,
    RELATIONS_HELD,
    _integer_relation,
    babai_nearest,
    box_offsets,
    enumerate_near,
    gram_schmidt,
    integer_relation,
    lll_reduce,
)
from dtnpos.search import (
    BudgetMeter,
    _anchor_lam,
    _arc_survivors,
    _phase_turns,
    _phase_window,
    _solve_level,
    _window_survivors,
    commensurable_base,
    parse_gamma,
)

from conftest import PRIMES, SCALES


def test_target_spec_rejects_zero():
    with pytest.raises(ValueError):
        TargetSpec(gammas=(1.0, 0.0))
    with pytest.raises(ValueError):
        TargetSpec(gammas=(float("nan"),))


def test_target_spec_levels():
    spec = TargetSpec(gammas=(2.0, -1.0, math.inf, -math.inf))
    t4 = spec.level_targets(4)
    assert t4[0] == 0.5 and t4[1] == -0.25
    assert t4[2] == 0.5 and t4[3] == -0.5  # +-1/sqrt(4)
    assert spec.limit_offdiag(0) == 0.5
    assert spec.limit_offdiag(2) == 0.0


@pytest.mark.parametrize(
    "token,value",
    [("inf", math.inf), ("+inf", math.inf), ("-inf", -math.inf), ("2.5", 2.5), (3, 3.0),
     ("INF", math.inf), (" +Infinity ", math.inf), ("1e3", 1000.0)],
)
def test_parse_gamma(token, value):
    assert parse_gamma(token) == value


def test_rational_independence_probe():
    assert rationally_independent((1.0, math.sqrt(2)))
    assert rationally_independent((math.sqrt(2), math.sqrt(3), math.sqrt(5)))
    assert not rationally_independent((2.0, 4.0, 6.0))
    assert not rationally_independent((1.0, 1.5))
    assert rationally_independent((1.0,))
    # every pair of these is independent; all of them together are not
    r2, r3 = math.sqrt(2), math.sqrt(3)
    assert not rationally_independent((1.0, r2, 1.0 + r2))
    assert not rationally_independent((r2, r3, r2 + 2.0 * r3))
    assert integer_relation((1.0, r2, 1.0 + r2)) == (-1, -1, 1)
    assert integer_relation((r2, r3, r2 + 2.0 * r3)) == (-1, -2, 1)
    assert integer_relation((1.0, 1.5)) == (-3, 2)
    assert integer_relation((1.0,)) is None and integer_relation(()) is None


def _is_witness(c, values):
    """The kernel's witness condition, checked from its definition: a nonzero
    c whose box (2 |c|_inf + 1)^n holds at most 1e10 vectors and whose exact
    sum is within 8 |c|_1 u max|v| of zero."""
    v = [Fraction(x) for x in values]
    size = sum(map(abs, c))
    return (size > 0 and (2 * max(map(abs, c)) + 1) ** len(c) <= 10 ** 10
            and abs(sum(ci * x for ci, x in zip(c, v))) <= size * 8 * max(v) / 2 ** 53)


def test_integer_relation_finds_planted_relations():
    rng = np.random.default_rng(18)
    for _ in range(150):
        n = int(rng.integers(2, 8))
        c = [int(x) for x in rng.integers(-4, 5, size=n)]
        c[-1] = int(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        c[0] = c[0] or 1
        base = [float(x) for x in rng.uniform(0.2, 5.0, size=n - 1)]
        # the last value is the correctly rounded real solution of sum c_i v_i = 0
        last = float(-sum(ci * Fraction(x) for ci, x in zip(c, base)) / c[-1])
        values = base + [last]
        found = integer_relation(values)
        assert found is not None, c
        assert _is_witness(found, values)


def test_integer_relation_answers_from_memory_as_computed():
    # planted relations as in the test above, each asked as a list, a tuple
    # and an array: the kept answer is the one a fresh computation gives, and
    # the second and third forms are answered without running LLL again
    rng = np.random.default_rng(36)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        c = [int(x) for x in rng.integers(-4, 5, size=n)]
        c[-1] = int(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        c[0] = c[0] or 1
        base = [float(x) for x in rng.uniform(0.2, 5.0, size=n - 1)]
        values = base + [float(-sum(ci * Fraction(x) for ci, x in zip(c, base)) / c[-1])]
        fresh = _integer_relation.__wrapped__(tuple(values))
        assert fresh is not None
        hits = _integer_relation.cache_info().hits
        for form in (list(values), tuple(values), np.array(values)):
            assert integer_relation(form) == fresh
        assert _integer_relation.cache_info().hits >= hits + 2
    # bounded, above the 17 length sets of a search pass
    assert _integer_relation.cache_info().maxsize == RELATIONS_HELD
    assert 17 < RELATIONS_HELD < math.inf


def test_integer_relation_witnesses_meet_the_bound():
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(300):
        n = int(rng.integers(2, 11))
        values = [float(x) for x in rng.uniform(0.2, 5.0, size=n)]
        # a float sum: a relation that holds up to its rounding
        if rng.random() < 0.5:
            values[-1] = math.fsum(values[:-1]) / float(rng.integers(1, 4))
        c = integer_relation(values)
        if c is not None:
            found += 1
            assert _is_witness(c, values) and [x for x in c if x][-1] > 0
    assert found >= 100


def test_integer_relation_passes_surd_lengths():
    # distinct primes times the scales of random_surd_graph: independent by construction
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        primes = rng.choice(PRIMES, size=n, replace=False)
        scales = rng.choice(SCALES, size=n)
        assert integer_relation([float(a) * float(p) ** 0.5
                                 for p, a in zip(primes, scales)]) is None


def test_kronecker_sequence_lasso(lasso):
    spec = TargetSpec.uniform(1.0, 4)
    seq = kronecker_sequence(lasso, spec, count=4, budget=10**6)
    assert len(seq.lambdas) == 4
    assert list(seq.lambdas) == sorted(seq.lambdas)
    assert seq.lambdas[0] > 0
    for lam, res, level in zip(seq.lambdas, seq.residuals, seq.levels):
        assert res < 1.0 / level**2
        # residual really is the worst window defect at that lam
        worst = max(
            abs(math.sin(math.sqrt(lam) * L) - t)
            for L, t in zip(lasso.lengths, spec.level_targets(level))
        )
        assert worst == pytest.approx(res, rel=1e-9, abs=1e-15)
    assert 0 < seq.budget_used <= 10**6


def test_kronecker_budget_exhaustion(lasso):
    with pytest.raises(BudgetExhausted) as exc:
        kronecker_sequence(lasso, TargetSpec.uniform(1.0, 4), count=12, budget=3)
    assert exc.value.budget == 3
    assert exc.value.best_residual < math.inf


def test_kronecker_requires_independence():
    lengths = (1.0, 2.0)
    # the message names the keyword the searches really take
    with pytest.raises(IndependenceNotAsserted, match="pass assert_independent=True"):
        kronecker_sequence(lengths, TargetSpec.uniform(1.0, 2), count=1, budget=1000)


def _surd_graph(vertices, edges, outer):
    return validate({
        "vertices": vertices,
        "edges": [{"u": u, "v": v, "length_expr": x} for u, v, x in edges],
        "outer": outer,
    })


def test_surd_lengths_decided_exactly():
    # this ratio sits within 9.7e-15 of 1124819/592030, a relation far outside
    # the kernel's coefficient box, so the float test passes it too
    assert rationally_independent((math.sqrt(37), 0.5 * math.sqrt(41)))
    assert surds_independent(["sqrt(37)", "1/2*sqrt(41)"])
    assert not surds_independent(["sqrt(8)", "3/2*sqrt(2)"])
    assert not surds_independent(["sqrt(5)", "sqrt(12)", "1/2*sqrt(3)"])
    g = _surd_graph(["a", "b", "c"], [("a", "b", "sqrt(37)"), ("b", "c", "1/2*sqrt(41)")],
                    ["a", "c"])
    seq = kronecker_sequence(g, TargetSpec.uniform(1.0, 2), count=2, budget=10**6)
    assert len(seq.lambdas) == 2
    # plain float lengths go through integer_relation, which agrees here
    assert kronecker_sequence(g.lengths, TargetSpec.uniform(1.0, 2), count=2,
                              budget=10**6) == seq


def test_kronecker_names_a_joint_relation(tmp_path, capsys):
    # pairwise independent float lengths with one joint relation: the
    # search refuses them, naming the relation, before it charges anything
    r2 = math.sqrt(2)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d"],
        "edges": [{"u": "a", "v": "b", "length": 1.0}, {"u": "b", "v": "c", "length": r2},
                  {"u": "c", "v": "d", "length": 1.0 + r2}],
        "outer": ["a", "d"],
    }))
    argv = ["kronecker", "--graph", str(path), "--gamma", "1,1,1", "--count", "8",
            "--budget", "200000"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "c = (-1, -1, 1)" in err and "--assert-independent" in err
    with pytest.raises(IndependenceNotAsserted) as exc:
        kronecker_sequence([r2, math.sqrt(3), r2 + 2.0 * math.sqrt(3)],
                           TargetSpec.uniform(1.0, 3), count=1, budget=10**6)
    assert exc.value.relation == (-1, -2, 1)


def test_surd_lengths_rational_ratio_rejected():
    g = _surd_graph(["a", "b", "c"], [("a", "b", "sqrt(8)"), ("b", "c", "3/2*sqrt(2)")],
                    ["a", "c"])
    with pytest.raises(IndependenceNotAsserted):
        find_strongly_positive_above(g, 1.0, budget=10**4)


@pytest.mark.parametrize("n,radius", [(1, 2), (3, 1), (4, 2)])
def test_enumerate_near_box_in_product_order(n, radius):
    rng = np.random.default_rng(7)
    B, Bs = lll_reduce(rng.normal(size=(n, n)) + 3.0 * np.eye(n))
    target = rng.normal(size=n) * 5.0
    side = 2 * radius + 1
    slabs = list(enumerate_near(B, Bs, target, radius, box_offsets(B, radius)))
    assert len(slabs) == side
    assert all(slab.shape == (side ** (n - 1), n) for slab in slabs)
    # the slab rows, concatenated, are the per-vector stream in product order
    vectors = np.concatenate(slabs)
    offsets = list(product(range(-radius, radius + 1), repeat=n))
    assert len(vectors) == side ** n == len(offsets)
    v0 = vectors[offsets.index((0,) * n)]
    assert np.array_equal(v0, babai_nearest(B, Bs, target))
    scale = np.abs(B).max() * (1 + radius * n) + np.abs(v0).max()
    for v, c in zip(vectors, offsets):
        want = v0 + np.asarray(c, dtype=float) @ B
        assert np.abs(v - want).max() <= 1e-12 * scale


def _box_by_index_matrix(B, target, radius):
    """The box as the search built it before: offsets from np.indices, one matmul."""
    n = B.shape[0]
    side = 2 * radius + 1
    rest = np.indices((side,) * (n - 1)).reshape(n - 1, side ** (n - 1)).T - radius
    tail = rest.astype(float) @ B[1:]
    v0 = babai_nearest(B, gram_schmidt(B)[0], target)
    return np.concatenate([(v0 + c0 * B[0]) + tail for c0 in range(-radius, radius + 1)])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    radius=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    log_ratio=st.floats(min_value=0.0, max_value=12.0),
)
def test_box_column_matches_full_box_bitwise(n, radius, seed, log_ratio):
    # search-shaped bases: the multiplier coordinate rint(first / c0) of every
    # box vector is read from the column alone, so it must equal column 0 of
    # the full box in every bit
    rng = np.random.default_rng(seed)
    w = 10.0 ** rng.uniform(0.0, 3.0, n - 1)
    B = np.diag(np.concatenate(([w.max(initial=1.0) / 10.0 ** log_ratio], w)))
    B[0, 1:] = w * rng.uniform(0.0, 1.0, n - 1)
    B_red, Bs = lll_reduce(B)
    assert np.array_equal(Bs, gram_schmidt(B_red)[0])
    target = np.concatenate(([B[0, 0] * rng.uniform(0.0, 1e6)],
                             w * rng.uniform(0.0, 1.0, n - 1)))
    full = _box_by_index_matrix(B_red, target, radius)
    column = np.concatenate(list(enumerate_near(
        B_red, Bs, target, radius, box_offsets(B_red[:, :1], radius))))
    assert column.shape == (len(full), 1)
    assert np.array_equal(column[:, 0], full[:, 0])
    assert np.array_equal(np.concatenate(list(enumerate_near(
        B_red, Bs, target, radius, box_offsets(B_red, radius)))), full)


def test_babai_reuses_the_lll_orthogonalization(monkeypatch):
    # one orthogonalization per reduced basis serves every CVP attempt
    calls = []

    def counted(B):
        calls.append(1)
        return gram_schmidt(B)

    monkeypatch.setattr(dtnpos.lattice, "gram_schmidt", counted)
    g = _surd_graph(*CORE7)
    seq = kronecker_sequence(g, TargetSpec.uniform(1.0, 7), count=2, budget=10**7)
    assert seq.budget_used == 7343
    assert len(calls) <= 2  # the LLL seed and its fresh check, none per attempt


def test_lattice_box_bound_admits_ten_edges():
    side = 2 * dtnpos.search._LATTICE_RADIUS + 1
    assert side ** 10 <= dtnpos.search._LATTICE_BOX_MAX < side ** 11


def test_lattice_box_too_large_is_raised_before_the_lattice(monkeypatch):
    # braid-5 takes the lattice route from level 2 with a 5^5 box
    monkeypatch.setattr(dtnpos.search, "_LATTICE_BOX_MAX", 5 ** 5 - 1)

    def refuse(*args, **kw):
        raise AssertionError("reduced a basis for a box over the bound")

    monkeypatch.setattr(dtnpos.search, "lll_reduce", refuse)
    with pytest.raises(LatticeBoxTooLarge) as exc:
        kronecker_sequence(catalog("braid-5"), TargetSpec.uniform(1.0, 5), count=4,
                           budget=10**7)
    assert (exc.value.size, exc.value.bound) == (5 ** 5, 5 ** 5 - 1)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_lattice_box_too_large_exits_one():
    # 13 edges: a 5^13 box, for which numpy used to be asked for 21.8 GiB
    rc, out, err = _cli(["find-eventual", "--graph", "catalog:two-cluster",
                         "--assert-independent", "--above", "1"])
    assert (rc, out) == (1, "")
    assert err == ("error: lattice enumeration box of 1220703125 vectors for 13 edges "
                   "exceeds the bound of 33554432\n")


def test_lattice_search_failure_exits_one(monkeypatch):
    monkeypatch.setattr(dtnpos.search, "_LATTICE_ATTEMPTS_MAX", 3)
    with pytest.raises(LatticeSearchFailed):
        kronecker_sequence(catalog("braid-5"), TargetSpec.uniform(1.0, 5), count=4,
                           budget=10**7)
    rc, out, err = _cli(["kronecker", "--graph", "catalog:braid-5", "--gamma=1,1,1,1,1",
                         "--count", "4"])
    assert (rc, out) == (1, "")
    assert err == "error: lattice enumeration failed to locate an admissible window in 3 attempts\n"


def test_no_eventual_target_exits_one(monkeypatch):
    monkeypatch.setattr(dtnpos.search, "_eventual_candidates", lambda g: iter(()))
    with pytest.raises(NoEventualTarget):
        find_eventual_not_positive_above(catalog("lasso-4"), 30.0, budget=10**4)
    rc, out, err = _cli(["find-eventual", "--graph", "catalog:lasso-4", "--above", "30"])
    assert (rc, out) == (1, "")
    assert err == "error: no candidate target reached the eventual class in the limit\n"


# a seven-edge surd graph whose level-2 windows take the lattice route
CORE7 = (
    ["v1", "v2", "v3", "v4", "v5", "v6", "v7"],
    [("v1", "v2", "1/2*sqrt(2)"), ("v1", "v4", "1/2*sqrt(37)"), ("v1", "v5", "sqrt(31)"),
     ("v2", "v3", "3/2*sqrt(11)"), ("v2", "v6", "1/2*sqrt(23)"), ("v3", "v7", "sqrt(17)"),
     ("v5", "v6", "1/2*sqrt(43)")],
    ["v1", "v2", "v3", "v4", "v5", "v6"],
)


@pytest.fixture
def lattice_calls(monkeypatch):
    calls = []

    def counted(B):
        calls.append(B.shape)
        return lll_reduce(B)

    monkeypatch.setattr(dtnpos.search, "lll_reduce", counted)
    return calls


def test_kronecker_lattice_route_frozen(lattice_calls):
    g = _surd_graph(*CORE7)
    seq = kronecker_sequence(g, TargetSpec.uniform(1.0, 7), count=2, budget=10**7)
    assert lattice_calls == [(7, 7)]  # level 1 scans, level 2 solves a CVP
    assert seq.levels == (1, 2)
    assert seq.lambdas == pytest.approx((12019206.806539701, 648078826457.693), rel=1e-12)
    assert seq.residuals == pytest.approx((0.9639584670410459, 0.21499548123747203), rel=1e-9)
    assert seq.budget_used == 7343


@pytest.mark.parametrize("budget,best", [(4072, 0.32380117629815885),
                                         (5207, 0.25347401134834835)])
def test_kronecker_lattice_route_budget_exhaustion(lattice_calls, budget, best):
    g = _surd_graph(*CORE7)
    with pytest.raises(BudgetExhausted) as exc:
        kronecker_sequence(g, TargetSpec.uniform(1.0, 7), count=2, budget=budget)
    assert lattice_calls == [(7, 7)]
    assert exc.value.level == 2
    assert exc.value.best_residual == pytest.approx(best, rel=1e-9)


def test_kronecker_lattice_route_best_counts_misses_before_hit():
    # the level-2 CVP attempt charges misses before its hit, and one of them
    # has a lower residual (0.2268) than the hit itself (0.2402)
    g = _surd_graph(
        ["v1", "v2", "v3", "v4", "v5", "v6", "v7"],
        [("v1", "v2", "sqrt(43)"), ("v1", "v4", "sqrt(3)"), ("v2", "v3", "sqrt(23)"),
         ("v3", "v4", "sqrt(5)"), ("v3", "v6", "3/2*sqrt(7)"), ("v4", "v5", "sqrt(17)"),
         ("v4", "v7", "1/2*sqrt(47)")],
        ["v1", "v2", "v3", "v5", "v6", "v7"])
    spec = TargetSpec.uniform(-1.0, 7)
    seq = kronecker_sequence(g, spec, count=2, budget=10**6)
    assert seq.residuals[1] == pytest.approx(0.24023622099813902, rel=1e-9)
    assert seq.budget_used == 21381
    with pytest.raises(BudgetExhausted) as exc:
        kronecker_sequence(g, spec, count=3, budget=seq.budget_used)
    assert exc.value.level == 3
    assert exc.value.best_residual == pytest.approx(0.226800457186011, rel=1e-9)


def _lll_reference(B):
    """LLL that recomputes the whole Gram-Schmidt basis on every swap.

    The loop lll_reduce replaced; it makes 1 + (number of swaps)
    orthogonalizations and serves as the bitwise reference.
    """
    B = np.array(B, dtype=float)
    n = B.shape[0]
    Bs, mu = dtnpos.lattice.gram_schmidt(B)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                B[k] -= q * B[j]
                mu[k, :j] -= q * mu[j, :j]
                mu[k, j] -= q
        if Bs[k] @ Bs[k] >= (DELTA - mu[k, k - 1] ** 2) * (Bs[k - 1] @ Bs[k - 1]):
            k += 1
        else:
            B[[k - 1, k]] = B[[k, k - 1]]
            Bs, mu = dtnpos.lattice.gram_schmidt(B)
            k = max(k - 1, 1)
    return B


def _lll_inputs(monkeypatch, lengths, count):
    """Run a gamma = 1 kronecker_sequence; returns it and copies of the bases
    it hands to lll_reduce."""
    bases = []

    def recorded(B):
        bases.append(np.array(B))
        return lll_reduce(B)

    with monkeypatch.context() as m:
        m.setattr(dtnpos.search, "lll_reduce", recorded)
        seq = kronecker_sequence(lengths, TargetSpec.uniform(1.0, len(lengths)), count=count,
                                 budget=10**7, assert_independent=True)
    return seq, bases


def _assert_lll_reduced(B):
    """A fresh Gram-Schmidt of B passes the LLL loop's own tests."""
    Bs, mu = gram_schmidt(B)
    norms = [float(v @ v) for v in Bs]
    for k in range(1, len(B)):
        assert all(round(mu[k, j]) == 0 for j in range(k)), (k, mu[k, :k])
        assert norms[k] >= (DELTA - mu[k, k - 1] ** 2) * norms[k - 1], k


def _int_det(M):
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    M = [[int(x) for x in row] for row in M]
    n, sign, prev = len(M), 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


def _assert_same_lattice(B, reduced):
    """reduced = U B for an integer U with |det U| = 1."""
    U = np.linalg.solve(B.T, reduced.T).T
    R = np.rint(U)
    assert np.abs(U - R).max() <= 0.1
    assert abs(_int_det(R)) == 1


def test_lll_matches_swap_recompute_reference(monkeypatch, braid, star5):
    # CORE7 is the benchmark's core-7edge-2 graph; braid-5 and star-5 share
    # their lengths, so their count-4 levels hand LLL the same two bases
    _, bases = _lll_inputs(monkeypatch, _surd_graph(*CORE7).lengths, 2)
    for g in (braid, star5):
        bases += _lll_inputs(monkeypatch, g.lengths, 4)[1]
    assert [B.shape for B in bases] == [(7, 7)] + [(5, 5)] * 4
    for B in bases:
        assert np.array_equal(lll_reduce(B)[0], _lll_reference(B))


def test_lll_orthogonalizes_at_most_twice(monkeypatch):
    (B,) = _lll_inputs(monkeypatch, _surd_graph(*CORE7).lengths, 2)[1]
    calls = []

    def counted(B):
        calls.append(1)
        return gram_schmidt(B)

    monkeypatch.setattr(dtnpos.lattice, "gram_schmidt", counted)
    lll_reduce(B)
    assert len(calls) <= 2  # the seed and the fresh check
    calls.clear()
    _lll_reference(B)
    assert len(calls) == 129  # one more for each of its 128 swaps


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    log_ratio=st.floats(min_value=0.0, max_value=16.0),
)
def test_lll_post_condition_on_search_shaped_bases(n, seed, log_ratio):
    # the shape _solve_level builds: row 0 is (c0, w_e rho_e), row e holds w_e
    # on the diagonal, with c0 tiny against the weights
    rng = np.random.default_rng(seed)
    w = 10.0 ** rng.uniform(0.0, 3.0, n - 1)
    B = np.diag(np.concatenate(([w.max() / 10.0 ** log_ratio], w)))
    B[0, 1:] = w * rng.uniform(0.0, 1.0, n - 1)
    reduced = lll_reduce(B)[0]
    _assert_lll_reduced(reduced)
    _assert_same_lattice(B, reduced)


def test_lll_nine_edge_level4_frozen(monkeypatch):
    # sqrt of the first nine primes: the level-4 basis spans a scale ratio of
    # 3e15 and the in-place updates drift there; without the fresh check LLL
    # stops on an unreduced basis (max |mu| 1.29) and the search charges
    # 1224931 candidates instead of 1082721
    lengths = [math.sqrt(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)]
    seq, bases = _lll_inputs(monkeypatch, lengths, 4)
    assert seq.levels == (1, 2, 3, 4)
    assert seq.lambdas == pytest.approx((2020817673.5694602, 4.979908188648249e+17,
                                         1.7887490375604488e+22, 8.431526689947808e+26),
                                        rel=1e-12)
    assert seq.budget_used == 1082721
    assert len(bases) == 3  # levels 2-4 take the lattice route
    for B in bases[:2]:
        assert np.array_equal(lll_reduce(B)[0], _lll_reference(B))
    B = bases[2]
    scale = np.abs(B[B != 0])
    assert scale.max() / scale.min() > 3e15
    reduced = lll_reduce(B)[0]
    _assert_lll_reduced(reduced)
    _assert_same_lattice(B, reduced)
    assert np.linalg.norm(reduced, axis=1) == pytest.approx(
        np.linalg.norm(_lll_reference(B), axis=1), rel=1e-9)


# a six-edge surd graph whose level-2 window takes a scan of ~680 000 candidates
SCAN6 = (
    ["v1", "v2", "v3", "v4", "v5", "v6"],
    [("v1", "v2", "sqrt(19)"), ("v2", "v3", "1/2*sqrt(13)"), ("v2", "v5", "3/2*sqrt(23)"),
     ("v3", "v4", "1/2*sqrt(47)"), ("v3", "v6", "1/2*sqrt(2)"), ("v4", "v5", "1/2*sqrt(37)")],
    ["v1", "v3", "v4", "v5", "v6"],
)


def test_kronecker_scan_route_frozen(lattice_calls):
    g = _surd_graph(*SCAN6)
    seq = kronecker_sequence(g, TargetSpec.uniform(1.0, 6), count=2, budget=10**7)
    assert lattice_calls == []
    assert seq.lambdas == pytest.approx((3934879.691908792, 359183802463.12537), rel=1e-12)
    assert seq.residuals == pytest.approx((0.29289321881345076, 0.2495449972556345), rel=1e-9)
    assert seq.budget_used == 686173


@pytest.mark.parametrize("budget,best", [(274469, 0.1346079784293343),
                                         (528353, 0.12975145130236415)])
def test_kronecker_scan_route_budget_exhaustion(budget, best):
    g = _surd_graph(*SCAN6)
    with pytest.raises(BudgetExhausted) as exc:
        kronecker_sequence(g, TargetSpec.uniform(1.0, 6), count=2, budget=budget)
    assert exc.value.level == 2
    assert exc.value.best_residual == pytest.approx(best, rel=1e-9)


def test_kronecker_scan_route_best_counts_misses_before_hit(path3):
    # brute force: walk the scan candidates one at a time in scan order and
    # keep the residual of every candidate charged within the budget
    spec, budget = TargetSpec.uniform(1.0, 2), 21
    lengths = list(path3.lengths)
    anchor = max(range(len(lengths)), key=lambda e: lengths[e])
    charged, lam_prev, level = [], 0.0, 1
    while len(charged) < budget:
        targets, w = spec.level_targets(level), 1.0 / level ** 2
        lo, hi = _phase_window(targets[anchor], w)
        theta = 0.5 * (lo + hi)
        m = max(1, math.floor((math.sqrt(lam_prev) * lengths[anchor] - theta) / (2.0 * math.pi)) + 1)
        while len(charged) < budget:
            lam = ((theta + 2.0 * math.pi * m) / lengths[anchor]) ** 2
            x = math.sqrt(lam) * np.array(lengths)
            charged.append(float(np.abs(np.sin(x) - targets).max()))
            if charged[-1] < w and (np.cos(x) > 0.0).all():
                lam_prev, level = lam, level + 1
                break
            m += 1
    with pytest.raises(BudgetExhausted) as exc:
        kronecker_sequence(path3, spec, count=4, budget=budget, assert_independent=True)
    assert exc.value.level == level == 3
    assert exc.value.best_residual == pytest.approx(min(charged), rel=1e-12)
    # a miss before the level-3 hit; the hit alone has 0.1589
    assert exc.value.best_residual == pytest.approx(0.02300362194134231, rel=1e-9)


@pytest.mark.parametrize("lengths", [[1.0, math.sqrt(17)],
                                     [math.sqrt(2), math.sqrt(3), math.sqrt(5)],
                                     [1.0, math.sqrt(2), math.sqrt(3), math.sqrt(7)]])
@pytest.mark.parametrize("level", [2, 3, 4])
def test_solve_level_charges_like_one_at_a_time(monkeypatch, lengths, level):
    # reference: evaluate the scan candidates m = 1, 2, ... one at a time and
    # charge each; at a budget up to just past the hit, _solve_level gives the
    # same lam, residual, charge and best residual, bitwise, or runs out with
    # the best residual of the candidates charged within the budget.  Every
    # budget is checked below 256 candidates; past that a sample, with both
    # sides of each multiple of 2048 (where a scan block can end)
    monkeypatch.setattr(dtnpos.search, "lll_reduce", None)  # the scan route only
    targets = TargetSpec.uniform(1.0, len(lengths)).level_targets(level)
    w = 1.0 / level ** 2
    anchor = max(range(len(lengths)), key=lambda e: lengths[e])
    lo, hi = _phase_window(targets[anchor], w)
    best, steps = math.inf, []
    for m in itertools.count(1):
        lam = _anchor_lam(np.array([float(m)]), lengths[anchor], 0.5 * (lo + hi))
        res, ok = _window_survivors(lam, lengths, targets, w)
        steps.append(best)  # the best residual when this candidate is reached
        best = min(best, float(res[0]))
        if ok[0]:
            hit = (float(lam[0]), float(res[0]), m, best)
            break
    n = hit[2] + 3
    budgets = set(range(min(n, 256))) | set(range(n - 5, n)) | set(range(0, n, 1 + n // 128))
    budgets |= {b + d for b in range(2048, n, 2048) for d in (-1, 0, 1)}
    for budget in sorted(budgets):
        meter = BudgetMeter(budget)
        if budget < hit[2]:
            with pytest.raises(BudgetExhausted) as exc:
                _solve_level(lengths, targets, w, 0.0, meter)
            assert exc.value.best_residual == steps[budget]
        else:
            got = _solve_level(lengths, targets, w, 0.0, meter)
            assert (*got, meter.spent, meter.best_residual) == hit


def test_window_survivors_match_full_evaluation():
    # _window_survivors returns, bitwise, the residual and admissibility that
    # a candidate-by-candidate, edge-by-edge evaluation gives; _arc_survivors
    # at max(w, cap) keeps every candidate that could hit (residual below w)
    # or lower a best residual of cap (residual at most cap)
    rng = np.random.default_rng(3)
    evaluated = kept = 0
    for case in range(600):
        n_edges = int(rng.integers(1, 8))
        lengths = list(rng.uniform(0.3, 5.0, n_edges))
        level = int(rng.choice([1, 2, 3, 4, 7, 12, 22, 45]))
        w = 1.0 / level ** 2
        targets = list(rng.choice([1.0, 0.5, -0.5, 0.25, -1 / 3, 1.0 / level, -1.0 / level,
                                   1.0 / math.sqrt(level), -1.0 / math.sqrt(level)], n_edges))
        top = 10.0 ** rng.uniform(0.0, 12.0)
        if case % 2:  # scattered integer multipliers, ascending, as the lattice route passes them
            m = np.unique(np.floor(rng.uniform(1.0, top + 1.0, int(rng.integers(1, 3000)))))
        else:  # contiguous ones, as the scan route passes them
            m = math.floor(top) + np.arange(int(rng.integers(1, 3000)), dtype=float)
        La, theta_c = max(lengths), float(rng.uniform(-1.5, 1.5))
        lam = ((theta_c + 2.0 * math.pi * m) / La) ** 2
        mu = np.sqrt(lam)
        res = np.zeros_like(lam)
        ok = np.ones(lam.shape, dtype=bool)
        for L, v in zip(lengths, targets):
            res = np.maximum(res, np.abs(np.sin(mu * L) - v))
            ok &= np.cos(mu * L) > 0.0
        ok &= res < w
        # infinite, below w, w itself, above w, and a candidate's own residual
        # (kept by <=, so it sits exactly on the filter's bound)
        cap = [math.inf, w * float(rng.uniform(0.0, 1.0)), w,
               w + (1.0 - w) * float(rng.uniform(0.0, 1.0)),
               float(np.quantile(res, 0.02, method="lower"))][case % 5]
        part, admissible = _window_survivors(lam, lengths, targets, w)
        assert np.array_equal(part, res)  # bitwise: same elementwise operations
        assert np.array_equal(admissible, ok)
        rho, beta = _phase_turns(lengths, La, theta_c)
        pos = _arc_survivors(m, rho, beta, targets, max(w, cap))
        assert np.all(np.diff(pos) > 0)
        assert np.isin(np.flatnonzero((res < w) | (res <= cap)), pos).all()
        if not math.isinf(cap):
            evaluated += len(m)
            kept += len(pos)
    assert kept < 0.5 * evaluated  # the arithmetic does rule candidates out


def test_scan_budget_runs_out_inside_the_first_chunk(path3):
    # gamma = -1 on path-3 expects a level-1 hit within 4 candidates, so the
    # first scan block holds 16; the hit is the 4th, and a budget of 2 runs
    # out inside that block, at the infinite bound, with the best of the two
    # candidates it charged
    spec = TargetSpec.uniform(-1.0, 2)
    lengths = list(path3.lengths)
    anchor = max(range(2), key=lambda e: lengths[e])
    targets = spec.level_targets(1)
    lo, hi = _phase_window(targets[anchor], 1.0)
    mu = (0.5 * (lo + hi) + 2.0 * math.pi * np.arange(1.0, 5.0)) / lengths[anchor]
    res = np.max([np.abs(np.sin(mu * L) - v) for L, v in zip(lengths, targets)], axis=0)
    for budget in (1, 2, 3):
        with pytest.raises(BudgetExhausted) as exc:
            kronecker_sequence(path3, spec, count=1, budget=budget, assert_independent=True)
        assert exc.value.level == 1
        assert exc.value.best_residual == pytest.approx(res[:budget].min(), rel=1e-12)
    assert exc.value.best_residual == pytest.approx(0.2928932188134513, rel=1e-12)
    seq = kronecker_sequence(path3, spec, count=1, budget=4, assert_independent=True)
    assert seq.budget_used == 4


def test_limit_matrix_is_signed_laplacian(lasso):
    L = graph_laplacian(lasso)
    Q_plus = limit_matrix_Q(lasso, TargetSpec.uniform(1.0, 4))
    assert np.array_equal(Q_plus, -L)
    Q_minus = limit_matrix_Q(lasso, TargetSpec.uniform(-1.0, 4))
    assert np.array_equal(Q_minus, L)
    assert np.all(Q_plus.sum(axis=1) == 0.0)


def test_limit_matrix_infinite_token(lasso):
    spec = TargetSpec(gammas=(1.0, 1.0, 1.0, math.inf))
    Q = limit_matrix_Q(lasso, spec)
    i, j = lasso.index("v2"), lasso.index("v3")
    assert Q[i, j] == 0.0  # the chord is switched off
    assert np.all(Q.sum(axis=1) == 0.0)


def limit_matrix_loop(g, spec):
    """Q edge by edge: 0.0 - 1/gamma_e subtracted at both positions of e, then
    each diagonal entry minus its row's sum."""
    n = g.n_vertices
    Q = np.zeros((n, n))
    for e, (i, j) in enumerate(g.edge_indices):
        x = spec.limit_offdiag(e)
        Q[i, j] -= x
        Q[j, i] -= x
    for k in range(n):
        Q[k, k] = 0.0
        Q[k, k] = -Q[k].sum()
    return Q


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["interval", "path-3", "lasso-4", "star-5", "braid-5",
                             "two-cluster"]),
       seed=st.integers(0, 2**32 - 1))
def test_limit_matrix_matches_edge_loop(name, seed):
    # the gather through the incidence gives the loop's Q byte for byte, the
    # sign of every zero included: an infinite target gives +0.0, not -0.0
    g = catalog(name)
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, 3, len(g.edges))
    finite = rng.choice([-1.0, 1.0], len(g.edges)) * rng.uniform(0.01, 50.0, len(g.edges))
    gammas = np.where(pick == 0, math.inf, np.where(pick == 1, -math.inf, finite))
    spec = TargetSpec(tuple(gammas.tolist()))
    assert limit_matrix_Q(g, spec).tobytes() == limit_matrix_loop(g, spec).tobytes()


def test_limit_schur_lasso_frozen(lasso):
    S = limit_schur(lasso, TargetSpec.uniform(1.0, 4))
    want = np.array(
        [
            [2 / 3, -1 / 3, -1 / 3],
            [-1 / 3, 5 / 3, -4 / 3],
            [-1 / 3, -4 / 3, 5 / 3],
        ]
    )
    assert S == pytest.approx(want, abs=1e-12)


def test_verify_limit_converges(lasso):
    spec = TargetSpec.uniform(1.0, 4)
    seq = kronecker_sequence(lasso, spec, count=6, budget=10**6)
    ver = verify_limit(lasso, spec, seq)
    assert len(ver.errors) == 6
    assert ver.final_error < ver.initial_error
    assert ver.decreased


def test_find_strongly_positive(path3):
    res = find_strongly_positive_above(path3, 30.0, budget=10**6)
    assert res.lam > 30.0
    assert res.verdict == "strong"
    assert res.gammas == (1.0, 1.0)
    assert expm_oracle(assemble_outer(path3, res.lam)).klass == "strict_all"
    rec = res.to_record()
    assert rec["lambda"] == res.lam and rec["verdict"] == "strong"
    assert len(rec["residuals"]) >= 1


def test_hunt_skips_levels_the_assembly_rejects(monkeypatch, path3):
    # the first solved level lands on a pole and the second on a singular
    # inner block: the search moves on, leaves both residuals out of its
    # trail and still counts the candidates it charged on them
    real, calls = dtnpos.search.assemble_outer, []

    def rejecting(g, lam):
        calls.append(lam)
        if len(calls) == 1:
            raise AtPole(lam)
        if len(calls) == 2:
            raise InnerBlockSingular(lam, math.inf)
        return real(g, lam)

    monkeypatch.setattr(dtnpos.search, "assemble_outer", rejecting)
    res = find_strongly_positive_above(path3, 0.0, budget=10**6, assert_independent=True)
    assert len(calls) >= 3
    # gamma = 1 keeps every level sign-safe, so the search solves the same
    # levels as the plain sequence does
    seq = kronecker_sequence(path3, TargetSpec.uniform(1.0, 2), count=len(calls),
                             budget=10**6, assert_independent=True)
    assert seq.lambdas == tuple(calls)
    assert (res.level, res.lam, res.residual) == (seq.levels[-1], seq.lambdas[-1],
                                                  seq.residuals[-1])
    assert res.to_record()["residuals"] == list(seq.residuals[2:])
    assert res.budget_used == seq.budget_used


def test_find_not_eventually_positive(path3):
    res = find_not_eventually_positive_above(path3, 30.0, budget=10**6)
    assert res.lam > 30.0
    assert res.verdict == "none"
    assert expm_oracle(assemble_outer(path3, res.lam)).klass == "never"


def test_find_not_eventually_needs_two_outer(path3):
    solo = path3.with_outer(["v1"])
    with pytest.raises(ValueError):
        find_not_eventually_positive_above(solo, 10.0, budget=10**4)


def test_find_eventual_lasso(lasso):
    res = find_eventual_not_positive_above(lasso, 5.0, budget=10**7)
    assert res.lam > 5.0
    assert res.verdict == "eventual"
    assert min(res.gammas) < 0  # one edge target was pushed negative
    assert expm_oracle(assemble_outer(lasso, res.lam)).klass == "strict_eventually"


def test_find_eventual_star(star5):
    res = find_eventual_not_positive_above(star5, 5.0, budget=10**7)
    assert res.lam > 5.0
    assert res.verdict == "eventual"


def test_find_eventual_needs_cycle(braid):
    with pytest.raises(NoCycle):
        find_eventual_not_positive_above(braid, 5.0, budget=10**6)


def test_commensurable_base():
    assert commensurable_base((2.0, 4.0, 6.0)) == pytest.approx(2.0, rel=1e-12)
    assert commensurable_base((1.0,)) == pytest.approx(1.0)
    assert commensurable_base((1.0 / 3.0, 0.5)) == pytest.approx(1.0 / 6.0, rel=1e-9)


def _base_pair_by_pair(lengths):
    """commensurable_base with one integer_relation per edge, L_min with itself included;
    None where an edge has none."""
    L_min = min(lengths)
    relations = [integer_relation((L_min, L)) for L in lengths]
    if None in relations:
        return None
    Q = math.lcm(*(c2 for _, c2 in relations))
    return (L_min / Q) * math.gcd(*(c1 * (Q // c2) for c1, c2 in relations))


@given(base=st.floats(0.05, 3.0), multiples=st.lists(st.integers(1, 12), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_commensurable_base_one_relation_per_length(base, multiples):
    # lengths repeat, as in the benchmark's commensurable graphs; the base is
    # the one the relation of every edge gives, from one relation per
    # distinct length other than L_min
    lengths = tuple(base * m for m in multiples)
    want = _base_pair_by_pair(lengths)
    calls = []
    with mock.patch.object(dtnpos.search, "integer_relation",
                           lambda v: calls.append(v) or integer_relation(v)):
        if want is None:
            with pytest.raises(NotCommensurable):
                commensurable_base(lengths)
        else:
            assert commensurable_base(lengths) == want
    assert len(calls) == len(set(lengths)) - 1


def test_commensurable_base_repeated_lengths():
    lengths = (0.75, 1.0, 1.0, 1.25, 1.25)
    assert commensurable_base(lengths) == _base_pair_by_pair(lengths) == 0.25


def test_commensurable_base_rejects_stranded_ratio():
    # the ratio is 1 + 3.1e-7: no coefficient pair in the relation box brings
    # c_1 + c_2 (1 + pi 1e-7) within rounding of zero
    with pytest.raises(NotCommensurable):
        commensurable_base((1.0, 1.0 + math.pi * 1e-7))
    # a surd ratio has no relation either
    with pytest.raises(NotCommensurable):
        commensurable_base((1.0, math.sqrt(17)))


@pytest.fixture
def path_246():
    return validate(
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


def test_commensurable_family(path_246):
    lam1 = (math.pi / 6.0) ** 2
    fam = commensurable_family(path_246, 0.5 * lam1, [1, 2])
    assert fam.base_length == pytest.approx(2.0, rel=1e-12)
    for member in fam.members:
        assert member.identity_residual <= 1e-9
        assert member.verdict == "strong"
        want = (math.sqrt(0.5 * lam1) + 2 * math.pi * member.p / 2.0) ** 2
        assert member.lam == pytest.approx(want, rel=1e-12)


def test_commensurable_family_mu_range(path_246):
    lam1 = (math.pi / 6.0) ** 2
    with pytest.raises(MuOutOfRange):
        commensurable_family(path_246, 2.0 * lam1, [1])
    with pytest.raises(MuOutOfRange):
        commensurable_family(path_246, 0.0, [1])


def test_family_residual_exposes_surd_lengths(path3):
    # the lengths 1 and sqrt(17) have no integer relation, so there is no
    # common base and no family
    with pytest.raises(NotCommensurable):
        commensurable_family(path3, 0.05, [1])


def _star_123():
    # an inner centre with edges 1, 2, 3 to outer leaves: its lambda_1 is the
    # first inner pole, 0.6168503, which the finite elements overestimate
    return validate({
        "vertices": ["a", "b", "c", "o"],
        "edges": [{"u": "o", "v": x, "length": L} for x, L in (("a", 1.0), ("b", 2.0),
                                                               ("c", 3.0))],
        "outer": ["a", "b", "c"],
    })


def test_commensurable_family_mu_above_counted_lambda_1():
    g = _star_123()
    pole = pole_scan(g, 0.0, 1.0)[0]
    assert pole < 0.6168658 < kirchhoff_spectrum(g).values[0]
    with pytest.raises(MuOutOfRange) as exc:
        commensurable_family(g, 0.6168658, [0, 1, 2])
    # both scans locate the pole to POLE_BISECT_TOL
    assert exc.value.lam1 == pytest.approx(pole, rel=0, abs=1e-10)
    fam = commensurable_family(g, 0.6168, [1])
    assert fam.lam1 == exc.value.lam1 and fam.base_length == 1.0


@pytest.mark.parametrize("name", ["two-cluster", "star-123"])
def test_lambda_1_is_the_commensurable_bound(name):
    # the family accepts every mu below the public lambda_1 and refuses it
    g = catalog(name) if name == "two-cluster" else _star_123()
    lam1 = lambda_1(g)
    assert commensurable_family(g, (1.0 - 1e-9) * lam1, [1]).lam1 == lam1
    with pytest.raises(MuOutOfRange):
        commensurable_family(g, lam1, [1])
