"""Classifier unit cases and the expm oracle.

The classifier and the oracle are independent routes to the same answer, so
several tests drive both and compare.
"""

import sys

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import assume, given, settings, strategies as st

from dtnpos import (
    assemble_outer,
    catalog,
    classify,
    expm_oracle,
    is_irreducible,
    is_metzler,
)
from dtnpos.positivity import SIGN_TOL

from conftest import random_surd_graph


def _eventual_matrix():
    # the top eigenvector v is strictly positive but the generator fails to
    # be Metzler: the mixed-sign second eigenvector drags entry (0, 1) below 0
    v = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    u = np.array([1.0, -1.0, 0.0])
    u -= (u @ v) * v
    u /= np.linalg.norm(u)
    A = 2.0 * np.outer(v, v) + 1.5 * np.outer(u, u)
    assert A[0, 1] < 0
    return -A


def power_positive(M) -> bool:
    """Reference for a strong verdict: (mu I + A)^(n-1) > 0 entrywise, A = -M.

    mu exceeds the spectral radius, so mu I + A is non-negative wherever A is
    Metzler, and irreducibility makes its (n-1)-th power strictly positive
    (Perron-Frobenius).  Scaled by 1/mu to keep the powers bounded.
    """
    A = -np.asarray(M, dtype=float)
    n = len(A)
    mu = 1.0 + np.abs(np.linalg.eigvalsh(0.5 * (A + A.T))).max()
    return bool(np.linalg.matrix_power(np.eye(n) + A / mu, n - 1).min() > 0.0)


CASES = {
    "strong": np.array([[1.0, -2.0], [-2.0, 1.0]]),
    "positive": np.diag([1.0, 2.0]),
    "none": np.array([[1.0, 2.0], [2.0, 1.0]]),
    "eventual": _eventual_matrix(),
}
ORACLE_OF = {
    "strong": "strict_all",
    "positive": "never",
    "none": "never",
    "eventual": "strict_eventually",
}


@pytest.mark.parametrize("tag", sorted(CASES))
def test_classify_frozen(tag):
    got = classify(CASES[tag])
    assert got.tag == tag


# the exact evidence of one matrix per tag: keys in order, values and their types
EVIDENCE = {
    "strong": [("metzler_margin", 2.0), ("metzler_tolerance", 2e-11), ("irreducible", True)],
    "positive": [("metzler_margin", -0.0), ("metzler_tolerance", 2e-11), ("irreducible", False)],
    "none": [("metzler_margin", -2.0), ("metzler_tolerance", 2e-11), ("spectral_bound", 1.0),
             ("projection_rank", 1), ("min_projection", -0.4999999999999999),
             ("projection_tolerance", 4.999999999999999e-12)],
    "eventual": [("metzler_margin", -0.42857142857142855),
                 ("metzler_tolerance", 1.3214285714285716e-11), ("spectral_bound", 2.0),
                 ("projection_rank", 1), ("min_projection", 0.0714285714285717),
                 ("projection_tolerance", 6.428571428571429e-12)],
}


def _typed(items):
    # repr tells -0.0 from 0.0; type tells True from 1 and 1 from 1.0
    return [(k, type(v), repr(v)) for k, v in items]


@pytest.mark.parametrize("tag", sorted(CASES))
def test_classify_evidence_frozen(tag):
    got = classify(CASES[tag])
    assert _typed(got.evidence.items()) == _typed(EVIDENCE[tag])


def test_classify_evidence_frozen_marginal_and_scalar():
    got = classify(np.array([[-1.0, 5e-11], [5e-11, -1.0]]))
    assert _typed(got.evidence.items()) == _typed(
        [("metzler_margin", -5e-11), ("metzler_tolerance", 1e-11)])
    got = classify(np.array([[0.0]]))
    assert _typed(got.evidence.items()) == _typed(
        [("metzler_margin", 0.0), ("metzler_tolerance", 0.0), ("irreducible", True)])


@pytest.mark.parametrize("tag", sorted(CASES))
def test_oracle_matches_classifier(tag):
    got = expm_oracle(CASES[tag])
    assert not got.ambiguous
    assert got.klass == ORACLE_OF[tag]


def test_classify_accepts_dtn_matrix(interval):
    D = assemble_outer(interval, 2.0)
    out = classify(D)
    assert out.tag == "strong"
    assert power_positive(D.entries)


def test_metzler_dust_band():
    ok = is_metzler(np.array([[1.0, -1e-13], [-1e-13, 1.0]]))
    assert ok.satisfied and not ok.marginal

    near = is_metzler(np.array([[1.0, -5e-11], [-5e-11, 1.0]]))
    assert not near.satisfied and near.marginal

    bad = is_metzler(np.array([[1.0, -1e-9], [-1e-9, 1.0]]))
    assert not bad.satisfied and not bad.marginal


def test_marginal_tag():
    M = np.array([[-1.0, 5e-11], [5e-11, -1.0]])
    assert classify(M).tag == "marginal"


def test_irreducible():
    path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert is_irreducible(path)
    blocks = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert not is_irreducible(blocks)
    assert is_irreducible(np.array([[5.0]]))


def _strongly_connected(support: np.ndarray) -> bool:
    """Reference: strong connectivity by Tarjan's algorithm in scipy's csgraph."""
    ncomp, _ = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(support), directed=True, connection="strong")
    return ncomp == 1


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    zeros=st.floats(min_value=0.0, max_value=0.95),
    in_band=st.floats(min_value=0.0, max_value=0.5),
    symmetric=st.booleans(),
)
def test_irreducible_matches_strong_components(n, seed, zeros, in_band, symmetric):
    # off-diagonal entries are zero, inside the zero band (a zero to the
    # support) or clearly outside it, with either sign; the unit diagonal
    # fixes max|A| = 1, so the band is SIGN_TOL itself
    rng = np.random.default_rng(seed)
    band = SIGN_TOL
    kind = rng.choice(3, size=(n, n), p=[zeros, (1 - zeros) * in_band,
                                         (1 - zeros) * (1 - in_band)])
    sign = rng.choice([-1.0, 1.0], size=(n, n))
    A = np.where(kind == 1, rng.uniform(0.0, 1.0, size=(n, n)) * band,
                 rng.uniform(0.01, 1.0, size=(n, n))) * sign
    A[kind == 0] = 0.0
    if symmetric:
        A = np.triu(A, 1) + np.triu(A, 1).T
    np.fill_diagonal(A, 1.0)
    support = (np.abs(A) > band) & ~np.eye(n, dtype=bool)
    assert is_irreducible(A) == _strongly_connected(support)
    # a stack gets one flag per sample, each with the band of its own max|B|;
    # a diagonal of 1e10 widens the band to 0.1, past some decisive entries
    perm = rng.permutation(n)
    stack = np.stack([A, A.T, A[perm][:, perm], np.where(np.eye(n, dtype=bool), 1e10, A)])
    want = [_strongly_connected((np.abs(B) > band * np.abs(B).max()) & ~np.eye(n, dtype=bool))
            for B in stack]
    got = is_irreducible(stack)
    assert got.shape == (4,) and got.tolist() == want


def test_block_metzler_is_positive_not_strong():
    M = np.array(
        [
            [1.0, -1.0, 0.0, 0.0],
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -0.5],
            [0.0, 0.0, -0.5, 1.0],
        ]
    )
    assert classify(M).tag == "positive"
    assert expm_oracle(M).klass == "never"


def test_zero_and_scalar_matrices():
    assert classify(np.zeros((3, 3))).tag == "positive"
    assert classify(np.array([[0.0]])).tag == "strong"


def test_fixed_zero_band():
    # an entry inside the band SIGN_TOL * max|M| is dust: it decides no sign
    # and drops out of the connectivity support, leaving a diagonal matrix;
    # one far outside the band is a decisive negative entry of the generator
    dust = np.array([[-1.0, 1e-12], [1e-12, -1.0]])
    assert classify(dust).tag == "positive"
    assert not is_irreducible(dust)
    M = np.array([[-1.0, 1e-6], [1e-6, -1.0]])
    assert classify(M).tag == "none"


def _symmetric(draw_vals, n):
    B = np.array(draw_vals, dtype=float).reshape(n, n)
    return (B + B.T) / 2.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    c=st.floats(min_value=0.01, max_value=50.0),
)
def test_classify_scale_invariant(n, seed, c):
    rng = np.random.default_rng(seed)
    M = _symmetric(rng.normal(size=n * n), n)
    tag = classify(M).tag
    assume(tag != "marginal")
    assert classify(c * M).tag == tag


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_metzler_random_is_strong(n, seed):
    # strictly positive off-diagonal of the generator forces the strongest class
    rng = np.random.default_rng(seed)
    A = np.abs(rng.normal(size=(n, n))) + 0.1
    A = (A + A.T) / 2.0
    np.fill_diagonal(A, rng.normal(size=n))
    M = -A
    assert classify(M).tag == "strong"
    assert power_positive(M)
    assert expm_oracle(M).klass == "strict_all"


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    c=st.floats(min_value=-5.0, max_value=5.0),
)
def test_classify_shift_invariant(seed, c):
    # e^{-t(M + cI)} = e^{-tc} e^{-tM}: adding a multiple of the identity
    # never changes the positivity class
    rng = np.random.default_rng(seed)
    M = _symmetric(rng.normal(size=9), 3)
    tag = classify(M).tag
    assume(tag != "marginal")
    assert classify(M + c * np.eye(3)).tag == tag


def assert_stack_classifies_like_singles(stack):
    got, eigs = classify(stack)
    assert got.shape == (len(stack),) and got.dtype == object
    assert eigs.shape == stack.shape[:2]
    for M, tag, row in zip(stack, got, eigs):
        assert type(tag) is str and tag == classify(M).tag
        if tag == "strong":
            assert power_positive(M)
        # the ascending spectrum of M, from the classifier's own eigh
        ref = np.linalg.eigvalsh(M)
        assert (np.diff(row) >= 0).all()
        assert np.abs(row - ref).max() <= 1e-14 * np.abs(ref).max()
    return set(got)


@pytest.mark.parametrize("name", ["interval", "lasso-4", "star-5", "braid-5", "two-cluster"])
def test_stack_classify_matches_single_on_sweeps(name):
    D = assemble_outer(catalog(name), np.linspace(-5.0, 60.0, 240))
    tags = assert_stack_classifies_like_singles(D.entries[~D.singular])
    assert "strong" in tags


def test_stack_classify_covers_every_tag():
    pairs = np.stack([CASES["strong"], CASES["positive"], CASES["none"],
                      np.array([[-1.0, 5e-11], [5e-11, -1.0]]), np.zeros((2, 2))])
    triples = np.stack([CASES["eventual"], 3.0 * CASES["eventual"], -np.eye(3)])
    tags = assert_stack_classifies_like_singles(pairs)
    tags |= assert_stack_classifies_like_singles(triples)
    assert tags == {"strong", "positive", "none", "eventual", "marginal"}
    assert assert_stack_classifies_like_singles(np.array([[[0.0]], [[2.0]]])) == {"strong"}
    tags, eigs = classify(np.zeros((0, 3, 3)))
    assert tags.shape == (0,) and eigs.shape == (0, 3)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_stack_classify_matches_single_random(n, seed):
    # mixed stacks: generic symmetric, Metzler with random sparsity (several
    # support patterns, some reducible), and reduced matrices of a surd graph
    rng = np.random.default_rng(seed)
    mats = [_symmetric(rng.normal(size=n * n), n) for _ in range(6)]
    for _ in range(6):
        A = np.abs(_symmetric(rng.normal(size=n * n), n)) * (rng.random((n, n)) < 0.5)
        A = np.triu(A, 1) + np.triu(A, 1).T + np.diag(rng.normal(size=n))
        mats.append(-A)
    assert_stack_classifies_like_singles(np.stack(mats))
    g = random_surd_graph(rng)
    D = assemble_outer(g, rng.uniform(-10.0, 60.0, 30))
    assert_stack_classifies_like_singles(D.entries[~D.singular])


def test_expm_oracle_names_the_extra_without_scipy(monkeypatch):
    # scipy is a test dependency only: without it the oracle says how to get it
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    with pytest.raises(ImportError, match=r'expm_oracle needs scipy: pip install "dtnpos\[test\]"'):
        expm_oracle(-np.eye(2))
