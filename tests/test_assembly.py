"""Edge coefficients, full and reduced assembly, residue probe.

Oracle values were computed with mpmath at 50 decimal digits and rounded to
the nearest double; the implementation is allowed a few ulp on top of that.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dtnpos import (
    AtPole,
    InnerBlockSingular,
    PoleCluster,
    adjacency_pattern,
    assemble_full,
    assemble_outer,
    catalog,
    edge_alpha_beta,
    pole_residue_probe,
    pole_scan,
    reduced_graph,
    schur_reduce,
    validate,
)
from dtnpos.assembly import SERIES_WINDOW, STACK_CHUNK, DtnMatrix, _gather, _phases, _trigonometric
from dtnpos.catalog import catalog_names
from dtnpos.graphs import graph_to_json
from dtnpos.positivity import TAG_MARGINAL, classify
from dtnpos.spectra import _inner_block

from conftest import random_quarter_graph, random_surd_graph

SQRT17 = math.sqrt(17)

# (lam, length) -> (alpha, beta), mpmath dps=50
COEFF_ORACLE = {
    (-1.0, 1.0): (1.3130352854993313, 0.85091812823932155),
    (2.5, 1.0): (-0.016353516652711806, 1.5812233989879199),
    (3.7, 1.0): (-0.70812963235797181, 2.0497432952014836),
    (50.0, 1.0): (7.0360209167746115, 9.9752488861827325),
    (-1.0, SQRT17): (1.0005246381421817, 0.032396782703590318),
    (3.7, SQRT17): (-0.14834857706917705, 1.9292504503870019),
    (1e-09, 1.0): (0.99999999966666667, 1.0000000001666667),
    (-1e-09, 1.0): (1.0000000003333333, 0.99999999983333333),
    (-400.0, 0.25): (20.001816079640388, 0.26953011661178173),
    (0.3, 3.0): (-0.039708769158299818, 0.54916007351961334),
}


@pytest.mark.parametrize("lam,length", sorted(COEFF_ORACLE))
def test_alpha_beta_oracle(lam, length):
    want_a, want_b = COEFF_ORACLE[(lam, length)]
    got = edge_alpha_beta(lam, length)
    assert got.alpha == pytest.approx(want_a, rel=4e-16)
    assert got.beta == pytest.approx(want_b, rel=4e-16)
    assert not got.at_pole


def test_alpha_beta_at_zero():
    got = edge_alpha_beta(0.0, 2.0)
    assert got.alpha == 0.5 and got.beta == 0.5


def test_series_window_is_continuous():
    # the Taylor branch takes over for |lam| L^2 < 1e-8; values on either
    # side of the switch must agree to far better than the series remainder
    L = 1.7
    for lam in (0.99e-8 / L**2, -0.99e-8 / L**2):
        inside = edge_alpha_beta(lam, L)
        outside = edge_alpha_beta(lam * 1.03, L)
        assert inside.alpha == pytest.approx(outside.alpha, rel=1e-10, abs=1e-12)
        assert inside.beta == pytest.approx(outside.beta, rel=1e-10)


def test_beta_never_underflows_to_zero():
    # deep hyperbolic regime: s*L is far past exp underflow
    got = edge_alpha_beta(-4.0e6, 10.0)
    assert got.beta > 0.0
    assert got.alpha == pytest.approx(2000.0, rel=1e-12)


def test_pole_raises(interval):
    with pytest.raises(AtPole):
        assemble_full(interval, math.pi**2)
    flagged = edge_alpha_beta(math.pi**2, 1.0)
    assert flagged.at_pole


@settings(max_examples=120, deadline=None)
@given(
    lam=st.floats(min_value=-80.0, max_value=80.0),
    L=st.floats(min_value=0.2, max_value=4.0),
)
def test_alpha_beta_identity(lam, L):
    # alpha^2 - beta^2 = -lam in both trigonometric and hyperbolic regimes
    if lam > 0 and abs(math.sin(math.sqrt(lam) * L)) < 1e-3:
        return  # too close to a pole for a meaningful float check
    got = edge_alpha_beta(lam, L)
    scale = max(1.0, got.alpha**2 + got.beta**2)
    assert got.alpha**2 - got.beta**2 == pytest.approx(-lam, abs=1e-9 * scale)


def test_assemble_full_interval(interval):
    lam = 2.5
    D = assemble_full(interval, lam)
    a, b = COEFF_ORACLE[(lam, 1.0)]
    assert D.entries == pytest.approx(np.array([[a, -b], [-b, a]]), rel=1e-15)
    assert D.provenance == "direct"


def test_assemble_full_symmetric_bitwise(lasso):
    D = assemble_full(lasso, 11.3).entries
    assert np.array_equal(D, D.T)


def test_dtn_matrix_coerces_to_array(interval):
    D = assemble_full(interval, 2.5)
    arr = np.asarray(D)
    assert arr.dtype == np.float64
    assert np.array_equal(arr, D.entries)
    assert np.array_equal(np.array(D, copy=True), D.entries)


def test_assemble_full_names_pole_edge(path3):
    lam = (math.pi / SQRT17) ** 2  # first pole of the sqrt(17) edge
    with pytest.raises(AtPole) as exc:
        assemble_full(path3, lam)
    assert exc.value.edge is not None


def test_schur_identity_when_all_outer(interval):
    full = assemble_full(interval, 3.3)
    same = schur_reduce(full, 2)
    assert np.array_equal(same.entries, full.entries)


def test_schur_closed_form_path3(path3):
    lam = 3.7
    a12, b12 = COEFF_ORACLE[(lam, 1.0)]
    a23, b23 = COEFF_ORACLE[(lam, SQRT17)]
    want = np.array([[a12, -b12], [-b12, a12 + a23 - b23**2 / a23]])
    got = assemble_outer(path3, lam)
    assert got.entries == pytest.approx(want, rel=1e-13)
    assert got.provenance == "schur(2,1)"


def test_inner_block_singular(path3):
    # the 1x1 inner block alpha_23 vanishes at the inner Dirichlet-Neumann
    # eigenvalue (pi/2)^2 / 17
    with pytest.raises(InnerBlockSingular):
        assemble_outer(path3, (math.pi / 2) ** 2 / 17.0)


def test_outer_pattern_zeros(braid):
    # v1 and v3 share no reduced edge, so the (0, 2) entry is forbidden
    S = assemble_outer(braid, 7.19)
    assert S.entries[0, 2] == 0.0


def exact_zero_grid(rng, size):
    """Parameters from every regime: negative, the series window, moderate, 1e8 to 1e19."""
    quarter = size // 4
    return np.concatenate([
        -(10.0 ** rng.uniform(-3.0, 6.0, quarter)),
        rng.uniform(-1e-9, 1e-9, quarter),
        rng.uniform(0.0, 500.0, quarter),
        10.0 ** rng.uniform(8.0, 19.0, size - 3 * quarter),
    ])


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from([None, "braid-5", "two-cluster"]),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       size=st.integers(min_value=4, max_value=256))
def test_outer_zeros_are_exact(name, seed, size):
    # C is block-diagonal by inner component, so B C^{-1} B^T couples no two
    # outer vertices that share no component: outside the reduced graph's
    # pattern every live sample holds an exact 0.0, with no tolerance
    rng = np.random.default_rng(seed)
    g = random_surd_graph(rng) if name is None else catalog(name)
    forbidden = ~adjacency_pattern(reduced_graph(g))
    assume(forbidden.any())
    grid = exact_zero_grid(rng, size)
    D = assemble_outer(g, grid)
    live = ~D.singular
    assert live.any()
    assert (D.entries[live][:, forbidden] == 0.0).all()
    for k in rng.choice(np.flatnonzero(live), size=min(8, int(live.sum())), replace=False):
        one = assemble_outer(g, float(grid[k]))
        assert np.array_equal(one.entries, D.entries[k]), f"lam={grid[k]!r}"


RESIDUE_ORACLE = {
    (1.0, 1): -19.739208802178717,
    (1.0, 2): 78.956835208714869,
    (SQRT17, 1): -0.28161537320935887,
    (SQRT17, 2): 1.1264614928374355,
}


@pytest.mark.parametrize("length,k", sorted(RESIDUE_ORACLE))
def test_pole_residue_probe(length, k):
    g = validate(
        {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "length": length}],
            "outer": ["a", "b"],
        }
    )
    got = pole_residue_probe(g, k, 0)
    assert got == pytest.approx(RESIDUE_ORACLE[(length, k)], rel=1e-8)


def test_pole_residue_probe_by_pair(path3):
    got = pole_residue_probe(path3, 1, ("v1", "v2"))
    assert got == pytest.approx(-2 * math.pi**2, rel=1e-8)


def test_pole_cluster_detected():
    # two edges of nearly equal length put a second pole inside the window
    g = validate(
        {
            "vertices": ["a", "b", "c"],
            "edges": [
                {"u": "a", "v": "b", "length": 1.0},
                {"u": "b", "v": "c", "length": 1.0 + 1e-12},
            ],
            "outer": ["a", "b", "c"],
        }
    )
    with pytest.raises(PoleCluster):
        pole_residue_probe(g, 1, 0)


def stack_grid(g, rng, spread=40):
    """Parameters that reach every branch: the series window at 0, the far
    hyperbolic branch (sqrt(-lam) L > 350), exact edge poles, the scanned
    inner singularities, and random samples in between."""
    far = -((400.0 / min(g.lengths)) ** 2)
    edge_poles = [(math.pi * k / L) ** 2 for L in g.lengths for k in (1, 2)]
    return np.concatenate([
        [0.0, 1e-12, -1e-12, far, 10.0 * far],
        edge_poles,
        pole_scan(g, 0.0, 30.0),
        rng.uniform(-40.0, 80.0, spread),
    ])


def assert_stack_matches_single(g, grid):
    """assemble_outer over the stack equals a loop of single-lambda calls:
    bitwise entries where the loop succeeds, the singular mask where it raises."""
    D = assemble_outer(g, grid)
    assert D.entries.shape == (len(grid), g.n_outer, g.n_outer)
    assert np.array_equal(D.lam, grid)
    for k, lam in enumerate(grid.tolist()):
        try:
            one = assemble_outer(g, lam)
        except (AtPole, InnerBlockSingular):
            assert D.singular[k], f"lam={lam!r} raises alone but is not masked"
            assert np.isnan(D.entries[k]).all()
            continue
        assert not D.singular[k], f"lam={lam!r} is masked but assembles alone"
        assert np.array_equal(D.entries[k], one.entries), f"lam={lam!r}"
    return D


@pytest.mark.parametrize("name", ["interval", "path-3", "lasso-4", "star-5", "braid-5",
                                  "two-cluster"])
def test_stack_matches_single_catalog(name):
    g = catalog(name)
    grid = stack_grid(g, np.random.default_rng(len(name)))
    if name == "path-3":
        grid = np.append(grid, (math.pi / 2) ** 2 / 17.0)  # singular inner block
    D = assert_stack_matches_single(g, grid)
    assert D.singular.any() and not D.singular.all()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_stack_matches_single_random(seed):
    rng = np.random.default_rng(seed)
    g = random_surd_graph(rng)
    assert_stack_matches_single(g, stack_grid(g, rng, spread=25))


def test_stack_longer_than_a_chunk(lasso):
    grid = np.linspace(-6.0, 45.0, STACK_CHUNK + 5)
    assert_stack_matches_single(lasso, grid)


def test_stack_edge_coefficients_match_single():
    lams = np.array([0.0, 3e-9, -3e-9, 2.5, math.pi**2, -1e6, -4.0e6, 50.0])
    got = edge_alpha_beta(lams, 1.0)
    for k, lam in enumerate(lams.tolist()):
        one = edge_alpha_beta(lam, 1.0)
        assert (got.alpha[k], got.beta[k], got.at_pole[k]) == (one.alpha, one.beta, one.at_pole)
    assert got.at_pole.tolist() == [False] * 4 + [True] + [False] * 3


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), n=st.integers(1, 40),
       edges=st.integers(1, 9))
def test_single_branch_stack_matches_mixed_stack(seed, n, edges):
    # a stack whose samples are all trigonometric skips the masks; the same
    # samples inside a stack that also reaches the series window and lam < 0
    # go through the masked branches, and every entry agrees bit for bit,
    # edge poles and single floats included
    rng = np.random.default_rng(seed)
    lengths = rng.uniform(0.2, 5.0, edges)
    lams = 10.0 ** rng.uniform(-7.0, 8.0, n)
    k = rng.integers(1, 50, n)
    poles = (math.pi * k / lengths[rng.integers(0, edges, n)]) ** 2
    # clear of the series window on every edge
    lams = np.maximum(np.where(rng.random(n) < 0.3, poles, lams), 2e-8 / lengths.min() ** 2)
    single = edge_alpha_beta(lams[:, None], lengths)
    mixed = edge_alpha_beta(np.concatenate([lams, [-3.0, 1e-12, 0.0]])[:, None], lengths)
    for name in ("alpha", "beta", "at_pole"):
        assert np.array_equal(getattr(single, name), getattr(mixed, name)[:len(lams)])
    one = edge_alpha_beta(float(lams[0]), float(lengths[0]))
    assert (one.alpha, one.beta, one.at_pole) == (
        single.alpha[0, 0], single.beta[0, 0], single.at_pole[0, 0])
    assert type(one.alpha) is float and type(one.at_pole) is bool


def test_stack_full_marks_poles_float_raises(path3):
    pole = (math.pi / SQRT17) ** 2
    full = assemble_full(path3, np.array([1.0, pole]))
    assert full.singular.tolist() == [False, True]
    assert np.isnan(full.entries[1]).all()
    with pytest.raises(AtPole):
        assemble_full(path3, pole)


def test_stack_rejects_two_dimensional_lambda(path3):
    with pytest.raises(ValueError):
        assemble_full(path3, np.ones((2, 2)))


def edge_loop_reference(g, lams):
    """D edge by edge: -beta_e on both positions of e, alpha_e added to both
    diagonal ends in edge order from 0.0; a row of NaN at an edge pole.
    Shares only edge_alpha_beta's stacked coefficients with assemble_full."""
    coeff = edge_alpha_beta(lams[:, None], np.array(g.lengths))
    D = np.zeros((len(lams), g.n_vertices, g.n_vertices))
    for e, (u, v) in enumerate(g.edge_indices):
        D[:, u, v] = D[:, v, u] = -coeff.beta[:, e]
        D[:, u, u] += coeff.alpha[:, e]
        D[:, v, v] += coeff.alpha[:, e]
    D[coeff.at_pole.any(axis=1)] = np.nan
    return D


def star_graph(centre_outer):
    """Ten edges of distinct surd lengths at one centre, inner or outer."""
    leaves = ["l%d" % k for k in range(10)]
    return validate({
        "vertices": ["c", *leaves],
        "edges": [{"u": "c", "v": leaf, "length": math.sqrt(p)}
                  for leaf, p in zip(leaves, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))],
        "outer": ["c"] if centre_outer else leaves,
    })


def assert_matches_edge_loop(g, lams):
    """assemble_full and the inner-block evaluator against the edge loop, bit for
    bit, on the stack and one parameter at a time, NaN rows and AtPole included."""
    want = edge_loop_reference(g, lams)
    full = assemble_full(g, lams)
    assert np.array_equal(full.entries, want, equal_nan=True)
    assert np.array_equal(full.singular, np.isnan(want).all(axis=(1, 2)))
    m = g.n_outer
    inner = np.full((len(lams), g.n_vertices - m), np.nan)
    inner[~full.singular] = np.linalg.eigvalsh(want[~full.singular][:, m:, m:])
    evaluator = _inner_block(g)
    assert np.array_equal(evaluator(lams), inner, equal_nan=True)
    for k, lam in enumerate(lams.tolist()):
        assert np.array_equal(evaluator(lams[k:k + 1]), inner[k:k + 1], equal_nan=True)
        if full.singular[k]:
            with pytest.raises(AtPole):
                assemble_full(g, lam)
        else:
            assert np.array_equal(assemble_full(g, lam).entries, want[k]), f"lam={lam!r}"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["surd", "quarters", "inner centre", "outer centre"]))
def test_assembly_matches_edge_loop(seed, shape):
    # one assembler serves assemble_full and the inner-block evaluator; an
    # edge loop that shares none of its code checks both, at 0, below it, in
    # the series window, far out on the hyperbolic branch, at and beside edge
    # poles and at 1e8; the stars sum ten alphas at their centre, where a
    # pairwise reduction would pair the terms differently
    rng = np.random.default_rng(seed)
    g = {"surd": lambda: random_surd_graph(rng, 3, 8),
         "quarters": lambda: random_quarter_graph(rng),
         "inner centre": lambda: star_graph(False),
         "outer centre": lambda: star_graph(True)}[shape]()
    L = np.array(g.lengths)
    poles = (math.pi * rng.integers(1, 6, len(L)) / L) ** 2
    lams = np.concatenate([poles[:3], poles[:3] * (1.0 + 1e-11),
                           [0.0, -1e-9, -3.0, 1e-12, 3e-9 / L.max() ** 2, 1e8,
                            -((400.0 / L.min()) ** 2)],
                           rng.uniform(-10.0, 200.0, 8)])
    assert_matches_edge_loop(g, lams)


def test_with_outer_derives_its_own_incidence(path3):
    # the re-validated graph takes a new canonical order, and its entries come
    # from its own incidence
    flipped = path3.with_outer(["v2"])
    assert flipped.vertices != path3.vertices
    assert not np.array_equal(flipped.incidence[0], path3.incidence[0])
    lams = np.array([2.5, (math.pi / SQRT17) ** 2, -4.0, 30.0])
    assert_matches_edge_loop(flipped, lams)


U = 2.0 ** -53  # unit roundoff


def entry_sums(g, a, b):
    """Per entry of D, the sum of the absolute values of its terms: |b_e| on the
    two positions of edge e, the incident |a_e| added on the diagonal."""
    S = np.zeros((len(a), g.n_vertices, g.n_vertices))
    for e, (u, v) in enumerate(g.edge_indices):
        S[:, u, v] = S[:, v, u] = np.abs(b[:, e])
        S[:, u, u] += np.abs(a[:, e])
        S[:, v, v] += np.abs(a[:, e])
    return S


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), quarters=st.booleans())
def test_phase_assembly_is_d_over_sqrt_lambda(seed, quarters):
    # the gather fed from the coefficient step at r = 1, on the phases of lam,
    # is assemble_full(g, lam) / sqrt(lam): both read the same theta, so the two
    # differ by the roundings of r cos / sin, of the diagonal sums and of the
    # division, a few per entry of its sum of absolute terms; lam spans 1e-4
    # to 1e10, outside the series window and clear of the edge poles
    rng = np.random.default_rng(seed)
    g = random_quarter_graph(rng) if quarters else random_surd_graph(rng, 3, 8)
    L = g.lengths_array
    lams = 10.0 ** rng.uniform(-4.0, 10.0, 64)
    _, theta = _phases(lams[:, None], L)
    keep = ((lams[:, None] * L * L >= SERIES_WINDOW) & (np.abs(np.sin(theta)) > 1e-6)).all(axis=1)
    lams, theta = lams[keep], theta[keep]
    alpha, beta, at_pole = _trigonometric(1.0, theta)
    assert not at_pole.any()
    got = _gather(g, alpha, beta, 0)
    want = assemble_full(g, lams).entries / np.sqrt(lams)[:, None, None]
    bound = 4.0 * (1 + g.n_vertices) * U * entry_sums(g, alpha, beta)
    assert (np.abs(got - want) <= bound).all()
    # the inner rows come out of the same gather
    m = g.n_outer
    assert np.array_equal(_gather(g, alpha, beta, m), got[:, m:, m:])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["surd", "quarters", "star"]))
def test_phase_shift_by_full_turns(seed, shape):
    # the phase torus: theta and theta + 2 pi k_e give the same D / sqrt(lam) up
    # to the rounding of the shifted phase, whose error delta moves alpha and
    # beta by at most delta / sin^2 theta; with |sin theta| >= 0.05 the outer
    # matrices get the same tag wherever neither is marginal
    rng = np.random.default_rng(seed)
    g = {"surd": lambda: random_surd_graph(rng, 3, 8),
         "quarters": lambda: random_quarter_graph(rng),
         "star": lambda: star_graph(bool(rng.integers(2)))}[shape]()
    n_edges = len(g.edges)
    theta = rng.uniform(0.0, 60.0, (64, n_edges))
    theta = theta[(np.abs(np.sin(theta)) >= 0.05).all(axis=1)]
    k = rng.integers(-3, 4, theta.shape)
    shifted = theta + 2.0 * math.pi * k
    a, b, _ = _trigonometric(1.0, theta)
    a2, b2, _ = _trigonometric(1.0, shifted)
    D, D2 = _gather(g, a, b, 0), _gather(g, a2, b2, 0)
    # per edge: the error of the shifted phase, through d/dtheta of cot and
    # csc, plus the rounding of each coefficient on both sides
    delta = 4.0 * U * (np.abs(theta) + np.abs(shifted) + 2.0 * math.pi * np.abs(k) + 1.0)
    per_edge = delta / np.sin(theta) ** 2 + 4.0 * U * (np.abs(a) + np.abs(b))
    bound = entry_sums(g, per_edge, per_edge) + 2.0 * (1 + g.n_vertices) * U * entry_sums(g, a, b)
    assert (np.abs(D - D2) <= bound).all()

    m = g.n_outer
    tags = []
    for entries in (D, D2):
        full = DtnMatrix(lam=theta[:, 0], dim=g.n_vertices, entries=entries,
                         provenance="direct", singular=np.zeros(len(theta), dtype=bool))
        outer = schur_reduce(full, m)
        # a sample whose inner block is singular decides nothing
        tag = np.full(len(theta), TAG_MARGINAL, dtype=object)
        tag[~outer.singular] = classify(outer.entries[~outer.singular])[0]
        tags.append(tag)
    decided = (tags[0] != TAG_MARGINAL) & (tags[1] != TAG_MARGINAL)
    assert (tags[0][decided] == tags[1][decided]).all()


@pytest.mark.parametrize("name", catalog_names())
def test_length_shift_by_full_turns(name):
    # the phase torus reached through lam: lengths L_e + 2 pi k_e / sqrt(lam)
    # give the phases theta_e + 2 pi k_e.  Rounding the shift, the sum and the
    # product with sqrt(lam) (the same sqrt(lam) on both sides) leaves the
    # shifted phase within delta = 4 u (theta + theta' + 2 pi k + 1) of it,
    # which moves alpha and beta by at most sqrt(lam) delta / sin^2 theta;
    # lam in [0.5, 400] is outside the series window, |sin theta_e| >= 0.05
    # keeps it off the poles, and the tags agree wherever neither is marginal
    g = catalog(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    L = g.lengths_array
    lams = rng.uniform(0.5, 400.0, 40)
    lams = lams[(np.abs(np.sin(np.sqrt(lams)[:, None] * L)) >= 0.05).all(axis=1)]
    decided = 0
    for lam in lams:
        k = rng.integers(1, 4, len(L))
        raw = graph_to_json(g)
        for edge, turns in zip(raw["edges"], k):
            edge.pop("length_expr", None)
            edge["length"] += 2.0 * math.pi * int(turns) / math.sqrt(lam)
        shifted = validate(raw)
        assert shifted.vertices == g.vertices and (shifted.lengths_array > L).all()
        r, theta = _phases(lam, L)
        theta2 = _phases(lam, shifted.lengths_array)[1]
        a, b, _ = _trigonometric(r, theta[None])
        delta = 4.0 * U * (theta + theta2 + 2.0 * math.pi * k + 1.0)
        per_edge = r * delta / np.sin(theta) ** 2 + 4.0 * U * (np.abs(a) + np.abs(b))
        bound = (entry_sums(g, per_edge, per_edge)
                 + 2.0 * (1 + g.n_vertices) * U * entry_sums(g, a, b))
        D, D2 = assemble_full(g, lam).entries, assemble_full(shifted, lam).entries
        assert (np.abs(D - D2) <= bound[0]).all(), lam

        tags = []
        for h in (g, shifted):
            try:
                tags.append(classify(assemble_outer(h, lam)).tag)
            except InnerBlockSingular:
                tags.append(TAG_MARGINAL)
        if TAG_MARGINAL not in tags:
            decided += 1
            assert tags[0] == tags[1], lam
    assert decided >= len(lams) // 2
