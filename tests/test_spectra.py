"""Spectra: closed-form Dirichlet values, FEM eigenvalues, pole location."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from dtnpos import (
    ResolutionTooLow,
    assemble_outer,
    catalog,
    dirichlet_spectrum_full,
    kirchhoff_spectrum,
    lambda_1,
    pole_scan,
    sweep,
    validate,
)
from dtnpos.spectra import (
    NEAR_POLE_REACH,
    POLE_BISECT_TOL,
    _elements,
    _fem_eigenvalues,
    _fem_matrices,
    near_pole,
)

from conftest import random_surd_graph

SQRT17 = math.sqrt(17)
PI2 = math.pi**2


def test_dirichlet_spectrum_full_path3(path3):
    got = dirichlet_spectrum_full(path3, 10.0)
    want = [
        PI2 / 17,
        4 * PI2 / 17,
        9 * PI2 / 17,
        16 * PI2 / 17,
        PI2,
    ]
    assert got.kind == "dirichlet-full"
    assert list(got.values) == pytest.approx(want, rel=1e-14)


def test_dirichlet_spectrum_multiplicity():
    g = validate(
        {
            "vertices": ["a", "b", "c"],
            "edges": [
                {"u": "a", "v": "b", "length": 1.0},
                {"u": "b", "v": "c", "length": 1.0},
            ],
            "outer": ["a", "b", "c"],
        }
    )
    got = list(dirichlet_spectrum_full(g, 50.0).values)
    # every (pi k)^2 appears once per edge
    assert got == pytest.approx([PI2, PI2, 4 * PI2, 4 * PI2], rel=1e-14)


def test_kirchhoff_spectrum_interval(interval):
    got = kirchhoff_spectrum(interval, count=2, resolution=64)
    assert list(got.values) == pytest.approx([PI2, 4 * PI2], rel=2e-3)


def test_kirchhoff_spectrum_neumann_tip(interval):
    # Dirichlet at one end, natural condition at the other: (pi/2)^2
    g = interval.with_outer(["v1"])
    got = kirchhoff_spectrum(g, count=1, resolution=64)
    assert got.values[0] == pytest.approx((math.pi / 2) ** 2, rel=2e-3)


def test_kirchhoff_spectrum_path3(path3):
    got = kirchhoff_spectrum(path3, count=1, resolution=32)
    assert got.values[0] == pytest.approx((math.pi / 2) ** 2 / 17, rel=2e-4)


def _pendant_pair():
    # two unit pendants hang off the outer vertex a and decouple: every
    # pendant eigenvalue ((k + 1/2) pi)^2 is double, in the FEM as well
    return validate({
        "vertices": ["a", "b", "t1", "t2"],
        "edges": [
            {"u": "a", "v": "b", "length": math.sqrt(2)},
            {"u": "a", "v": "t1", "length": 1.0},
            {"u": "a", "v": "t2", "length": 1.0},
        ],
        "outer": ["a"],
    })


def _fem_matrices_loop(g, resolution):
    """Element-by-element assembly, the reference for the array version."""
    n_dof = g.n_vertices
    starts, counts = [], []
    for e in g.edges:
        counts.append(max(1, math.ceil(resolution * e.length)))
        starts.append(n_dof)
        n_dof += counts[-1] - 1
    K = np.zeros((n_dof, n_dof))
    M = np.zeros((n_dof, n_dof))
    for (i, j), e, ne, start in zip(g.edge_indices, g.edges, counts, starts):
        h = e.length / ne
        nodes = [i] + list(range(start, start + ne - 1)) + [j]
        for p, q in zip(nodes[:-1], nodes[1:]):
            K[p, p] += 1.0 / h
            K[q, q] += 1.0 / h
            K[p, q] -= 1.0 / h
            K[q, p] -= 1.0 / h
            M[p, p] += h / 3.0
            M[q, q] += h / 3.0
            M[p, q] += h / 6.0
            M[q, p] += h / 6.0
    m = g.n_outer
    return K[m:, m:], M[m:, m:]


def test_fem_matrices_equal_element_loop():
    rng = np.random.default_rng(5)
    graphs = [catalog(name) for name in ("interval", "lasso-4", "two-cluster")]
    graphs += [random_surd_graph(rng) for _ in range(4)] + [_pendant_pair()]
    for g in graphs:
        for resolution in (2, 16):
            K, M = _fem_matrices(g, resolution)
            K_ref, M_ref = _fem_matrices_loop(g, resolution)
            assert np.array_equal(K, K_ref) and np.array_equal(M, M_ref)


@pytest.mark.parametrize("resolution", [8, 32])
def test_banded_fem_eigenvalues_match_dense_solve(resolution):
    rng = np.random.default_rng(11)
    graphs = [catalog(name) for name in ("interval", "path-3", "lasso-4", "star-5",
                                         "braid-5", "two-cluster")]
    graphs += [random_surd_graph(rng) for _ in range(8)] + [_pendant_pair()]
    for g in graphs:
        K, M = _fem_matrices(g, resolution)
        count = min(10, K.shape[0])
        want = scipy.linalg.eigh(K, M, eigvals_only=True)[:count]
        got = _fem_eigenvalues(g, count, resolution)
        assert got == pytest.approx(want, rel=1e-9)


def test_banded_fem_keeps_double_eigenvalues():
    got = _fem_eigenvalues(_pendant_pair(), 5, 32)
    # (pi / (2 sqrt 2))^2 from the a-b edge, then the double (pi / 2)^2
    assert got[0] == pytest.approx((math.pi / 2) ** 2 / 2, rel=1e-3)
    assert got[1] == pytest.approx((math.pi / 2) ** 2, rel=1e-3)
    assert got[2] == pytest.approx(got[1], rel=1e-12)
    assert got[3] > got[2] * (1 + 1e-6)


def test_resolution_too_low(interval):
    # one or two elements per edge cannot support a drift estimate
    with pytest.raises(ResolutionTooLow):
        kirchhoff_spectrum(interval, count=1, resolution=2)


def test_lambda_1_closed_form_when_all_outer():
    g = validate(
        {
            "vertices": ["a", "b", "c"],
            "edges": [
                {"u": "a", "v": "b", "length": 2.0},
                {"u": "b", "v": "c", "length": 3.0},
            ],
            "outer": ["a", "b", "c"],
        }
    )
    assert lambda_1(g) == pytest.approx((math.pi / 3) ** 2, rel=0, abs=0)


def test_lambda_1_interval(interval):
    assert lambda_1(interval) == pytest.approx(PI2, rel=0, abs=0)


def test_lambda_1_path3(path3):
    assert lambda_1(path3) == pytest.approx((math.pi / 2) ** 2 / 17, rel=1e-4)


def test_pole_scan_interval(interval):
    got = pole_scan(interval, 0.0, 100.0)
    assert got == pytest.approx([PI2, 4 * PI2, 9 * PI2], rel=1e-12)


def test_pole_scan_path3(path3):
    # edge poles (pi k / sqrt17)^2 plus inner singularities ((k+1/2) pi)^2/17
    got = pole_scan(path3, 0.0, 4.0)
    want = [
        (math.pi / 2) ** 2 / 17,
        PI2 / 17,
        (3 * math.pi / 2) ** 2 / 17,
        4 * PI2 / 17,
        (5 * math.pi / 2) ** 2 / 17,
    ]
    assert got == pytest.approx(want, abs=1e-8)
    assert got == sorted(got)


def test_pole_scan_empty_window(interval):
    assert pole_scan(interval, 0.0, 5.0) == []
    assert pole_scan(interval, -10.0, 0.0) == []


def test_pole_scan_returns_plain_floats(path3, lasso):
    # inner poles come out of the bisection, edge poles out of the closed form;
    # both must be Python floats
    for g, hi in ((path3, 4.0), (lasso, 20.0)):
        got = pole_scan(g, 0.0, hi)
        assert len(got) > 3
        assert all(type(p) is float for p in got)


# pole_scan(lasso-4, 0, 150) by inertia counting with quarter cuts
LASSO_POLES_150 = [
    0.9092194697530616, 1.4099434858699083, 1.9739208802178716, 2.5057445022335205,
    3.289868133696453, 5.019182804477209, 5.639773943479633, 7.895683520871486,
    8.4519853191612, 9.869604401089358, 11.930654395994285, 12.689491372829172,
    13.159472534785811, 16.12515906238011, 17.765287921960844, 22.500496658476866,
    22.559095773918532, 29.60881320326808, 30.621876150230467, 31.582734083485946,
    34.729746455711535, 35.24858714674771, 39.47841760435743, 45.3106881041586,
    49.348022005446786, 50.75796549131669, 50.92926334822599, 52.637890139143245,
    62.50695839580037, 69.08723080762552, 71.06115168784338, 74.52601841113659,
    82.24670334241131, 84.57731556589377, 88.82643960980423, 90.23638309567413,
    94.45885063043096, 96.7221231306757, 108.42786737787263, 114.20542235546255,
    118.43525281307232, 122.79703251225887, 126.33093633394378, 136.56436995715234,
    140.99434858699084,
]

# the same scan by the earlier sign grid and bisection: a different route to
# the same poles, each within the bisection tolerance
LASSO_POLES_150_GRID = [
    0.90921946974582, 1.4099434858699083, 1.9739208802178716, 2.5057445021952214,
    3.289868133696453, 5.019182804527363, 5.639773943479633, 7.895683520871486,
    8.451985319354229, 9.869604401089358, 11.930654395447156, 12.689491372829172,
    13.159472534785811, 16.125159062916293, 17.765287921960844, 22.500496658566874,
    22.559095773918532, 29.60881320326808, 30.621876149017147, 31.582734083485946,
    34.72974645487617, 35.24858714674771, 39.47841760435743, 45.310688104706585,
    49.348022005446786, 50.75796549131669, 50.92926334910139, 52.637890139143245,
    62.50695839469354, 69.08723080762552, 71.06115168784338, 74.52601841264988,
    82.24670334241131, 84.57731556553748, 88.82643960980423, 90.23638309567413,
    94.4588506317456, 96.7221231306757, 108.4278673810309, 114.20542235546255,
    118.43525281307232, 122.79703251197606, 126.33093633394378, 136.56436996102394,
    140.99434858699084,
]


def test_pole_scan_frozen_lasso(lasso):
    got = pole_scan(lasso, 0.0, 150.0)
    assert got == LASSO_POLES_150
    assert len(got) == len(LASSO_POLES_150_GRID)
    for p, q in zip(got, LASSO_POLES_150_GRID):
        assert abs(p - q) <= POLE_BISECT_TOL * max(1.0, q)


def _pendant_graph():
    # o1-o2 plus two unit pendants at o1: the pendant tips carry a double
    # inner pole at ((2k - 1) pi / 2)^2, where det C touches zero without
    # changing sign, and o1-o2 shares the pendants' edge poles (pi k)^2
    return validate({
        "vertices": ["o1", "o2", "a", "b"],
        "edges": [
            {"u": "o1", "v": "o2", "length": 1.0},
            {"u": "o1", "v": "a", "length": 1.0},
            {"u": "o1", "v": "b", "length": 1.0},
        ],
        "outer": ["o1", "o2"],
    })


def test_pole_scan_counts_double_pole():
    g = _pendant_graph()
    got = pole_scan(g, 0.5, 12.0)
    want = [(math.pi / 2) ** 2, (math.pi / 2) ** 2, PI2]
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert abs(p - q) <= POLE_BISECT_TOL * max(1.0, q)
    # a sample 5e-10 away from the double pole is regular but near_pole
    lam = (math.pi / 2) ** 2 * (1.0 + 5e-10)
    records = sweep(g, lam - 1.0, lam + 1.0, 3)
    assert records[1].tag != "pole" and records[1].near_pole
    assert not records[0].near_pole and not records[2].near_pole
    lam = (math.pi / 2) ** 2 * (1.0 + 5e-9)
    assert not sweep(g, lam - 1.0, lam + 1.0, 3)[1].near_pole


def _reach(lam):
    return NEAR_POLE_REACH * max(1.0, abs(lam))


def _near_flags(g, lams):
    """near_pole on an increasing grid, fed by one stacked reduction as sweep feeds it."""
    lams = np.array(lams, dtype=float)
    D = assemble_outer(g, lams)
    return near_pole(g, lams, D.singular, D.inner_negative).tolist()


def _around(p, far=0.3):
    """Samples at -far, -2, -0.5, 0.5, 2 reaches and far from p: near exactly at +-0.5."""
    r = _reach(p)
    return [p - far, p - 2 * r, p - 0.5 * r, p + 0.5 * r, p + 2 * r, p + far]


NEAR_PATTERN = [False, False, True, True, False, False]


def test_near_pole_inner_edge_and_double_pole(path3, interval):
    inner = (math.pi / 2) ** 2 / 17  # free tip of path-3
    assert _near_flags(path3, _around(inner)) == NEAR_PATTERN
    assert _near_flags(path3, _around(PI2 / 17, far=0.1)) == NEAR_PATTERN  # edge pole
    assert _near_flags(interval, _around(PI2)) == NEAR_PATTERN  # no inner block
    # the pendant tips' double pole: neg C jumps by two and det C keeps its sign
    assert _near_flags(_pendant_graph(), _around((math.pi / 2) ** 2)) == NEAR_PATTERN


def test_near_pole_two_inner_poles_between_two_samples(braid):
    # braid-5 has two inner poles and no edge pole between 0.1 and 1
    p, q = pole_scan(braid, 0.1, 1.0)
    assert _near_flags(braid, [0.1, p - 0.5 * _reach(p), q + 0.5 * _reach(q), 1.0]) == [
        False, True, True, False]
    assert _near_flags(braid, [0.1, p - 2 * _reach(p), q + 2 * _reach(q), 1.0]) == [False] * 4


def test_near_pole_inner_and_edge_pole_between_two_samples(path3):
    # the inner pole (3 pi / 2)^2 / 17 raises neg C by one and the next edge
    # pole (2 pi)^2 / 17 lowers it by one: equal counts on either side
    p, q = (1.5 * math.pi) ** 2 / 17, (2 * math.pi) ** 2 / 17
    lams = [p - 0.2, p - 0.5 * _reach(p), q + 2 * _reach(q), q + 0.2]
    D = assemble_outer(path3, np.array(lams))
    assert len(set(D.inner_negative.tolist())) == 1
    assert _near_flags(path3, lams) == [False, True, False, False]
    lams = [p - 0.2, p - 2 * _reach(p), q + 0.5 * _reach(q), q + 0.2]
    assert _near_flags(path3, lams) == [False, False, True, False]


def test_near_pole_probe_on_an_edge_pole(path3):
    # the probe of a sample just past reach of an edge pole falls inside the
    # assembly's own pole tolerance; it counts -1 instead of raising AtPole
    p = (2 * math.pi) ** 2 / 17
    assert _near_flags(path3, [p - 0.2, p + 1.0005 * _reach(p), p + 0.2]) == [False, True, False]


@pytest.mark.parametrize("pole", [(math.pi / 2) ** 2 / 17, PI2 / 17], ids=["inner", "edge"])
def test_sweep_flags_pole_just_outside_window(path3, pole):
    r = _reach(pole)
    assert sweep(path3, pole + 0.5 * r, pole + 0.2, 3)[0].near_pole
    assert sweep(path3, pole - 0.2, pole - 0.5 * r, 3)[-1].near_pole
    assert not sweep(path3, pole + 2 * r, pole + 0.2, 3)[0].near_pole
    assert not sweep(path3, pole - 0.2, pole - 2 * r, 3)[-1].near_pole


NEAR_POLE_GRAPHS = ["path-3", "lasso-4", "star-5", "braid-5", "two-cluster"]


@given(name=st.sampled_from(NEAR_POLE_GRAPHS), lo=st.floats(-5.0, 40.0),
       width=st.floats(0.05, 20.0), steps=st.integers(2, 40),
       planted=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-3.0, 3.0)), max_size=8))
@settings(max_examples=60, deadline=None)
def test_near_pole_matches_pole_scan(name, lo, width, steps, planted):
    # a random grid plus samples planted within three reaches of located
    # poles.  The reference flags a sample when a pole of pole_scan, run on
    # a window wide enough to hold the poles just past the grid's ends, lies
    # within its reach.  Samples within 1 % of the reach boundary, widened by
    # pole_scan's own location tolerance, are not compared
    g = catalog(name)
    hi = lo + width
    poles = np.array(pole_scan(g, lo - 0.1, hi + 0.1))
    lams = np.linspace(lo, hi, steps).tolist()
    for u, f in planted:
        if len(poles):
            p = poles[min(int(u * len(poles)), len(poles) - 1)]
            lams.append(p + f * _reach(p))
    lams = np.unique(lams)
    D = assemble_outer(g, lams)
    got = near_pole(g, lams, D.singular, D.inner_negative)
    reach = NEAR_POLE_REACH * np.maximum(1.0, np.abs(lams))
    dist = np.abs(lams[:, None] - poles[None, :]) if len(poles) else np.full((len(lams), 1), np.inf)
    want = (dist <= reach[:, None]).any(axis=1) | D.singular
    slack = 0.01 * reach[:, None] + POLE_BISECT_TOL * np.maximum(1.0, np.abs(poles))[None, :]
    clear = ~(np.abs(dist - reach[:, None]) <= slack).any(axis=1)
    assert got[clear].tolist() == want[clear].tolist()


def test_pole_scan_rejects_non_finite_window(interval):
    for lo, hi in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            pole_scan(interval, lo, hi)


def test_spectrum_arguments_rejected(two_cluster):
    with pytest.raises(ValueError):
        dirichlet_spectrum_full(two_cluster, math.inf)
    with pytest.raises(ValueError):
        dirichlet_spectrum_full(two_cluster, math.nan)
    with pytest.raises(ValueError):
        kirchhoff_spectrum(two_cluster, count=0)
    for resolution in (0.0, -4.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            kirchhoff_spectrum(two_cluster, resolution=resolution)


def test_resolution_without_coarser_mesh(two_cluster):
    # below one element per edge length, halving the resolution changes no
    # element count, so the drift estimate would read 0 by construction
    assert _elements(two_cluster, 0.25) == _elements(two_cluster, 0.125)
    with pytest.raises(ResolutionTooLow):
        kirchhoff_spectrum(two_cluster, resolution=0.25)


FEM_RESOLUTION = 64
FEM_WINDOW = 20.0


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_inner_pole_count_matches_fem(seed):
    # the inner poles are the Kirchhoff eigenvalues off the edge poles, with
    # multiplicity.  P1 elements overestimate each eigenvalue v by about
    # v^2 h^2 / 12; examples with an inner pole that close to an edge pole or
    # to the window end are skipped, since the FEM cannot tell them apart
    g = random_surd_graph(np.random.default_rng(seed), 3, 6)
    poles = pole_scan(g, 0.0, FEM_WINDOW)
    edge = np.array(dirichlet_spectrum_full(g, FEM_WINDOW).values)
    tol = lambda v: v * v / FEM_RESOLUTION**2 / 4.0 + 1e-9
    inner = [p for p in poles if not len(edge) or np.abs(edge - p).min() > 1e-9 * max(1.0, p)]
    assume(all(abs(p - q) > tol(max(p, q)) for p in inner for q in [*edge, FEM_WINDOW]))

    n = sum(_elements(g, FEM_RESOLUTION)) - len(g.edges) + g.n_vertices - g.n_outer
    count = min(n, int(sum(g.lengths) * math.sqrt(FEM_WINDOW) / math.pi) + 10)
    fem = _fem_eigenvalues(g, count, FEM_RESOLUTION)
    assert fem[-1] > FEM_WINDOW
    at_edge = lambda v: len(edge) and np.any((edge - 1e-9 <= v) & (v <= edge + tol(v)))
    assert len([v for v in fem if v < FEM_WINDOW and not at_edge(v)]) == len(inner)


@given(seed=st.integers(0, 2**32 - 1), gap=st.floats(0.0, 1.0),
       t1=st.floats(0.1, 0.7), step=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_dtn_eigenvalues_decrease_between_poles(seed, gap, t1, step):
    # D(lam) decreases strictly in the Loewner order between consecutive
    # poles, so does each of its sorted eigenvalues; the two samples sit at
    # fractions t1 < t2 of the gap, at least 0.1 apart and from its ends
    g = random_surd_graph(np.random.default_rng(seed), 3, 6)
    ends = [-5.0] + pole_scan(g, -5.0, 20.0) + [20.0]
    k = min(int(gap * (len(ends) - 1)), len(ends) - 2)
    a, b = ends[k], ends[k + 1]
    assume(b - a > 1e-6 * max(1.0, abs(b)))
    t2 = t1 + 0.1 + step * (0.7 - t1)
    D = assemble_outer(g, np.array([a + t1 * (b - a), a + t2 * (b - a)]))
    assert not D.singular.any()
    before, after = np.linalg.eigvalsh(D.entries)
    assert np.all(after < before)
