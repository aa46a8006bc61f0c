"""Spectra: closed-form Dirichlet values, FEM eigenvalues, pole location."""

import json
import math
import time
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

import dtnpos.spectra
from dtnpos import (
    PoleGroupUnresolved,
    ResolutionTooLow,
    assemble_full,
    assemble_outer,
    catalog,
    commensurable_family,
    dirichlet_spectrum_full,
    kirchhoff_spectrum,
    lambda_1,
    pole_scan,
    sweep,
    validate,
)
from dtnpos.assembly import STACK_CHUNK
from dtnpos.catalog import catalog_names
from dtnpos.cli import main
from dtnpos.graphs import graph_to_json
from dtnpos.spectra import (
    DEFAULT_RESOLUTION,
    NEAR_POLE_REACH,
    POLE_BISECT_TOL,
    RESOLUTION_DRIFT_MAX,
    _chain_schur,
    _counted_zeros,
    _edge_poles,
    _elements,
    _fem_eigenvalues,
    _fem_matrices,
    _inner_block,
    _residue_ranks,
    near_pole,
)

from conftest import random_quarter_graph as _quarter_graph, random_surd_graph

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


def _star_on_chain_pole(fourth=math.sqrt(2)):
    # three unit edges share their chain poles; two combinations of their
    # chain modes vanish on the inner vertex c with no net flux there
    return validate({
        "vertices": ["c", "a", "b", "d", "e"],
        "edges": [{"u": "c", "v": v, "length": L}
                  for v, L in (("a", 1.0), ("b", 1.0), ("d", 1.0), ("e", fourth))],
        "outer": ["a", "b", "d", "e"],
    })


@pytest.mark.parametrize("resolution", [1, 2, 4, 8, 32])
def test_fem_eigenvalues_match_dense_solve(resolution):
    # on the coarse meshes every free node is asked for: only they reach
    # past 12/h^2 (the hyperbolic branch), the limits at x = +-1 and edges
    # of one element, and they have fewer chain poles than eigenvalues
    rng = np.random.default_rng(11)
    graphs = [catalog(name) for name in ("interval", "path-3", "lasso-4", "star-5",
                                         "braid-5", "two-cluster")]
    graphs += [random_surd_graph(rng) for _ in range(8)] + [_pendant_pair()]
    # a fourth edge 1e-12 short of the others: its chain poles and theirs
    # are distinct but closer than their gaps, so they form groups
    graphs += [_star_on_chain_pole(1.0 - 1e-12)]
    for g in graphs:
        K, M = _fem_matrices(g, resolution)
        count = K.shape[0] if resolution <= 4 else min(10, K.shape[0])
        if count == 0:  # interval at resolution 1 has no free node
            continue
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




@pytest.mark.parametrize("resolution,value", [(8, 9.997081), (32, 9.877534)])
def test_fem_double_eigenvalue_on_chain_pole(resolution, value):
    g = _star_on_chain_pole()
    got = _fem_eigenvalues(g, 6, resolution)
    K, M = _fem_matrices(g, resolution)
    assert got == pytest.approx(scipy.linalg.eigh(K, M, eigvals_only=True)[:6], rel=1e-9)
    on_pole = got[np.abs(got - value) < 1e-6]
    assert len(on_pole) == 2 and on_pole[1] == pytest.approx(on_pole[0], rel=1e-12)
    # the first chain pole of a unit edge of `resolution` elements
    c = math.cos(math.pi / resolution)
    assert on_pole[0] == pytest.approx(6.0 * resolution**2 * (1 - c) / (2 + c), rel=1e-12)


@pytest.mark.parametrize("resolution", [32, 128, 512])
def test_fem_schur_evaluations_do_not_grow_with_mesh(monkeypatch, two_cluster, resolution):
    # the window ends at the count-th chain pole, so the stacked evaluations
    # of S follow count and not the mesh (9 at every resolution here)
    calls = []
    real = dtnpos.spectra._chain_schur

    def counting(*args):
        schur = real(*args)
        return lambda lams: calls.append(len(lams)) or schur(lams)

    monkeypatch.setattr(dtnpos.spectra, "_chain_schur", counting)
    _fem_eigenvalues(two_cluster, 8, resolution)
    assert len(calls) <= 12
    assert calls[0] <= 2 * 8 + 1


def _check_chain_schur(g, resolution, lams):
    # against the Schur complement of K - lam M on the inner vertices, formed
    # densely, to within 1e-12 of the pencil's largest entry
    got = _chain_schur(g, np.array(_elements(g, resolution)))(np.array(lams, dtype=float))
    K, M = _fem_matrices(g, resolution)
    k = g.n_vertices - g.n_outer
    for lam, row in zip(lams, got):
        A = K - lam * M
        S = A[:k, :k] - A[:k, k:] @ np.linalg.solve(A[k:, k:], A[k:, :k])
        want = np.linalg.eigvalsh(0.5 * (S + S.T))
        assert row == pytest.approx(want, rel=1e-9, abs=1e-12 * np.abs(A).max())


def _star(legs, length=0.75):
    # legs of one length from the inner vertex c to outer vertices
    tips = ["a", "b", "d"][:legs]
    return validate({
        "vertices": ["c", *tips],
        "edges": [{"u": "c", "v": v, "length": length} for v in tips],
        "outer": tips,
    })


@pytest.mark.parametrize("legs, resolution, lams", [
    # three elements of h = 1/4: s = lam h^2 is 0 and 12 (the limits q/ne,
    # 1/L and 3/L), 3 (cos phi = 0), and past 12 (the hyperbolic branch)
    (3, 4, [0.0, 48.0, 192.0, 200.0, 1e3, 1e5]),
    # 768 elements of h = 1/1024 at s = 1000: ne t is about 1000, past the
    # overflow guard at 350 and past sinh's overflow
    (1, 1024, [1000.0 * 1024.0**2]),
])
def test_chain_schur_matches_dense_schur_complement(legs, resolution, lams):
    _check_chain_schur(_star(legs), resolution, lams)


@pytest.mark.parametrize("seed", range(10))
def test_chain_schur_matches_dense_schur_complement_on_random_graphs(seed):
    # quarter lengths at resolution 4 put every edge at h = 1/4 (s = 3 and 12
    # at lam = 48 and 192); beta's sign past s = 3 follows ne's parity
    rng = np.random.default_rng(seed)
    for g, resolution in ((_quarter_graph(rng), 4), (random_surd_graph(rng), 5)):
        if g.n_outer == g.n_vertices:
            continue
        ne = np.array(_elements(g, resolution))
        h = g.lengths_array / ne
        j = np.arange(1, ne.max())
        c = np.cos(np.pi * j / ne[:, None])
        poles = (6.0 * (1.0 - c) / ((2.0 + c) * (h * h)[:, None]))[j < ne[:, None]]
        lams = [lam for lam in (0.0, 0.7, 5.0, 48.0, 100.0, 192.0, 300.0, 2e3)
                if not len(poles) or np.abs(poles - lam).min() > 1e-3 * max(1.0, lam)]
        _check_chain_schur(g, resolution, lams)


@pytest.mark.parametrize("resolution", [1e8, 1e12, 1e14])
def test_fem_lambda_1_at_high_resolution(lasso, resolution):
    # the P1 lowest value tends to lambda_1 as h^2; at these meshes rounding
    # in S, not the discretization, decides how far off it is
    got = _fem_eigenvalues(lasso, 1, resolution)[0]
    assert got == pytest.approx(lambda_1(lasso), rel=2 * POLE_BISECT_TOL)


def test_resolution_too_low(interval, path3):
    # two elements leave one free node, whose eigenvalue 12 is 22 % above pi^2
    with pytest.raises(ResolutionTooLow, match=r"discretization error 2\.130e\+00 exceeds 1% "
                                               r"of lambda_1=9\.8696"):
        kirchhoff_spectrum(interval, count=1, resolution=2)
    with pytest.raises(ResolutionTooLow, match="resolution 4 has 20 free nodes, "
                                               "fewer than the 500 eigenvalues asked for"):
        kirchhoff_spectrum(path3, count=500, resolution=4)


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


@pytest.mark.parametrize("name", catalog_names())
def test_lambda_1_is_first_counted_pole(name):
    g = catalog(name)
    assert lambda_1(g) == pole_scan(g, 0.0, 1.01 * (math.pi / max(g.lengths)) ** 2)[0]


def test_fem_solves_per_call(monkeypatch, path3):
    # kirchhoff_spectrum measures its error against the counted lambda_1, so
    # it solves one mesh and lambda_1 solves none
    calls = []
    real = dtnpos.spectra._fem_eigenvalues
    monkeypatch.setattr(dtnpos.spectra, "_fem_eigenvalues",
                        lambda *args: calls.append(args) or real(*args))
    kirchhoff_spectrum(path3, count=3)
    assert len(calls) == 1
    calls.clear()
    lambda_1(path3)
    assert calls == []


@pytest.mark.parametrize("seed", range(8))
def test_counted_lambda_1_below_fem(seed):
    # P1 eigenvalues are Rayleigh-Ritz upper bounds, so the counted lambda_1
    # lies below the FEM one, by about the FEM's own error estimate (a third
    # of the drift from the halved mesh)
    rng = np.random.default_rng(seed)
    raw = graph_to_json(random_surd_graph(rng))
    for e in raw["edges"]:
        e["length"] = int(rng.integers(2, 7)) / 4.0
    g = validate(raw)
    counted = lambda_1(g)
    fem = kirchhoff_spectrum(g).values[0]
    estimate = abs(fem - _fem_eigenvalues(g, 1, DEFAULT_RESOLUTION / 2)[0]) / 3.0
    assert counted <= fem
    assert fem - counted <= 2.0 * estimate + 1e-9 * fem
    if not g.inner:
        assert counted == (math.pi / max(g.lengths)) ** 2


def _located_refuses(g, resolution):
    """The 1 % check of kirchhoff_spectrum decided by the located lambda_1."""
    try:
        f = _fem_eigenvalues(g, 1, resolution)[0]
    except ResolutionTooLow:  # a mesh without enough free nodes
        return True
    lam1 = lambda_1(g)
    return abs(f - lam1) > RESOLUTION_DRIFT_MAX * lam1


def _refuses(g, resolution):
    try:
        kirchhoff_spectrum(g, resolution=resolution)
    except ResolutionTooLow:
        return True
    return False


def _star_and_long_edge():
    # an inner centre with unit edges to outer leaves, whose own lowest
    # eigenvalue is (pi / 2)^2, and an outer edge of length 3 between two
    # leaves: lambda_1 is that edge's pole p_1 = (pi / 3)^2
    return validate({
        "vertices": ["c", "o1", "o2", "o3"],
        "edges": [{"u": "c", "v": "o1", "length": 1.0}, {"u": "c", "v": "o2", "length": 1.0},
                  {"u": "c", "v": "o3", "length": 1.0}, {"u": "o1", "v": "o2", "length": 3.0}],
        "outer": ["o1", "o2", "o3"],
    })


def _equal_star():
    # an inner centre with three unit edges to outer leaves: lambda_1 is
    # (pi / 2)^2, a quarter of p_1, which all three edges share
    return validate({
        "vertices": ["c", "o1", "o2", "o3"],
        "edges": [{"u": "c", "v": w, "length": 1.0} for w in ("o1", "o2", "o3")],
        "outer": ["o1", "o2", "o3"],
    })


@given(seed=st.integers(0, 2**32 - 1), log_resolution=st.floats(-2.0, 6.0))
@settings(max_examples=40, deadline=None)
def test_counted_check_decides_as_located_lambda_1(seed, log_resolution):
    # the check counts neg C at f / 1.01 and f / 0.99 instead of locating
    # lambda_1, and refuses exactly the meshes the located lambda_1 refuses
    g = random_surd_graph(np.random.default_rng(seed), 3, 6)
    resolution = 2.0 ** log_resolution
    assert _refuses(g, resolution) == _located_refuses(g, resolution)


@pytest.mark.parametrize("resolution", [0.25, 0.5, 1, 2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("graph", [_star_and_long_edge, _equal_star, lambda: catalog("interval"),
                                   lambda: catalog("two-cluster")],
                         ids=["lambda_1-is-p_1", "equal-star", "all-outer", "two-cluster"])
def test_counted_check_on_edge_pole_graphs(graph, resolution):
    g = graph()
    if graph is _star_and_long_edge:
        assert lambda_1(g) == (math.pi / 3) ** 2
    assert _refuses(g, resolution) == _located_refuses(g, resolution)


def test_counted_check_locates_lambda_1_only_to_refuse(monkeypatch, path3):
    calls = []
    real = dtnpos.spectra.lambda_1
    monkeypatch.setattr(dtnpos.spectra, "lambda_1", lambda g: calls.append(g) or real(g))
    kirchhoff_spectrum(path3, count=3)
    assert calls == []
    with pytest.raises(ResolutionTooLow):
        kirchhoff_spectrum(path3, resolution=0.25)
    assert len(calls) == 1


@pytest.mark.parametrize("factor", [1.0 + RESOLUTION_DRIFT_MAX, 1.0 - RESOLUTION_DRIFT_MAX])
def test_counted_check_end_in_first_pole_group(monkeypatch, factor):
    # a lowest value that puts f / 1.01 or f / 0.99 on p_1 leaves the count
    # undefined there; the located lambda_1 decides, here (pi / 2)^2 < p_1
    g = _equal_star()
    p1 = math.pi**2
    monkeypatch.setattr(dtnpos.spectra, "_fem_eigenvalues",
                        lambda g, count, resolution: np.array([factor * p1]))
    with pytest.raises(ResolutionTooLow, match=r"of lambda_1=2\.4674"):
        kirchhoff_spectrum(g)


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


@pytest.mark.parametrize("side", ["lo", "hi"])
def test_pole_scan_finds_inner_pole_next_to_window_end(path3, side):
    # the free tip's first inner pole 1e-8 inside either end, with no edge
    # pole near that end: the bracket reaches the end itself
    p = (math.pi / 2) ** 2 / 17
    want = [p] if side == "hi" else [p, PI2 / 17]
    got = pole_scan(path3, 0.1, p + 1e-8) if side == "hi" else pole_scan(path3, p - 1e-8, 1.0)
    assert len(got) == len(want)
    assert all(abs(x - y) <= POLE_BISECT_TOL * max(1.0, y) for x, y in zip(got, want))
    # an end on an edge pole gets no sliver and adds no pole
    assert pole_scan(path3, 0.1, PI2 / 17) == pytest.approx([p], rel=POLE_BISECT_TOL)
    assert pole_scan(path3, PI2 / 17, 1.0) == []


@pytest.mark.parametrize("below,above", [(1e-8, 1e-8), (3e-8, 1e-7)])
def test_pole_scan_finds_inner_pole_in_narrow_window(path3, below, above):
    # a window of 2e-8 to 1.3e-7 around an inner pole, with no edge pole
    # in it: the one bracket is the window itself
    p = (math.pi / 2) ** 2 / 17
    got = pole_scan(path3, p - below, p + above)
    assert len(got) == 1 and abs(got[0] - p) <= POLE_BISECT_TOL * max(1.0, p)


def test_pole_scan_returns_plain_floats(path3, lasso):
    # inner poles come out of the root-find, edge poles out of the closed form;
    # both must be Python floats
    for g, hi in ((path3, 4.0), (lasso, 20.0)):
        got = pole_scan(g, 0.0, hi)
        assert len(got) > 3
        assert all(type(p) is float for p in got)


# pole_scan(lasso-4, 0, 150): the counted root-finder on the eigenvalues of C
LASSO_POLES_150 = [
    0.909219469769839, 1.4099434858699083, 1.9739208802178716, 2.505744502330617,
    3.289868133696453, 5.019182804358659, 5.639773943479633, 7.895683520871486, 8.451985319318654,
    9.869604401089358, 11.930654395709823, 12.689491372829172, 13.159472534785811,
    16.12515906248204, 17.765287921960844, 22.50049665860641, 22.559095773918532,
    29.60881320326808, 30.621876149046713, 31.582734083485946, 34.72974645675683,
    35.24858714674771, 39.47841760435743, 45.310688103986834, 49.348022005446786,
    50.75796549131669, 50.92926334782567, 52.637890139143245, 62.50695839455, 69.08723080762552,
    71.06115168784338, 74.52601840914267, 82.24670334241131, 84.5773155642392, 88.82643960980423,
    90.23638309567413, 94.4588506323468, 96.7221231306757, 108.42786737724819, 114.20542235546255,
    118.43525281307232, 122.79703251052402, 126.33093633394378, 136.5643699562229,
    140.99434858699084,
]

# the same scan with brackets kept 1e-7 * max(1, lam) clear of the edge poles
LASSO_POLES_150_MARGIN = [
    0.9092194697698388, 1.4099434858699083, 1.9739208802178716, 2.505744502330618,
    3.289868133696453, 5.019182804609615, 5.639773943479633, 7.895683520871486,
    8.451985318896057, 9.869604401089358, 11.930654395709821, 12.689491372829172,
    13.159472534785811, 16.12515906248204, 17.765287921960844, 22.50049665860641,
    22.559095773918532, 29.60881320326808, 30.62187614904669, 31.582734083485946,
    34.729746456756835, 35.24858714674771, 39.47841760435743, 45.31068810398683,
    49.348022005446786, 50.75796549131669, 50.92926334782567, 52.637890139143245,
    62.50695839455, 69.08723080762552, 71.06115168784338, 74.52601841286895,
    82.24670334241131, 84.57731556423921, 88.82643960980423, 90.23638309567413,
    94.45885063234682, 96.7221231306757, 108.42786737724816, 114.20542235546255,
    118.43525281307232, 122.79703251052402, 126.33093633394378, 136.5643699562229,
    140.99434858699084,
]

# the same scan by inertia counting with quarter cuts (_quarter_cut_scan)
LASSO_POLES_150_QUARTER = [
    0.9092194697092673, 1.4099434858699083, 1.9739208802178716, 2.505744502271578,
    3.289868133696453, 5.0191828044469435, 5.639773943479633, 7.895683520871486, 8.451985319209495,
    9.869604401089358, 11.930654396177161, 12.689491372829172, 13.159472534785811,
    16.125159063047725, 17.765287921960844, 22.50049665764609, 22.559095773918532,
    29.60881320326808, 30.621876149149422, 31.582734083485946, 34.72974645573194,
    35.24858714674771, 39.47841760435743, 45.31068810510341, 49.348022005446786, 50.75796549131669,
    50.92926334997148, 52.637890139143245, 62.50695839781814, 69.08723080762552, 71.06115168784338,
    74.52601841025455, 82.24670334241131, 84.57731556852058, 88.82643960980423, 90.23638309567413,
    94.45885062789573, 96.7221231306757, 108.42786737802528, 114.20542235546255,
    118.43525281307232, 122.79703251282788, 126.33093633394378, 136.56436996410474,
    140.99434858699084,
]

# and by the earlier sign grid and bisection: four routes to the same
# poles, each within the location tolerance
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
    assert _quarter_cut_scan(lasso, 0.0, 150.0) == LASSO_POLES_150_QUARTER
    for route in (LASSO_POLES_150_MARGIN, LASSO_POLES_150_QUARTER, LASSO_POLES_150_GRID):
        assert len(got) == len(route)
        for p, q in zip(got, route):
            assert abs(p - q) <= POLE_BISECT_TOL * max(1.0, q)


def _negative_counts(g, lams, low, high):
    """neg C at each of lams, known to lie in [low, high]; -1 at an edge pole.

    Where [low, high] leaves two values, the sign of det C = (-1)^neg
    decides through slogdet; eigvalsh counts elsewhere.
    """
    m = g.n_outer
    full = assemble_full(g, lams)
    C = full.entries[:, m:, m:]
    counts = np.full(len(lams), -1)
    pair = (high - low == 1) & ~full.singular
    rest = ~pair & ~full.singular
    sign, _ = np.linalg.slogdet(C[pair])
    counts[pair] = low[pair] + (sign == -(-1.0) ** low[pair])
    counts[rest] = np.clip((np.linalg.eigvalsh(C[rest]) < 0).sum(axis=1), low[rest], high[rest])
    return counts


def _all_counts(g, lams):
    n = g.n_vertices - g.n_outer
    return _negative_counts(g, lams, np.zeros(len(lams), dtype=int), np.full(len(lams), n))


def _residue_rank(g, p):
    """Rank of C's residue at the edge pole p, summed as a matrix edge by edge."""
    m = g.n_outer
    R = np.zeros((g.n_vertices, g.n_vertices))
    for (u, v), L in zip(g.edge_indices, g.lengths):
        k = round(math.sqrt(p) * L / math.pi)
        if k >= 1 and abs((math.pi * k / L) ** 2 - p) <= 1e-12 * max(1.0, p):
            w = np.zeros(g.n_vertices)
            w[u], w[v] = 1.0, -(-1.0) ** k
            R += 2.0 * p / L * np.outer(w, w)
    return np.linalg.matrix_rank(R[m:, m:])


def _quarter_cut_scan(g, lo, hi):
    """pole_scan by inertia counting alone, the reference for its root-find.

    Its own brackets, by the same rule: each edge pole p widened by
    POLE_BISECT_TOL * p / 4, widened poles that meet form a group, and the
    brackets run between the groups and the window ends outside them.  A
    group meeting the window reports the jump of neg C plus the residue
    ranks of the edge poles below, at the mean of its outer poles, if that
    lies in the window.  Each round cuts every bracket that still holds a
    pole at its quarter points in one stacked count, until it is narrower
    than POLE_BISECT_TOL * max(1, lam), and reports its midpoint once per
    pole.
    """
    edge = _edge_poles(g, lo, hi)
    if g.n_outer == g.n_vertices:
        return edge
    groups = []  # [start, end, first pole, last pole]
    for p in _edge_poles(g, lo - POLE_BISECT_TOL * max(1.0, abs(lo)),
                         hi + POLE_BISECT_TOL * max(1.0, abs(hi))):
        gap = POLE_BISECT_TOL * p / 4
        if groups and p - gap <= groups[-1][1]:
            groups[-1][1], groups[-1][3] = p + gap, p
        else:
            groups.append([p - gap, p + gap, p, p])
    groups = [grp for grp in groups if grp[1] >= lo and grp[0] <= hi]
    inner = []
    if groups:
        ranks = {p: _residue_rank(g, p) for p in _edge_poles(g, groups[0][0], groups[-1][1])}
        ends = np.array([[grp[0], grp[1]] for grp in groups]).ravel()
        counts = _all_counts(g, ends) + [sum(r for p, r in ranks.items() if p < x) for x in ends]
        for (start, end, first, last), jump in zip(groups, counts[1::2] - counts[::2]):
            if lo < 0.5 * (first + last) < hi:
                inner += [0.5 * (first + last)] * jump
    bounds = [lo] + [x for grp in groups for x in grp[:2]] + [hi]
    left, right = np.array(bounds[::2]), np.array(bounds[1::2])
    left, right = left[right > left], right[right > left]
    low, high = np.split(_all_counts(g, np.concatenate([left, right])), 2)
    while True:
        done = right - left <= POLE_BISECT_TOL * np.maximum(1.0, left)
        inner += np.repeat(0.5 * (left + right)[done], (high - low)[done]).tolist()
        live = ~done & (high > low)
        if not live.any():
            break
        left, right, low, high = left[live], right[live], low[live], high[live]
        cuts = left[:, None] + (right - left)[:, None] * np.array([0.25, 0.5, 0.75])
        mid = _negative_counts(g, cuts.ravel(), np.repeat(low, 3), np.repeat(high, 3))
        x = np.column_stack([left, cuts, right])
        n = np.column_stack([low, mid.reshape(-1, 3), high])
        held = n[:, 1:] > n[:, :-1]
        left, right, low, high = x[:, :-1][held], x[:, 1:][held], n[:, :-1][held], n[:, 1:][held]
    return sorted(edge + inner)


def _counted_eigenvalues(g, lams):
    """Stand-in eigenvalues of C carrying the counts of _all_counts: -1 for each negative one."""
    counts = _all_counts(g, lams)
    ev = np.where(np.arange(g.n_vertices - g.n_outer) < counts[:, None], -1.0, 1.0)
    ev[counts < 0] = np.nan
    return ev


def _check_against_quarter_cuts(g, lo, hi):
    got = pole_scan(g, lo, hi)
    want = _quarter_cut_scan(g, lo, hi)
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert abs(p - q) <= POLE_BISECT_TOL * max(1.0, q)

    # neg C rises across every inner pole reported
    edge = _edge_poles(g, lo, hi)
    inner = np.array([p for p in got if p not in edge])
    if len(inner):
        d = POLE_BISECT_TOL * np.maximum(1.0, inner)
        below, above = np.split(_all_counts(g, np.concatenate([inner - d, inner + d])), 2)
        assert (below < above).all()

    # near_pole on a grid with samples planted around every pole flags the
    # samples it flagged when it counted with _all_counts
    reach = NEAR_POLE_REACH * np.maximum(1.0, np.abs(got))
    planted = [p + f * r for p, r in zip(got, reach) for f in (-2.0, -0.99, -0.5, 0.5, 1.01, 2.0)]
    lams = np.unique(np.concatenate([np.linspace(lo, hi, 40), planted]))
    lams = lams[(lo <= lams) & (lams <= hi)]
    D = assemble_outer(g, lams)
    flags = near_pole(g, lams, D.singular, D.inner_negative)
    counted = lambda g: lambda lams: _counted_eigenvalues(g, lams)
    with mock.patch.object(dtnpos.spectra, "_inner_block", counted):
        assert flags.tolist() == near_pole(g, lams, D.singular, D.inner_negative).tolist()


def _windows(g):
    """Windows reaching below zero, with both ends within 1e-7 of edge poles, with both
    ends within 1e-11 * p of edge poles p, the first inside the window and the other
    outside, and near 1e8."""
    L = max(g.lengths)
    first, third = (math.pi / L) ** 2, (3.0 * math.pi / L) ** 2
    return [(-3.0, 15.0),
            (first + 3e-8 * max(1.0, first), third - 3e-8 * max(1.0, third)),
            (first * (1.0 - 1e-11), third * (1.0 - 1e-11)),
            (1e8, 1e8 + 5e4)]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_pole_scan_matches_quarter_cuts(seed):
    g = random_surd_graph(np.random.default_rng(seed), 3, 6)
    assume(g.inner)
    for lo, hi in _windows(g):
        _check_against_quarter_cuts(g, lo, hi)


def _full_inner_eigenvalues(g, lams):
    """eigvalsh of the inner block of assemble_full, a row of NaN where the stack is singular."""
    m = g.n_outer
    full = assemble_full(g, lams)
    ev = np.full((len(lams), g.n_vertices - m), np.nan)
    ev[~full.singular] = np.linalg.eigvalsh(full.entries[~full.singular][:, m:, m:])
    return ev


@given(seed=st.integers(0, 2**32 - 1), quarters=st.booleans(), spread=st.floats(-12.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_inner_block_matches_full_assembly(seed, quarters, spread):
    # the evaluator's rows are eigvalsh of the full matrix's inner block, bit
    # for bit: at 0, below it, inside the series window, at and within
    # 1e-11 p of edge poles p, at 1e8 and on a grid, NaN rows included
    rng = np.random.default_rng(seed)
    g = _quarter_graph(rng) if quarters else random_surd_graph(rng, 3, 8)
    assume(g.inner)
    L = np.array(g.lengths)
    poles = (math.pi * rng.integers(1, 6, len(L)) / L) ** 2
    near = [poles * (1.0 + f) for f in (1e-11, -1e-11, 1e-13, 10.0**spread)]
    lams = np.concatenate([poles, [0.0, -1e-9, -3.0, -1e4, 1e-12, 3e-9 / L.max() ** 2, 1e8],
                           rng.uniform(-10.0, 200.0, 20), *near])
    got = _inner_block(g)(lams)
    assert got.shape == (len(lams), g.n_vertices - g.n_outer)
    assert np.array_equal(got, _full_inner_eigenvalues(g, lams), equal_nan=True)
    assert np.isnan(got[:len(L)]).all()


def test_inner_block_longer_than_a_chunk(lasso):
    lams = np.linspace(-6.0, 45.0, 2 * STACK_CHUNK + 7)
    assert np.array_equal(_inner_block(lasso)(lams), _full_inner_eigenvalues(lasso, lams),
                          equal_nan=True)


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
    table = sweep(g, lam - 1.0, lam + 1.0, 3)
    assert table.tag[1] != "pole"
    assert table.near_pole.tolist() == [False, True, False]
    lam = (math.pi / 2) ** 2 * (1.0 + 5e-9)
    assert not sweep(g, lam - 1.0, lam + 1.0, 3).near_pole[1]


def test_pole_scan_matches_quarter_cuts_on_double_pole():
    _check_against_quarter_cuts(_pendant_graph(), 0.5, 12.0)


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12])
def test_pole_scan_keeps_inner_pole_between_close_edge_poles(eps):
    # a - o - b with a and b outer: the edge poles (pi / (1 + eps))^2 and pi^2
    # hold the inner pole (2 pi / (2 + eps))^2 between them, closer to each
    # than 1e-7 from eps = 1e-7 on, and within one group of them from 1e-11 on
    g = validate({
        "vertices": ["a", "o", "b"],
        "edges": [{"u": "a", "v": "o", "length": 1.0}, {"u": "o", "v": "b", "length": 1.0 + eps}],
        "outer": ["a", "b"],
    })
    got = pole_scan(g, 5.0, 15.0)
    want = [(math.pi / (1.0 + eps)) ** 2, (2.0 * math.pi / (2.0 + eps)) ** 2, PI2]
    assert len(got) == 3
    assert all(abs(p - q) <= POLE_BISECT_TOL * q for p, q in zip(got, want))


def _inner_triangle():
    # an inner triangle of unit edges, each corner on a pendant to an outer
    # vertex: its three edges share the pole (pi k)^2, where C's residue has
    # rank 3 for odd k and 2 for even k, and the pendants share none of them
    return validate({
        "vertices": ["o1", "o2", "o3", "a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "length": 1.0}, {"u": "b", "v": "c", "length": 1.0},
                  {"u": "c", "v": "a", "length": 1.0},
                  {"u": "o1", "v": "a", "length": math.sqrt(2)},
                  {"u": "o2", "v": "b", "length": math.sqrt(3)},
                  {"u": "o3", "v": "c", "length": math.sqrt(5)}],
        "outer": ["o1", "o2", "o3"],
    })


def test_pole_scan_weights_shared_edge_pole_by_residue_rank():
    g = _inner_triangle()
    _check_against_quarter_cuts(g, 1.0, 200.0)
    # weighting (2 pi k)^2 by its three edges would add a phantom inner pole
    # there; the edge pole itself is listed once
    got = np.array(pole_scan(g, 1.0, 200.0))
    for k in (1, 2):
        p = (2.0 * math.pi * k) ** 2
        assert (np.abs(got - p) <= POLE_BISECT_TOL * p).sum() == 1


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_residue_ranks_match_matrix_rank(seed):
    # _residue_ranks against matrix_rank of C's residue summed edge by edge,
    # on every edge pole up to 250 of a graph whose quarter lengths share
    # many poles, and of the inner triangle and the pendant pairs
    for g in (_quarter_graph(np.random.default_rng(seed)), _inner_triangle(), _pendant_graph()):
        poles = np.array(_edge_poles(g, 0.0, 250.0))
        assert _residue_ranks(g, poles).tolist() == [_residue_rank(g, p) for p in poles]


def test_residue_ranks_of_inner_triangle():
    g = _inner_triangle()
    poles = np.array([(math.pi * k) ** 2 for k in (1, 2, 3, 4)])
    assert _residue_ranks(g, poles).tolist() == [3, 2, 3, 2]


def _stacked_calls(monkeypatch, run):
    """The stacked evaluations of C that spectra makes while run() runs, at least one."""
    calls = []
    real = dtnpos.spectra._inner_block

    def counting(g):
        block = real(g)
        return lambda lams: calls.append(len(lams)) or block(lams)

    monkeypatch.setattr(dtnpos.spectra, "_inner_block", counting)
    run()
    assert len(calls) > 0
    return len(calls)


def test_pole_scan_call_budget(monkeypatch, lasso):
    # quarter cuts took 18 and 19 stacked counts
    assert _stacked_calls(monkeypatch, lambda: pole_scan(lasso, 0.0, 150.0)) <= 14
    g = validate({
        "vertices": ["v1", "v2", "v3", "v4"],
        "edges": [{"u": "v1", "v": "v2", "length": 1.0}, {"u": "v1", "v": "v3", "length": 0.5},
                  {"u": "v2", "v": "v3", "length": 1.25}, {"u": "v2", "v": "v4", "length": 1.5}],
        "outer": ["v1", "v4"],
    })
    assert _stacked_calls(monkeypatch, lambda: commensurable_family(g, 0.1, [1])) <= 12


@pytest.mark.parametrize("name,lo,hi", [("path-3", -1e6, 0.5), ("lasso-4", -50.0, 150.0)])
def test_pole_scan_below_zero_call_budget(monkeypatch, name, lo, hi):
    # no inner pole lies at lam <= 0, so every row starts at 0 or above; these
    # windows took 29 and 12 stacked calls when the rows started at lo
    g = catalog(name)
    got = []
    assert _stacked_calls(monkeypatch, lambda: got.extend(pole_scan(g, lo, hi))) <= 10
    # each list places every pole within POLE_BISECT_TOL * max(1, p) of it
    want = pole_scan(g, 0.0, hi)
    assert len(got) == len(want)
    assert all(abs(a - b) <= 2 * POLE_BISECT_TOL * max(1.0, b) for a, b in zip(got, want))


@pytest.mark.parametrize("left,right", [(0.1, 1.0 + 1e-9), (1.0 - 1e-9, 0.5 / 0.145), (-1e6, 3.4)],
                         ids=["pole-at-right", "pole-at-left", "wide-below-zero"])
def test_bracketed_root_find_within_safeguard_bound(monkeypatch, path3, left, right):
    # brackets around the free tip's first inner pole p, in units of p: the
    # safeguard keeps a row within twice the steps of bisection, plus two,
    # and the count adds one call; a row starts no lower than 0, so bisection
    # counts from there
    p = (math.pi / 2) ** 2 / 17
    left, right = p * left, p * right
    got = []
    # pole_scan starts its count at max(lo, 0) too
    calls = _stacked_calls(monkeypatch, lambda: got.extend(_counted_zeros(
        dtnpos.spectra._inner_block(path3), np.empty(0), np.empty(0, dtype=int),
        max(left, 0.0), right)))
    assert len(got) == 1 and abs(got[0] - p) <= POLE_BISECT_TOL * p
    bisections = math.ceil(math.log2((right - max(left, 0.0)) / (POLE_BISECT_TOL * p)))
    assert calls <= 2 * bisections + 3


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
    assert sweep(path3, pole + 0.5 * r, pole + 0.2, 3).near_pole[0]
    assert sweep(path3, pole - 0.2, pole - 0.5 * r, 3).near_pole[-1]
    assert not sweep(path3, pole + 2 * r, pole + 0.2, 3).near_pole[0]
    assert not sweep(path3, pole - 0.2, pole - 2 * r, 3).near_pole[-1]


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


def _edge_poles_from_1(g, lo, hi):
    """Reference: every edge pole up to hi from k = 1, then the window."""
    poles = []
    for p in dirichlet_spectrum_full(g, hi).values:
        if lo < p < hi and (not poles or p - poles[-1] > 1e-12 * max(1.0, p)):
            poles.append(p)
    return poles


@pytest.mark.parametrize("name", catalog_names())
def test_edge_poles_match_listing_from_1(name):
    g = catalog(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    windows = []
    for _ in range(300):
        lo = rng.choice([-1.0, 1.0, 1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 5.0)
        windows.append((lo, lo + 10.0 ** rng.uniform(-9.0, 4.0)))
    # windows that end on a pole, which lies outside the open window
    for L in g.lengths:
        for k in (1, 2, 7, 40):
            p = (math.pi * k / L) ** 2
            windows += [(p, p + 1.0), (p - 1.0, p), (p - 1e-9, p + 1e-9)]
    for lo, hi in windows:
        assert _edge_poles(g, lo, hi) == _edge_poles_from_1(g, lo, hi), (lo, hi)


def test_pole_scan_far_window_is_fast(lasso):
    # listing every edge pole from k = 1 up to 1e13 took seconds
    t0 = time.perf_counter()
    assert pole_scan(lasso, 1e13, 1.00000001e13) == []
    assert sweep(lasso, 1e13, 1e13 + 1e-9 * 1e13, 5).lam.shape == (5,)
    assert time.perf_counter() - t0 < 1.0


def test_edge_pole_count_is_bounded_before_listing(lasso, monkeypatch, capsys):
    # the k-ranges are counted before any pole is listed: (0, 1e300) spans
    # about 2.4e150 edge poles and is refused at once, naming the window and
    # the count, instead of listing them
    for argv in (["poles", "--graph", "catalog:lasso-4", "--from", "0", "--to", "1e300"],
                 ["sweep", "--graph", "catalog:lasso-4", "--from", "0", "--to", "1e300",
                  "--steps", "10"]):
        t0 = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - t0 < 5.0
        assert "spans about 2.42e+150 edge poles" in capsys.readouterr().err
    # the same rule at a bound of 100: (0, 1e4) spans about 246 k-values over
    # the four edges, (0, 1e3) about 81
    monkeypatch.setattr(dtnpos.spectra, "EDGE_POLES_MAX", 100)
    with pytest.raises(ValueError, match=r"window \(0\.0, 10000\.0\) spans about 24\d edge poles"):
        _edge_poles(lasso, 0.0, 1e4)
    assert _edge_poles(lasso, 0.0, 1e3) == _edge_poles_from_1(lasso, 0.0, 1e3)


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
    # element count, so a drift between the two meshes would read 0 by
    # construction; the error measured against lambda_1 does not
    assert _elements(two_cluster, 0.25) == _elements(two_cluster, 0.125)
    with pytest.raises(ResolutionTooLow, match=r"discretization error 4\.260e-02 exceeds 1% "
                                               r"of lambda_1=0\.707397"):
        kirchhoff_spectrum(two_cluster, resolution=0.25)


def test_resolution_past_double_precision_rejected(lasso, capsys):
    # 1e19 elements per unit length put more than 2**53 on an edge, where the
    # element counts stop being exact doubles; refused before any array forms
    with pytest.raises(ValueError, match=r"more than 2\*\*53 elements on an edge"):
        kirchhoff_spectrum(lasso, resolution=1e19)
    assert main(["spectrum", "--graph", "catalog:lasso-4", "--resolution", "1e19"]) == 1
    assert "more than 2**53 elements" in capsys.readouterr().err


# an inner pole on a pole that several edges (or chains) share: the count
# across its group is lost to rounding beside the pole term
UNRESOLVED_GROUPS = [
    (25, lambda g: pole_scan(g, 0.5, 60.0)),
    (89, lambda g: pole_scan(g, 1e4, 1.2e4)),
    (194, lambda g: kirchhoff_spectrum(g, count=6, resolution=4)),
    (328, lambda g: kirchhoff_spectrum(g, count=6, resolution=4)),
]


@pytest.mark.parametrize("seed, call", UNRESOLVED_GROUPS)
def test_unresolved_pole_group_is_refused_by_name(seed, call):
    with pytest.raises(PoleGroupUnresolved, match=r"count of zeros falls from \d+ at lambda="):
        call(_quarter_graph(np.random.default_rng(seed)))


def _seed_13_spectrum(count):
    g = _quarter_graph(np.random.default_rng(13))
    K, M = _fem_matrices(g, 16)
    want = scipy.linalg.eigh(K, M, eigvals_only=True)[:count]
    return kirchhoff_spectrum(g, count=count, resolution=16).values, want


def test_seed_13_lowest_value_beside_chain_pole():
    # the count of S across the chain pole 4.39276 holds in the phase form
    got, want = _seed_13_spectrum(1)
    assert got == pytest.approx(want, rel=POLE_BISECT_TOL)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18: the P1 eigenvalue on the chain pole "
                                       "4.392757860759 is root-found 6.7e-9 off it")
def test_seed_13_eigenvalue_on_chain_pole():
    got, want = _seed_13_spectrum(6)
    assert got == pytest.approx(want, rel=POLE_BISECT_TOL)


def test_unresolved_pole_group_exits_as_an_error(tmp_path, capsys):
    path = tmp_path / "quarter.json"
    path.write_text(json.dumps(graph_to_json(_quarter_graph(np.random.default_rng(25)))))
    assert main(["poles", "--graph", str(path), "--from", "0.5", "--to", "60"]) == 1
    assert "count of zeros falls" in capsys.readouterr().err


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=25)
@example(seed=89)
@example(seed=13)
@settings(max_examples=100, deadline=None)
def test_quarter_graphs_answer_or_refuse_by_name(seed):
    # commensurable lengths put inner poles on shared edge and chain poles by
    # structure; every scan and spectrum returns ascending values, or refuses
    # with a named error, never with numpy's
    g = _quarter_graph(np.random.default_rng(seed))
    calls = [lambda w=w: pole_scan(g, *w) for w in ((0.5, 60.0), (1e4, 1.2e4))]
    calls += [lambda r=r: kirchhoff_spectrum(g, count=6, resolution=r).values for r in (4, 16, 64)]
    for call in calls:
        try:
            values = np.array(call())
        except (ResolutionTooLow, PoleGroupUnresolved):
            continue
        assert (np.diff(values) >= 0).all()


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
