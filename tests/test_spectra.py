"""Spectra: closed-form Dirichlet values, FEM eigenvalues, pole location."""

import math
import time
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

import dtnpos.spectra
from dtnpos import (
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
from dtnpos.catalog import catalog_names
from dtnpos.graphs import graph_to_json
from dtnpos.spectra import (
    DEFAULT_RESOLUTION,
    NEAR_POLE_REACH,
    POLE_BISECT_TOL,
    _bracketed_poles,
    _brackets,
    _edge_poles,
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


def test_resolution_too_low(interval, path3):
    # one or two elements per edge cannot support a drift estimate: the
    # halved mesh has no free node at all
    with pytest.raises(ResolutionTooLow, match="resolution 1 has 0 free nodes, "
                                               "fewer than the 1 eigenvalues asked for"):
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


@pytest.mark.parametrize("seed", range(8))
def test_counted_lambda_1_below_fem(seed):
    # P1 eigenvalues are Rayleigh-Ritz upper bounds, so the lambda_1 that
    # commensurable_family counts lies below the FEM one, by about the FEM's
    # own error estimate (a third of the drift from the halved mesh)
    rng = np.random.default_rng(seed)
    raw = graph_to_json(random_surd_graph(rng))
    for e in raw["edges"]:
        e["length"] = int(rng.integers(2, 7)) / 4.0
    g = validate(raw)
    counted = commensurable_family(g, 1e-3, [1]).lam1
    fem = lambda_1(g)
    estimate = abs(fem - _fem_eigenvalues(g, 1, DEFAULT_RESOLUTION / 2)[0]) / 3.0
    assert counted <= fem
    assert fem - counted <= 2.0 * estimate + 1e-9 * fem
    if not g.inner:
        assert counted == fem


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
    # the free tip's first inner pole 1e-8 inside either end, closer than the
    # margin that keeps brackets clear of edge poles
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
    # a window narrower than the two margins that keep a bracket clear of edge
    # poles, with no edge pole in it: the one bracket is the window itself
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


# pole_scan(lasso-4, 0, 150): Chandrupatla's method on each eigenvalue of C
LASSO_POLES_150 = [
    0.9092194697698389, 1.4099434858699083, 1.9739208802178716, 2.505744502330618,
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

# and by the earlier sign grid and bisection: three routes to the same
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
    for route in (LASSO_POLES_150_QUARTER, LASSO_POLES_150_GRID):
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


def _quarter_cut_scan(g, lo, hi):
    """pole_scan by inertia counting alone, the reference for its root-find.

    The same brackets; each round cuts every bracket that still holds a pole
    at its quarter points in one stacked count, until it is narrower than
    POLE_BISECT_TOL * max(1, lam), and reports its midpoint once per pole.
    """
    edge = _edge_poles(g, lo, hi)
    if g.n_outer == g.n_vertices:
        return edge
    left, right = _brackets(g, lo, hi, edge)
    low, high = np.split(_all_counts(g, np.concatenate([left, right])), 2)
    inner = []
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
    with mock.patch.object(dtnpos.spectra, "_inner_eigenvalues", _counted_eigenvalues):
        assert flags.tolist() == near_pole(g, lams, D.singular, D.inner_negative).tolist()


def _windows(g):
    """Windows reaching below zero, with both ends within 1e-7 of edge poles, and near 1e8."""
    L = max(g.lengths)
    first, third = (math.pi / L) ** 2, (3.0 * math.pi / L) ** 2
    return [(-3.0, 15.0),
            (first + 3e-8 * max(1.0, first), third - 3e-8 * max(1.0, third)),
            (1e8, 1e8 + 5e4)]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_pole_scan_matches_quarter_cuts(seed):
    g = random_surd_graph(np.random.default_rng(seed), 3, 6)
    assume(g.inner)
    for lo, hi in _windows(g):
        _check_against_quarter_cuts(g, lo, hi)


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


def _stacked_calls(monkeypatch, run):
    """The assemble_full calls spectra makes while run() runs."""
    calls = []
    real = dtnpos.spectra.assemble_full
    monkeypatch.setattr(dtnpos.spectra, "assemble_full",
                        lambda g, lam: calls.append(lam) or real(g, lam))
    run()
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
    calls = _stacked_calls(monkeypatch, lambda: got.extend(
        _bracketed_poles(path3, np.array([left]), np.array([right]))))
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
    with pytest.raises(ResolutionTooLow, match="leaves every edge's element count unchanged"):
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
