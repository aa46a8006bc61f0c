"""Spectra attached to a metric graph and location of assembly poles.

Two reference spectra:

* the fully Dirichlet spectrum decouples edge by edge into (pi k / L_e)^2,
  listed with multiplicity in closed form;
* the spectrum with Dirichlet data on the outer vertices and continuity +
  Kirchhoff conditions on the inner ones, computed by a P1 finite element
  discretization of each edge and a banded generalized eigensolver.

The assembled outer matrix is singular on a discrete set of parameters: the
edge poles together with the inner-block Kirchhoff eigenvalues.  pole_scan
locates both kinds inside a window: the edge poles in closed form, once each,
and the inner ones as the zeros of the eigenvalues of the inner block C.
Between edge poles every eigenvalue of C decreases strictly, so its inertia
at the ends of a bracket names the eigenvalues that cross zero inside, each
crossing one pole counted with its multiplicity, and a stacked bracketing
root-find locates every crossing; no grid is sampled.  near_pole reads the
same inertia off a sweep's own grid to flag the samples within reach of a
pole, without locating any.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg.cython_lapack
import scipy.sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .assembly import STACK_CHUNK, assemble_full
from .errors import ResolutionTooLow
from .graphs import MetricGraph

DEFAULT_RESOLUTION = 32
# pole_scan places every inner pole within POLE_BISECT_TOL * max(1, lam) of it
POLE_BISECT_TOL = 1e-10
# a sweep sample within NEAR_POLE_REACH * max(1, |lam|) of a pole is near_pole
NEAR_POLE_REACH = 1e-9
# eigenvalue drift between resolution and resolution/2, relative to lambda_1
RESOLUTION_DRIFT_MAX = 0.01


@dataclass(frozen=True)
class SpectrumList:
    values: tuple[float, ...]
    kind: str
    resolution: float | None = None


def dirichlet_spectrum_full(g: MetricGraph, lambda_max: float) -> SpectrumList:
    """All eigenvalues (pi k / L_e)^2 <= lambda_max, with multiplicity."""
    if not math.isfinite(lambda_max):
        raise ValueError(f"lambda_max must be finite, got {lambda_max!r}")
    vals: list[float] = []
    for e in g.edges:
        k = 1
        while True:
            lam = (math.pi * k / e.length) ** 2
            if lam > lambda_max:
                break
            vals.append(lam)
            k += 1
    return SpectrumList(values=tuple(sorted(vals)), kind="dirichlet-full")


def _elements(g: MetricGraph, resolution: float) -> list[int]:
    """Element count of every edge, max(1, ceil(resolution * L))."""
    return [max(1, math.ceil(resolution * e.length)) for e in g.edges]


def _fem_entries(g: MetricGraph, resolution: float):
    """P1 stiffness and mass contributions, outer-vertex rows/columns eliminated.

    Each edge gets _elements(g, resolution) equal elements; vertex degrees
    of freedom are shared, outer vertices carry homogeneous Dirichlet data.
    Returns (n, rows, cols, k, m): the number of free degrees of freedom
    (vertices n_outer..n-1 first, then edge-interior nodes, shifted by
    n_outer) and one (row, col, stiffness, mass) contribution per entry
    touched by an element, in element order.  Summed in that order they give
    every entry bitwise, whatever storage they are summed into.
    """
    n_dof = g.n_vertices
    p, q, h = [], [], []
    for (i, j), e, ne in zip(g.edge_indices, g.edges, _elements(g, resolution)):
        nodes = np.concatenate(([i], np.arange(n_dof, n_dof + ne - 1), [j]))
        n_dof += ne - 1
        p.append(nodes[:-1])
        q.append(nodes[1:])
        h.append(np.full(ne, e.length / ne))
    p, q, h = np.concatenate(p), np.concatenate(q), np.concatenate(h)
    # per element: (p, p), (q, q), (p, q), (q, p)
    rows = np.stack([p, q, p, q], axis=1).ravel()
    cols = np.stack([p, q, q, p], axis=1).ravel()
    w = 1.0 / h
    k = np.stack([w, w, -w, -w], axis=1).ravel()
    m = np.stack([h / 3.0, h / 3.0, h / 6.0, h / 6.0], axis=1).ravel()
    free = (rows >= g.n_outer) & (cols >= g.n_outer)
    return (n_dof - g.n_outer, rows[free] - g.n_outer, cols[free] - g.n_outer,
            k[free], m[free])


def _fem_matrices(g: MetricGraph, resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense P1 stiffness and mass matrices (see _fem_entries), as a reference."""
    n, rows, cols, k, m = _fem_entries(g, resolution)
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    np.add.at(K, (rows, cols), k)
    np.add.at(M, (rows, cols), m)
    return K, M


def _lapack(name: str, n_args: int):
    """A routine of scipy's Cython LAPACK table, callable with ctypes pointers.

    Every argument of a LAPACK routine is passed by pointer.
    """
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    # private prototypes: setting restype on ctypes.pythonapi's shared
    # function objects would change them for every other user
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)


# generalized symmetric-definite banded eigensolver, selected eigenvalues;
# scipy.linalg.lapack does not wrap it
_dsbgvx = _lapack("dsbgvx", 25)


def _fem_eigenvalues(g: MetricGraph, count: int, resolution: float) -> np.ndarray:
    """The `count` lowest eigenvalues of the P1 pencil (K, M), ascending.

    K and M have the sparsity of the discretized graph.  A reverse
    Cuthill-McKee ordering turns them into band matrices whose half-bandwidth
    kd is a few nodes (1-3 on the usual graphs, where a dense order has n),
    and LAPACK dsbgvx reduces the banded pencil and bisects for the wanted
    eigenvalues: O(n^2 kd) work instead of the O(n^3) of a dense solve.  It
    solves M x = mu K x for the largest mu = 1/lambda: the reduction then
    factors K, and its roundoff is relative to mu_max = 1/lambda_1, so the
    lowest lambda come out more accurate than from a dense (K, M) solve,
    whose roundoff is relative to the largest lambda.  K is positive
    definite since every graph has an outer vertex.
    """
    n, rows, cols, k, m = _fem_entries(g, resolution)
    if n < count:
        raise ResolutionTooLow(math.inf, math.nan, (
            f"the mesh at resolution {resolution:g} has {n} free nodes, "
            f"fewer than the {count} eigenvalues asked for"))
    pattern = scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    order = np.empty(n, dtype=np.intp)
    order[reverse_cuthill_mckee(pattern, symmetric_mode=True)] = np.arange(n)
    r, c = order[rows], order[cols]
    upper = r <= c
    r, c, k, m = r[upper], c[upper], k[upper], m[upper]
    kd = int((c - r).max())
    # LAPACK upper band storage: A[i, j] sits at band[kd + i - j, j]
    mass = np.zeros((kd + 1, n), order="F")
    stiffness = np.zeros((kd + 1, n), order="F")
    np.add.at(mass, (kd + r - c, c), m)
    np.add.at(stiffness, (kd + r - c, c), k)

    mu = np.empty(n)
    unused = np.empty(1)
    work = np.empty(7 * n)
    iwork = np.empty(5 * n, dtype=np.intc)
    ifail = np.empty(n, dtype=np.intc)
    found, info = ctypes.c_int(0), ctypes.c_int(0)
    char = lambda x: ctypes.byref(ctypes.c_char(x))
    int_ = lambda x: ctypes.byref(ctypes.c_int(x))
    real = lambda x: ctypes.byref(ctypes.c_double(x))
    ptr = lambda a: a.ctypes.data_as(ctypes.c_void_p)
    # eigenvalues only, indices n-count+1..n, tolerance 2 * safe minimum (most accurate)
    _dsbgvx(char(b"N"), char(b"I"), char(b"U"), int_(n), int_(kd), int_(kd),
            ptr(mass), int_(kd + 1), ptr(stiffness), int_(kd + 1), ptr(unused), int_(1),
            real(0.0), real(0.0), int_(n - count + 1), int_(n), real(2.0 * np.finfo(float).tiny),
            ctypes.byref(found), ptr(mu), ptr(unused), int_(1),
            ptr(work), ptr(iwork), ptr(ifail), ctypes.byref(info))
    if info.value != 0 or found.value != count:
        raise np.linalg.LinAlgError(f"dsbgvx failed (info={info.value}, found {found.value} of {count})")
    return 1.0 / mu[count - 1::-1]


def kirchhoff_spectrum(g: MetricGraph, count: int = 1,
                       resolution: float = DEFAULT_RESOLUTION) -> SpectrumList:
    """First eigenvalues with Dirichlet outer data and Kirchhoff inner conditions.

    A halved-resolution recomputation estimates the discretization error of
    lambda_1 (P1 elements converge at order h^2, so the drift between the two
    meshes is about three times the fine-mesh error); past 1 percent the
    result is refused as under-resolved, and so is a resolution whose halving
    leaves every edge's element count, and with it the estimate, unchanged.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not 0 < resolution < math.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    fine = _fem_eigenvalues(g, count, resolution)
    if _elements(g, resolution) == _elements(g, resolution / 2.0):
        raise ResolutionTooLow(math.inf, float(fine[0]), (
            f"halving resolution {resolution:g} leaves every edge's element count "
            "unchanged, so the discretization error cannot be estimated"))
    coarse = _fem_eigenvalues(g, 1, resolution / 2.0)
    estimate = abs(fine[0] - coarse[0]) / 3.0
    if estimate > RESOLUTION_DRIFT_MAX * fine[0]:
        raise ResolutionTooLow(float(estimate), float(fine[0]))
    return SpectrumList(values=tuple(float(v) for v in fine), kind="kirchhoff",
                        resolution=float(resolution))


def lambda_1(g: MetricGraph, resolution: float = DEFAULT_RESOLUTION) -> float:
    """Lowest eigenvalue of the outer-Dirichlet problem.

    Without inner vertices every edge decouples and the closed form
    (pi / L_max)^2 applies; otherwise fall back to the finite elements.
    """
    if not g.inner:
        return (math.pi / max(g.lengths)) ** 2
    return kirchhoff_spectrum(g, count=1, resolution=resolution).values[0]


def _edge_poles(g: MetricGraph, lo: float, hi: float) -> list[float]:
    """The edge poles (pi k / L_e)^2 inside (lo, hi), ascending, each value once.

    Each edge lists only k from floor(sqrt(lo) L / pi) to floor(sqrt(hi) L / pi)
    + 1, which brackets the window with a step of k to spare against roundoff,
    so the cost follows the width of the window and not its distance from 0.
    Values within 1e-12 relative of the previous one are the same pole.
    """
    values = []
    for e in g.edges:
        scale = e.length / math.pi
        first = max(1, math.floor(math.sqrt(max(lo, 0.0)) * scale))
        last = math.floor(math.sqrt(max(hi, 0.0)) * scale) + 1
        values += [(math.pi * k / e.length) ** 2 for k in range(first, last + 1)]
    poles: list[float] = []
    for p in sorted(values):
        if lo < p < hi and (not poles or p - poles[-1] > 1e-12 * max(1.0, p)):
            poles.append(p)
    return poles


def _inner_eigenvalues(g: MetricGraph, lams: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of C, the inner block of the full matrix, at each of lams.

    One row per parameter, assembled STACK_CHUNK parameters per call.  A
    parameter at an edge pole, where C has no value, gets a row of NaN.
    """
    m = g.n_outer
    ev = np.empty((len(lams), g.n_vertices - m))
    for at in range(0, len(lams), STACK_CHUNK):
        full = assemble_full(g, lams[at:at + STACK_CHUNK])
        out = ev[at:at + STACK_CHUNK]
        out[full.singular] = np.nan
        out[~full.singular] = np.linalg.eigvalsh(full.entries[~full.singular][:, m:, m:])
    return ev


def _bracketed_poles(g: MetricGraph, left: np.ndarray, right: np.ndarray) -> list[float]:
    """The inner poles inside brackets (left, right) that hold no edge pole, with multiplicity.

    One row per pole: the bracket and the index j of the eigenvalue of C
    that crosses zero in it.  Every row takes one Chandrupatla step per
    iteration, all rows in one stacked evaluation; see pole_scan.  A row
    starts at max(left, 0): C is positive definite for lam <= 0, so the
    count there is 0 either way, and no inner pole lies below.
    """
    left = np.maximum(left, 0.0)
    ev_left, ev_right = np.split(_inner_eigenvalues(g, np.concatenate([left, right])), 2)
    low, high = (ev_left < 0).sum(axis=1), (ev_right < 0).sum(axis=1)
    held = np.maximum(high - low, 0)
    bracket = np.repeat(np.arange(len(left)), held)
    j = low[bracket] + np.arange(len(bracket)) - np.repeat(np.cumsum(held) - held, held)
    # a is the newest point, b the other end of the sign bracket, c the
    # point the last step dropped; f is ev_j at each
    a, fa = left[bracket], ev_left[bracket, j]
    b, fb = right[bracket], ev_right[bracket, j]
    c, fc = a, fa
    start = b - a
    t = np.full(len(j), 0.5)
    poles = []
    step = 0
    while len(j):
        step += 1
        x = a + t * (b - a)
        fx = _inner_eigenvalues(g, x)[np.arange(len(j)), j]
        # zero is not negative: ev_j >= 0 at one end of the bracket, < 0 at the other
        same = (fx < 0) == (fa < 0)
        c, fc = np.where(same, a, b), np.where(same, fa, fb)
        b, fb = np.where(same, b, a), np.where(same, fb, fa)
        a, fa = x, fx
        width = np.abs(b - a)
        stop = POLE_BISECT_TOL * np.maximum(a, b)
        done = width <= stop
        poles += (0.5 * (a + b))[done].tolist()
        live = ~done
        j, a, b, c, fa, fb, fc, start, width, stop = (
            v[live] for v in (j, a, b, c, fa, fb, fc, start, width, stop))
        # inverse quadratic interpolation through a, b, c where Chandrupatla's
        # test finds it safe and the bracket keeps to the safeguard's budget
        # (see pole_scan); otherwise bisection
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
        interpolate = ((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
                       & (width <= start * 2.0 ** (1 - (step + 1) // 2)))
        # no step shorter than half the stop width, so the one after the
        # estimates settle on the root crosses it
        reach = 0.5 * stop / width
        t = np.clip(np.where(interpolate, t, 0.5), reach, 1.0 - reach)
    return poles


def _brackets(g: MetricGraph, lo: float, hi: float,
              edge_poles: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The brackets (left, right) of pole_scan: one per segment of (lo, hi) between edge poles.

    Each is kept clear of the edge poles by a margin of 1e-7 * max(1, |lam|),
    which keeps every evaluation of C away from them.  A window end with no
    edge pole within its margin can be evaluated at: the sliver between it
    and the bracket next to it is one more bracket, or, when that bracket is
    too narrow to keep, the bracket reaches the end.
    """
    ends = np.array([lo] + edge_poles + [hi])
    margin = 1e-7 * np.maximum(1.0, np.maximum(np.abs(ends[:-1]), np.abs(ends[1:])))
    left, right = ends[:-1] + margin, ends[1:] - margin
    kept = right > left
    extra_left, extra_right = [], []
    if not _edge_poles(g, lo - margin[0], lo + margin[0]):
        if kept[0]:
            extra_left.append(lo)
            extra_right.append(left[0])
        else:
            left[0] = lo
    if not _edge_poles(g, hi - margin[-1], hi + margin[-1]):
        if kept[-1]:
            extra_left.append(right[-1])
            extra_right.append(hi)
        else:
            right[-1] = hi
    keep = right > left
    return np.concatenate([left[keep], extra_left]), np.concatenate([right[keep], extra_right])


def pole_scan(g: MetricGraph, lo: float, hi: float) -> list[float]:
    """Locate the singular parameters of the outer assembly inside (lo, hi).

    Edge poles come in closed form, once each; some are removable for the
    reduced map but still reported, since the assembly breaks down there.

    Between consecutive edge poles C(lam) decreases strictly in the Loewner
    order, so by Weyl's monotonicity theorem each ascending eigenvalue
    ev_j(C(lam)) is continuous and strictly decreasing there.  With
    low = neg C(left) and high = neg C(right) at the ends of a bracket (zero
    does not count as negative), every j in [low, high) has
    ev_j(left) >= 0 > ev_j(right): ev_j has exactly one zero in the bracket,
    and it is the (j - low + 1)-th inner pole there, counted with
    multiplicity (a double pole is where two eigenvalues vanish together).

    Every (bracket, j) row runs Chandrupatla's method on ev_j, keeping a sign
    bracket: inverse quadratic interpolation where it passes Chandrupatla's
    monotonicity test, bisection otherwise.  One iteration of all rows is one
    stacked assembly and eigvalsh, and the end values come from the count.
    A Brent-style safeguard makes step k + 1 a bisection unless the bracket
    is already within 2 w0 2^-floor((k + 1)/2), w0 its first width: then
    even a step that gains nothing leaves it within 2 w0 2^-floor(k/2) after
    every k steps, one halving in every two steps with one to spare.

    A row stops once its bracket (x0, x1) is at most POLE_BISECT_TOL * x1
    wide, and reports its midpoint.  Inner poles are positive, since C is
    positive definite for lam <= 0, so x1 > 0.  The pole p lies in the
    bracket, so x1 <= p + POLE_BISECT_TOL * x1, and the midpoint lies within
    POLE_BISECT_TOL * x1 / 2 < POLE_BISECT_TOL * p of p: a relative error
    below POLE_BISECT_TOL, and hence within POLE_BISECT_TOL * max(1, p).
    Bisection alone would take N = ceil(log2(w0 / (POLE_BISECT_TOL p)))
    steps, about 33 for a unit bracket near p = 1, with w0 measured from
    max(left, 0) since no row starts below 0; the safeguard caps a row
    at 2 N + 2 steps, so a scan makes at most 2 N + 3 stacked evaluations
    with the count.  The catalog graphs on windows of 60 to 400 take 8 or 9 steps.

    Returns sorted plain floats.
    """
    if not -math.inf < lo < hi < math.inf:
        raise ValueError("the scan range must be finite and nonempty")

    edge_poles = _edge_poles(g, lo, hi)
    if g.n_outer == g.n_vertices:
        return edge_poles
    return sorted(edge_poles + _bracketed_poles(g, *_brackets(g, lo, hi, edge_poles)))


def near_pole(g: MetricGraph, lams: np.ndarray, singular: np.ndarray,
              negative: np.ndarray | None) -> np.ndarray:
    """Flag the samples of an increasing grid that lie within reach of a singular parameter.

    A sample's reach is NEAR_POLE_REACH * max(1, |lam|); the singular
    parameters are the edge and inner poles that pole_scan locates, also
    those beyond the ends of the grid.  `singular` marks the samples the
    assembly could not reduce, which are flagged; `negative` is the inertia
    of the inner block C at each sample (DtnMatrix.inner_negative, None
    without inner vertices).

    Edge poles are tested in closed form.  Between consecutive edge poles C
    decreases strictly, so an inner pole lies between two samples exactly
    when their counts differ: only a sample whose reach meets such a gap, a
    gap holding an edge pole or a singular sample, or the outside of the
    grid can be near an inner pole.  Each such sample gets the count of C at
    lam - reach and lam + reach, all in one stacked call, and is near when
    either count differs from its own.  No pole is located.
    """
    reach = NEAR_POLE_REACH * np.maximum(1.0, np.abs(lams))
    # the open window must hold a pole exactly one reach past either end
    edge = np.array(_edge_poles(g, lams[0] - 2.0 * reach[0], lams[-1] + 2.0 * reach[-1]))
    near = singular.copy()
    if len(edge):
        at = np.searchsorted(edge, lams)
        below, above = edge[np.maximum(at - 1, 0)], edge[np.minimum(at, len(edge) - 1)]
        near |= (np.abs(lams - below) <= reach) | (np.abs(above - lams) <= reach)
    if negative is None:
        return near

    # gap k lies between samples k - 1 and k; gaps 0 and len(lams) are outside
    gap = np.ones(len(lams) + 1, dtype=bool)
    gap[1:-1] = ((negative[1:] != negative[:-1]) | singular[1:] | singular[:-1]
                 | (np.searchsorted(edge, lams[1:], "right")
                    > np.searchsorted(edge, lams[:-1], "left")))
    held = np.concatenate([[0], np.cumsum(gap)])
    first = np.searchsorted(lams, lams - reach, "right")
    last = np.searchsorted(lams, lams + reach, "right")
    probe = np.flatnonzero(~near & (held[last + 1] > held[first]))
    if len(probe):
        x = np.concatenate([lams[probe] - reach[probe], lams[probe] + reach[probe]])
        ev = _inner_eigenvalues(g, x)
        counts = np.where(np.isnan(ev[:, 0]), -1, (ev < 0).sum(axis=1))
        below, above = np.split(counts, 2)
        near[probe] = (below != negative[probe]) | (above != negative[probe])
    return near
