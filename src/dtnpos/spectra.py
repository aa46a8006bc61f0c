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
and the inner ones by counting the negative eigenvalues of the inner block
(its inertia), which gives each with its multiplicity and needs no grid.
near_pole reads the same inertia off a sweep's own grid to flag the samples
within reach of a pole, without locating any.
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
        raise ResolutionTooLow(math.inf, math.nan)
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
        raise ResolutionTooLow(math.inf, float(fine[0]))
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

    Values within 1e-12 relative of the previous one are the same pole.
    """
    poles: list[float] = []
    for p in dirichlet_spectrum_full(g, hi).values:
        if lo < p < hi and (not poles or p - poles[-1] > 1e-12 * max(1.0, p)):
            poles.append(p)
    return poles


def _inner_negative_counts(g: MetricGraph, lams: np.ndarray, low: np.ndarray,
                           high: np.ndarray) -> np.ndarray:
    """Negative eigenvalues of C, the inner block of the full matrix, at each of lams.

    Each count is known to lie in [low, high].  Where that leaves two values,
    the sign of det C = (-1)^neg decides through slogdet, a fraction of the
    cost of eigvalsh, which counts elsewhere.  Zero does not count as negative.
    A parameter at an edge pole, where C has no value, counts -1.
    """
    m = g.n_outer
    counts = np.empty(len(lams), dtype=int)
    for at in range(0, len(lams), STACK_CHUNK):
        part = slice(at, at + STACK_CHUNK)
        full = assemble_full(g, lams[part])
        C, lo, hi, out = full.entries[:, m:, m:], low[part], high[part], counts[part]
        pair = (hi - lo == 1) & ~full.singular
        rest = ~pair & ~full.singular
        sign, _ = np.linalg.slogdet(C[pair])
        out[pair] = lo[pair] + (sign == -(-1.0) ** lo[pair])
        out[rest] = np.clip((np.linalg.eigvalsh(C[rest]) < 0).sum(axis=1), lo[rest], hi[rest])
        out[full.singular] = -1
    return counts


def pole_scan(g: MetricGraph, lo: float, hi: float) -> list[float]:
    """Locate the singular parameters of the outer assembly inside (lo, hi).

    Edge poles come in closed form, once each; some are removable for the
    reduced map but still reported, since the assembly breaks down there.
    Between consecutive edge poles C(lam) decreases strictly in the Loewner
    order, so by Sylvester's law of inertia a bracket (a, b) holds exactly
    neg C(b) - neg C(a) inner poles, with multiplicity.  Each round cuts
    every bracket at its quarter points in one stacked count and drops the
    pieces without a pole; one narrower than POLE_BISECT_TOL * max(1, lam)
    reports its midpoint once per pole it holds.  Returns sorted plain floats.
    """
    if not -math.inf < lo < hi < math.inf:
        raise ValueError("the scan range must be finite and nonempty")

    edge_poles = _edge_poles(g, lo, hi)
    if g.n_outer == g.n_vertices:
        return edge_poles

    # one bracket per segment between edge poles, kept clear of them; the
    # margin keeps every count away from an edge pole
    ends = np.array([lo] + edge_poles + [hi])
    margin = 1e-7 * np.maximum(1.0, np.maximum(np.abs(ends[:-1]), np.abs(ends[1:])))
    left, right = ends[:-1] + margin, ends[1:] - margin
    left, right = left[right > left], right[right > left]
    low, high = np.split(_inner_negative_counts(
        g, np.concatenate([left, right]), np.zeros(2 * len(left), dtype=int),
        np.full(2 * len(left), g.n_vertices - g.n_outer)), 2)

    inner = []
    while True:
        done = right - left <= POLE_BISECT_TOL * np.maximum(1.0, left)
        inner += np.repeat(0.5 * (left + right)[done], (high - low)[done]).tolist()
        live = ~done & (high > low)
        if not live.any():
            break
        left, right, low, high = left[live], right[live], low[live], high[live]
        cuts = left[:, None] + (right - left)[:, None] * np.array([0.25, 0.5, 0.75])
        mid = _inner_negative_counts(g, cuts.ravel(), np.repeat(low, 3), np.repeat(high, 3))
        x = np.column_stack([left, cuts, right])
        n = np.column_stack([low, mid.reshape(-1, 3), high])
        held = n[:, 1:] > n[:, :-1]
        left, right, low, high = x[:, :-1][held], x[:, 1:][held], n[:, :-1][held], n[:, 1:][held]
    return sorted(edge_poles + inner)


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
        below, above = np.split(_inner_negative_counts(
            g, x, np.zeros(len(x), dtype=int), np.full(len(x), g.n_vertices - g.n_outer)), 2)
        near[probe] = (below != negative[probe]) | (above != negative[probe])
    return near
