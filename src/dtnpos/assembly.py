"""Assembly of the Dirichlet-to-Neumann matrix of a metric graph.

For spectral parameter lam and edge length L the per-edge coefficients are

    alpha = sqrt(lam) * cos(sqrt(lam) L) / sin(sqrt(lam) L)
    beta  = sqrt(lam) / sin(sqrt(lam) L)

with the hyperbolic continuation for lam < 0 and the common limit 1/L at
lam = 0.  The full matrix carries -beta on off-diagonal edge positions and the
sum of incident alphas, in edge order, on the diagonal, all formed by one
assembler from the graph's incidence; eliminating the inner vertices by a
Schur complement yields the matrix on the outer vertices.

Every function here takes lam as one float or as a 1-D array of parameters.
An array is a leading stack axis: entries come back as (N, n, n) and each
sample goes through exactly the operations a single float would, so the
float call is the N = 1 case of the same code and the two agree bitwise.
The contracts differ only at singular parameters.  A float at an edge pole
raises AtPole and a float with a singular inner block raises
InnerBlockSingular; a stack instead marks such samples in
DtnMatrix.singular and fills their entries with NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AtPole, InnerBlockSingular, PoleCluster
# assembly no longer calls adjacency_pattern or reduced_graph; the names stay
# because the benchmark's tracer wraps them here and requires them to resolve
from .graphs import MetricGraph, adjacency_pattern, reduced_graph  # noqa: F401

# relative tolerance for declaring sin(sqrt(lam) L) a pole hit
POLE_TOL = 1e-12
# condition-number ceiling for the inner block of the Schur reduction
INNER_COND_MAX = 1e12
# series window: |lam| L^2 below this uses the Taylor forms (rel. error < 1e-30)
SERIES_WINDOW = 1e-8
# largest stack that sweep and pole_scan hand to one assembly call
STACK_CHUNK = 512

# smallest positive subnormal float; beta is never exactly zero for finite lam
TINY = 5e-324


@dataclass(frozen=True)
class EdgeCoefficients:
    alpha: float | np.ndarray
    beta: float | np.ndarray
    at_pole: bool | np.ndarray = False


@dataclass(frozen=True, eq=False)
class DtnMatrix:
    lam: float | np.ndarray
    dim: int
    entries: np.ndarray  # (dim, dim), or (N, dim, dim) for a stack
    provenance: str  # "direct" | "schur(m,k)"
    # stack only: samples at an edge pole or with a singular inner block
    singular: np.ndarray | None = None
    # stack Schur reductions only: per sample, the number of negative
    # eigenvalues of the eliminated inner block C, -1 at an edge pole; the
    # inertia that spectra.near_pole reads inner poles from
    inner_negative: np.ndarray | None = None

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self.entries, dtype=dtype)
        return np.asarray(self.entries, dtype=dtype)


def edge_alpha_beta(lam, length) -> EdgeCoefficients:
    """Coefficient pair (alpha, beta) for one edge, or for broadcast arrays.

    lam and length broadcast against each other (assemble_full passes the
    parameters as a column and the edge lengths as a row); two floats give
    floats back.  At a Dirichlet pole of the edge (sin(sqrt(lam) L) = 0,
    lam > 0) the result carries at_pole=True with infinite entries; it never
    raises.  When every sample is trigonometric (lam > 0 beyond the series
    window) the broadcast inputs go through that one branch whole, with no
    masks, and each entry takes the same operations as in a mixed stack.
    """
    lam_b = np.asarray(lam, dtype=float)
    L = np.asarray(length, dtype=float)
    w = lam_b * L * L
    shape = w.shape
    if np.count_nonzero(w >= SERIES_WINDOW) == w.size:
        r, theta = _phases(np.atleast_1d(lam_b), np.atleast_1d(L))
        return _coefficients(*_trigonometric(r, theta), shape)

    ones = np.ones(shape)  # broadcasts both inputs to the shape of w; exact
    lam_b, L, w = (lam_b * ones).reshape(-1), (L * ones).reshape(-1), w.reshape(-1)
    series = np.abs(w) < SERIES_WINDOW
    trig = ~series & (lam_b > 0)
    alpha = np.empty_like(w)
    beta = np.empty_like(w)
    at_pole = np.zeros(w.shape, dtype=bool)
    hyp = ~series & ~trig

    if series.any():
        # alpha = (1 - w/3 - w^2/45 - 2 w^3/945 + ...) / L
        # beta  = (1 + w/6 + 7 w^2/360 + 31 w^3/15120 + ...) / L
        ws, Ls = w[series], L[series]
        alpha[series] = (1.0 - ws / 3.0 - ws * ws / 45.0 - 2.0 * ws ** 3 / 945.0) / Ls
        beta[series] = (1.0 + ws / 6.0 + 7.0 * ws * ws / 360.0 + 31.0 * ws ** 3 / 15120.0) / Ls

    if trig.any():
        alpha[trig], beta[trig], at_pole[trig] = _trigonometric(*_phases(lam_b[trig], L[trig]))

    if hyp.any():
        s = np.sqrt(-lam_b[hyp])
        alpha[hyp], beta[hyp] = _hyperbolic(s, s * L[hyp])

    return _coefficients(alpha, beta, at_pole, shape)


def _phases(lam: np.ndarray, L: np.ndarray):
    """The phase step (r, theta) = (sqrt(lam), sqrt(lam) L), lam > 0, broadcast in either layout."""
    r = np.sqrt(lam)
    return r, r * L


def _trigonometric(r, theta: np.ndarray):
    """(alpha, beta, at_pole) = (r cot theta, r csc theta, theta at a pole), broadcast;
    both entries inf at a pole.  At r = 1 _gather turns them into D / sqrt(lam)."""
    s = np.sin(theta)
    hit = np.abs(s) < POLE_TOL * np.maximum(1.0, theta)
    poles = np.count_nonzero(hit)
    if poles:
        s[hit] = math.inf  # keeps the division quiet; these entries become inf below
    alpha = r * np.cos(theta) / s
    beta = r / s
    if poles:
        alpha[hit] = beta[hit] = math.inf
    return alpha, beta, hit


def _hyperbolic(r: np.ndarray, x: np.ndarray):
    """(alpha, beta) = (r coth x, r csch x) for x > 0, elementwise on arrays of one shape;
    beta never underflows to 0."""
    a = np.empty_like(x)
    b = np.empty_like(x)
    # sinh/cosh overflow past ~710; asymptotically coth -> 1, 1/sinh -> 2 e^{-x}
    far = x > 350.0
    a[far] = r[far] / np.tanh(x[far])
    b[far] = 2.0 * r[far] * np.exp(-x[far])
    near = ~far
    sh = np.sinh(x[near])
    a[near] = r[near] * np.cosh(x[near]) / sh
    b[near] = r[near] / sh
    b[b == 0.0] = TINY
    return a, b


def _coefficients(alpha, beta, at_pole, shape) -> EdgeCoefficients:
    if not shape:
        return EdgeCoefficients(float(alpha[0]), float(beta[0]), bool(at_pole[0]))
    return EdgeCoefficients(alpha.reshape(shape), beta.reshape(shape), at_pole.reshape(shape))


def _vertex_block(g: MetricGraph, lams: np.ndarray, first: int):
    """Rows and columns first..n-1 of D at a 1-D stack of parameters, and the edge coefficients."""
    coeff = edge_alpha_beta(lams[:, None], g.lengths_array)
    return _gather(g, coeff.alpha, coeff.beta, first), coeff


def _gather(g: MetricGraph, alpha: np.ndarray, beta: np.ndarray, first: int) -> np.ndarray:
    """Rows and columns first..n-1 of D from (N, E) edge coefficients.

    D's one assembler, read from g.incidence: an entry off the diagonal is
    gathered from [0 | -beta], a diagonal entry adds [0 | alpha] slot by
    slot from 0.0, in edge order.  Entries at an edge pole are not finite.
    """
    joins, slots = g.incidence
    zero = np.zeros((len(alpha), 1))
    D = np.concatenate([zero, -beta], axis=1)[:, joins[first:, first:]]
    # slot by slot, where a reduction may pair the terms differently
    alphas = np.concatenate([zero, alpha], axis=1)[:, slots[first:].T]
    diagonal = alphas[:, 0]
    for slot in range(1, alphas.shape[1]):
        diagonal = diagonal + alphas[:, slot]
    i = np.arange(D.shape[1])
    D[:, i, i] = diagonal
    return D


def assemble_full(g: MetricGraph, lam) -> DtnMatrix:
    """Dirichlet-to-Neumann matrix with every vertex treated as a data vertex.

    Entries: D[k, j] = -beta_kj on edges, 0 otherwise; D[k, k] = sum of alpha
    over edges at k, added in edge order.  Symmetric by construction (both
    off-diagonal positions are gathered from the same float).  A float lam
    at an edge pole raises AtPole naming the edge; in a stack the sample is
    marked singular.
    """
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1:
        raise ValueError("lam must be a float or a 1-D array")
    single, lams = lams.ndim == 0, lams.reshape(-1)
    D, coeff = _vertex_block(g, lams, 0)
    n = g.n_vertices
    pole = coeff.at_pole.any(axis=1)
    if single:
        if pole[0]:
            e = g.edges[int(np.argmax(coeff.at_pole[0]))]
            raise AtPole(lam, edge=(e.u, e.v))
        return DtnMatrix(lam=lam, dim=n, entries=D[0], provenance="direct")
    D[pole] = np.nan
    return DtnMatrix(lam=lams, dim=n, entries=D, provenance="direct", singular=pole)


def schur_reduce(full: DtnMatrix, m: int) -> DtnMatrix:
    """Eliminate the trailing dim-m coordinates by the Schur complement.

    With the block split D = [[A, B], [B^T, C]] (A of size m) the result is
    A - B C^{-1} B^T, symmetrized.  m = dim returns the input unchanged.  The
    inner block C of every sample must pass a conditioning guard: its
    smallest eigenvalue against the scale of the full matrix, and its
    eigenvalue ratio against INNER_COND_MAX.  A single matrix that fails
    raises InnerBlockSingular; in a stack the sample is marked singular.  The
    passing samples are solved in one batched call.  A stack result also
    keeps the inertia of every C (DtnMatrix.inner_negative).
    """
    n = full.dim
    if not 0 < m <= n:
        raise ValueError(f"block size m={m} outside 1..{n}")
    if m == n:
        return full

    single = full.entries.ndim == 2
    stack = full.entries[None] if single else full.entries
    singular = np.zeros(len(stack), dtype=bool)
    if full.singular is not None:
        singular |= full.singular
    live = np.flatnonzero(~singular)
    D = stack[live]

    # the ratio test alone cannot catch a singular 1x1 block, so the smallest
    # inner eigenvalue is also measured against the scale of the full matrix
    ev = np.linalg.eigvalsh(D[:, m:, m:])
    if not single:
        negative = np.full(len(stack), -1)
        negative[live] = (ev < 0).sum(axis=1)
    ev = np.abs(ev)
    ev_lo, ev_hi = ev.min(axis=1), ev.max(axis=1)
    scale = np.abs(D).max(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = (ev_lo <= scale / INNER_COND_MAX) | (ev_hi / ev_lo > INNER_COND_MAX)
    if single and bad[0]:
        cond = math.inf if ev_lo[0] == 0.0 else float(max(ev_hi[0], scale[0]) / ev_lo[0])
        raise InnerBlockSingular(full.lam, cond)
    singular[live[bad]] = True

    D = D[~bad]
    B = D[:, :m, m:]
    X = np.linalg.solve(D[:, m:, m:], np.swapaxes(B, 1, 2))
    S = D[:, :m, :m] - B @ X
    S = 0.5 * (S + np.swapaxes(S, 1, 2))
    provenance = f"schur({m},{n - m})"
    if single:
        return DtnMatrix(lam=full.lam, dim=m, entries=S[0], provenance=provenance)
    out = np.full((len(stack), m, m), np.nan)
    out[~singular] = S
    return DtnMatrix(lam=full.lam, dim=m, entries=out, provenance=provenance,
                     singular=singular, inner_negative=negative)


def assemble_outer(g: MetricGraph, lam) -> DtnMatrix:
    """Dirichlet-to-Neumann matrix on the outer vertices, for a float or a stack.

    Outside the adjacency pattern of the reduced graph every entry is an
    exact 0.0, by structure and with no tolerance.  Take outer vertices r, s
    that share no direct edge and no inner component next to both:
    - A[r, s] is an exact 0, since assemble_full writes only edge positions.
    - The canonical vertex order numbers each inner component consecutively,
      and no edge joins two components, so C is block-diagonal.
    - Partial-pivot LU never pivots across blocks: in the pivot column the
      other blocks' rows hold exact zeros, and a block whose own candidates
      are all zero is singular, which schur_reduce's conditioning guard
      excludes before the solve.
    - So every multiplier and update across blocks is an exact zero times a
      finite number, even when fused into an FMA, and the substitutions keep
      X[:, s] = C^{-1} B^T[:, s] exactly zero outside the components next
      to s.  (B X)[r, s] is then a sum of exact zeros, and so are S[r, s]
      and its symmetrized value.
    """
    return schur_reduce(assemble_full(g, lam), g.n_outer)


def _beta_residue_levels(lam_star: float, length: float, h0: float, levels: int) -> np.ndarray:
    """Symmetrized samples of h * beta(lam_star + h): even error series in h."""
    out = np.empty(levels)
    h = h0
    for j in range(levels):
        fp = h * edge_alpha_beta(lam_star + h, length).beta
        fm = -h * edge_alpha_beta(lam_star - h, length).beta
        out[j] = 0.5 * (fp + fm)
        h *= 0.5
    return out


def pole_residue_probe(g: MetricGraph, k: int, e: int | tuple) -> float:
    """Residue of lam -> beta_e(lam) at the k-th edge pole lam* = (pi k / L_e)^2.

    Richardson extrapolation of h * beta(lam* + h) sampled symmetrically on a
    halving schedule; the exact value is 2 (-1)^k (pi k)^2 / L^3.  Raises
    PoleCluster when a pole of another edge falls inside the sampling window.
    """
    if k < 1:
        raise ValueError("pole index k must be a positive integer")
    if isinstance(e, tuple):
        pair = frozenset(e)
        idx = next((i for i, ed in enumerate(g.edges) if ed.pair == pair), None)
        if idx is None:
            raise ValueError(f"no edge {e} in graph")
    else:
        idx = int(e)
    L = g.edges[idx].length
    lam_star = (math.pi * k / L) ** 2

    h0 = 1e-2 * max(1.0, lam_star)
    # shrink the window clear of the two neighboring poles of the same edge
    for kk in (k - 1, k + 1):
        if kk >= 1:
            h0 = min(h0, 0.45 * abs((math.pi * kk / L) ** 2 - lam_star))

    for i, other in enumerate(g.edges):
        k_near = round(math.sqrt(lam_star) * other.length / math.pi)
        for kk in (k_near - 1, k_near, k_near + 1):
            if kk < 1 or (i == idx and kk == k):
                continue
            lam_other = (math.pi * kk / other.length) ** 2
            if abs(lam_other - lam_star) < h0:
                raise PoleCluster(lam_star, lam_other)

    levels = 8
    tableau = _beta_residue_levels(lam_star, L, h0, levels)
    # Neville in h^2: halving h scales the leading error by 1/4
    for col in range(1, levels):
        factor = 4.0 ** col
        tableau = (factor * tableau[1:] - tableau[:-1]) / (factor - 1.0)
    return float(tableau[0])
