"""Spectra attached to a metric graph and location of assembly poles.

Two reference spectra:

* the fully Dirichlet spectrum decouples edge by edge into (pi k / L_e)^2,
  listed with multiplicity in closed form;
* the spectrum with Dirichlet data on the outer vertices and continuity +
  Kirchhoff conditions on the inner ones, of a P1 finite element
  discretization of each edge, and checked against lambda_1, its lowest
  value, by counting the inner poles below the two ends of the check;
  lambda_1 itself is the first pole that pole_scan locates.

The assembled outer matrix is singular on a discrete set of parameters: the
edge poles together with the inner-block Kirchhoff eigenvalues.  pole_scan
lists the edge poles in closed form, once each, and counts the inner ones.
It and the P1 spectrum are two instances of one counted root-finder,
_counted_zeros: a matrix function that decreases between its poles, plus the
poles themselves with integer weights, count the zeros below every
parameter, and a stacked bracketing root-find locates each of them; no grid
is sampled, and the cost follows the number of zeros, not a mesh.  near_pole
reads the same inertia off a sweep's own grid to flag the samples within
reach of a pole, without locating any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# spectra no longer calls assemble_full; the name stays because the
# benchmark's tracer wraps it here and requires it to resolve
from .assembly import STACK_CHUNK, assemble_full, edge_alpha_beta  # noqa: F401
from .errors import ResolutionTooLow
from .graphs import MetricGraph

DEFAULT_RESOLUTION = 32
# pole_scan places every inner pole within POLE_BISECT_TOL * max(1, lam) of it
POLE_BISECT_TOL = 1e-10
# a sweep sample within NEAR_POLE_REACH * max(1, |lam|) of a pole is near_pole
NEAR_POLE_REACH = 1e-9
# largest error of kirchhoff_spectrum's lowest value against lambda_1, relative to it
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


def _chain_schur(g: MetricGraph, ne: np.ndarray):
    """S(lam), the P1 pencil K - lam M reduced to the inner vertices, as a stacked evaluator.

    ne is every edge's element count.  Eliminating an edge's ne - 1 interior
    nodes in closed form leaves the block [[alpha, beta], [beta, alpha]] on
    its two ends, with h = L/ne, a = 1/h - lam h/3, b = -1/h - lam h/6,
    x = -a/b and U_m the Chebyshev polynomials of the second kind:

        alpha = a + b U_{ne-2}(x) / U_{ne-1}(x),    beta = b / U_{ne-1}(x).

    With y = |x| = cos phi, or cosh t past 1 (lam beyond 12/h^2),
    U_m(y) = sin((m + 1) phi) / sin phi = sinh((m + 1) t) / sinh t, and
    U_m(-y) = (-1)^m U_m(y); phi and t come from 1 - y without cancellation,
    the hyperbolic ratios in expm1 form cannot overflow, and at y = 1 the
    ratios take their limits (ne - 1)/ne and 1/ne.  A fixed scatter matrix
    adds every alpha to the diagonal entries of the edge's inner ends and
    every beta to the entries between them, so S is one product.

    Returns the function that maps parameters, none of them on a chain pole
    (where U_{ne-1}(x) = 0), to the ascending eigenvalues of S, one row each.
    """
    m = g.n_outer
    k = g.n_vertices - m
    inner = [(e, u - m, v - m) for e, (u, v) in enumerate(g.edge_indices) if max(u, v) >= m]
    scatter = np.zeros((len(inner), 2, k * k))
    for r, (_, u, v) in enumerate(inner):
        for w in (u, v):
            if w >= 0:
                scatter[r, 0, w * k + w] = 1.0
        if min(u, v) >= 0:
            scatter[r, 1, [u * k + v, v * k + u]] = 1.0
    scatter = scatter.reshape(2 * len(inner), k * k)
    edges = [e for e, _, _ in inner]
    n = ne[edges]
    h = np.array(g.lengths)[edges] / n
    h2, inv_h, h3, h6 = h * h, 1.0 / h, h / 3.0, h / 6.0
    # per edge, the multiples of phi (or t) in the numerators of
    # [U_{n-2} / U_{n-1}, 1 / U_{n-1}] and in their denominator
    multiples = np.stack([n - 1.0, np.ones(len(n)), n], axis=1)
    flip = np.stack([-np.ones(len(n)), (-1.0) ** (n - 1)], axis=1)
    limit = np.stack([(n - 1.0) / n, 1.0 / n], axis=1)

    def eigenvalues(lams: np.ndarray) -> np.ndarray:
        s = np.multiply.outer(lams, h2)
        reflect = s > 3.0  # x < 0
        d = np.where(reflect, 12.0 - s, 3.0 * s) / (6.0 + s)  # 1 - y
        with np.errstate(invalid="ignore", divide="ignore"):
            sines = np.sin(2.0 * np.arcsin(np.sqrt(0.5 * d))[..., None] * multiples)
            ratios = sines[..., :2] / sines[..., 2:]
            if not (d > 0).all():
                t = 2.0 * np.arcsinh(np.sqrt(-0.5 * d))[..., None]
                e = np.expm1(-2.0 * t * multiples)
                hyperbolic = np.exp(-t * multiples[:, [1, 0]]) * e[..., :2] / e[..., 2:]
                ratios = np.where((d < 0)[..., None], hyperbolic, ratios)
                ratios = np.where((d == 0)[..., None], limit, ratios)
        ratios = np.where(reflect[..., None], flip * ratios, ratios)
        coefficients = -(inv_h + np.multiply.outer(lams, h6))[..., None] * ratios
        coefficients[..., 0] += inv_h - np.multiply.outer(lams, h3)
        S = coefficients.reshape(len(lams), -1) @ scatter
        return np.linalg.eigvalsh(S.reshape(len(lams), k, k))

    return eigenvalues


def _fem_eigenvalues(g: MetricGraph, count: int, resolution: float) -> np.ndarray:
    """The `count` lowest eigenvalues of the P1 pencil (K, M), ascending, by counting.

    Order the free nodes as inner vertices, then edge interiors.  The
    interior block of K - lam M is one tridiagonal chain per edge, singular
    only at its chain poles

        mu_j = (6/h^2)(1 - cos(j pi/ne))/(2 + cos(j pi/ne)),   0 < j < ne,

    and its Schur complement S(lam) on the inner vertices (_chain_schur)
    decreases between them, its derivative minus a compression of M.  By
    Haynsworth's inertia additivity (1968), #{eigenvalues < lam} is
    sum_e #{j : mu_j^e < lam} + neg S(lam): the count of _counted_zeros with
    F = S, each chain pole weighted by its multiplicity (equal edges share
    their poles).

    The chains alone are the pencil on the interior nodes, so by Cauchy
    interlacing the count has reached `count` at the `count`-th chain pole;
    a coarse mesh with fewer chain poles has every free node below
    12/h_min^2, the largest eigenvalue any element allows.  The window ends
    there, and only the chain poles below it are formed.  Every eigenvalue
    comes out within POLE_BISECT_TOL times itself, and the cost follows
    `count` and the number of inner vertices, not the mesh.
    """
    ne = np.array(_elements(g, resolution))
    h = np.array(g.lengths) / ne
    n = g.n_vertices - g.n_outer + int((ne - 1).sum())
    if n < count:
        raise ResolutionTooLow(math.inf, math.nan, (
            f"the mesh at resolution {resolution:g} has {n} free nodes, "
            f"fewer than the {count} eigenvalues asked for"))

    # the first `count` chain poles of every edge, with multiplicity
    j = np.arange(1, count + 1)
    q = np.sin(0.5 * np.pi * j / ne[:, None]) ** 2
    poles = np.sort((12.0 * q / ((3.0 - 2.0 * q) * (h * h)[:, None]))[j < ne[:, None]])
    top = poles[count - 1] if len(poles) >= count else 12.0 / h.min() ** 2
    p, multiplicity = np.unique(poles, return_counts=True)
    return _counted_zeros(_chain_schur(g, ne), p, multiplicity, 0.0, top, count)


def kirchhoff_spectrum(g: MetricGraph, count: int = 1,
                       resolution: float = DEFAULT_RESOLUTION) -> SpectrumList:
    """First eigenvalues with Dirichlet outer data and Kirchhoff inner conditions.

    The P1 reference spectrum, which converges at order h^2, counted on the
    inner vertices (see _fem_eigenvalues), each value within POLE_BISECT_TOL
    times itself of the P1 eigenvalue.  Its lowest value f is measured
    against lambda_1: a mesh whose error there exceeds
    RESOLUTION_DRIFT_MAX * lambda_1 is refused as under-resolved.

    The check counts rather than locates lambda_1.  It passes exactly when
    a = f / (1 + RESOLUTION_DRIFT_MAX) <= lambda_1 <= f / (1 -
    RESOLUTION_DRIFT_MAX) = b.  With p_1 = (pi / L_max)^2 the first edge
    pole, lambda_1 <= p_1, and below p_1 the Kirchhoff eigenvalues under a
    parameter number neg C there (see lambda_1).  So lambda_1 >= a exactly
    when a <= p_1 and neg C(a) = 0, and lambda_1 <= b exactly when b >= p_1
    or neg C(b) >= 1: one stacked evaluation of C at a and b.
    Where the count does not pass the mesh, lambda_1 is located (see
    lambda_1), for the message of the refusal or because an end falls in
    p_1's pole group, and the error against it decides.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not 0 < resolution < math.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    fine = _fem_eigenvalues(g, count, resolution)
    f = float(fine[0])
    p1 = (math.pi / max(g.lengths)) ** 2
    ends = np.array([f / (1.0 + RESOLUTION_DRIFT_MAX), f / (1.0 - RESOLUTION_DRIFT_MAX)])
    passes = False
    # C is not evaluated inside p_1's pole group
    if not (np.abs(ends - p1) <= 0.25 * POLE_BISECT_TOL * p1).any():
        neg = (_inner_block(g)(ends) < 0).sum(axis=1)
        passes = ends[0] < p1 and neg[0] == 0 and (ends[1] > p1 or neg[1] >= 1)
    if not passes:
        lam1 = lambda_1(g)
        error = abs(f - lam1)
        if error > RESOLUTION_DRIFT_MAX * lam1:
            raise ResolutionTooLow(error, lam1)
    return SpectrumList(values=tuple(float(v) for v in fine), kind="kirchhoff",
                        resolution=float(resolution))


def lambda_1(g: MetricGraph) -> float:
    """Lowest eigenvalue of the outer-Dirichlet problem, the first pole of pole_scan.

    By min-max lambda_1 is at most the first edge pole (pi / L_max)^2, whose
    sine is an admissible test function, and below the first edge pole the
    Kirchhoff eigenvalues are the inner poles, with multiplicity
    (N_K = neg C, Friedlander 1991).  So the first pole up to just above
    (pi / L_max)^2 is lambda_1, located to POLE_BISECT_TOL; without inner
    vertices it is that edge pole in closed form.
    """
    return pole_scan(g, 0.0, 1.01 * (math.pi / max(g.lengths)) ** 2)[0]


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


def _inner_block(g: MetricGraph):
    """C(lam), the inner block of the full matrix, as a stacked evaluator.

    Built once per scan: every edge's alpha and -beta become columns, each
    entry of C off the diagonal copies the column of its edge (or a zero
    column), and each diagonal entry is the running sum, from 0.0, of the
    alphas of the edges at its vertex in edge order, gathered and padded
    with the zero column.  Every value is the one that
    assemble_full(g, lam).entries[:, m:, m:] holds, bit for bit, and the
    outer rows are never formed.

    Returns the function that maps parameters to the ascending eigenvalues
    of C, one row each, STACK_CHUNK parameters per eigvalsh call; a
    parameter at a pole of any edge, where C has no value, gets a row of NaN.
    """
    m = g.n_outer
    k = g.n_vertices - m
    n_edges = len(g.edges)
    lengths = np.array(g.lengths)
    # columns [0 | alpha | -beta], one of each per edge
    table = np.zeros((k, k), dtype=np.intp)
    incident: list[list[int]] = [[] for _ in range(k)]
    for e, (u, v) in enumerate(g.edge_indices):
        u, v = u - m, v - m
        if min(u, v) >= 0:
            table[u, v] = table[v, u] = 1 + n_edges + e
        for w in (u, v):
            if w >= 0:
                incident[w].append(1 + e)
    table = table.reshape(-1)
    diagonal_at = np.arange(k) * (k + 1)
    depth = max(map(len, incident), default=0)
    slots = np.array([[0] + a + [0] * (depth - len(a)) for a in incident],
                     dtype=np.intp).reshape(k, depth + 1)

    def eigenvalues(lams: np.ndarray) -> np.ndarray:
        if len(lams) > STACK_CHUNK:
            return np.concatenate([eigenvalues(lams[at:at + STACK_CHUNK])
                                   for at in range(0, len(lams), STACK_CHUNK)])
        coeff = edge_alpha_beta(lams[:, None], lengths)
        columns = np.concatenate([np.zeros((len(lams), 1)), coeff.alpha, -coeff.beta], axis=1)
        C = columns[:, table]
        # a running sum adds in slot order, as assemble_full's np.add.at does,
        # where a reduction may pair the terms differently
        C[:, diagonal_at] = np.add.accumulate(columns[:, slots], axis=2)[..., -1]
        C = C.reshape(len(lams), k, k)
        if not np.count_nonzero(coeff.at_pole):
            return np.linalg.eigvalsh(C)
        pole = coeff.at_pole.any(axis=1)
        ev = np.full((len(lams), k), np.nan)
        ev[~pole] = np.linalg.eigvalsh(C[~pole])
        return ev

    return eigenvalues


def _crossings(low: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row per eigenvalue that crosses zero in a bracket: the bracket and its index j.

    low and high are the negative counts at the ends of each bracket of a
    decreasing matrix function; the eigenvalues j = low, ..., high - 1 cross.
    """
    held = np.maximum(high - low, 0)
    bracket = np.repeat(np.arange(len(low)), held)
    return bracket, low[bracket] + np.arange(len(bracket)) - np.repeat(np.cumsum(held) - held, held)


def _stacked_root(f, a: np.ndarray, fa: np.ndarray, b: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """The zero of each row's function inside its bracket (a, b), all rows in stacked evaluations.

    Row i's function is continuous with fa[i] >= 0 > fb[i] (zero is not
    negative), and f(rows, x) evaluates the functions of the rows `rows` (an
    index array, or slice(None) for every row), row rows[r] at x[r], in one
    call.  Brackets lie in lam >= 0.  Returns the zeros in row order.  Rows
    stay in place: a row that has stopped keeps its bracket, and once one
    has, f sees only the rows still running.

    Every row runs Chandrupatla's method, keeping a sign bracket: inverse
    quadratic interpolation where it passes Chandrupatla's monotonicity
    test, bisection otherwise; the first step bisects.  A Brent-style
    safeguard makes step k + 1 a bisection unless the bracket is already
    within 2 w0 2^-floor((k + 1)/2), w0 its first width: then even a step
    that gains nothing leaves it within 2 w0 2^-floor(k/2) after every k
    steps, one halving in every two steps with one to spare.

    A row stops once its bracket (x0, x1) is at most POLE_BISECT_TOL * x1
    wide, and reports its midpoint.  The zero p lies in the bracket, so
    x1 <= p + POLE_BISECT_TOL * x1, and the midpoint lies within
    POLE_BISECT_TOL * x1 / 2 < POLE_BISECT_TOL * p of p.  Bisection alone
    would take N = ceil(log2(w0 / (POLE_BISECT_TOL p))) steps; the safeguard
    caps a row at 2 N + 2.
    """
    if not len(a):
        return np.empty(0)
    # a is the newest point, b the other end of the sign bracket, c the
    # point the last step dropped
    c, fc, a_negative = a, fa, fa < 0
    start = ba = b - a
    t = np.full(len(a), 0.5)
    rows = slice(None)
    step = 0
    # a zero divisor in the interpolation fails Chandrupatla's test, or its
    # row has stopped
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            step += 1
            x = a + t * ba
            if isinstance(rows, slice):
                fx = f(rows, x)
            else:
                # a row that has stopped keeps its newest point (t = 0) and value
                fx = fa.copy()
                fx[rows] = f(rows, x[rows])
            # zero is not negative: f >= 0 at one end of the bracket, < 0 at the other
            negative = fx < 0
            same = negative == a_negative
            c, fc = np.where(same, a, b), np.where(same, fa, fb)
            b, fb = np.where(same, b, a), np.where(same, fb, fa)
            a, fa, a_negative = x, fx, negative
            ba = b - a
            width = np.abs(ba)
            stop = POLE_BISECT_TOL * np.maximum(a, b)
            done = width <= stop
            stopped = np.count_nonzero(done)
            if stopped == len(done):
                return 0.5 * (a + b)
            # inverse quadratic interpolation through a, b, c where
            # Chandrupatla's test finds it safe and the bracket keeps to the
            # safeguard's budget; otherwise bisection
            fcb = fc - fb
            xi = (a - b) / (c - b)
            phi = (fa - fb) / fcb
            t = fa / (fb - fa) * fc / (fb - fc) + (c - a) / ba * fa / (fc - fa) * fb / fcb
            interpolate = ((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
                           & (width <= start * 2.0 ** (1 - (step + 1) // 2)))
            # no step shorter than half the stop width, so the one after the
            # estimates settle on the root crosses it
            reach = 0.5 * stop / width
            t = np.minimum(np.maximum(np.where(interpolate, t, 0.5), reach), 1.0 - reach)
            if stopped:
                t[done] = 0.0
                rows = np.flatnonzero(~done)


def _counted_zeros(ev, poles: np.ndarray, weights: np.ndarray, lo: float, hi: float,
                   count: int | None = None) -> np.ndarray:
    """The zeros of the count N(lam) = sum_{p < lam} w_p + neg F(lam) near [lo, hi], ascending.

    F is a symmetric matrix function that decreases strictly in the Loewner
    order between its poles, ev(lams) its ascending eigenvalues, one row per
    parameter; the poles are positive, ascending and distinct, and their
    integer weights w_p make N(lam) the number of zeros below lam, with
    multiplicity.  By Weyl's monotonicity theorem every ev_j(F) decreases
    strictly between poles, so an interval (a, b) holding no pole holds one
    zero of each ev_j with neg F(a) <= j < neg F(b) (zero is not negative).

    Each pole p is widened to [p - gap, p + gap] with gap = POLE_BISECT_TOL
    p / 4, and poles whose intervals meet form one group.  Every group that
    meets [lo, hi] holds the jump of N across it, reported at the mean of
    its outer poles; between groups, and between a group and a window end
    outside it, _crossings names the rows (bracket, j) and _stacked_root
    finds each zero.  A window end inside a group brackets nothing, so F is
    never evaluated closer than gap to a pole, given every pole whose group
    reaches [lo, hi].  Every zero lam comes out within
    POLE_BISECT_TOL * lam: a root within half that by the stop rule, a value
    on a group of one or two poles within POLE_BISECT_TOL * p / 2 of its
    every point.  With `count`, only the rows whose zero is among the lowest
    `count` of N run, and the lowest `count` values are returned.  The
    bracket and group ends take one stacked evaluation of F, and every step
    of the root-find one more.
    """
    gap = 0.25 * POLE_BISECT_TOL * poles
    first = np.ones(len(poles), dtype=bool)
    first[1:] = poles[1:] - gap[1:] > poles[:-1] + gap[:-1]
    last = np.ones(len(poles), dtype=bool)
    last[:-1] = first[1:]
    start, end = (poles - gap)[first], (poles + gap)[last]
    meet = (end >= lo) & (start <= hi)
    at = 0.5 * (poles[first] + poles[last])[meet]
    ends = np.empty(2 * len(at))
    ends[0::2], ends[1::2] = start[meet], end[meet]
    # a window end inside a group brackets nothing
    head = int(not len(ends) or lo < ends[0])
    tail = int(not len(ends) or hi > ends[-1])
    # brackets (x[k], x[k + 1]) for k = 1 - head, 3 - head, ..., groups in between
    x = np.concatenate([[lo] * head, ends, [hi] * tail])
    values = ev(x)
    neg = (values < 0).sum(axis=1)
    below = np.concatenate([[0], np.cumsum(weights)])[np.searchsorted(poles, x)]
    k = np.arange(1 - head, len(x) - 1, 2)
    bracket, row = _crossings(neg[k], neg[k + 1])
    if count is not None:
        # the row's zero is the (below + row + 1)-th
        wanted = below[k[bracket]] + row < count
        bracket, row = bracket[wanted], row[wanted]
    a = k[bracket]
    roots = _stacked_root(lambda rows, y: ev(y)[np.arange(len(y)), row[rows]],
                          x[a], values[a, row], x[a + 1], values[a + 1, row])
    N, group = below + neg, np.arange(head, len(x) - 1, 2)
    return np.sort(np.concatenate([np.repeat(at, N[group + 1] - N[group]), roots]))[:count]


def _residue_ranks(g: MetricGraph, poles: np.ndarray) -> np.ndarray:
    """The weight of each edge pole in pole_scan's count: the rank of C's residue there.

    Near the pole p = (pi k / L)^2 of an edge from u to v, sin(sqrt(lam) L)
    is (-1)^k (lam - p) L / (2 sqrt p) to first order, so the edge's block
    [[alpha, -beta], [-beta, alpha]] is (2p/L) w w^T / (lam - p) plus a part
    bounded near p, w = e_u - (-1)^k e_v on the inner ends (e_u when only u
    is inner).  So C's residue R = sum_e (2p/L_e) w_e w_e^T is positive
    semidefinite, neg C drops by rank R across p, and with these weights
    the count of _counted_zeros moves there only for an inner pole.  rank R
    is 1 for a pole of one edge that touches an inner vertex, 0 where no
    such edge has it, and the rank of the rows w_e where several share it
    (within 1e-12 relative, as _edge_poles lists them), which _signed_rank
    counts: 3 at odd k and 2 at even k on a triangle of inner vertices.
    """
    m = g.n_outer
    ends = np.array(g.edge_indices) - m
    touch = ends.max(axis=1) >= 0
    ends, scale = ends[touch], np.array(g.lengths)[touch] / np.pi
    # k = 0 is no pole: (k / scale)^2 - p is then -p
    k = np.rint(np.sqrt(poles)[:, None] * scale)
    on = np.abs((k / scale) ** 2 - poles[:, None]) <= 1e-12 * np.maximum(1.0, poles)[:, None]
    ranks = on.sum(axis=1)
    for i in np.flatnonzero(ranks > 1):
        ranks[i] = _signed_rank(ends[on[i]].tolist(), k[i, on[i]].tolist())
    return ranks


def _signed_rank(ends: list, k: list) -> int:
    """The rank of the rows e_u - (-1)^k e_v of edges (u, v), an outer end (index < 0) dropped.

    A vector x orthogonal to every row has x_u = (-1)^k x_v along each edge
    between inner vertices and x_u = 0 at an edge to an outer vertex.  On a
    connected component of the inner ends, joined by the edges between them,
    that leaves one free value when the component is balanced (every cycle
    holds an even number of odd k, so signs s_u with s_u = (-1)^k s_v exist)
    and touches no outer end, and none otherwise.  The rank is the number of
    inner ends less the number of such components.
    """
    adjacent: dict[int, list] = {}
    grounded = set()
    for (u, v), kk in zip(ends, k):
        for a, b in ((u, v), (v, u)):
            if a >= 0:
                adjacent.setdefault(a, [])
                if b >= 0:
                    adjacent[a].append((b, int(kk) % 2))
                else:
                    grounded.add(a)
    sign: dict[int, int] = {}
    free = 0
    for root in adjacent:
        if root in sign:
            continue
        sign[root], stack, balanced, touched = 0, [root], True, False
        while stack:
            a = stack.pop()
            touched |= a in grounded
            for b, odd in adjacent[a]:
                if b not in sign:
                    sign[b] = sign[a] ^ odd
                    stack.append(b)
                elif sign[b] != sign[a] ^ odd:
                    balanced = False
        free += balanced and not touched
    return len(adjacent) - free


def pole_scan(g: MetricGraph, lo: float, hi: float) -> list[float]:
    """Locate the singular parameters of the outer assembly inside (lo, hi).

    Edge poles come in closed form, once each; some are removable for the
    reduced map but still reported, since the assembly breaks down there.
    The inner poles are the zeros of _counted_zeros with F = C, the inner
    block of the full matrix, evaluated by one _inner_block per scan, and
    each edge pole weighted by the rank of C's residue there
    (_residue_ranks), counted from max(lo, 0) since C is positive definite
    for lam <= 0.  Each inner pole p comes out within POLE_BISECT_TOL * p, a
    double pole twice, and one next to an edge pole at that pole's group,
    kept when the group's mean lies in the window.  A scan makes at most
    2 N + 3 stacked evaluations of C, N the bisection steps of
    its widest bracket (see _stacked_root); the catalog graphs on windows of
    60 to 400 take 8 to 12.

    Returns sorted plain floats.
    """
    if not -math.inf < lo < hi < math.inf:
        raise ValueError("the scan range must be finite and nonempty")
    if g.n_outer == g.n_vertices:
        return _edge_poles(g, lo, hi)

    lo0 = max(lo, 0.0)
    # every pole whose group can reach into the window
    poles = _edge_poles(g, lo0 - POLE_BISECT_TOL * max(1.0, lo0),
                        hi + POLE_BISECT_TOL * max(1.0, abs(hi)))
    p = np.array(poles)
    inner = _counted_zeros(_inner_block(g), p, _residue_ranks(g, p), lo0, hi)
    return sorted(v for v in poles + inner.tolist() if lo < v < hi)


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
        ev = _inner_block(g)(x)
        counts = np.where(np.isnan(ev[:, 0]), -1, (ev < 0).sum(axis=1))
        below, above = np.split(counts, 2)
        near[probe] = (below != negative[probe]) | (above != negative[probe])
    return near
