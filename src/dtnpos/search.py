"""Searches over the spectral parameter lam driven by Kronecker approximation.

A target assigns to each edge a number gamma_e (or +-inf); level l admits any
lam with

    |sin(sqrt(lam) L_e) - gamma_{e,l} / l| < 1 / l^2   and   cos(sqrt(lam) L_e) > 0

for every edge, where gamma_{e,l} is gamma_e itself or +-sqrt(l) for the
infinite tokens.  Along such a sequence the matrix D_lam / (l sqrt(lam))
converges to an explicit limit Q, which makes every positivity class of the
limit reachable at finite parameters.

Admissible lam are located by scanning an integer multiplier on an anchor
edge; when the expected scan length is too large the simultaneous phase
constraints are solved as a closest-vector problem on a small lattice instead
(LLL + Babai + box enumeration).  Either way every candidate that gets
evaluated is charged against the caller's budget, and found windows are always
re-verified by direct evaluation in double precision.

Candidates are ruled out by arithmetic before any sin is taken: at multiplier
m the phase of edge e is 2 pi (m rho_e + beta_e), and the window an edge
allows at a bound (w, or the meter's best residual where that is larger) is
one interval of that phase's distance from a quarter turn (`_arc_survivors`).
The interval is widened by a margin that bounds the float error of the
evaluated phase, so the filter drops no candidate with a residual at most the
bound, and every charge and residual is bitwise that of evaluating every
candidate.  The survivors' sin and cos are taken in one edge-major pass
(`_window_survivors`).  With no residual known yet the bound is infinite and
nothing can be ruled out, so a level's first scan block covers only a few
expected counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .assembly import DtnMatrix, _phases, assemble_full, assemble_outer, schur_reduce
from .errors import (
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
)
from .graphs import MetricGraph, is_connected, is_tree, parse_surd, reduced_graph
from .lattice import box_offsets, enumerate_near, integer_relation, lll_reduce
from .positivity import TAG_EVENTUAL, TAG_NONE, TAG_STRONG, classify
from .spectra import lambda_1

# expected-candidate threshold separating plain scanning from the lattice solver
SCAN_CAP = 200_000
# a level's first scan block covers this many expected counts, rounded up to
# a power of two and at most _FIRST_BLOCK_MAX; later blocks hold _SCAN_BLOCK
_FIRST_BLOCK_EXPECTED = 4
_FIRST_BLOCK_MAX = 2048
_SCAN_BLOCK = 16_384
_LATTICE_RADIUS = 2
# largest enumeration box: 5^10 vectors pass (ten edges), 5^11 do not
_LATTICE_BOX_MAX = 2 ** 25
_LATTICE_ATTEMPTS_MAX = 10_000
DEFAULT_LEVEL_CAP = 64


@dataclass(frozen=True)
class TargetSpec:
    """Per-edge targets gamma_e: finite nonzero floats or +-inf tokens."""

    gammas: tuple[float, ...]

    def __post_init__(self):
        for gamma in self.gammas:
            if gamma == 0.0 or math.isnan(gamma):
                raise ValueError("edge targets must be nonzero (use +-inf to switch an edge off)")

    @staticmethod
    def uniform(value: float, n_edges: int) -> "TargetSpec":
        return TargetSpec(gammas=(float(value),) * n_edges)

    def level_targets(self, level: int) -> tuple[float, ...]:
        """sin targets gamma_{e,l} / l at the given level."""
        out = []
        for gamma in self.gammas:
            if math.isinf(gamma):
                out.append(math.copysign(1.0 / math.sqrt(level), gamma))
            else:
                out.append(gamma / level)
        return tuple(out)

    def limit_offdiag(self, e: int) -> float:
        """Limit off-diagonal weight 1/gamma_e (0 for the infinite tokens)."""
        gamma = self.gammas[e]
        return 0.0 if math.isinf(gamma) else 1.0 / gamma


def parse_gamma(token) -> float:
    """A per-edge target from the command line: float() already reads the
    +-inf tokens (inf, -Infinity, ...) in any case and around whitespace."""
    return float(token)


@dataclass(frozen=True)
class KroneckerSequence:
    lambdas: tuple[float, ...]
    residuals: tuple[float, ...]
    levels: tuple[int, ...]
    budget_used: int


@dataclass(frozen=True)
class SearchResult:
    lam: float
    verdict: str
    level: int
    residual: float
    budget_used: int
    gammas: tuple[float, ...]
    trail: tuple[float, ...]  # residuals of the levels classified, in order

    def to_record(self) -> dict:
        return {
            "lambda": self.lam,
            "verdict": self.verdict,
            "level": self.level,
            "residuals": list(self.trail),
            "budget_used": self.budget_used,
            "gammas": [repr(g) if math.isinf(g) else g for g in self.gammas],
        }


class BudgetMeter:
    """Counts evaluated candidates; raises once the allowance is spent."""

    def __init__(self, budget: int):
        if budget < 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        self.budget = int(budget)
        self.spent = 0
        self.best_residual = math.inf
        self.level = 0

    def charge(self, n: int = 1) -> None:
        self.spent += n
        if self.spent > self.budget:
            raise BudgetExhausted(self.budget, self.best_residual, self.level)


def rationally_independent(lengths: Sequence[float]) -> bool:
    """True when `integer_relation` finds no relation among all the lengths jointly
    ([1, sqrt(2), 1 + sqrt(2)] has one); `surds_independent` decides surds exactly."""
    return integer_relation(lengths) is None


def surds_independent(exprs: Sequence[str]) -> bool:
    """Exact pairwise test for ``a*sqrt(p)`` lengths.

    a sqrt(p) / (b sqrt(q)) is rational iff p q is a perfect square.
    """
    radicands = [parse_surd(x)[1] for x in exprs]
    return not any(math.isqrt(p * q) ** 2 == p * q
                   for p, q in itertools.combinations(radicands, 2))


def _require_independent(g: MetricGraph | Sequence[float], assert_independent: bool) -> None:
    """Raise IndependenceNotAsserted unless asserted or the lengths pass the test.

    Exact when every edge of a graph carries a ``length_expr``; otherwise
    `integer_relation` decides, and the error names the relation it found.
    """
    if assert_independent:
        return
    edges, lengths = (g.edges, g.lengths) if isinstance(g, MetricGraph) else ((), g)
    if edges and all(e.expr for e in edges):
        if not surds_independent([e.expr for e in edges]):
            raise IndependenceNotAsserted()
    elif (relation := integer_relation(lengths)) is not None:
        raise IndependenceNotAsserted(relation)


def _phase_window(v: float, w: float) -> tuple[float, float] | None:
    """Phases theta with |sin theta - v| < w and cos theta > 0, as an interval."""
    if v - w >= 1.0 or v + w <= -1.0:
        return None
    lo = math.asin(max(-1.0, v - w))
    hi = math.asin(min(1.0, v + w))
    if not lo < hi:
        return None
    return lo, hi


def _window_survivors(lam: np.ndarray, lengths: Sequence[float], targets: Sequence[float],
                      w: float) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the candidates lam and which of them are admissible.

    A candidate's residual is max_e |sin(sqrt(lam) L_e) - target_e|; it is
    admissible when that is below w and every cos(sqrt(lam) L_e) > 0.  The
    phases are one edge-major (E, N) array from assembly._phases, and cos
    is taken only on the candidates below w.
    """
    _, x = _phases(lam, np.asarray(lengths, dtype=float)[:, None])
    res = np.abs(np.sin(x) - np.asarray(targets, dtype=float)[:, None]).max(axis=0)
    ok = res < w
    ok[ok] = (np.cos(x[:, ok]) > 0.0).all(axis=0)
    return res, ok


def _anchor_lam(ms: np.ndarray, La: float, theta_c: float) -> np.ndarray:
    """lam at anchor multipliers ms: the anchor phase sqrt(lam) L_a is theta_c + 2 pi m."""
    return ((theta_c + 2.0 * math.pi * ms) / La) ** 2


def _phase_turns(lengths: Sequence[float], La: float,
                 theta_c: float) -> tuple[np.ndarray, np.ndarray]:
    """(rho, beta) with t_e(m) = m rho_e + beta_e the phase of edge e in turns.

    At the anchor multiplier m, sqrt(lam) L_e = (theta_c + 2 pi m) L_e / L_a,
    which is 2 pi t_e(m) for rho_e = L_e / L_a and beta_e = theta_c rho_e / (2 pi).
    """
    rho = np.asarray(lengths, dtype=float) / La
    return rho, theta_c * rho / (2.0 * math.pi)


def _arc_survivors(ms: np.ndarray, rho: np.ndarray, beta: np.ndarray,
                   targets: Sequence[float], bound: float) -> np.ndarray:
    """Positions of the multipliers ms (ascending, every m >= 1) that may still
    have |sin(sqrt(lam) L_e) - v_e| <= bound on every edge, by phase arithmetic.

    sin(2 pi t) = cos(2 pi g) with g = |t - 1/4 - rint(t - 1/4)| in [0, 1/2],
    so the sin window of an edge is one interval of g, whose ends are acos of
    the window ends over 2 pi.  Edges are tested in the order given, each on
    the survivors of the ones before, and an edge whose widened interval covers
    [0, 1/2] is skipped.

    The test never drops a multiplier whose `_window_survivors` residual is at
    most bound (u = 2^-53 is the unit roundoff):

    - sin space: such a candidate has fl(|fl(sin x) - v|) <= bound, so its
      exact |sin x - v| is below bound + 5u; the window ends are widened by
      16u before acos, which covers that and their own rounding.
    - phase: `_window_survivors` takes sin of x = fl(fl(sqrt(lam)) L_e) from
      the phase step `assembly._phases`, lam from `_anchor_lam`.  Six roundings
      on that path put x / (2 pi) within 5.5u t_e of (theta_c + fl(2 pi) m)
      rho_e / (2 pi); fl(2 pi) differs from 2 pi by 0.35u in relative terms,
      which moves the turn count m rho_e by at most 0.35u t_e; and t_e itself
      is computed with three roundings in rho_e, m rho_e and the sum, at most 3u t_e + u.
      With T_e the largest t_e over ms, every g is therefore within
      9u (T_e + 1) of the g of the evaluated phase, and each interval is
      widened by 16u (T_e + 1), which also covers the rounding of acos, of
      the division by 2 pi and of the fold.
    """
    u = 2.0 ** -53
    reach = bound + 16.0 * u
    top = float(ms[-1]) if len(ms) else 0.0
    pos = None  # every position, until an edge filters
    for r, b, v in zip(rho, beta, targets):
        margin = 16.0 * u * (top * r + abs(b) + 1.0)
        g_lo = math.acos(min(1.0, v + reach)) / (2.0 * math.pi) - margin
        g_hi = math.acos(max(-1.0, v - reach)) / (2.0 * math.pi) + margin
        if g_lo <= 0.0 and g_hi >= 0.5:
            continue
        t = ms * r if pos is None else ms[pos] * r
        t += b - 0.25
        t -= np.rint(t)
        g = np.abs(t, out=t)
        live = g <= g_hi
        if g_lo > 0.0:
            live &= g >= g_lo
        pos = np.flatnonzero(live) if pos is None else pos[live]
        if pos.size == 0:
            break
    return np.arange(len(ms)) if pos is None else pos


def _solve_level(lengths: Sequence[float], targets: Sequence[float], w: float,
                 lam_min: float, meter: BudgetMeter) -> tuple[float, float]:
    """Smallest-found admissible lam > lam_min for one level's windows.

    The anchor edge phase is pinned to its window center; the remaining edges
    impose fractional conditions on the anchor multiplier m.  Small expected
    counts are scanned directly, large ones go through the lattice solver.
    Every evaluated candidate costs one budget unit.
    """
    windows = [_phase_window(v, w) for v in targets]
    assert all(win is not None for win in windows)
    centers = [0.5 * (lo + hi) for lo, hi in windows]
    # window half-widths in turns: fraction of the m-axis period per edge
    deltas = [(hi - lo) / (4.0 * math.pi) for lo, hi in windows]

    anchor = max(range(len(lengths)), key=lambda e: lengths[e])
    La = lengths[anchor]
    theta_c = centers[anchor]
    others = [e for e in range(len(lengths)) if e != anchor]

    mu_min = math.sqrt(max(lam_min, 0.0))
    m_min = max(1, math.floor((mu_min * La - theta_c) / (2.0 * math.pi)) + 1)

    density = 1.0
    for e in others:
        density *= 2.0 * deltas[e]
    expected = 1.0 / density

    # narrowest windows first: they prune the most; the anchor sits at its
    # window center on every candidate and prunes nothing
    order = sorted(others, key=lambda e: deltas[e]) + [anchor]
    order_targets = [targets[e] for e in order]
    rho, beta = _phase_turns(lengths, La, theta_c)
    order_rho, order_beta = rho[order], beta[order]

    def verify(ms: np.ndarray) -> tuple[float, float] | None:
        """Charge the candidates ms (ascending) up to the first admissible one.

        The charge and the meter's best residual are those of evaluating the
        candidates one at a time: each charged candidate folds in its
        residual, and the first one past the budget raises before it does.
        """
        room = meter.budget - meter.spent
        ms = ms[:room + 1]
        # a hit needs a residual below w, and a residual above the meter's
        # best cannot lower it, so dropping those candidates keeps every
        # charge, best residual, lam and residual bitwise those of evaluating
        # every candidate
        pos = _arc_survivors(ms, order_rho, order_beta, order_targets,
                             max(w, meter.best_residual))
        lam = _anchor_lam(ms[pos], La, theta_c)
        res, ok = _window_survivors(lam, lengths, targets, w)
        hit = int(np.argmax(ok)) if ok.any() else None
        n = len(ms) if hit is None else int(pos[hit]) + 1
        folded = res[:np.searchsorted(pos, min(n, room))]
        meter.best_residual = min(meter.best_residual, float(folded.min(initial=math.inf)))
        meter.charge(n)
        return None if hit is None else (float(lam[hit]), float(res[hit]))

    if expected <= SCAN_CAP:
        # the first block covers a few expected counts, so a level that hits
        # early does not pay a whole block at an infinite bound
        m = m_min
        size = min(_FIRST_BLOCK_MAX,
                   1 << math.ceil(math.log2(_FIRST_BLOCK_EXPECTED * expected)))
        while True:
            hit = verify(np.arange(m, m + size, dtype=float))
            if hit is not None:
                return hit
            m += size
            size = _SCAN_BLOCK

    # lattice route: solve frac(m' rho_e - psi_e) in (-delta_e, delta_e) with
    # m' = m - m_min, one CVP target per diameter-sized slab of the m'-axis
    d = len(others)
    box = (2 * _LATTICE_RADIUS + 1) ** (d + 1)
    if box > _LATTICE_BOX_MAX:
        raise LatticeBoxTooLarge(box, _LATTICE_BOX_MAX, d + 1)
    psi = np.asarray(centers)[others] / (2.0 * math.pi) - (m_min * rho[others] + beta[others])
    psi -= np.floor(psi)
    weights = 1.0 / np.asarray(deltas)[others]

    c0 = 1.0 / expected
    B = np.diag(np.concatenate(([c0], weights)))
    B[0, 1:] = weights * rho[others]
    B_red, Bs = lll_reduce(B)
    # the box's multiplier coordinate alone: _solve_level reads nothing else
    offsets = box_offsets(B_red[:, :1], _LATTICE_RADIUS)

    # multipliers m' tried by earlier attempts, sorted
    seen = np.empty(0, dtype=np.int64)
    for attempt in range(_LATTICE_ATTEMPTS_MAX):
        m_target = (attempt + 0.5) * expected
        t = np.concatenate(([c0 * m_target], weights * psi))
        first = np.concatenate(list(enumerate_near(B_red, Bs, t, _LATTICE_RADIUS, offsets)))[:, 0]
        # sort-based unique: numpy's hash-based np.unique is ~50x slower on
        # the mostly distinct multipliers of a wide box
        cands = np.sort(np.rint(first / c0).astype(np.int64))
        cands = cands[(cands >= 0) & (np.diff(cands, prepend=-1) != 0)]
        cands = cands[~np.isin(cands, seen, assume_unique=True)]
        seen = np.sort(np.concatenate((seen, cands)), kind="stable")
        hit = verify((m_min + cands).astype(float))
        if hit is not None:
            return hit
    raise LatticeSearchFailed(_LATTICE_ATTEMPTS_MAX)


def _first_feasible_level(spec: TargetSpec) -> int:
    level = 1
    while level < 10 ** 6:
        if all(_phase_window(v, 1.0 / level ** 2) is not None
               for v in spec.level_targets(level)):
            return level
        level += 1
    raise ValueError("no feasible level for the given targets")


def _sign_safe(targets: Sequence[float], w: float) -> bool:
    """True when no window straddles zero, so every sin keeps a definite sign."""
    return all(v - w >= 0.0 or v + w <= 0.0 for v in targets)


def kronecker_sequence(lengths, spec: TargetSpec, count: int, budget: int,
                       assert_independent: bool = False) -> KroneckerSequence:
    """Admissible lam_1 < lam_2 < ... for `count` consecutive feasible levels."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    _require_independent(lengths, assert_independent)
    if isinstance(lengths, MetricGraph):
        lengths = lengths.lengths
    lengths = [float(L) for L in lengths]
    if len(spec.gammas) != len(lengths):
        raise ValueError("one gamma per edge required")

    meter = BudgetMeter(budget)
    lambdas, residuals, levels = [], [], []
    level = _first_feasible_level(spec)
    lam_prev = 0.0
    for _ in range(count):
        meter.level = level
        lam, res = _solve_level(lengths, spec.level_targets(level),
                                1.0 / level ** 2, lam_prev, meter)
        lambdas.append(lam)
        residuals.append(res)
        levels.append(level)
        lam_prev = lam
        level += 1
    return KroneckerSequence(tuple(lambdas), tuple(residuals), tuple(levels),
                             budget_used=meter.spent)


def limit_matrix_Q(g: MetricGraph, spec: TargetSpec) -> np.ndarray:
    """Limit of D_lam / (l sqrt(lam)) along the target's admissible sequence.

    Off-diagonal entries gathered from [0 | 0.0 - 1/gamma] by g.incidence
    (+0.0 for infinite targets), and diagonal entries minus their row's sum, so
    that every row adds to exactly zero in floating point.
    """
    weights = np.array([0.0] + [0.0 - spec.limit_offdiag(e) for e in range(len(g.edges))])
    Q = weights[g.incidence[0]]
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def limit_schur(g: MetricGraph, spec: TargetSpec) -> np.ndarray:
    """Limit matrix reduced to the outer vertices (Schur complement of Q).

    Q is the limit lam -> inf, so a singular inner block raises
    InnerBlockSingular at lambda=inf.
    """
    Q = DtnMatrix(lam=math.inf, dim=g.n_vertices, entries=limit_matrix_Q(g, spec),
                  provenance="limit")
    return schur_reduce(Q, g.n_outer).entries


@dataclass(frozen=True)
class LimitVerification:
    errors: tuple[float, ...]
    initial_error: float
    final_error: float
    decreased: bool


def verify_limit(g: MetricGraph, spec: TargetSpec,
                 seq: KroneckerSequence) -> LimitVerification:
    """Max-norm distance of D_lam / (l sqrt(lam)) from Q along the sequence."""
    Q = limit_matrix_Q(g, spec)
    errors = []
    for level, lam in zip(seq.levels, seq.lambdas):
        D = assemble_full(g, lam).entries
        errors.append(float(np.abs(D / (level * math.sqrt(lam)) - Q).max()))
    return LimitVerification(errors=tuple(errors), initial_error=errors[0],
                             final_error=errors[-1],
                             decreased=errors[-1] < errors[0])


def _hunt(g: MetricGraph, spec: TargetSpec, meter: BudgetMeter, lam_start: float,
          wanted: str, level_cap: int) -> SearchResult | None:
    """First admissible lam > lam_start, one per level, classified as wanted.

    Sign-unsafe levels are skipped, and so is a level whose lam the assembly
    rejects (at a pole or with a singular inner block); the candidates that
    level charged stay spent, and its residual stays out of the trail.
    """
    lam = max(lam_start, 0.0)
    trail = []
    first = _first_feasible_level(spec)
    for level in range(first, first + level_cap):
        targets = spec.level_targets(level)
        w = 1.0 / level ** 2
        if not _sign_safe(targets, w):
            continue
        meter.level = level
        lam, res = _solve_level(g.lengths, targets, w, lam, meter)
        try:
            M = assemble_outer(g, lam)
        except (AtPole, InnerBlockSingular):
            continue
        trail.append(res)
        tag = classify(M).tag
        if tag == wanted:
            return SearchResult(lam=lam, verdict=tag, level=level, residual=res,
                                budget_used=meter.spent, gammas=spec.gammas,
                                trail=tuple(trail))
    return None


def _find_uniform(g: MetricGraph, lam_hat: float, budget: int, assert_independent: bool,
                  gamma: float, wanted: str) -> SearchResult:
    """First admissible lam > lam_hat for the target gamma on every edge, tagged wanted."""
    _require_independent(g, assert_independent)
    meter = BudgetMeter(budget)
    spec = TargetSpec.uniform(gamma, len(g.edges))
    result = _hunt(g, spec, meter, lam_hat, wanted, DEFAULT_LEVEL_CAP)
    if result is None:
        raise BudgetExhausted(budget, meter.best_residual, meter.level)
    return result


def find_strongly_positive_above(g: MetricGraph, lam_hat: float, budget: int,
                                 assert_independent: bool = False) -> SearchResult:
    """First admissible lam > lam_hat (targets gamma = 1) classified strong."""
    return _find_uniform(g, lam_hat, budget, assert_independent, 1.0, TAG_STRONG)


def find_not_eventually_positive_above(g: MetricGraph, lam_hat: float, budget: int,
                                       assert_independent: bool = False) -> SearchResult:
    """First admissible lam > lam_hat (targets gamma = -1) with no eventual positivity."""
    if g.n_outer < 2:
        raise ValueError("need at least two outer vertices")
    return _find_uniform(g, lam_hat, budget, assert_independent, -1.0, TAG_NONE)


def _eventual_candidates(g: MetricGraph) -> Iterator[TargetSpec]:
    """Target specs whose limit should sit in the eventual class, best first.

    Route (a): a direct outer edge (r, s) on a reduced cycle gets
    gamma = -1/(eps + w) with w the through-connection weight of the deleted
    edge, cancelling the parallel paths and leaving a controlled negative
    entry of size eps.  Route (b): an inner-incident edge gets a small
    negative target -eta, driving the limit toward a spanning-star pattern
    with small negative entries off the star.
    """
    n_e = len(g.edges)
    red = reduced_graph(g)
    idx = {v: i for i, v in enumerate(red.vertices)}

    for re_edge in red.edges:
        if re_edge.kind == "through-inner":
            continue
        if re_edge.kind == "direct" and not is_connected(
                red.vertices, [e for e in red.edges if e is not re_edge]):
            continue
        e_pos = next(i for i, e in enumerate(g.edges) if e.pair == re_edge.pair)
        deleted = list(TargetSpec.uniform(1.0, n_e).gammas)
        deleted[e_pos] = math.inf
        M_del = limit_schur(g, TargetSpec(tuple(deleted)))
        r, s = idx[re_edge.u], idx[re_edge.v]
        w_rs = max(0.0, -float(M_del[r, s]))

        base_g = list(deleted)
        if w_rs > 0.0:
            base_g[e_pos] = -1.0 / w_rs
        M0 = limit_schur(g, TargetSpec(tuple(base_g)))
        off = -M0[~np.eye(M0.shape[0], dtype=bool)]
        pos = off[off > 1e-12 * max(1.0, float(np.abs(M0).max()))]
        if pos.size == 0:
            continue
        base = float(pos.min())
        for j in range(2, 10):
            eps = base * 2.0 ** (-j)
            gammas = [1.0] * n_e
            gammas[e_pos] = -1.0 / (eps + w_rs)
            yield TargetSpec(tuple(gammas))

    inner = set(g.inner)
    for e_pos, e in enumerate(g.edges):
        if e.u not in inner and e.v not in inner:
            continue
        for j in range(3, 11):
            eta = 2.0 ** (-j)
            gammas = [1.0] * n_e
            gammas[e_pos] = -eta
            yield TargetSpec(tuple(gammas))


def find_eventual_not_positive_above(g: MetricGraph, lam_hat: float, budget: int,
                                     assert_independent: bool = False) -> SearchResult:
    """Admissible lam > lam_hat whose matrix is eventually strongly positive only.

    Requires a cycle in the reduced graph; on trees that class is empty and
    NoCycle is raised.  Candidate targets are screened by classifying their
    exact limit matrix before any budget is spent on them.
    """
    if is_tree(reduced_graph(g)):
        raise NoCycle()
    _require_independent(g, assert_independent)

    meter = BudgetMeter(budget)
    screened_any = False
    for spec in _eventual_candidates(g):
        try:
            tag = classify(limit_schur(g, spec)).tag
        except InnerBlockSingular:
            continue
        if tag != TAG_EVENTUAL:
            continue
        screened_any = True
        result = _hunt(g, spec, meter, lam_hat, TAG_EVENTUAL, 32)
        if result is not None:
            return result
    if not screened_any:
        raise NoEventualTarget()
    raise BudgetExhausted(budget, meter.best_residual, meter.level)


def commensurable_base(lengths: Sequence[float]) -> float:
    """Largest L with every edge length an integer multiple of L.

    The `integer_relation` witness c of each pair (L_min, L) gives the ratio
    L / L_min = -c_1 / c_2 exactly; a pair without one raises NotCommensurable.
    Each distinct length is related once, and L_min to itself by (1, -1).
    """
    L_min = min(lengths)
    distinct = list(dict.fromkeys(lengths))
    relations = [(1, -1) if L == L_min else integer_relation((L_min, L)) for L in distinct]
    if None in relations:
        L = distinct[relations.index(None)]
        raise NotCommensurable(f"edge length {L!r} is not an integer multiple of a common base")
    Q = math.lcm(*(c2 for _, c2 in relations))
    return (L_min / Q) * math.gcd(*(c1 * (Q // c2) for c1, c2 in relations))


@dataclass(frozen=True)
class FamilyMember:
    p: int
    lam: float
    verdict: str
    identity_residual: float


@dataclass(frozen=True)
class CommensurableFamily:
    base_length: float
    mu: float
    lam1: float
    members: tuple[FamilyMember, ...]

    def to_record(self) -> dict:
        return {
            "base_length": self.base_length,
            "mu": self.mu,
            "lambda_1": self.lam1,
            "members": [
                {"p": m.p, "lambda": m.lam, "verdict": m.verdict,
                 "identity_residual": m.identity_residual}
                for m in self.members
            ],
        }


def commensurable_family(g: MetricGraph, mu: float, p_list: Sequence[int]) -> CommensurableFamily:
    """Shifted parameters lam_p = (sqrt(mu) + 2 pi p / L)^2 for commensurable lengths.

    Every edge phase moves by a full multiple of 2 pi, so
    D_{lam_p} / sqrt(lam_p) = D_mu / sqrt(mu) exactly; the reported residual
    measures how closely the assembled matrices reproduce that identity.
    Requires 0 < mu < lambda_1, the bottom of the Kirchhoff spectrum (see
    spectra.lambda_1), below which the semigroup is positive.
    """
    base = commensurable_base(g.lengths)
    lam1 = lambda_1(g)
    if not 0.0 < mu < lam1:
        raise MuOutOfRange(mu, lam1)

    ref = assemble_outer(g, mu).entries / math.sqrt(mu)
    scale = max(1.0, float(np.abs(ref).max()))
    members = []
    for p in p_list:
        p = int(p)
        if p < 0:
            raise ValueError("shift indices must be non-negative")
        lam_p = (math.sqrt(mu) + 2.0 * math.pi * p / base) ** 2
        D = assemble_outer(g, lam_p)
        resid = float(np.abs(D.entries / math.sqrt(lam_p) - ref).max()) / scale
        members.append(FamilyMember(p=p, lam=lam_p, verdict=classify(D).tag,
                                    identity_residual=resid))
    return CommensurableFamily(base_length=base, mu=mu, lam1=lam1,
                               members=tuple(members))
