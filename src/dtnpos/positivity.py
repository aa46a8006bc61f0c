"""Positivity classification of the semigroup generated by -M.

For a real symmetric matrix M the semigroup e^{-tM} is

* positive for all t > 0 iff -M is Metzler (non-negative off-diagonal), and
  then strongly positive iff -M is additionally irreducible;
* eventually strongly positive iff the spectral projection onto the largest
  eigenvalue of -M is entrywise strictly positive;
* not eventually positive iff that projection has a strictly negative entry.

Two independent routes are kept side by side: the algebraic classifier above,
and a direct matrix-exponential oracle that samples e^{-tM} on a geometric
time grid.  They are compared in the test suite, never merged.  Only the
oracle loads scipy, on its first call, so classifying needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import DtnMatrix


# sign decisions use SIGN_TOL * max|M| as the zero band
SIGN_TOL = 1e-11
# entries between tol and MARGINAL_FACTOR * tol below zero are ambiguous
MARGINAL_FACTOR = 10.0
# eigenvalues within PROJECTION_TOL * max(1, |s|) of the top one s share its eigenspace;
# absolute below |s| = 1, so classify reads D at lambda's scale, not D / sqrt(lambda)
PROJECTION_TOL = 1e-9
# the oracle samples ORACLE_TIMES times from ORACLE_T_LO to ORACLE_T_HI over the spectral scale
ORACLE_TIMES = 24
ORACLE_T_LO = 1e-3
ORACLE_T_HI = 1e4

# printable tags, also used in CSV/JSON output
TAG_STRONG = "strong"
TAG_POSITIVE = "positive"
TAG_EVENTUAL = "eventual"
TAG_NONE = "none"
TAG_MARGINAL = "marginal"


@dataclass(frozen=True)
class SemigroupClass:
    tag: str
    evidence: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MetzlerReport:
    satisfied: bool
    marginal: bool
    margin: float      # most negative off-diagonal entry of -M (0 if none)
    tolerance: float


@dataclass(frozen=True)
class OracleReport:
    klass: str                      # "strict_all" | "strict_eventually" | "never"
    times: tuple[float, ...]
    strict: tuple[bool, ...]
    ambiguous: bool


def _as_array(M) -> np.ndarray:
    if isinstance(M, DtnMatrix):
        return M.entries
    return np.asarray(M, dtype=float)


def _offdiag(A: np.ndarray) -> np.ndarray:
    mask = ~np.eye(A.shape[-1], dtype=bool)
    return A[..., mask]


def _transpose(A: np.ndarray) -> np.ndarray:
    return np.swapaxes(A, -1, -2)


def is_metzler(negM) -> MetzlerReport:
    """Check the generator for non-negative off-diagonal entries.

    Entries within SIGN_TOL * max|A| of zero count as zeros; entries
    below that but within MARGINAL_FACTOR of the band are flagged marginal
    rather than decided.  An (N, n, n) stack gets one report whose fields are
    arrays over the samples.
    """
    A = _as_array(negM)
    n = A.shape[-1]
    if n <= 1:
        if A.ndim == 2:
            return MetzlerReport(True, False, 0.0, 0.0)
        zeros = np.zeros(len(A))
        return MetzlerReport(np.ones(len(A), dtype=bool), np.zeros(len(A), dtype=bool),
                             zeros, zeros)
    tol = SIGN_TOL * np.abs(A).max(axis=(-2, -1))
    margin = _offdiag(A).min(axis=-1)
    satisfied = margin >= -tol
    marginal = ~satisfied & (margin > -MARGINAL_FACTOR * tol)
    if A.ndim == 2:
        return MetzlerReport(bool(satisfied), bool(marginal), float(margin), float(tol))
    return MetzlerReport(satisfied, marginal, margin, tol)


def is_irreducible(M) -> bool | np.ndarray:
    """Strong connectivity of the off-diagonal support graph.

    With S the support, (I + S)^k has a nonzero (i, j) entry iff j is reachable
    from i in at most k steps, so the graph is strongly connected iff
    (I + S)^(n-1) has no zero entry.  Boolean squaring reaches k >= n - 1 in
    ceil(log2(n - 1)) matrix products.

    Entries above SIGN_TOL * max|M| count as support.  An (N, n, n) stack
    gives one flag per sample, each with its own band; a single matrix gives
    a bool.
    """
    A = _as_array(M)
    n = A.shape[-1]
    if n <= 1:
        return True if A.ndim == 2 else np.ones(len(A), dtype=bool)
    tol = SIGN_TOL * np.abs(A).max(axis=(-2, -1))
    reach = (np.abs(A) > tol[..., None, None]) | np.eye(n, dtype=bool)
    k = 1
    while k < n - 1:
        reach = reach @ reach
        k *= 2
    flags = reach.all(axis=(-2, -1))
    return bool(flags) if A.ndim == 2 else flags


def classify(M) -> SemigroupClass | tuple[np.ndarray, np.ndarray]:
    """Classify the positivity behavior of e^{-tM} for symmetric M.

    Tags: "strong" (positivity improving for every t > 0), "positive"
    (positive, not strongly), "eventual" (eventually strongly positive but not
    positive), "none" (not eventually positive), "marginal" (a sign decision
    fell inside the numerical ambiguity band).

    The spectral projection of the samples that are not Metzler reads the
    eigenpairs of the symmetrized generator A = -M.  An (N, m, m) stack of
    finite matrices takes one eigendecomposition of every sample and gives
    the pair (tags, eigenvalues): the (N,) object array of tags, each the tag
    that the matrix alone would get, and the (N, m) ascending eigenvalues of
    M, the negated and reversed spectrum of A.  An (m, m) matrix is the N = 1
    case and gives one SemigroupClass with the evidence behind its tag; it
    takes its eigendecomposition only when the projection test reads it.
    """
    Mat = _as_array(M)
    single = Mat.ndim == 2
    A = -(Mat[None] if single else Mat)
    metz = is_metzler(A)
    rest = ~metz.satisfied & ~metz.marginal
    if not single or rest[0]:
        w, V = np.linalg.eigh(0.5 * (A + _transpose(A)))
    tags = np.full(len(A), TAG_MARGINAL, dtype=object)
    # evidence columns; only a single matrix reads them, at element 0
    columns = {"metzler_margin": metz.margin, "metzler_tolerance": metz.tolerance}

    pos = metz.satisfied
    if pos.any():
        irr = is_irreducible(A[pos])
        tags[pos] = np.where(irr, TAG_STRONG, TAG_POSITIVE)
        columns["irreducible"] = irr

    # not Metzler: decide by the spectral projection onto the top eigenvalue of A
    if rest.any():
        wr, Vr = w[rest], V[rest]
        s = wr[:, -1]
        sel = wr >= (s - PROJECTION_TOL * np.maximum(1.0, np.abs(s)))[:, None]
        P = (Vr * sel[:, None, :]) @ _transpose(Vr)
        tol_p = SIGN_TOL * np.abs(P).max(axis=(1, 2))
        min_p = P.min(axis=(1, 2))
        tags[rest] = np.where(min_p > tol_p, TAG_EVENTUAL,
                              np.where(min_p < -tol_p, TAG_NONE, TAG_MARGINAL))
        columns.update(spectral_bound=s, projection_rank=sel.sum(axis=1),
                       min_projection=min_p, projection_tolerance=tol_p)

    if not single:
        return tags, -w[:, ::-1]
    return SemigroupClass(tags[0], {k: v[0].item() for k, v in columns.items()})


def _time_grid(Mat: np.ndarray) -> np.ndarray:
    scale = float(np.abs(np.linalg.eigvalsh(0.5 * (Mat + Mat.T))).max())
    if scale == 0.0:
        scale = 1.0
    return np.geomspace(ORACLE_T_LO / scale, ORACLE_T_HI / scale, ORACLE_TIMES)


def expm_oracle(M) -> OracleReport:
    """Sample e^{-tM} on a geometric time grid and read off strict positivity.

    The generator is shifted by its top eigenvalue before exponentiation
    (scaling by e^{-ts} > 0, which cannot change any sign) so large times do
    not overflow.  Verdicts: strict at every sample, strict from some sample
    on, or never strict; a non-monotone pattern is reported as ambiguous.
    It needs scipy, which the package's `test` extra installs.
    """
    try:
        import scipy.linalg
    except ImportError as exc:
        raise ImportError('expm_oracle needs scipy: pip install "dtnpos[test]"') from exc

    Mat = _as_array(M)
    n = Mat.shape[0]
    A = -0.5 * (Mat + Mat.T)
    w = np.linalg.eigvalsh(A)
    A_shift = A - float(w[-1]) * np.eye(n)

    times = _time_grid(Mat)
    strict = []
    for t in times:
        E = scipy.linalg.expm(t * A_shift)
        strict.append(bool(E.min() > 1e-13 * max(E.max(), 1e-300)))

    if all(strict):
        klass, ambiguous = "strict_all", False
    elif not any(strict):
        klass, ambiguous = "never", False
    else:
        first = strict.index(True)
        suffix = all(strict[first:])
        klass = "strict_eventually" if suffix else "never"
        ambiguous = not suffix
    return OracleReport(klass=klass, times=tuple(float(t) for t in times),
                        strict=tuple(strict), ambiguous=ambiguous)
