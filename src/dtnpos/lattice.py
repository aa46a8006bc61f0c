"""Small dense lattice routines: LLL reduction, integer relations, Babai rounding, box enumeration.

Dimensions here are tiny (one row per graph edge), so LLL runs on plain
Python floats.  It keeps its Gram-Schmidt data (mu and the squared norms of
B*) up to date instead of recomputing it: a size reduction updates one row of
mu, and a swap of two neighbouring rows updates mu and two norms in O(n)
(Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.3).
Those updates drift on badly scaled bases, so the result is checked once
against a fresh orthogonalization, and reduction resumes from the fresh data
when the check fails (the safeguard of Schnorr & Euchner, 1994).  Box
enumeration streams the box as array slabs, one per value of the first
offset, so a consumer pays one Python step per slab instead of one per vector;
the offsets part of the box is built by broadcast sums, for as few leading
coordinates as the consumer reads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# Lovasz constant of lll_reduce
DELTA = 0.99
_RELATION_SCALE, _RELATION_BOX = 1e12, 10 ** 10  # S and the box bound of integer_relation
# value tuples integer_relation keeps its answer for, least recently used dropped first
RELATIONS_HELD = 256


def gram_schmidt(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonalization of the rows of B; returns (B*, mu) with B = (mu + I) B*."""
    n = B.shape[0]
    Bs = np.zeros_like(B, dtype=float)
    mu = np.zeros((n, n))
    for i in range(n):
        v = B[i].astype(float).copy()
        for j in range(i):
            denom = Bs[j] @ Bs[j]
            mu[i, j] = (B[i] @ Bs[j]) / denom
            v -= mu[i, j] * Bs[j]
        Bs[i] = v
    return Bs, mu


def lll_reduce(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lenstra-Lenstra-Lovasz reduction of the row basis B, with constant DELTA.

    The loop updates mu and the squared Gram-Schmidt norms in place, on a
    swap too (Cohen, Alg. 2.6.3).  When it ends, a fresh ``gram_schmidt`` of
    the result runs one more pass of the loop's own tests (every
    ``round(mu[k][j]) == 0`` and the Lovasz inequality); reduction resumes
    from the fresh data until such a pass changes nothing (Schnorr & Euchner,
    1994).  A well-scaled basis costs two orthogonalizations.

    Returns the reduced basis and its B*, the B* of that last check, which
    ``babai_nearest`` takes so that no CVP attempt orthogonalizes again.
    """
    rows = np.array(B, dtype=float).tolist()
    while True:
        reduced = np.array(rows)
        Bs, mu = gram_schmidt(reduced)
        if not _lll_pass(rows, mu.tolist(), [float(v @ v) for v in Bs]):
            return reduced, Bs


def _lll_pass(B: list, mu: list, norms: list) -> bool:
    """Reduce the rows B in place from k = 1, given their Gram-Schmidt mu and
    squared norms; True if any row changed."""
    n = len(B)
    changed = False
    k = 1
    while k < n:
        Bk, muk = B[k], mu[k]
        for j in range(k - 1, -1, -1):
            q = round(muk[j])
            if q != 0:
                Bk = B[k] = [x - q * y for x, y in zip(Bk, B[j])]
                muj = mu[j]
                for i in range(j):
                    muk[i] -= q * muj[i]
                muk[j] -= q
                changed = True
        m = muk[k - 1]
        if norms[k] >= (DELTA - m ** 2) * norms[k - 1]:
            k += 1
            continue
        # swap rows k - 1 and k: only mu's rows and columns k - 1, k and the
        # two norms change
        changed = True
        B[k - 1], B[k] = Bk, B[k - 1]
        mu[k - 1][:k - 1], muk[:k - 1] = muk[:k - 1], mu[k - 1][:k - 1]
        norm = norms[k] + m * m * norms[k - 1]
        muk[k - 1] = m * norms[k - 1] / norm
        norms[k] = norms[k - 1] * norms[k] / norm
        norms[k - 1] = norm
        for i in range(k + 1, n):
            mui = mu[i]
            t = mui[k]
            mui[k] = mui[k - 1] - m * t
            mui[k - 1] = t + muk[k - 1] * mui[k]
        k = max(k - 1, 1)
    return changed


def babai_nearest(B: np.ndarray, Bs: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Nearest-plane rounding of target onto the lattice spanned by the rows of B.

    Bs is the Gram-Schmidt basis B* of B.  Works best on an LLL-reduced basis;
    returns the lattice vector.
    """
    w = np.asarray(target, dtype=float).copy()
    for i in range(B.shape[0] - 1, -1, -1):
        c = round((w @ Bs[i]) / (Bs[i] @ Bs[i]))
        w -= c * B[i]
    return np.asarray(target, dtype=float) - w


def box_offsets(B: np.ndarray, radius: int) -> np.ndarray:
    """The combinations c_1 B[1] + ... + c_{n-1} B[n-1], |c_i| <= radius, one row each.

    Rows come in ``itertools.product`` order of (c_1, ..., c_{n-1}), c_1
    slowest.  Each row is the sum over i in increasing order, built by
    broadcasting one basis row at a time, so it needs no index matrix.  Pass
    a column slice of B (``B[:, :k]``) to build those coordinates alone.
    """
    side = np.arange(-radius, radius + 1, dtype=float)[:, None]
    acc = np.zeros((1, B.shape[1]))
    for row in B[1:]:
        acc = (acc[:, None, :] + side * row).reshape(-1, B.shape[1])
    return acc


def enumerate_near(B: np.ndarray, Bs: np.ndarray, target: np.ndarray, radius: int,
                   offsets: np.ndarray):
    """Yield the lattice vectors v0 + c B, |c_i| <= radius, as one array slab per c_0.

    v0 is the Babai vector of target (Bs is the B* of B); the box covers
    (2 radius + 1)^n candidates, so keep radius small.  The stream is lazy and
    holds 2 radius + 1 slabs, one per c_0 from -radius to radius: slab c_0 is
    the ((2 radius + 1)^(n-1), k) array of the vectors with that first
    offset.  Concatenated, the slab rows come in ``itertools.product`` order
    of the offsets (c_0 slowest).  ``offsets`` is ``box_offsets`` of B, or of
    its first k columns to stream those coordinates alone; it depends on the
    basis only, so a caller that enumerates around many targets builds it once.
    """
    v0 = babai_nearest(B, Bs, target)
    k = offsets.shape[1]
    for c0 in range(-radius, radius + 1):
        yield (v0[:k] + c0 * B[0, :k]) + offsets


def integer_relation(values) -> tuple[int, ...] | None:
    """The LLL-reduced row c of [e_i | S v_i / max|v|] of least |c|_1 that is a
    witness, last nonzero entry positive; None if no row is (always for n < 2).

    A witness has 0 < |c|_inf <= K(n), the largest K with (2K + 1)^n <= 1e10
    (n = 2: 49 999; 4: 157; 7: 12; 13: 2), and an exact |sum c_i v_i| <=
    8 |c|_1 u max|v| (u = 2^-53), the rounding a true relation among real
    lengths leaves in doubles within 8 u max|v| of them.  Without a relation
    one vector passes with probability about 16u, the box about 16u 1e10 ~ 2e-5.
    S = 1e12 keeps a relation's row near |c|_2 long, below the S^(1/n)
    (Minkowski) of the other rows, so LLL keeps it.  Above n = 20 even K = 1
    overfills the box; K stays 1 and the spurious chance grows as 16u 3^n, to
    the safe side.  math.fsum, within 2u |c|_1 max|v| of the exact sum,
    screens each row at twice the bound before the exact Fraction sum.

    The answer depends on the float values alone, so it is kept for the last
    RELATIONS_HELD value tuples and a repeated length set is tested once.
    """
    return _integer_relation(tuple(float(x) for x in values))


@lru_cache(maxsize=RELATIONS_HELD)
def _integer_relation(v: tuple[float, ...]) -> tuple[int, ...] | None:
    n = len(v)
    if n < 2:
        return None
    top = max(map(abs, v))
    K = (round(_RELATION_BOX ** (1.0 / n)) - 1) // 2
    K = max(1, K - ((2 * K + 1) ** n > _RELATION_BOX))
    tol = 8.0 * 2.0 ** -53 * top  # exact: a power of two times top
    rows = lll_reduce(np.hstack([np.eye(n), (_RELATION_SCALE / top) * np.array(v)[:, None]]))[0]
    for c in sorted(([int(x) for x in row[:n]] for row in rows.tolist()),
                    key=lambda c: sum(map(abs, c))):
        size = sum(map(abs, c))
        if (0 < max(map(abs, c)) <= K
                and abs(math.fsum(ci * x for ci, x in zip(c, v))) <= 2.0 * tol * size
                and abs(sum(ci * Fraction(x) for ci, x in zip(c, v))) <= Fraction(tol) * size):
            return tuple(c if [ci for ci in c if ci][-1] > 0 else [-ci for ci in c])
    return None
