"""Small dense lattice routines: LLL reduction, Babai rounding, box enumeration.

Dimensions here are tiny (one row per graph edge), so the bases stay dense
numpy arrays.  LLL keeps its Gram-Schmidt data across size reductions: a size
reduction leaves B* unchanged and updates one row of mu in place (Cohen, A
Course in Computational Algebraic Number Theory, Alg. 2.6.3); only a swap
recomputes the orthogonalization.  Box enumeration streams the box as array
slabs, one per value of the first offset, so a consumer pays one Python step
per slab instead of one per vector.
"""

from __future__ import annotations

import numpy as np


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


def lll_reduce(B: np.ndarray, delta: float = 0.99) -> np.ndarray:
    """Lenstra-Lenstra-Lovasz reduction of the row basis B."""
    B = np.array(B, dtype=float)
    n = B.shape[0]
    Bs, mu = gram_schmidt(B)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                B[k] -= q * B[j]
                mu[k, :j] -= q * mu[j, :j]
                mu[k, j] -= q
        if Bs[k] @ Bs[k] >= (delta - mu[k, k - 1] ** 2) * (Bs[k - 1] @ Bs[k - 1]):
            k += 1
        else:
            B[[k - 1, k]] = B[[k, k - 1]]
            Bs, mu = gram_schmidt(B)
            k = max(k - 1, 1)
    return B


def babai_nearest(B: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Nearest-plane rounding of target onto the lattice spanned by the rows of B.

    Works best on an LLL-reduced basis; returns the lattice vector.
    """
    Bs, _ = gram_schmidt(B)
    w = np.asarray(target, dtype=float).copy()
    for i in range(B.shape[0] - 1, -1, -1):
        c = round((w @ Bs[i]) / (Bs[i] @ Bs[i]))
        w -= c * B[i]
    return np.asarray(target, dtype=float) - w


def enumerate_near(B: np.ndarray, target: np.ndarray, radius: int):
    """Yield the lattice vectors v0 + c B, |c_i| <= radius, as one array slab per c_0.

    v0 is the Babai vector; the box covers (2 radius + 1)^n candidates, so keep
    radius small.  The stream is lazy and holds 2 radius + 1 slabs, one per
    c_0 from -radius to radius: slab c_0 is the ((2 radius + 1)^(n-1), n)
    array of the vectors with that first offset.  Concatenated, the slab rows
    come in ``itertools.product`` order of the offsets (c_0 slowest).  The
    offsets of the remaining coordinates come from ``np.indices``, and their
    combination with B[1:] is a single matmul shared by every slab.
    """
    v0 = babai_nearest(B, target)
    n = B.shape[0]
    side = 2 * radius + 1
    rest = np.indices((side,) * (n - 1)).reshape(n - 1, side ** (n - 1)).T - radius
    tail = rest.astype(float) @ B[1:]
    for c0 in range(-radius, radius + 1):
        yield (v0 + c0 * B[0]) + tail
