"""Shared fixtures and the random graph generator used by several modules."""

import numpy as np
import pytest

from dtnpos import MetricGraph, catalog, validate
from dtnpos.graphs import graph_to_json

# distinct squarefree radicands keep any rational relation between the
# lengths trivial, so independence holds by construction
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
SCALES = (0.5, 1.0, 1.5)


def random_surd_graph(rng: np.random.Generator, n_lo: int = 4, n_hi: int = 8) -> MetricGraph:
    """Connected simple graph with pairwise irrational length ratios.

    A random spanning tree plus a few chords; every edge gets a length
    a * sqrt(p) with its own prime p, so the lengths are linearly
    independent over the rationals.
    """
    n = int(rng.integers(n_lo, n_hi + 1))
    names = ["v%d" % (i + 1) for i in range(n)]
    pairs = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        pairs.add((j, i))
    for _ in range(int(rng.integers(0, n - 1))):
        i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if len(pairs) < len(PRIMES):
            pairs.add((i, j))
    pairs = sorted(pairs)
    primes = rng.choice(PRIMES, size=len(pairs), replace=False)
    scales = rng.choice(SCALES, size=len(pairs))
    edges = [
        {"u": names[i], "v": names[j], "length": float(a) * float(p) ** 0.5}
        for (i, j), p, a in zip(pairs, primes, scales)
    ]
    n_outer = int(rng.integers(2, n + 1))
    outer = [names[int(k)] for k in rng.choice(n, size=n_outer, replace=False)]
    return validate({"vertices": names, "edges": edges, "outer": outer})


def random_quarter_graph(rng: np.random.Generator) -> MetricGraph:
    """A random graph of random_surd_graph's shape with lengths in quarters, 0.5 to 1.5."""
    raw = graph_to_json(random_surd_graph(rng))
    for e in raw["edges"]:
        e["length"] = int(rng.integers(2, 7)) / 4.0
    return validate(raw)


@pytest.fixture
def interval():
    return catalog("interval")


@pytest.fixture
def path3():
    return catalog("path-3")


@pytest.fixture
def lasso():
    return catalog("lasso-4")


@pytest.fixture
def star5():
    return catalog("star-5")


@pytest.fixture
def braid():
    return catalog("braid-5")


@pytest.fixture
def two_cluster():
    return catalog("two-cluster")
