"""Named example graphs used across the tests and the command line."""

from __future__ import annotations

from functools import cache

from .graphs import MetricGraph, validate

# surd lengths keep every ratio irrational, so Kronecker searches apply
_SURDS = ["sqrt(1)", "sqrt(2)", "sqrt(3)", "sqrt(5)", "sqrt(7)"]


def _g(vertices, edges, outer) -> dict:
    return {
        "vertices": vertices,
        "edges": [
            {"u": u, "v": v, **({"length_expr": L} if isinstance(L, str) else {"length": L})}
            for u, v, L in edges
        ],
        "outer": outer,
    }


_CATALOG: dict[str, dict] = {
    # one edge of unit length, both endpoints carrying data
    "interval": _g(["v1", "v2"], [("v1", "v2", 1.0)], ["v1", "v2"]),
    # two-edge path, far endpoint interior (a Neumann tip)
    "path-3": _g(
        ["v1", "v2", "v3"],
        [("v1", "v2", 1.0), ("v2", "v3", "sqrt(17)")],
        ["v1", "v2"],
    ),
    # reduced graph is the path v3 - v2 - v1: the inner pair joins v1 and v2
    # both directly and through the inside, and there is no reduced cycle
    "braid-5": _g(
        ["v1", "v2", "v3", "v4", "v5"],
        [
            ("v1", "v2", _SURDS[0]),
            ("v2", "v3", _SURDS[1]),
            ("v1", "v4", _SURDS[2]),
            ("v2", "v4", _SURDS[3]),
            ("v4", "v5", _SURDS[4]),
        ],
        ["v1", "v2", "v3"],
    ),
    # three spokes into a center plus one chord: the reduced triangle has a cycle
    "lasso-4": _g(
        ["v1", "v2", "v3", "v4"],
        [
            ("v1", "v4", 1.0),
            ("v2", "v4", "sqrt(3)"),
            ("v3", "v4", "sqrt(5)"),
            ("v2", "v3", "sqrt(7)"),
        ],
        ["v1", "v2", "v3"],
    ),
    # five outer spokes into one inner center; reduced graph is K5, all
    # connections through the inside
    "star-5": _g(
        ["v1", "v2", "v3", "v4", "v5", "v6"],
        [("v%d" % i, "v6", _SURDS[i - 1]) for i in range(1, 6)],
        ["v1", "v2", "v3", "v4", "v5"],
    ),
    # seven outer vertices around two inner clusters, all unit lengths
    "two-cluster": _g(
        ["v%d" % i for i in range(1, 13)],
        [
            ("v1", "v2", 1.0),
            ("v1", "v8", 1.0),
            ("v2", "v8", 1.0),
            ("v8", "v9", 1.0),
            ("v9", "v10", 1.0),
            ("v9", "v3", 1.0),
            ("v3", "v4", 1.0),
            ("v4", "v5", 1.0),
            ("v5", "v11", 1.0),
            ("v11", "v12", 1.0),
            ("v4", "v11", 1.0),
            ("v12", "v6", 1.0),
            ("v6", "v7", 1.0),
        ],
        ["v%d" % i for i in range(1, 8)],
    ),
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


@cache  # one shared graph per name; an unknown name raises and is not kept
def catalog(name: str) -> MetricGraph:
    return validate(catalog_raw(name))


def catalog_raw(name: str) -> dict:
    """The JSON-shaped description, e.g. for piping to a file."""
    if name not in _CATALOG:
        raise KeyError(f"unknown catalog graph {name!r}; known: {', '.join(catalog_names())}")
    return _CATALOG[name]
