"""Metric-graph data model and combinatorial derivations.

A metric graph is a simple connected graph with a positive length per edge and
a non-empty set of *outer* vertices; the remaining *inner* vertices carry
continuity + Kirchhoff conditions.  Validation fixes a canonical vertex order
(outer vertices first, connected components of each induced subgraph numbered
consecutively) so that block decompositions of assembled matrices are
positional.

The reduced graph joins two outer vertices whenever they share a direct edge
or a path whose interior vertices are all inner.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    Disconnected,
    EmptyOuterSet,
    GraphValidationError,
    NonPositiveLength,
    NotSimple,
)

VertexId = str | int

# distinct graph files load_graph keeps validated, least recently used dropped
# first; a search pass reads 17
LOADED_GRAPHS_HELD = 64

_SQRT_EXPR = re.compile(
    r"^\s*(?:(?P<a>\d+(?:\s*/\s*\d+)?)\s*\*\s*)?sqrt\(\s*(?P<p>\d+)\s*\)\s*$"
)


def parse_surd(expr: str) -> tuple[Fraction, int]:
    """Parse ``"a*sqrt(p)"`` (a rational, p positive integer) to the exact pair (a, p).

    ``"sqrt(17)"`` and ``"3/2*sqrt(5)"`` are both accepted.
    """
    m = _SQRT_EXPR.match(expr)
    if m is None:
        raise ValueError(f"length_expr {expr!r} is not of the form a*sqrt(p)")
    a = Fraction(m.group("a").replace(" ", "")) if m.group("a") else Fraction(1)
    p = int(m.group("p"))
    if p <= 0 or a <= 0:
        raise ValueError(f"length_expr {expr!r} must be strictly positive")
    return a, p


def parse_length_expr(expr: str) -> float:
    """Value of a ``length_expr`` (see `parse_surd`) as a float."""
    a, p = parse_surd(expr)
    return float(a) * math.sqrt(p)


@dataclass(frozen=True)
class Edge:
    """Unordered vertex pair with a positive length; ``expr`` is optional provenance."""

    u: VertexId
    v: VertexId
    length: float
    expr: str | None = None

    @property
    def pair(self) -> frozenset:
        return frozenset((self.u, self.v))


@dataclass(frozen=True)
class MetricGraph:
    vertices: tuple[VertexId, ...]
    edges: tuple[Edge, ...]
    outer: tuple[VertexId, ...]

    @property
    def inner(self) -> tuple[VertexId, ...]:
        outer = set(self.outer)
        return tuple(v for v in self.vertices if v not in outer)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_outer(self) -> int:
        return len(self.outer)

    @cached_property
    def _index(self) -> dict[VertexId, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def index(self, v: VertexId) -> int:
        return self._index[v]

    @cached_property
    def edge_indices(self) -> tuple[tuple[int, int], ...]:
        """Edge endpoints as dense vertex indices, in edge order."""
        return tuple((self._index[e.u], self._index[e.v]) for e in self.edges)

    @cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """(joins, slots), read-only: joins[u, v] is 1 + e for the edge e between u
        and v, 0 for none; row u of slots lists 1 + e for each edge e at u, in
        edge order, after a leading 0 and padded with 0 (0 picks a zero column)."""
        n = self.n_vertices
        joins = np.zeros((n, n), dtype=np.intp)
        at: list[list[int]] = [[0] for _ in range(n)]
        for e, (u, v) in enumerate(self.edge_indices):
            joins[u, v] = joins[v, u] = 1 + e
            at[u].append(1 + e)
            at[v].append(1 + e)
        depth = max(map(len, at))
        slots = np.array([a + [0] * (depth - len(a)) for a in at], dtype=np.intp)
        joins.flags.writeable = slots.flags.writeable = False
        return joins, slots

    @cached_property
    def lengths(self) -> tuple[float, ...]:
        return tuple(e.length for e in self.edges)

    @cached_property
    def lengths_array(self) -> np.ndarray:
        """The edge lengths as one read-only float array, in edge order."""
        L = np.array(self.lengths)
        L.flags.writeable = False
        return L

    def with_outer(self, outer: Sequence[VertexId]) -> "MetricGraph":
        """Same metric graph with a different outer set, revalidated."""
        return validate(graph_to_json(self) | {"outer": list(outer)})


@dataclass(frozen=True)
class ReducedEdge:
    u: VertexId
    v: VertexId
    kind: str  # "direct" | "through-inner" | "both"

    @property
    def pair(self) -> frozenset:
        return frozenset((self.u, self.v))


@dataclass(frozen=True)
class ReducedGraph:
    vertices: tuple[VertexId, ...]
    edges: tuple[ReducedEdge, ...]

    @cached_property
    def _index(self) -> dict[VertexId, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_indices(self) -> tuple[tuple[int, int], ...]:
        return tuple((self._index[e.u], self._index[e.v]) for e in self.edges)


def _adjacency(vertices: Iterable[VertexId], edges: Iterable[Edge | ReducedEdge]) -> dict[VertexId, set]:
    """Neighbor sets of the undirected graph with these vertices and edges."""
    adjacency: dict[VertexId, set] = {v: set() for v in vertices}
    for e in edges:
        adjacency[e.u].add(e.v)
        adjacency[e.v].add(e.u)
    return adjacency


def _components(vertex_list: Sequence[VertexId], adjacency: Mapping[VertexId, set]) -> list[list[VertexId]]:
    """Connected components restricted to ``vertex_list``, in order of first appearance."""
    allowed = set(vertex_list)
    seen: set[VertexId] = set()
    comps: list[list[VertexId]] = []
    for start in vertex_list:
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adjacency.get(v, ()):
                if w in allowed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        # keep input order inside the component for deterministic numbering
        comp_set = set(comp)
        comps.append([v for v in vertex_list if v in comp_set])
    return comps


def _check_id(v: object) -> VertexId:
    """v itself when it can name a vertex (a string or an integer), else GraphValidationError."""
    if isinstance(v, str) or (isinstance(v, numbers.Integral) and not isinstance(v, bool)):
        return v
    raise GraphValidationError(f"vertex id {v!r} is not a string or an integer")


def validate(raw: Mapping | MetricGraph) -> MetricGraph:
    """Check all graph invariants and return the graph in canonical vertex order.

    raises NotSimple, Disconnected, NonPositiveLength, EmptyOuterSet.
    """
    if isinstance(raw, MetricGraph):
        raw = graph_to_json(raw)

    if not isinstance(raw, Mapping):
        raise GraphValidationError("graph description must be a JSON object")
    if not isinstance(raw.get("vertices"), (list, tuple)):
        raise GraphValidationError("graph description needs a vertices list")
    for key in ("edges", "outer"):
        if not isinstance(raw.get(key, []), (list, tuple)):
            raise GraphValidationError(f"graph description's {key} must be a list")

    vertices = list(raw["vertices"])
    for v in vertices:
        _check_id(v)
    if len(set(vertices)) != len(vertices):
        dup = next(v for v in vertices if vertices.count(v) > 1)
        raise NotSimple(dup)
    vertex_set = set(vertices)

    edges: list[Edge] = []
    seen_pairs: set[frozenset] = set()
    for item in raw.get("edges", []):
        if not isinstance(item, Mapping) or "u" not in item or "v" not in item:
            raise GraphValidationError(
                "each edge must be an object with keys u, v and length or length_expr"
            )
        u, v = _check_id(item["u"]), _check_id(item["v"])
        if u not in vertex_set or v not in vertex_set:
            raise Disconnected(u if u not in vertex_set else v)
        if u == v:
            raise NotSimple((u, v))
        pair = frozenset((u, v))
        if pair in seen_pairs:
            raise NotSimple((u, v))
        seen_pairs.add(pair)
        expr = item.get("length_expr")
        if expr is None and "length" not in item:
            raise GraphValidationError(f"edge {(u, v)!r} has no length or length_expr")
        value = expr if expr is not None else item["length"]
        # JSON true is a bool, which Python counts as the integer 1
        if expr is None and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise GraphValidationError(f"edge {(u, v)!r} has a length that is not a number: "
                                       f"{value!r}")
        try:
            length = parse_length_expr(expr) if expr is not None else float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphValidationError(
                f"edge {(u, v)!r} has an unusable length value {value!r}: {exc}"
            ) from None
        if not (math.isfinite(length) and length > 0):
            raise NonPositiveLength((u, v), length)
        edges.append(Edge(u, v, length, expr))

    outer = list(raw.get("outer", []))
    if not outer:
        raise EmptyOuterSet()
    for v in outer:
        if _check_id(v) not in vertex_set:
            raise Disconnected(v)
    if len(set(outer)) != len(outer):
        raise NotSimple(next(v for v in outer if outer.count(v) > 1))

    adjacency = _adjacency(vertices, edges)
    comps = _components(vertices, adjacency)
    if len(comps) > 1:
        raise Disconnected(comps[1][0])

    # canonical order: outer first, then inner; each side grouped by connected
    # components of its induced subgraph, components in order of first appearance
    outer_set = set(outer)
    inner = [v for v in vertices if v not in outer_set]
    ordered_outer = [v for comp in _components(outer, adjacency) for v in comp]
    ordered_inner = [v for comp in _components(inner, adjacency) for v in comp]
    order = tuple(ordered_outer + ordered_inner)

    return MetricGraph(vertices=order, edges=tuple(edges), outer=tuple(ordered_outer))


def load_graph(spec: str) -> MetricGraph:
    """The catalog graph for ``catalog:NAME``, else the validated JSON file at spec.

    The file is read on every call.  Equal text gives the one graph validated
    from it while it is among the last LOADED_GRAPHS_HELD distinct texts, so
    the arrays it derives on first use (incidence, lengths_array) carry over to
    the next load; text that fails to validate raises again on every call.
    """
    if spec.startswith("catalog:"):
        from .catalog import catalog  # catalog builds its graphs with this module
        return catalog(spec.split(":", 1)[1])
    with open(spec, "r", encoding="utf-8") as f:
        return _validated(f.read())


@lru_cache(maxsize=LOADED_GRAPHS_HELD)
def _validated(text: str) -> MetricGraph:
    return validate(json.loads(text))


def graph_to_json(g: MetricGraph) -> dict:
    """JSON-serializable description (inverse of :func:`load_graph` up to ordering)."""
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"u": e.u, "v": e.v, "length": e.length}
            | ({"length_expr": e.expr} if e.expr else {})
            for e in g.edges
        ],
        "outer": list(g.outer),
    }


def reduced_graph(g: MetricGraph) -> ReducedGraph:
    """Connectivity of the outer vertices: direct edges plus paths through inner vertices.

    Two outer vertices are joined through the inside exactly when both have a
    neighbor in the same connected component of the inner-induced subgraph.
    A pair joined both ways carries kind "both" but counts as a single edge.
    """
    outer_set = set(g.outer)
    adjacency = _adjacency(g.vertices, g.edges)
    direct: set[frozenset] = {
        e.pair for e in g.edges if e.u in outer_set and e.v in outer_set
    }

    through: set[frozenset] = set()
    for comp in _components(g.inner, adjacency):
        comp_set = set(comp)
        attached = [v for v in g.outer if adjacency[v] & comp_set]
        for i, u in enumerate(attached):
            for w in attached[i + 1:]:
                through.add(frozenset((u, w)))

    edges = []
    for u_i, u in enumerate(g.outer):
        for w in g.outer[u_i + 1:]:
            pair = frozenset((u, w))
            if pair in direct and pair in through:
                edges.append(ReducedEdge(u, w, "both"))
            elif pair in direct:
                edges.append(ReducedEdge(u, w, "direct"))
            elif pair in through:
                edges.append(ReducedEdge(u, w, "through-inner"))
    return ReducedGraph(vertices=g.outer, edges=tuple(edges))


def is_tree(r: ReducedGraph) -> bool:
    """For connected graphs: tree iff the edge count is one less than the vertex count."""
    return len(r.edges) == len(r.vertices) - 1


def is_connected(vertices: Sequence[VertexId], edges: Iterable[Edge | ReducedEdge]) -> bool:
    """Whether the graph with these vertices and edges is connected."""
    return len(_components(vertices, _adjacency(vertices, edges))) == 1


def graph_laplacian(g: MetricGraph | ReducedGraph) -> np.ndarray:
    """A_G - D_G in exact integer arithmetic: +1 off-diagonal on edges, -degree diagonal.

    Row and column sums are exactly zero.
    """
    n = len(g.vertices)
    lap = np.zeros((n, n), dtype=np.int64)
    for i, j in g.edge_indices:
        lap[i, j] += 1
        lap[j, i] += 1
        lap[i, i] -= 1
        lap[j, j] -= 1
    return lap


def adjacency_pattern(r: ReducedGraph) -> np.ndarray:
    """Support mask of matrices on r: True on the diagonal and on both positions of each edge."""
    return (graph_laplacian(r) != 0) | np.eye(len(r.vertices), dtype=bool)
