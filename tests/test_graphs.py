"""Graph validation, canonical ordering, and reduced-graph structure."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtnpos import (
    adjacency_pattern,
    catalog,
    catalog_names,
    graph_laplacian,
    is_tree,
    load_graph,
    reduced_graph,
    validate,
)
from dtnpos.errors import (
    Disconnected,
    EmptyOuterSet,
    GraphValidationError,
    NonPositiveLength,
    NotSimple,
)
from dtnpos.graphs import (
    LOADED_GRAPHS_HELD,
    _validated,
    graph_to_json,
    is_connected,
    parse_length_expr,
)


def _raw(vertices, edges, outer):
    return {
        "vertices": list(vertices),
        "edges": [{"u": u, "v": v, "length": L} for u, v, L in edges],
        "outer": list(outer),
    }


@pytest.mark.parametrize(
    "expr,value",
    [
        ("sqrt(17)", math.sqrt(17)),
        ("3*sqrt(2)", 3 * math.sqrt(2)),
        ("1/2*sqrt(5)", 0.5 * math.sqrt(5)),
        ("sqrt(1)", 1.0),
    ],
)
def test_parse_length_expr(expr, value):
    assert parse_length_expr(expr) == pytest.approx(value, rel=0, abs=0)


@pytest.mark.parametrize("expr", ["2*pi", "sqrt(-3)", "sqrt()", "x*sqrt(2)", ""])
def test_parse_length_expr_rejects(expr):
    with pytest.raises(ValueError):
        parse_length_expr(expr)


class TestValidate:
    def test_duplicate_vertex(self):
        with pytest.raises(NotSimple):
            validate(_raw(["a", "a", "b"], [("a", "b", 1.0)], ["a"]))

    def test_self_loop(self):
        with pytest.raises(NotSimple):
            validate(_raw(["a", "b"], [("a", "a", 1.0), ("a", "b", 1.0)], ["a"]))

    def test_parallel_edge(self):
        with pytest.raises(NotSimple):
            validate(_raw(["a", "b"], [("a", "b", 1.0), ("b", "a", 2.0)], ["a"]))

    def test_duplicate_outer(self):
        with pytest.raises(NotSimple):
            validate(_raw(["a", "b"], [("a", "b", 1.0)], ["a", "a"]))

    def test_unknown_endpoint(self):
        with pytest.raises(Disconnected):
            validate(_raw(["a", "b"], [("a", "c", 1.0)], ["a"]))

    def test_unknown_outer(self):
        with pytest.raises(Disconnected):
            validate(_raw(["a", "b"], [("a", "b", 1.0)], ["c"]))

    def test_two_components(self):
        with pytest.raises(Disconnected):
            validate(
                _raw(["a", "b", "c", "d"], [("a", "b", 1.0), ("c", "d", 1.0)], ["a"])
            )

    def test_nonpositive_length(self):
        with pytest.raises(NonPositiveLength):
            validate(_raw(["a", "b"], [("a", "b", 0.0)], ["a"]))
        with pytest.raises(NonPositiveLength):
            validate(_raw(["a", "b"], [("a", "b", -2.0)], ["a"]))

    def test_empty_outer(self):
        with pytest.raises(EmptyOuterSet):
            validate(_raw(["a", "b"], [("a", "b", 1.0)], []))

    @pytest.mark.parametrize(
        "raw",
        [
            ["a", "b"],
            {"edges": [], "outer": ["a"]},
            {"vertices": "ab", "edges": [], "outer": ["a"]},
            {"vertices": ["a", "b"], "edges": [["a", "b", 1.0]], "outer": ["a"]},
            {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}], "outer": ["a"]},
            {
                "vertices": ["a", "b"],
                "edges": [{"u": "a", "v": "b", "length": [1.0]}],
                "outer": ["a"],
            },
        ],
        ids=["list", "no-vertices", "string-vertices", "triple", "no-length", "list-length"],
    )
    def test_malformed_description(self, raw):
        # schema violations must surface as validation errors, not TypeError
        with pytest.raises(GraphValidationError):
            validate(raw)

    @pytest.mark.parametrize(
        "raw,named",
        [
            ({"vertices": [[1], [2]], "edges": [], "outer": [[1]]}, "vertex id [1]"),
            ({"vertices": [True, "b"], "edges": [], "outer": ["b"]}, "vertex id True"),
            (_raw(["a", "b"], [({"x": 1}, "b", 1.0)], ["a"]), "vertex id {'x': 1}"),
            (_raw(["a", "b"], [("a", "b", 1.0)], [["a"]]), "vertex id ['a']"),
            (_raw(["a", "b"], [("a", "b", True)], ["a"]), "edge ('a', 'b')"),
            (_raw(["a", "b"], [("a", "b", "abc")], ["a"]), "edge ('a', 'b')"),
            (_raw(["a", "b"], [("a", "b", "1.5")], ["a"]), "edge ('a', 'b')"),
            (_raw(["a", "b"], [("a", "b", 10 ** 400)], ["a"]), "edge ('a', 'b')"),
            ({"vertices": ["a", "b"], "edges": 5, "outer": ["a"]}, "edges"),
            ({"vertices": ["a", "b"], "edges": [], "outer": "ab"}, "outer"),
        ],
        ids=["list-vertex", "bool-vertex", "object-endpoint", "list-outer", "bool-length",
             "word-length", "numeral-length", "huge-length", "number-edges", "string-outer"],
    )
    def test_refuses_what_json_allows_by_name(self, raw, named):
        # JSON values that cannot be vertex ids, lists or lengths: each is a
        # GraphValidationError naming the vertex or edge, not a TypeError, a
        # bare conversion error or an accepted graph
        with pytest.raises(GraphValidationError) as info:
            validate(raw)
        assert named in str(info.value)

    def test_length_expr_wins_over_nothing(self):
        g = validate(
            {
                "vertices": ["a", "b"],
                "edges": [{"u": "a", "v": "b", "length_expr": "sqrt(2)"}],
                "outer": ["a"],
            }
        )
        assert g.edges[0].length == pytest.approx(math.sqrt(2), rel=0, abs=0)


def test_canonical_order_outer_first():
    # input lists the inner vertex first; canonical order moves it behind
    g = validate(_raw(["m", "a", "b"], [("a", "m", 1.0), ("m", "b", 1.0)], ["b", "a"]))
    assert g.vertices == ("b", "a", "m")
    assert g.outer == ("b", "a")
    assert g.inner == ("m",)


def test_canonical_order_groups_components():
    # outer components {v1,v2} and {v6,v7} are separated by inner vertices in
    # the input; grouping must keep each component contiguous
    g = catalog("two-cluster")
    assert g.vertices == tuple("v%d" % i for i in range(1, 13))
    assert g.inner == ("v8", "v9", "v10", "v11", "v12")


def test_validate_idempotent(path3):
    again = validate(path3)
    assert again.vertices == path3.vertices
    assert again.outer == path3.outer
    assert [e.pair for e in again.edges] == [e.pair for e in path3.edges]


def test_with_outer_revalidates(path3):
    flipped = path3.with_outer(["v3"])
    assert flipped.outer == ("v3",)
    assert set(flipped.inner) == {"v1", "v2"}
    with pytest.raises(EmptyOuterSet):
        path3.with_outer([])


def test_incidence_is_read_only(lasso):
    # edges (v1, v4), (v2, v4), (v3, v4), (v2, v3): joins holds 1 + e, slots
    # the edges at each vertex in edge order after a leading 0, padded with 0
    joins, slots = lasso.incidence
    assert joins.tolist() == [[0, 0, 0, 1], [0, 0, 4, 2], [0, 4, 0, 3], [1, 2, 3, 0]]
    assert slots.tolist() == [[0, 1, 0, 0], [0, 2, 4, 0], [0, 3, 4, 0], [0, 1, 2, 3]]
    for a in (joins, slots):
        with pytest.raises(ValueError):
            a[0, 0] = 1
    assert lasso.incidence is lasso.incidence
    # the lengths array beside it: the lengths in edge order, read-only, derived once
    L = lasso.lengths_array
    assert L.dtype == float and L.tolist() == list(lasso.lengths)
    with pytest.raises(ValueError):
        L[0] = 1.0
    assert lasso.lengths_array is L


def test_load_graph_roundtrip(tmp_path, lasso):
    p = tmp_path / "g.json"
    import json

    p.write_text(json.dumps(graph_to_json(lasso)))
    g = load_graph(str(p))
    assert g.vertices == lasso.vertices
    assert g.lengths == lasso.lengths


def test_load_graph_resolves_catalog_names():
    assert load_graph("catalog:lasso-4") == catalog("lasso-4")
    with pytest.raises(KeyError, match="unknown catalog graph 'nope'"):
        load_graph("catalog:nope")


def test_load_graph_shares_one_graph_per_text(tmp_path, lasso):
    # keyed on the text, not the path: a second file with the same text gets
    # the same object, with its incidence already derived
    p, q = tmp_path / "g.json", tmp_path / "h.json"
    p.write_text(json.dumps(graph_to_json(lasso)))
    q.write_text(p.read_text())
    g = load_graph(str(p))
    joins, slots = g.incidence
    again = load_graph(str(q))
    assert again is g and again.incidence[0] is joins and again.incidence[1] is slots
    # a rewritten file is read and validated again
    p.write_text(json.dumps(graph_to_json(lasso.with_outer(["v1"]))))
    changed = load_graph(str(p))
    assert changed is not g and changed.outer == ("v1",)
    assert load_graph(str(q)) is g
    # one graph per catalog name
    assert load_graph("catalog:lasso-4") is load_graph("catalog:lasso-4") is catalog("lasso-4")


def test_load_graph_keeps_no_failure(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"vertices": [[1], [2]], "edges": [], "outer": [[1]]}))
    held = _validated.cache_info().currsize
    for _ in range(3):
        with pytest.raises(GraphValidationError, match=r"vertex id \[1\]"):
            load_graph(str(p))
    assert _validated.cache_info().currsize == held


def test_loaded_graphs_are_bounded():
    # more than the 17 files of a search pass, and finite
    assert _validated.cache_info().maxsize == LOADED_GRAPHS_HELD
    assert 17 < LOADED_GRAPHS_HELD < math.inf


REDUCED_EXPECT = {
    "path-3": ([("v1", "v2", "direct")], True),
    "braid-5": ([("v1", "v2", "both"), ("v2", "v3", "direct")], True),
    "lasso-4": (
        [
            ("v1", "v2", "through-inner"),
            ("v1", "v3", "through-inner"),
            ("v2", "v3", "both"),
        ],
        False,
    ),
    "two-cluster": (
        [
            ("v1", "v2", "both"),
            ("v1", "v3", "through-inner"),
            ("v2", "v3", "through-inner"),
            ("v3", "v4", "direct"),
            ("v4", "v5", "both"),
            ("v4", "v6", "through-inner"),
            ("v5", "v6", "through-inner"),
            ("v6", "v7", "direct"),
        ],
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(REDUCED_EXPECT))
def test_reduced_graph_frozen(name):
    edges, tree = REDUCED_EXPECT[name]
    r = reduced_graph(catalog(name))
    assert [(e.u, e.v, e.kind) for e in r.edges] == edges
    assert is_tree(r) == tree


def test_star_reduces_to_complete_graph(star5):
    r = reduced_graph(star5)
    assert len(r.edges) == 5 * 4 // 2
    assert all(e.kind == "through-inner" for e in r.edges)


def test_adjacency_pattern(braid):
    pat = adjacency_pattern(reduced_graph(braid))
    assert pat[0, 1] and pat[1, 0]
    assert pat[1, 2]
    assert not pat[0, 2]  # v1 and v3 share no reduced edge
    assert pat[2, 2]  # diagonal always allowed


def test_graph_laplacian_interval(interval):
    L = graph_laplacian(interval)
    assert L.dtype.kind == "i"
    assert np.array_equal(L, np.array([[-1, 1], [1, -1]]))


def test_graph_laplacian_reduced(lasso):
    L = graph_laplacian(reduced_graph(lasso))
    assert np.all(L.sum(axis=1) == 0)
    assert np.array_equal(np.diag(L), [-2, -2, -2])


@st.composite
def tree_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    lengths = [draw(st.floats(min_value=0.1, max_value=5.0)) for _ in range(n - 1)]
    k = draw(st.integers(min_value=1, max_value=n))
    names = ["v%d" % i for i in range(n)]
    return _raw(
        names,
        [(names[p], names[i + 1], L) for i, (p, L) in enumerate(zip(parents, lengths))],
        names[:k],
    )


@settings(max_examples=60, deadline=None)
@given(tree_graphs())
def test_random_tree_invariants(raw):
    g = validate(raw)
    m = g.n_outer
    # outer block first, inner block second
    assert set(g.vertices[:m]) == set(g.outer)
    assert set(g.vertices[m:]) == set(g.inner)
    L = graph_laplacian(g)
    assert np.all(L.sum(axis=1) == 0)
    r = reduced_graph(g)
    assert is_connected(r.vertices, r.edges)
    # reduced vertices are exactly the outer ones, in canonical order
    assert r.vertices == g.outer


def test_catalog_names_complete():
    assert set(catalog_names()) >= {
        "interval",
        "path-3",
        "braid-5",
        "lasso-4",
        "star-5",
        "two-cluster",
    }
    with pytest.raises(KeyError):
        catalog("no-such-graph")
