import random

import pytest
from hypothesis import given, strategies as st

from oddcolor.graph import Graph, format_edge_list, norm_edge, parse_edge_list


def test_from_edge_list_basic():
    g = Graph.from_edge_list([(0, 1), (1, 2), (2, 0)])
    assert g.n == 3
    assert g.degree(0) == g.degree(1) == g.degree(2) == 2
    assert (0, 1) in g.edges
    assert g.neighbors(1) == (0, 2)


def test_from_edge_list_dedups_parallel_edges():
    g = Graph.from_edge_list([(0, 1), (1, 0), (0, 1)])
    assert len(g.edges) == 1
    assert g.degree(0) == 1


def test_loops_rejected():
    with pytest.raises(ValueError):
        Graph.from_edge_list([(2, 2)])


def test_explicit_n_allows_isolated_vertices():
    g = Graph.from_edge_list([(0, 1)], n=4)
    assert g.n == 4
    assert g.degree(3) == 0
    with pytest.raises(ValueError):
        Graph.from_edge_list([(0, 5)], n=3)


def test_components():
    g = Graph.from_edge_list([(0, 1), (2, 3)], n=5)
    comps = sorted(map(sorted, g.components()))
    assert comps == [[0, 1], [2, 3], [4]]


def _bridges_oracle(g: Graph) -> set:
    """An edge is a bridge iff deleting it increases the component count."""
    base = len(g.components())
    return {
        e for e in g.edges
        if len(Graph.from_edge_list(g.edges - {e}, n=g.n).components()) > base
    }


def test_bridges_examples():
    path = Graph.from_edge_list([(0, 1), (1, 2), (2, 3)])
    assert path.bridges() == path.edges
    cyc = Graph.from_edge_list([(0, 1), (1, 2), (2, 0)])
    assert cyc.bridges() == set()
    lollipop = Graph.from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)])
    assert lollipop.bridges() == {(2, 3)}


def test_bridges_against_deletion_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(2, 11)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edge_list(rng.sample(pool, m), n=n)
        assert g.bridges() == _bridges_oracle(g)


def test_edge_list_round_trip():
    g = Graph.from_edge_list([(0, 1), (1, 2), (3, 4)], n=6)
    assert parse_edge_list(format_edge_list(g)) == g


def test_parse_edge_list_format():
    text = "# comment\np 4 2\ne 0 1\n\ne 2 3\n"
    g = parse_edge_list(text)
    assert g.n == 4 and g.edges == frozenset({(0, 1), (2, 3)})
    with pytest.raises(ValueError):
        parse_edge_list("e 0 1\n")  # edge before problem line
    with pytest.raises(ValueError):
        parse_edge_list("p 3 2\ne 0 1\n")  # declared edge count wrong
    with pytest.raises(ValueError):
        parse_edge_list("p 3 1\nx 0 1\n")


@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(
            lambda p: p[0] != p[1]
        ),
        max_size=40,
    )
)
def test_degree_sum_is_twice_edge_count(pairs):
    g = Graph.from_edge_list(pairs) if pairs else Graph.from_edge_list([], n=1)
    assert sum(g.degree(v) for v in range(g.n)) == 2 * len(g.edges)


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
            lambda p: p[0] != p[1]
        ),
        max_size=20,
    )
)
def test_adjacency_is_symmetric(pairs):
    g = Graph.from_edge_list(pairs) if pairs else Graph.from_edge_list([], n=1)
    for u, v in g.edges:
        assert v in g.adj[u] and u in g.adj[v]
        assert norm_edge(v, u) in g.edges
