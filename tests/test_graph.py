import random

import pytest
from hypothesis import given, strategies as st

from oddcolor.graph import Graph, format_edge_list, norm_edge, parse_edge_list

from reference import bridges


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
    # the edges' order and orientation do not matter either
    edges = [(0, 1), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5)]
    shuffled = edges[:]
    random.Random(3).shuffle(shuffled)
    both_ways = [(v, u) for u, v in shuffled] + edges
    g = Graph.from_edge_list(edges, n=7)
    assert len(g.edges) == 7 and g.neighbors(4) == (0, 2, 3, 5)
    for pairs in (set(edges), shuffled, both_ways):
        assert Graph.from_edge_list(pairs, n=7) == g


def test_loops_rejected():
    with pytest.raises(ValueError):
        Graph.from_edge_list([(2, 2)])
    # a one-shot iterator too, though the first bad pair is named by a second walk
    with pytest.raises(ValueError, match=r"loop edge not allowed: \(2, 2\)"):
        Graph.from_edge_list(iter([(0, 1), (2, 2), (-1, 3)]))
    with pytest.raises(ValueError, match=r"negative vertex id in edge \(-1, 3\)"):
        Graph.from_edge_list((e for e in [(0, 1), (-1, 3), (2, 2)]))


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
        assert g.bridges() == bridges(g)


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
