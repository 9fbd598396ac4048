import contextlib
import io
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from oddcolor import cli
from oddcolor.graph import Graph
from oddcolor.coloring import (
    Coloring,
    SearchBudgetExceeded,
    color_by_reduction,
    exact_odd_chromatic_number,
    extend_at_vertex,
    find_odd_coloring,
    format_coloring,
    parse_coloring,
    verify_odd_coloring,
    _bridge_colors,
    _exchange,
    _valid_near,
)
from oddcolor.embedding import drawing_to_json
from oddcolor.generators import (
    complete_minus_edge,
    cycle,
    random_one_planar,
    subdivided_complete,
)

from conftest import plane_c5_drawing


# ---------------------------------------------------------------------------
# verification semantics


def test_verify_rainbow_c5_is_valid():
    g = cycle(5)
    c = Coloring.of(g, {v: v + 1 for v in range(5)}, k=5)
    assert verify_odd_coloring(g, c).valid


def test_verify_c4_alternating_fails_odd_condition():
    g = cycle(4)
    c = Coloring.of(g, {0: 1, 1: 2, 2: 1, 3: 2}, k=2)
    rep = verify_odd_coloring(g, c)
    assert not rep.proper_violations
    assert rep.odd_violations == frozenset({0, 1, 2, 3})
    assert not rep.valid


def test_verify_flags_proper_violations():
    g = Graph.from_edge_list([(0, 1)])
    c = Coloring.of(g, {0: 1, 1: 1}, k=2)
    rep = verify_odd_coloring(g, c)
    assert rep.proper_violations == frozenset({(0, 1)})


def test_verify_k2_two_colors_valid():
    g = Graph.from_edge_list([(0, 1)])
    c = Coloring.of(g, {0: 1, 1: 2}, k=2)
    assert verify_odd_coloring(g, c).valid


def test_isolated_vertices_exempt_and_uncolored_reported():
    g = Graph.from_edge_list([(0, 1)], n=3)
    c = Coloring.of(g, {0: 1, 1: 2}, k=2)
    rep = verify_odd_coloring(g, c)
    assert rep.uncolored == frozenset({2})
    assert not rep.valid  # uncolored vertex blocks validity
    full = Coloring.of(g, {0: 1, 1: 2, 2: 1}, k=2)
    assert verify_odd_coloring(g, full).valid  # isolated vertex: any color


# ---------------------------------------------------------------------------
# exact search


def test_exact_small_values():
    assert exact_odd_chromatic_number(cycle(5), 6)[0] == 5
    assert exact_odd_chromatic_number(cycle(4), 6)[0] == 4
    assert exact_odd_chromatic_number(complete_minus_edge(4), 6)[0] == 3


def test_exact_returns_verified_witness():
    # cycles need 3 colors when the length divides by 3, else 4 (C5 aside)
    k6, c6 = exact_odd_chromatic_number(cycle(6), 7)
    assert k6 == 3 and verify_odd_coloring(cycle(6), c6).valid
    k7, c7 = exact_odd_chromatic_number(cycle(7), 7)
    assert k7 == 4 and verify_odd_coloring(cycle(7), c7).valid


def test_exact_exceeds_kmax():
    assert exact_odd_chromatic_number(cycle(5), 4) == (None, None)


def test_subdivided_k4_needs_exactly_four_colors():
    # pinned by an oracle below (test_subdivided_k4_oracle)
    g = subdivided_complete(4)
    k, c = exact_odd_chromatic_number(g, 6)
    assert k == 4
    assert verify_odd_coloring(g, c).valid


def _oracle_check(g: Graph, assign: tuple[int, ...]) -> bool:
    """Definition-level validity check, independent of the verifier class."""
    for u, v in g.edges:
        if assign[u] == assign[v]:
            return False
    for v in range(g.n):
        if not g.adj[v]:
            continue
        counts = {}
        for u in g.adj[v]:
            counts[assign[u]] = counts.get(assign[u], 0) + 1
        if not any(cnt % 2 for cnt in counts.values()):
            return False
    return True


def test_subdivided_k4_oracle():
    g = subdivided_complete(4)
    # no odd 3-coloring exists: exhaustive over all 3^10 assignments
    assert not any(
        _oracle_check(g, assign)
        for assign in itertools.product((1, 2, 3), repeat=g.n)
    )
    # an explicit hand-built 4-coloring is valid
    hand = Coloring.of(
        g, {0: 1, 1: 2, 2: 3, 3: 4, 4: 3, 5: 2, 6: 2, 7: 4, 8: 3, 9: 1}, k=4
    )
    assert verify_odd_coloring(g, hand).valid


def test_search_budget():
    # coloring 7 vertices takes at least 7 search nodes
    with pytest.raises(SearchBudgetExceeded):
        find_odd_coloring(cycle(7), 4, max_nodes=3)


def test_isolated_vertices_take_color_one_without_search():
    # one search frame per vertex would pass the default recursion limit
    g = Graph.from_edge_list([(0, 1), (1, 2), (0, 2)], n=1203)
    c = find_odd_coloring(g, 3, max_nodes=3)  # the triangle alone takes 3 nodes
    assert c is not None and verify_odd_coloring(g, c).valid
    assert [c.assign[v] for v in range(3)] == [1, 2, 3]
    assert all(c.assign[v] == 1 for v in range(3, g.n))


def test_branch_vertices_must_get_distinct_colors():
    """Two equal-colored branch vertices starve their middle vertex."""
    g = subdivided_complete(7)
    rng = random.Random(11)
    branches = list(range(7))  # the branch vertices
    for _ in range(200):
        assign = {v: rng.randrange(1, 8) for v in range(g.n)}
        i, j = rng.sample(branches, 2)
        assign[j] = assign[i]
        c = Coloring.of(g, assign, k=7)
        assert not verify_odd_coloring(g, c).valid


def test_relabeling_invariance():
    rng = random.Random(3)
    base = Graph.from_edge_list(
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5)], n=6
    )
    k0, _ = exact_odd_chromatic_number(base, 6)
    for _ in range(10):
        perm = list(range(base.n))
        rng.shuffle(perm)
        relabeled = Graph.from_edge_list(
            [(perm[u], perm[v]) for u, v in base.edges], n=base.n
        )
        assert exact_odd_chromatic_number(relabeled, 6)[0] == k0


def test_non_monotonicity():
    """C4 is a subgraph of K4 minus an edge, yet needs more colors."""
    c4 = cycle(4)
    k4e = complete_minus_edge(4)
    # C4 embeds as the 4-cycle 0-2-1-3, avoiding the missing edge (0, 1)
    perm = [0, 2, 1, 3]
    embedded = {tuple(sorted((perm[u], perm[v]))) for u, v in c4.edges}
    assert embedded < set(k4e.edges)
    assert exact_odd_chromatic_number(c4, 6)[0] > exact_odd_chromatic_number(k4e, 6)[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 8), st.integers(0, 10))
def test_solver_agrees_with_brute_force(n, seed):
    rng = random.Random(seed * 100 + n)
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph.from_edge_list(rng.sample(pool, rng.randrange(len(pool) + 1)), n=n)
    kmax = 5
    oracle = next(
        (
            k
            for k in range(1, kmax + 1)
            if any(
                _oracle_check(g, assign)
                for assign in itertools.product(range(1, k + 1), repeat=g.n)
            )
        ),
        None,
    )
    assert exact_odd_chromatic_number(g, kmax)[0] == oracle


@st.composite
def _graph_and_partial_coloring(draw):
    """A graph with isolated vertices likely, and colors on some of its vertices."""
    n = draw(st.integers(0, 9))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), max_size=14)) if pool else []
    k = draw(st.integers(1, 5))
    assign = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, k))) if n else {}
    g = Graph.from_edge_list(edges, n=n)
    return g, Coloring.of(g, assign, k=k)


@settings(max_examples=300, deadline=None)
@given(_graph_and_partial_coloring())
def test_verify_agrees_with_a_counting_oracle(case):
    g, c = case
    color = c.assign
    neighbors = {v: [u for e in g.edges for u in e if v in e and u != v] for v in range(g.n)}
    proper = {(u, v) for u, v in g.edges if u in color and v in color and color[u] == color[v]}
    odd = {
        v
        for v, nbrs in neighbors.items()
        if nbrs
        and all(u in color for u in nbrs)
        and all(sum(color[u] == a for u in nbrs) % 2 == 0 for a in {color[u] for u in nbrs})
    }
    rep = verify_odd_coloring(g, c)
    assert rep.proper_violations == proper
    assert rep.odd_violations == odd
    assert rep.uncolored == {v for v in range(g.n) if v not in color}


# ---------------------------------------------------------------------------
# extension and reduction


def _without_vertex(g: Graph, v: int) -> Graph:
    """g with the edges at v removed; v stays as an isolated vertex."""
    return Graph.from_edge_list([e for e in g.edges if v not in e], n=g.n)


def test_extend_at_vertex_restores_removed_vertex():
    g = cycle(5)
    h = _without_vertex(g, 0)
    base = find_odd_coloring(h, 13)
    assert base is not None
    out = extend_at_vertex(g, base, 0, 13)
    assert out is not None
    assert verify_odd_coloring(g, out).valid


def test_extend_at_vertex_isolated():
    g = Graph.from_edge_list([(1, 2)], n=3)
    c = Coloring.of(g, {1: 1, 2: 2}, k=13)
    out = extend_at_vertex(g, c, 0, 13)
    assert out.assign[0] == 1


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edge_list(pairs, n=n)


def test_local_checks_agree_with_full_verification():
    """Re-adding a vertex, recoloring a repair target, and exchanging colors
    across a bridge are judged locally exactly as verify_odd_coloring does."""
    rng = random.Random(7)
    extensions = bridges = 0
    for _ in range(60):
        n, k = rng.randrange(4, 9), rng.randrange(4, 7)
        g = _random_graph(rng, n, 0.5)
        v = rng.randrange(n)
        base = find_odd_coloring(_without_vertex(g, v), k)
        if base is None:
            continue
        adj = [set(a) for a in g.adj]
        color = [base.assign[x] for x in range(n)]
        for a in range(1, k + 1):
            color[v] = a
            full = verify_odd_coloring(g, Coloring.of(g, dict(enumerate(color)), k=k))
            assert _valid_near(adj, color, (v,)) == full.valid
            r = rng.choice([x for x in range(n) if x != v])
            old = color[r]
            for b in range(1, k + 1):
                color[r] = b
                full = verify_odd_coloring(g, Coloring.of(g, dict(enumerate(color)), k=k))
                assert _valid_near(adj, color, (v, r)) == full.valid
                extensions += 1
            color[r] = old

        # two random sides joined by the bridge uv
        m = rng.randrange(2, 6)
        side = _random_graph(rng, m, 0.6)
        pairs = list(g.edges) + [(x + n, y + n) for x, y in side.edges]
        u, w = rng.randrange(n), n + rng.randrange(m)
        cut = Graph.from_edge_list(pairs, n=n + m)
        joined = Graph.from_edge_list(pairs + [(u, w)], n=n + m)
        split = find_odd_coloring(cut, k)
        if split is None:
            continue
        adj = [set(a) for a in cut.adj]
        color = [split.assign[x] for x in range(n + m)]
        valid_pairs = []
        for a, b in itertools.permutations(range(1, k + 1), 2):
            trial = list(color)
            _exchange(adj, trial, u, a)
            _exchange(adj, trial, w, b)
            c = Coloring.of(joined, dict(enumerate(trial)), k=k)
            if verify_odd_coloring(joined, c).valid:
                valid_pairs.append((a, b))
            bridges += 1
        assert list(_bridge_colors(adj, color, u, w, k)) == valid_pairs
    assert extensions > 500 and bridges > 500


def test_reduction_colorer_needs_no_deep_stack(tmp_path):
    """Peeling n = 300 vertices takes no stack depth per peeled vertex."""
    d = random_one_planar(300, seed=4)
    path = tmp_path / "d.json"
    path.write_text(drawing_to_json(d))
    out = io.StringIO()
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        res = color_by_reduction(d, k=13)
        with contextlib.redirect_stdout(out):
            code = cli.main(["reduce-color", str(path), "--k", "13", "--format", "json"])
    finally:
        sys.setrecursionlimit(limit)
    assert res.ok and verify_odd_coloring(d.base, res.coloring).valid
    assert code == 0
    assign = {int(v): c for v, c in json.loads(out.getvalue())["coloring"].items()}
    assert verify_odd_coloring(d.base, Coloring.of(d.base, assign, k=13)).valid


def test_reduction_colorer_on_c5():
    res = color_by_reduction(plane_c5_drawing(), k=13)
    assert res.ok
    assert verify_odd_coloring(plane_c5_drawing().base, res.coloring).valid


# ---------------------------------------------------------------------------
# text format


def test_coloring_format_round_trip():
    g = cycle(5)
    c = Coloring.of(g, {v: v + 1 for v in range(5)}, k=5)
    assert parse_coloring(format_coloring(c), g, k=5) == c


def test_parse_coloring_errors():
    g = cycle(3)
    with pytest.raises(ValueError, match="out of range"):
        parse_coloring("5 1\n", g)
    with pytest.raises(ValueError, match="twice"):
        parse_coloring("0 1\n0 2\n", g)
    with pytest.raises(ValueError, match="expected"):
        parse_coloring("0 1 2\n", g)


def test_coloring_of_rejects_out_of_range_colors():
    g = cycle(3)
    with pytest.raises(ValueError, match="out of range"):
        Coloring.of(g, {0: 4}, k=3)
    with pytest.raises(ValueError, match="out of range"):
        Coloring.of(g, {0: 1, 1: 0}, k=3)
    for color in (2.0, 1.5, True):  # verification reads colors as bit positions
        with pytest.raises(ValueError, match=r"colors must be integers at vertices \[1\]"):
            Coloring.of(g, {0: 1, 1: color}, k=3)
        with pytest.raises(ValueError, match="must be integers"):
            Coloring.of(g, {0: 1, 1: color})
