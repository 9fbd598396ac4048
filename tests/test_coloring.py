import contextlib
import functools
import io
import itertools
import json
import operator
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from oddcolor import cli
from oddcolor.graph import Graph, bridges_of, reach
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
    _Peel,
    _bridge_colors,
    _exchange,
    _extend,
    _odd_around,
    _repair_targets,
    _spans_bridgeless,
)
from oddcolor.embedding import drawing_to_json
from oddcolor.structure import is_easy, is_low
from oddcolor.generators import (
    complete_minus_edge,
    cycle,
    random_one_planar,
    subdivided_complete,
)

from conftest import plane_c5_drawing
from reference import chi_odd, is_odd_coloring, odd_colorings, violations


# ---------------------------------------------------------------------------
# verification semantics


def test_verify_rainbow_c5_is_valid():
    g = cycle(5)
    c = Coloring.of({v: v + 1 for v in range(5)}, k=5)
    assert verify_odd_coloring(g, c).valid


def test_verify_c4_alternating_fails_odd_condition():
    g = cycle(4)
    c = Coloring.of({0: 1, 1: 2, 2: 1, 3: 2}, k=2)
    rep = verify_odd_coloring(g, c)
    assert not rep.proper_violations
    assert rep.odd_violations == frozenset({0, 1, 2, 3})
    assert not rep.valid


def test_verify_flags_proper_violations():
    g = Graph.from_edge_list([(0, 1)])
    c = Coloring.of({0: 1, 1: 1}, k=2)
    rep = verify_odd_coloring(g, c)
    assert rep.proper_violations == frozenset({(0, 1)})


def test_verify_k2_two_colors_valid():
    g = Graph.from_edge_list([(0, 1)])
    c = Coloring.of({0: 1, 1: 2}, k=2)
    assert verify_odd_coloring(g, c).valid


def test_isolated_vertices_exempt_and_uncolored_reported():
    g = Graph.from_edge_list([(0, 1)], n=3)
    c = Coloring.of({0: 1, 1: 2}, k=2)
    rep = verify_odd_coloring(g, c)
    assert rep.uncolored == frozenset({2})
    assert not rep.valid  # uncolored vertex blocks validity
    full = Coloring.of({0: 1, 1: 2, 2: 1}, k=2)
    assert verify_odd_coloring(g, full).valid  # isolated vertex: any color


# ---------------------------------------------------------------------------
# exact search


def test_exact_small_values():
    assert exact_odd_chromatic_number(cycle(5), 6)[0] == 5
    assert exact_odd_chromatic_number(cycle(4), 6)[0] == 4
    assert exact_odd_chromatic_number(complete_minus_edge(4), 6)[0] == 3
    assert exact_odd_chromatic_number(Graph.from_edge_list([]), 6) == (1, Coloring(k=1, assign={}))


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


def test_subdivided_k4_oracle():
    g = subdivided_complete(4)
    # no odd 3-coloring exists: exhaustive over all 3^10 assignments
    assert next(odd_colorings(g, 3), None) is None
    # an explicit hand-built 4-coloring is valid
    hand = Coloring.of({0: 1, 1: 2, 2: 3, 3: 4, 4: 3, 5: 2, 6: 2, 7: 4, 8: 3, 9: 1}, k=4)
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
        c = Coloring.of(assign, k=7)
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
    oracle = chi_odd(g, kmax)
    value, witness = exact_odd_chromatic_number(g, kmax)
    assert value == oracle
    if value is not None:  # the search returns its coloring unverified
        assignment = tuple(witness.assign[v] for v in range(n))
        assert is_odd_coloring(g, assignment) and set(assignment) <= set(range(1, value + 1))


@st.composite
def _graph_and_partial_coloring(draw):
    """A graph with isolated vertices likely, and colors on some of its vertices."""
    n = draw(st.integers(0, 9))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), max_size=14)) if pool else []
    k = draw(st.integers(1, 5))
    assign = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, k))) if n else {}
    g = Graph.from_edge_list(edges, n=n)
    return g, Coloring.of(assign, k=k)


@settings(max_examples=300, deadline=None)
@given(_graph_and_partial_coloring())
def test_verify_agrees_with_a_counting_oracle(case):
    g, c = case
    proper, odd, uncolored = violations(g, c.assign)
    rep = verify_odd_coloring(g, c)
    assert rep.proper_violations == proper
    assert rep.odd_violations == odd
    assert rep.uncolored == uncolored


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
    c = Coloring.of({1: 1, 2: 2}, k=13)
    out = extend_at_vertex(g, c, 0, 13)
    assert out.assign[0] == 1


@settings(max_examples=300, deadline=None)
@given(_graph_and_partial_coloring(), st.data())
def test_extend_at_vertex_returns_none_or_an_odd_coloring(case, data):
    """c need not be odd on g - v, so the result is verified before it is returned."""
    g, c = case
    if not g.n:
        return
    v = data.draw(st.integers(0, g.n - 1))
    if any(u not in c.assign for u in g.neighbors(v)):
        with pytest.raises(ValueError, match="does not cover"):
            extend_at_vertex(g, c, v, c.k)
        return
    out = extend_at_vertex(g, c, v, c.k)
    assert out is None or verify_odd_coloring(g, out).valid


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edge_list(pairs, n=n)


def _peel_of(g: Graph, colors) -> _Peel:
    peel = _Peel(g)
    peel.paint(colors)
    return peel


def _accepts(peel: _Peel, touched) -> bool:
    """_extend's rule: each touched vertex is proper, and the masks at it and its neighbors are non-zero."""
    adj, color = peel.adj, peel.color
    return all(
        all(color[y] != color[t] for y in adj[t]) and (not adj[t] or _odd_around(adj, peel.par, t))
        for t in touched
    )


def _first_extension(g: Graph, color: list[int], v: int, k: int) -> list[int] | None:
    """What _extend must make of color, by full verification of each trial in its order."""
    def odd_off_v(w):
        return functools.reduce(operator.xor, (1 << color[y] for y in g.adj[w] if y != v), 0)

    forbidden = set()
    for w in g.adj[v]:
        odd, dw = odd_off_v(w), g.degree(w)
        if odd and (is_low(dw) or not is_easy(dw, map(g.degree, g.adj[w]))):
            forbidden.add((odd & -odd).bit_length() - 1)
    banned = {color[w] for w in g.adj[v]}
    targets = _repair_targets([set(a) for a in g.adj], v, list(g.adj[v]))
    for a in sorted(set(range(1, k + 1)) - banned, key=lambda a: (a in forbidden, a)):
        trial = [*color[:v], a, *color[v + 1:]]
        if is_odd_coloring(g, trial):
            return trial
        for r in targets:
            for b in range(1, k + 1):
                if b != color[r]:
                    repaired = [*trial[:r], b, *trial[r + 1:]]
                    if is_odd_coloring(g, repaired):
                        return repaired
    return None


def test_local_checks_agree_with_full_verification():
    """Re-adding a vertex, recoloring a repair target, and exchanging colors
    across a bridge are judged on the parity masks exactly as
    verify_odd_coloring judges them, and the kernels pick what a search by
    full verification in their order picks, with palettes wider than the
    colors in use too."""
    rng = random.Random(7)
    extensions = bridges = 0
    for _ in range(60):
        n, k = rng.randrange(4, 9), rng.randrange(4, 7)
        g = _random_graph(rng, n, 0.5)
        v = rng.randrange(n)
        base = find_odd_coloring(_without_vertex(g, v), k)
        if base is None:
            continue
        color = [base.assign[x] for x in range(n)]
        peel = _peel_of(g, color)
        for a in range(1, k + 1):
            peel.recolor(v, a)
            assert _accepts(peel, (v,)) == is_odd_coloring(g, peel.color)
            r = rng.choice([x for x in range(n) if x != v])
            old = peel.color[r]
            for b in range(1, k + 1):
                peel.recolor(r, b)
                assert _accepts(peel, (v, r)) == is_odd_coloring(g, peel.color)
                extensions += 1
            peel.recolor(r, old)
        for palette in (k, k + 3):
            peel = _peel_of(g, color)
            want = _first_extension(g, color, v, palette)
            assert _extend(peel, v, palette) == (want is not None)
            assert peel.color == (want or color)

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
        color = [split.assign[x] for x in range(n + m)]
        for palette in (k, k + 3):
            valid_pairs = []
            for a, b in itertools.permutations(range(1, palette + 1), 2):
                trial = _peel_of(cut, color)
                _exchange(trial, u, a)
                _exchange(trial, w, b)
                assert trial.par == _peel_of(cut, trial.color).par
                if is_odd_coloring(joined, trial.color):
                    valid_pairs.append((a, b))
                bridges += 1
            assert _bridge_colors(_peel_of(cut, color), u, w, palette) == next(iter(valid_pairs), None)
    assert extensions > 500 and bridges > 500


def test_spans_bridgeless_agrees_with_tarjan_on_small_sets():
    """Every graph on up to six vertices, inside a larger graph, agrees with a
    connectivity walk plus bridges_of: the degree rule on at most five, and six
    (two triangles joined by a bridge) where that rule would fail."""
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            local = [set() for _ in range(n)]
            for i, (x, y) in enumerate(pairs):
                if bits >> i & 1:
                    local[x].add(y)
                    local[y].add(x)
            want = len(reach(local, 0)) == n and not bridges_of(local)
            # ids 1..n, with vertex 0 outside the set joined to all of them
            adj = [set(range(1, n + 1))] + [{0, *(y + 1 for y in a)} for a in local]
            assert _spans_bridgeless(adj, set(range(1, n + 1))) == want, (n, bits)


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
    assert verify_odd_coloring(d.base, Coloring.of(assign, k=13)).valid


def test_reduction_colorer_on_c5():
    res = color_by_reduction(plane_c5_drawing(), k=13)
    assert res.ok
    assert verify_odd_coloring(plane_c5_drawing().base, res.coloring).valid


@pytest.mark.parametrize("exact_limit", [2, 20, 100])
def test_reduction_colorer_gives_isolated_vertices_color_one(exact_limit):
    """The exact search runs on the active vertices only; the others take color 1
    from the leaf, as they did when it searched the whole graph."""
    d = random_one_planar(60, seed=5).without_vertex(7).without_vertex(30)
    res = color_by_reduction(d, k=13, exact_limit=exact_limit)
    assert res.ok and res.coloring.assign[7] == res.coloring.assign[30] == 1



# ---------------------------------------------------------------------------
# text format


def test_coloring_format_round_trip():
    g = cycle(5)
    c = Coloring.of({v: v + 1 for v in range(5)}, k=5)
    assert parse_coloring(format_coloring(c), g, k=5) == c


def test_parse_coloring_errors():
    g = cycle(3)
    with pytest.raises(ValueError, match="out of range"):
        parse_coloring("5 1\n", g)
    with pytest.raises(ValueError, match="twice"):
        parse_coloring("0 1\n0 2\n", g)
    with pytest.raises(ValueError, match="expected"):
        parse_coloring("0 1 2\n", g)


def test_verify_memory_does_not_grow_with_color_values():
    """Parity bits are indexed among the colors in use, not by color value."""
    g = Graph.from_edge_list([(0, 1), (1, 2)])
    c = Coloring.of({0: 1, 1: 10**9, 2: 2})
    tracemalloc.start()
    try:
        rep = verify_odd_coloring(g, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.valid and peak < 10 * 2**20


def test_coloring_of_rejects_out_of_range_colors():
    with pytest.raises(ValueError, match="out of range"):
        Coloring.of({0: 4}, k=3)
    with pytest.raises(ValueError, match="out of range"):
        Coloring.of({0: 1, 1: 0}, k=3)
    for color in (2.0, 1.5, True):  # colors are integers: 2.0 and True would alias 2 and 1
        with pytest.raises(ValueError, match=r"colors must be integers at vertices \[1\]"):
            Coloring.of({0: 1, 1: color}, k=3)
        with pytest.raises(ValueError, match="must be integers"):
            Coloring.of({0: 1, 1: color})
