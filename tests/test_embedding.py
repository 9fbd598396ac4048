import random

import pytest

from oddcolor.graph import Graph, norm_edge
from oddcolor.embedding import (
    OnePlanarDrawing,
    _rebuild_subdrawing,
    build_associated_plane_graph,
    drawing_from_json,
    drawing_to_json,
    gstar_to_dot,
    planar_rotation,
    trace_faces,
)

from oddcolor.generators import random_one_planar

from conftest import plane_c5_drawing, poor4_drawing, semipoor5_drawing, special7_drawing


def crossed_k4_drawing() -> OnePlanarDrawing:
    """K4 drawn as a square with crossing diagonals (one 4*-vertex)."""
    g = Graph.from_edge_list(
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)], n=4
    )
    rot = {
        0: (1, 4, 3),
        1: (2, 4, 0),
        2: (3, 4, 1),
        3: (0, 4, 2),
        4: (0, 1, 2, 3),
    }
    return OnePlanarDrawing(base=g, crossings=(((0, 2), (1, 3)),), rotation=rot)


def test_c5_traces_two_pentagon_faces():
    apg = build_associated_plane_graph(plane_c5_drawing())
    assert sorted(f.degree for f in apg.faces) == [5, 5]
    for f in apg.faces:
        assert sorted(f.walk) == [0, 1, 2, 3, 4]


def test_theta_graph_faces_hand_enumerated():
    # two branch vertices joined by three length-2 paths: V=5 E=6 F=3
    g = Graph.from_edge_list([(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    rot = {0: (2, 3, 4), 1: (4, 3, 2), 2: (0, 1), 3: (0, 1), 4: (0, 1)}
    d = OnePlanarDrawing(base=g, crossings=(), rotation=rot)
    apg = build_associated_plane_graph(d)
    assert sorted(f.degree for f in apg.faces) == [4, 4, 4]
    walks = {frozenset(f.walk) for f in apg.faces}
    assert walks == {
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 3, 4}),
        frozenset({0, 1, 2, 4}),
    }


def test_crossed_k4_planarization():
    apg = build_associated_plane_graph(crossed_k4_drawing())
    assert apg.gstar.n == 5
    assert apg.star_vertices == frozenset({4})
    assert apg.gstar.degree(4) == 4
    assert sorted(f.degree for f in apg.faces) == [3, 3, 3, 3, 4]
    # degree preservation on originals
    for v in range(4):
        assert apg.gstar.degree(v) == 3


def test_origin_map_round_trip():
    d = poor4_drawing()
    apg = build_associated_plane_graph(d)
    for e, base_edge in apg.origin.items():
        assert base_edge in d.base.edges
        stars = [x for x in e if apg.is_star(x)]
        if stars:
            # half-edge: its original endpoint belongs to the base edge
            orig = next(x for x in e if not apg.is_star(x))
            assert orig in base_edge
        else:
            assert e == base_edge
    # every crossed base edge is covered by exactly two half-edges
    for e in d.crossed_edges():
        halves = [pe for pe, be in apg.origin.items() if be == e]
        assert len(halves) == 2


def test_no_adjacent_stars_and_star_degree(corpus_apgs):
    for apg in corpus_apgs:
        for z in apg.star_vertices:
            assert apg.gstar.degree(z) == 4
            assert all(not apg.is_star(w) for w in apg.gstar.neighbors(z))


def test_euler_formula_per_component(corpus_apgs):
    for apg in corpus_apgs:
        for comp in apg.gstar.components():
            nv = len(comp)
            ne = sum(1 for u, v in apg.gstar.edges if u in comp)
            nf = sum(1 for f in apg.faces if f.walk[0] in comp)
            assert nv - ne + nf == 2


def test_validate_rejects_double_crossed_edge():
    g = Graph.from_edge_list([(0, 1), (2, 3), (4, 5)], n=6)
    d = OnePlanarDrawing(
        base=g,
        crossings=(((0, 1), (2, 3)), ((0, 1), (4, 5))),
        rotation={},
    )
    with pytest.raises(ValueError, match="crossed twice"):
        d.validate()


def test_validate_rejects_shared_endpoint_crossing():
    g = Graph.from_edge_list([(0, 1), (1, 2)], n=3)
    d = OnePlanarDrawing(
        base=g, crossings=(((0, 1), (1, 2)),), rotation={}
    )
    with pytest.raises(ValueError, match="shares an endpoint"):
        d.validate()


def test_validate_rejects_incomplete_rotation():
    g = Graph.from_edge_list([(0, 1), (1, 2)], n=3)
    d = OnePlanarDrawing(
        base=g, crossings=(), rotation={0: (1,), 1: (0,)}
    )
    with pytest.raises(ValueError, match="cover"):
        d.validate()


def test_trace_faces_requires_reverse_darts():
    with pytest.raises(ValueError, match="reverse"):
        trace_faces({0: (1,), 1: ()})


def test_without_vertex_splices_crossings():
    d = poor4_drawing()
    d2 = d.without_vertex(1)  # removes v; both crossings lose a member
    d2.validate()
    assert d2.num_crossings == 0
    assert d2.base.degree(1) == 0
    apg = build_associated_plane_graph(d2)
    assert not apg.star_vertices


def test_without_edge_uncrossed():
    d = plane_c5_drawing()
    d2 = d.without_edge(0, 1)
    d2.validate()
    assert norm_edge(0, 1) not in d2.base.edges
    apg = build_associated_plane_graph(d2)
    assert sorted(f.degree for f in apg.faces) == [8]


def test_one_restriction_equals_stepwise_removals():
    """The reduction colorer restricts the input drawing to the current
    edges in one step; that drawing is the one the removals build in turn."""
    rng = random.Random(5)
    for seed in range(4):
        d = random_one_planar(30, seed=seed, crossings=30)
        step = d
        for _ in range(12):
            if rng.random() < 0.3:
                step = step.without_edge(*rng.choice(sorted(step.base.edges)))
            else:
                step = step.without_vertex(rng.choice([v for v in range(30) if step.base.adj[v]]))
            once = _rebuild_subdrawing(d, set(step.base.edges))
            assert (once.base, once.crossings, once.rotation) == (step.base, step.crossings, step.rotation)
            assert list(once.rotation) == list(step.rotation)


def test_drawing_json_round_trip():
    d = poor4_drawing()
    d2 = drawing_from_json(drawing_to_json(d))
    assert d2.base == d.base
    assert d2.crossings == d.crossings
    assert d2.rotation == d.rotation
    # serialization is deterministic
    assert drawing_to_json(d) == drawing_to_json(d2)


def test_drawing_json_rotation_optional_without_crossings():
    text = drawing_to_json(plane_c5_drawing())
    import json

    payload = json.loads(text)
    del payload["rotation"]
    d = drawing_from_json(json.dumps(payload))
    apg = build_associated_plane_graph(d)
    assert sorted(f.degree for f in apg.faces) == [5, 5]


def test_drawing_json_rotation_mandatory_with_crossings():
    import json

    payload = json.loads(drawing_to_json(crossed_k4_drawing()))
    del payload["rotation"]
    with pytest.raises(ValueError, match="rotation is mandatory"):
        drawing_from_json(json.dumps(payload))


def test_planar_rotation_rejects_nonplanar():
    import itertools

    k5 = Graph.from_edge_list(list(itertools.combinations(range(5), 2)))
    with pytest.raises(ValueError, match="not planar"):
        planar_rotation(k5)


def test_gstar_to_dot_mentions_stars():
    apg = build_associated_plane_graph(crossed_k4_drawing())
    dot = gstar_to_dot(apg)
    assert "4 [shape=box];" in dot
    assert "0 -- 1;" in dot


def test_special7_drawing_shape():
    apg = build_associated_plane_graph(special7_drawing())
    assert sorted(f.degree for f in apg.faces) == [3] * 7 + [51]
    assert len(apg.star_vertices) == 3
    assert len(apg.faces_at(0)) == 7


@pytest.mark.parametrize(
    "make",
    [plane_c5_drawing, poor4_drawing, special7_drawing, crossed_k4_drawing, semipoor5_drawing,
     lambda: semipoor5_drawing(extra_leaf=True)]
    + [lambda n=n, seed=seed: random_one_planar(n, seed=seed) for n in (6, 20, 50) for seed in range(4)],
)
def test_trace_faces_walks_every_dart_once_by_rotation_successors(make):
    """A walk's dart (u, v) is followed by (v, w), w the successor of u at v."""
    rotation = build_associated_plane_graph(make()).rotation
    walked = []
    for f in trace_faces(rotation):
        walk = f.walk
        for i, u in enumerate(walk):
            v, w = walk[(i + 1) % len(walk)], walk[(i + 2) % len(walk)]
            walked.append((u, v))
            order = rotation[v]
            assert order[(order.index(u) + 1) % len(order)] == w
    assert sorted(walked) == sorted((v, w) for v, order in rotation.items() for w in order)


def _faces_at_by_scan(apg, v: int) -> tuple[int, ...]:
    """Face indices at v by scanning every walk, once per incidence."""
    return tuple(i for i, f in enumerate(apg.faces) for x in f.walk if x == v)


@pytest.mark.parametrize(
    "make",
    [plane_c5_drawing, poor4_drawing, special7_drawing, crossed_k4_drawing]
    + [lambda n=n, seed=seed: random_one_planar(n, seed=seed) for n in (5, 12, 40, 90) for seed in range(3)],
)
def test_face_incidence_matches_a_scan_of_the_walks(make):
    """special7's outer walk passes some vertices more than once."""
    apg = build_associated_plane_graph(make())
    for v in range(-1, apg.gstar.n + 2):
        assert apg.faces_at(v) == _faces_at_by_scan(apg, v)
    assert sum(len(apg.faces_at(v)) for v in range(apg.gstar.n)) == sum(f.degree for f in apg.faces)


def test_faces_at_is_read_only():
    """Callers share the index, so it hands out tuples, not copies of lists."""
    apg = build_associated_plane_graph(special7_drawing())
    assert type(apg.faces_at(0)) is tuple
    assert apg.faces_at(0) is apg.faces_at(0)
