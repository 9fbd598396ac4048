import contextlib
import json
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from oddcolor.cli import main
from oddcolor import embedding
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
from oddcolor.structure import FaceClass, classify_faces, classify_vertices

from conftest import (
    crossed_k4_drawing,
    disjoint_union,
    nonplanar_rotation_drawing,
    plane_c5_drawing,
    poor4_drawing,
    semipoor5_drawing,
    special7_drawing,
)
from reference import (
    components, faces, former_validate, gstar_adjacency, is_valid_drawing, json_of_drawing, planarity_fault,
    planarization,
)
from test_golden import CLI_EXTRA, FIXTURES, RANDOM, _drawings, two_component_drawing


def test_c5_traces_two_pentagon_faces():
    apg = build_associated_plane_graph(plane_c5_drawing())
    assert sorted(len(f) for f in apg.faces) == [5, 5]
    for f in apg.faces:
        assert sorted(f) == [0, 1, 2, 3, 4]


def test_theta_graph_faces_hand_enumerated():
    # two branch vertices joined by three length-2 paths: V=5 E=6 F=3
    g = Graph.from_edge_list([(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    rot = {0: (2, 3, 4), 1: (4, 3, 2), 2: (0, 1), 3: (0, 1), 4: (0, 1)}
    d = OnePlanarDrawing(base=g, crossings=(), rotation=rot)
    apg = build_associated_plane_graph(d)
    assert sorted(len(f) for f in apg.faces) == [4, 4, 4]
    walks = {frozenset(f) for f in apg.faces}
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
    assert sorted(len(f) for f in apg.faces) == [3, 3, 3, 3, 4]
    # degree preservation on originals
    for v in range(4):
        assert apg.gstar.degree(v) == 3


def test_origin_map_round_trip():
    d = poor4_drawing()
    apg = build_associated_plane_graph(d)
    for e, base_edge in planarization(d).items():
        assert base_edge in d.base.edges
        stars = [x for x in e if apg.is_star(x)]
        if stars:
            # half-edge: its original endpoint belongs to the base edge
            orig = next(x for x in e if not apg.is_star(x))
            assert orig in base_edge
        else:
            assert e == base_edge
    # every crossed base edge is covered by exactly two half-edges
    for e in [e for pair in d.crossings for e in pair]:
        halves = [pe for pe, be in planarization(d).items() if be == e]
        assert len(halves) == 2


def _check_gstar_and_crossed_edges(d: OnePlanarDrawing) -> None:
    """G* is the graph of the planarization, and each half-edge's crossing
    vertex names its base edge through ``crossed_edge``."""
    adj = gstar_adjacency(d)
    gstar = build_associated_plane_graph(d).gstar
    assert (gstar.n, gstar.edges, gstar.adj) == (len(adj), frozenset(planarization(d)), adj)
    for (u, z), e in planarization(d).items():
        if z >= d.base.n:
            assert d.crossed_edge(z, u) == e


@pytest.mark.parametrize(
    "make",
    [lambda n=n, seed=seed: random_one_planar(n, seed=seed) for n, seed in RANDOM]
    + [*FIXTURES.values(), two_component_drawing],
    ids=[f"n{n}-s{seed}" for n, seed in RANDOM] + [*FIXTURES, "two-components"],
)
def test_gstar_is_the_planarization_on_golden_drawings(make):
    _check_gstar_and_crossed_edges(make())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 60),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["zero", "default", "n"]),
)
def test_gstar_is_the_planarization_on_random_drawings(n, seed, cap):
    crossings = {"zero": 0, "default": None, "n": n}[cap]
    _check_gstar_and_crossed_edges(random_one_planar(n, seed=seed, crossings=crossings))


def _check_components(d: OnePlanarDrawing) -> None:
    """G*'s components with an edge, by least vertex, with the faces whose
    walks start in each: the reference's walk over G*'s neighbor lists."""
    walks = faces(d.rotation)
    expected = [
        (sorted(comp), [i for i, f in enumerate(walks) if f[0] in comp])
        for comp in components(gstar_adjacency(d))
        if len(comp) > 1
    ]
    apg = build_associated_plane_graph(d)
    assert apg.components == expected
    for verts, face_ids in apg.components:
        assert all(apg.faces[i][0] in verts for i in face_ids)


@pytest.mark.parametrize("make", [*_drawings().values(), two_component_drawing], ids=[*_drawings(), "two-components"])
def test_components_agree_with_the_reference_on_golden_drawings(make):
    _check_components(make())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(3, 30), st.integers(0, 2**32 - 1)), min_size=1, max_size=3))
def test_components_agree_with_the_reference_on_random_drawings(parts):
    """Random drawings side by side; n = 3 stands for an isolated vertex."""
    isolated = OnePlanarDrawing(Graph.from_edge_list([], n=1), (), {})
    drawings = [random_one_planar(n, seed=seed) if n > 3 else isolated for n, seed in parts]
    d = drawings[0]
    for part in drawings[1:]:
        d = disjoint_union(d, part)
    _check_components(d)


def test_discharge_derives_gstar_once(tmp_path, monkeypatch):
    """One op runs the validity pass once, though the decoder and G*'s builder
    both validate, labels G*'s components once for Euler and the audit, and
    traces G*'s faces once."""
    path = tmp_path / "drawing.json"
    path.write_text(drawing_to_json(random_one_planar(40, seed=1)))
    calls = {"_fault": 0, "_components": 0, "trace_faces": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_fault", "_components"):
        prop = OnePlanarDrawing.__dict__[name]  # a cached_property
        monkeypatch.setattr(prop, "func", counted(name, prop.func))
    monkeypatch.setattr(embedding, "trace_faces", counted("trace_faces", trace_faces))
    assert main(["discharge", str(path)]) == 0
    assert calls == {"_fault": 1, "_components": 1, "trace_faces": 1}


def test_no_adjacent_stars_and_star_degree(corpus_apgs):
    """The facts about a valid G* that the taxonomy and the rules rely on."""
    fixtures = [poor4_drawing(), semipoor5_drawing(), semipoor5_drawing(extra_leaf=True),
                special7_drawing()]
    for apg in [*corpus_apgs, *map(build_associated_plane_graph, fixtures)]:
        d = apg.drawing
        for z, (e1, e2) in enumerate(d.crossings, start=d.base.n):
            assert apg.gstar.degree(z) == 4
            assert all(not apg.is_star(w) for w in apg.gstar.neighbors(z))
            edge_of = {x: e for e in (e1, e2) for x in e}
            order = d.rotation[z]
            assert sorted(order) == sorted(edge_of)
            assert all(edge_of[order[i - 1]] != edge_of[order[i]] for i in range(4))
        for v in range(d.base.n):
            assert apg.gstar.degree(v) == d.base.degree(v)
            if d.base.degree(v) == 2:
                assert len(apg.faces_at(v)) == 2
            if d.base.degree(v) == 7:
                assert len(d.rotation[v]) == 7
        ft = classify_faces(apg, classify_vertices(apg))
        for f, cls in zip(apg.faces, ft.face_class):
            if cls.is_poor:
                assert len(f) >= 3
            elif cls is FaceClass.SEMI_POOR:
                assert len(f) >= 4


def test_euler_formula_per_component(corpus_apgs):
    for apg in corpus_apgs:
        for comp in apg.gstar.components():
            nv = len(comp)
            ne = sum(1 for u, v in apg.gstar.edges if u in comp)
            nf = sum(1 for f in apg.faces if f[0] in comp)
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


def test_validate_rejects_non_alternating_crossing_rotation():
    crossed_k4_drawing().validate()
    d = crossed_k4_drawing(star_rotation=(0, 2, 1, 3))
    with pytest.raises(ValueError, match=r"crossing vertex 4 does not alternate \(0, 2\) and \(1, 3\)"):
        d.validate()


def _mutate(d: OnePlanarDrawing, kind: str, rng: random.Random) -> OnePlanarDrawing:
    """d with one fault of the given kind put in at random (or d, when it has no place for it)."""
    rot = {v: list(order) for v, order in d.rotation.items()}
    crossings = list(d.crossings)
    full = [v for v, order in rot.items() if order]
    nverts = d.base.n + len(crossings)
    crossed = {e for pair in crossings for e in pair}
    edges = sorted(d.base.edges)
    if kind == "swap" and full:  # two entries of one rotation
        order = rot[rng.choice(full)]
        i, j = rng.randrange(len(order)), rng.randrange(len(order))
        order[i], order[j] = order[j], order[i]
    elif kind == "swap-across" and full:  # an entry of one rotation with one of another
        a, b = rot[rng.choice(full)], rot[rng.choice(full)]
        i, j = rng.randrange(len(a)), rng.randrange(len(b))
        a[i], b[j] = b[j], a[i]
    elif kind == "drop" and full:
        order = rot[rng.choice(full)]
        del order[rng.randrange(len(order))]
    elif kind == "add":
        rot.setdefault(rng.randrange(nverts + 1), []).append(rng.randrange(-1, nverts + 1))
    elif kind == "duplicate" and full:
        order = rot[rng.choice(full)]
        order.insert(rng.randrange(len(order) + 1), rng.choice(order))
    elif kind == "key-out-of-range" and rot:
        rot[rng.choice([-1, nverts, nverts + 3])] = rot.pop(rng.choice(list(rot)))
    elif kind == "unalternate" and crossings:
        order = rot.get(d.base.n + rng.randrange(len(crossings)), [])
        if len(order) == 4:
            order[1], order[2] = order[2], order[1]
    elif kind == "cross-twice" and crossed and len(edges) > 1:
        crossings.append((rng.choice(sorted(crossed)), rng.choice(edges)))
    elif kind == "share-endpoint":
        pairs = [(e, f) for e in edges for f in edges if e < f and set(e) & set(f)]
        if pairs:
            crossings.insert(rng.randrange(len(crossings) + 1), rng.choice(pairs))
    return OnePlanarDrawing(base=d.base, crossings=tuple(crossings), rotation={v: tuple(o) for v, o in rot.items()})


MUTATIONS = [
    "swap", "swap-across", "drop", "add", "duplicate", "key-out-of-range",
    "unalternate", "cross-twice", "share-endpoint",
]
VALIDATE_FIXTURES = [
    poor4_drawing, semipoor5_drawing, lambda: semipoor5_drawing(extra_leaf=True), special7_drawing,
    crossed_k4_drawing, lambda: crossed_k4_drawing(star_rotation=(0, 2, 1, 3)), plane_c5_drawing,
]


def _verdict(check, d: OnePlanarDrawing) -> str | None:
    try:
        check(d)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(
    st.integers(4, 30) | st.sampled_from(VALIDATE_FIXTURES),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(MUTATIONS), max_size=3),
)
def test_validate_agrees_with_its_former_checks(make, seed, mutations):
    """The one validity pass names the former checks' first fault and, where
    they pass, a component of G* that breaks Euler's formula."""
    d = random_one_planar(make, seed=seed) if isinstance(make, int) else make()
    rng = random.Random(seed)
    for kind in mutations:
        d = _mutate(d, kind, rng)
    expected = _verdict(former_validate, d) or planarity_fault(d)
    assert d._fault == expected
    assert _verdict(OnePlanarDrawing.validate, d) == expected


@pytest.mark.parametrize("seed", [0, 5])
def test_validate_names_asymmetric_edges_in_base_edge_order(seed):
    """With two darts dropped, two edges are asymmetric, and validate names
    the one the former checks named first."""
    d = random_one_planar(4, seed=seed)
    rng = random.Random(seed)
    for kind in ["drop", "drop"]:
        d = _mutate(d, kind, rng)
    expected = _verdict(former_validate, d)
    assert "not symmetric" in expected
    assert _verdict(OnePlanarDrawing.validate, d) == expected


@pytest.mark.parametrize("make", VALIDATE_FIXTURES)
def test_validate_names_a_vertex_left_out_of_the_rotation(make):
    """Without a vertex's rotation key, its edges are listed from one end only,
    and validate names the edge the former checks named."""
    d = make()
    v = next(v for v, order in d.rotation.items() if order)
    d = OnePlanarDrawing(d.base, d.crossings, {w: o for w, o in d.rotation.items() if w != v})
    expected = _verdict(former_validate, d)
    assert "not symmetric" in expected
    assert _verdict(OnePlanarDrawing.validate, d) == expected


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError in the block once it has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)


def _check_planarity(d: OnePlanarDrawing) -> None:
    """The reference accepts d iff validate and G*'s builder do.  Where the
    former checks pass, trace_faces walks the reference's faces in order;
    where they fail, it returns or raises ValueError, and its walks end."""
    assert is_valid_drawing(d) == (_verdict(build_associated_plane_graph, d) is None)
    if _verdict(former_validate, d) is None:
        assert list(trace_faces(d.rotation)) == faces(d.rotation)
    else:
        with _deadline(5):
            _verdict(lambda d: trace_faces(d.rotation), d)


PLANARITY_DRAWINGS = {
    **_drawings(),
    **CLI_EXTRA,
    "crossed-k4": crossed_k4_drawing,
    "crossed-k4-unalternating": lambda: crossed_k4_drawing(star_rotation=(0, 2, 1, 3)),
    "nonplanar-rotation": nonplanar_rotation_drawing,
}


@pytest.mark.parametrize("make", PLANARITY_DRAWINGS.values(), ids=list(PLANARITY_DRAWINGS))
def test_planarity_agrees_with_the_reference_on_fixed_drawings(make):
    _check_planarity(make())


@settings(max_examples=200, deadline=None)
@given(
    st.integers(4, 30) | st.sampled_from(VALIDATE_FIXTURES),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(MUTATIONS), max_size=3),
)
def test_planarity_agrees_with_the_reference_on_mutated_drawings(make, seed, mutations):
    """An in-rotation swap can break planarity alone."""
    d = random_one_planar(make, seed=seed) if isinstance(make, int) else make()
    rng = random.Random(seed)
    for kind in mutations:
        d = _mutate(d, kind, rng)
    _check_planarity(d)


def test_trace_faces_requires_reverse_darts():
    with pytest.raises(ValueError, match="reverse"):
        trace_faces({0: (1,), 1: ()})


def test_without_vertex_splices_crossings():
    d = poor4_drawing()
    d2 = d.without_vertex(1)  # removes v; both crossings lose a member
    d2.validate()
    assert len(d2.crossings) == 0
    assert d2.base.degree(1) == 0
    apg = build_associated_plane_graph(d2)
    assert not apg.star_vertices


def test_without_edge_uncrossed():
    d = plane_c5_drawing()
    d2 = d.without_edge(0, 1)
    d2.validate()
    assert norm_edge(0, 1) not in d2.base.edges
    apg = build_associated_plane_graph(d2)
    assert sorted(len(f) for f in apg.faces) == [8]


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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 60),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["zero", "default", "n"]),
)
def test_drawing_to_json_equals_json_dumps_on_random_drawings(n, seed, cap):
    crossings = {"zero": 0, "default": None, "n": n}[cap]
    d = random_one_planar(n, seed=seed, crossings=crossings)
    assert drawing_to_json(d) == json_of_drawing(d)


@pytest.mark.parametrize(
    "make",
    [
        lambda: OnePlanarDrawing(base=Graph.from_edge_list([], n=0), crossings=(), rotation={}),
        plane_c5_drawing,
        lambda: OnePlanarDrawing(
            base=Graph.from_edge_list([(0, 1)], n=3), crossings=(), rotation={0: (1,), 1: (0,), 2: ()}
        ),
        semipoor5_drawing,  # ids up to 19: "10" sorts before "2"
        crossed_k4_drawing,
    ],
    ids=["n0", "no-crossings", "empty-rotation", "ids-past-9", "one-crossing"],
)
def test_drawing_to_json_equals_json_dumps_on_hand_built_drawings(make):
    d = make()
    assert drawing_to_json(d) == json_of_drawing(d)


def test_gen_prints_the_json_dumps_text(capsys):
    assert main(["gen", "random-one-planar", "30", "--seed", "7"]) == 0
    assert capsys.readouterr().out == json_of_drawing(random_one_planar(30, seed=7))


def test_drawing_json_rotation_optional_without_crossings():
    text = drawing_to_json(plane_c5_drawing())
    payload = json.loads(text)
    del payload["rotation"]
    d = drawing_from_json(json.dumps(payload))
    apg = build_associated_plane_graph(d)
    assert sorted(len(f) for f in apg.faces) == [5, 5]


def test_drawing_json_rotation_mandatory_with_crossings():
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
    assert sorted(len(f) for f in apg.faces) == [3] * 7 + [51]
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
    rotation = build_associated_plane_graph(make()).drawing.rotation
    walked = []
    for walk in trace_faces(rotation):
        for i, u in enumerate(walk):
            v, w = walk[(i + 1) % len(walk)], walk[(i + 2) % len(walk)]
            walked.append((u, v))
            order = rotation[v]
            assert order[(order.index(u) + 1) % len(order)] == w
    assert sorted(walked) == sorted((v, w) for v, order in rotation.items() for w in order)


def _faces_at_by_scan(apg, v: int) -> tuple[int, ...]:
    """Face indices at v by scanning every walk, once per incidence."""
    return tuple(i for i, f in enumerate(apg.faces) for x in f if x == v)


@pytest.mark.parametrize(
    "make",
    [plane_c5_drawing, poor4_drawing, special7_drawing, crossed_k4_drawing]
    + [lambda n=n, seed=seed: random_one_planar(n, seed=seed) for n in (5, 12, 40, 90) for seed in range(3)],
)
def test_face_incidence_matches_a_scan_of_the_walks(make):
    """special7's outer walk passes some vertices more than once."""
    d = make()
    apg = build_associated_plane_graph(d)
    assert apg.drawing is d
    for v in range(-1, apg.gstar.n + 2):
        assert apg.faces_at(v) == _faces_at_by_scan(apg, v)
        assert apg.is_star(v) == (v in apg.star_vertices) == (d.base.n <= v < apg.gstar.n)
    assert sum(len(apg.faces_at(v)) for v in range(apg.gstar.n)) == sum(len(f) for f in apg.faces)


def test_faces_at_is_read_only():
    """Callers share the index, so it hands out tuples, not copies of lists."""
    apg = build_associated_plane_graph(special7_drawing())
    assert type(apg.faces_at(0)) is tuple
    assert apg.faces_at(0) is apg.faces_at(0)
