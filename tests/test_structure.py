import random
from operator import eq

import pytest
from hypothesis import given, settings, strategies as st

from oddcolor import structure
from oddcolor.graph import Graph
from oddcolor.embedding import Face, OnePlanarDrawing, build_associated_plane_graph
from oddcolor.generators import complete, cycle, random_one_planar
from oddcolor.structure import (
    FaceClass,
    classify_faces,
    classify_vertices,
    detect_lemma_violations,
    easy_vertices,
)

import reference
from conftest import (
    plane_c5_drawing,
    poor3_drawing,
    poor4_drawing,
    poor6_drawing,
    semipoor5_drawing,
    special7_drawing,
)
from test_discharging import GOLDEN_DRAWINGS


# ---------------------------------------------------------------------------
# easy vertices


def test_easy_low_degree():
    assert easy_vertices(cycle(5)) == {0, 1, 2, 3, 4}


def test_easy_odd_high_degree():
    # K8: every vertex has odd degree 7
    assert easy_vertices(complete(8)) == set(range(8))


def test_easy_none_in_k9():
    # K9: even degree 8, no low-degree neighbors
    assert easy_vertices(complete(9)) == set()


def test_easy_by_low_degree_neighbor():
    # center of a star has even degree 8 but degree-1 neighbors
    g = Graph.from_edge_list([(0, i) for i in range(1, 9)])
    assert 0 in easy_vertices(g)


def test_easy_parameterized_in_colors():
    # with a 17-color palette the low-degree threshold moves to 8
    assert easy_vertices(complete(9), colors=17) == set(range(9))


# ---------------------------------------------------------------------------
# vertex tags


def test_special_2_on_poor4_fixture():
    d = poor4_drawing()
    apg = build_associated_plane_graph(d)
    vt = classify_vertices(apg)
    assert vt.special_2 == {1}
    assert vt.special_7 == set()
    assert vt.stars == {6, 7}
    assert vt.m_star[0] == 2  # u touches both crossing vertices
    assert vt.n_e[0] == 4  # all of u's neighbors are easy here


def test_special_7_positive():
    d = special7_drawing()
    apg = build_associated_plane_graph(d)
    vt = classify_vertices(apg)
    assert vt.special_7 == {0}


def test_special_7_requires_high_degree_first_neighbor():
    # degrade the degree-10 ring vertex to 9 by dropping a leaf edge
    d = special7_drawing().without_edge(1, 8)
    apg = build_associated_plane_graph(d)
    vt = classify_vertices(apg)
    assert vt.special_7 == set()


def test_special_7_requires_all_triangles():
    # removing a ring chord destroys two of the seven triangles
    d = special7_drawing().without_edge(1, 4)
    apg = build_associated_plane_graph(d)
    vt = classify_vertices(apg)
    assert vt.special_7 == set()


# ---------------------------------------------------------------------------
# face classes


def test_poor4_classification():
    d = poor4_drawing()
    apg = build_associated_plane_graph(d)
    vt = classify_vertices(apg)
    ft = classify_faces(apg, vt)
    poor = [i for i, c in enumerate(ft.face_class) if c is FaceClass.POOR4]
    assert len(poor) == 1
    wit = ft.witness[poor[0]]
    assert wit["u"] == 0 and wit["v"] == 1
    assert {wit["x"], wit["y"]} == {2, 3}
    assert ft.n_2_special[poor[0]] == 1


def test_poor4_needs_easy_far_ends():
    # raise the degree of both far ends x=2, y=3 beyond easiness:
    # give each degree 8 with no low-degree neighbors is impractical here,
    # so check the logic directly: with easiness stripped the witness dies.
    from oddcolor.structure import _poor4_witness

    d = poor4_drawing()
    apg = build_associated_plane_graph(d)
    face = next(i for i, f in enumerate(apg.faces) if len(f) == 4)
    assert _poor4_witness(apg.faces[face], apg, easy=set()) is None
    assert _poor4_witness(apg.faces[face], apg, easy={2, 3}) is not None


def test_semi_poor_5_face():
    d = semipoor5_drawing()
    apg = build_associated_plane_graph(d)
    vt = classify_vertices(apg)
    ft = classify_faces(apg, vt)
    five = next(i for i, f in enumerate(apg.faces) if len(f) == 5)
    assert ft.face_class[five] is FaceClass.SEMI_POOR
    assert ft.n_2[five] == 1
    four = next(i for i, f in enumerate(apg.faces) if len(f) == 4)
    assert ft.face_class[four] is FaceClass.POOR4


def _face_classes(d: OnePlanarDrawing) -> dict[Face, tuple[FaceClass, dict]]:
    apg = build_associated_plane_graph(d)
    ft = classify_faces(apg, classify_vertices(apg))
    return dict(zip(apg.faces, zip(ft.face_class, ft.witness)))


def test_4_face_without_stars_is_no_poor_4_face():
    """(u, a, v, b) has d(v) = 2 and d(u) = 3, the degrees of a poor 4-face,
    but a and b are true vertices."""
    g = Graph.from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)], n=5)
    rot = {0: (1, 4, 3), 1: (0, 2), 2: (1, 3), 3: (2, 0), 4: (0,)}
    classes = _face_classes(OnePlanarDrawing(base=g, crossings=(), rotation=rot))
    assert classes[0, 1, 2, 3] == (FaceClass.SEMI_POOR, {})


def test_6_face_of_stars_2_vertices_and_one_8_vertex_is_semi_poor():
    """The face (u, z1, v, z2, w, z3) with d(u) = 8 and 2-vertices v, w that
    lie on no 4-face, so it is no poor 6-face."""
    edges = [(0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (0, 8)] + [(0, x) for x in range(9, 15)]
    z1, z2, z3 = 15, 16, 17
    rot = {
        0: (z1, *range(9, 15), z3),
        1: (z1, z2),
        2: (z2, z3),
        z1: (0, 1, 3, 4),
        z2: (1, 2, 5, 6),
        z3: (2, 0, 7, 8),
    }
    rot |= {x: (z1,) for x in (3, 4)} | {x: (z2,) for x in (5, 6)} | {x: (z3,) for x in (7, 8)}
    rot |= {x: (0,) for x in range(9, 15)}
    d = OnePlanarDrawing(
        base=Graph.from_edge_list(edges, n=15),
        crossings=(((0, 3), (1, 4)), ((1, 5), (2, 6)), ((2, 7), (0, 8))),
        rotation=rot,
    )
    assert _face_classes(d)[0, z1, 1, z2, 2, z3] == (FaceClass.SEMI_POOR, {"v8plus": 0})


def test_c5_faces_are_semi_poor():
    d = plane_c5_drawing()
    apg = build_associated_plane_graph(d)
    vt = classify_vertices(apg)
    ft = classify_faces(apg, vt)
    assert all(c is FaceClass.SEMI_POOR for c in ft.face_class)
    assert ft.n_2 == [5, 5]


def test_poor_faces_never_semi_poor(corpus, corpus_apgs):
    for d, apg in zip(corpus, corpus_apgs):
        vt = classify_vertices(apg)
        ft = classify_faces(apg, vt)
        for cls, n2s in zip(ft.face_class, ft.n_2_special):
            if cls is FaceClass.SEMI_POOR:
                assert not cls.is_poor
            if cls is FaceClass.POOR4:
                assert n2s >= 1


# ---------------------------------------------------------------------------
# lemma-conclusion detectors


def test_c5_violates_low_degree_lemmas():
    d = plane_c5_drawing()
    apg = build_associated_plane_graph(d)
    rep = detect_lemma_violations(apg)
    assert not rep.satisfied_all
    # every edge is uncrossed with low-degree endpoints
    assert len(rep.violations["L3"]) == 5
    # every vertex has degree 2 < 7
    flagged = {item["vertex"] for item in rep.violations["L4"]}
    assert flagged == {0, 1, 2, 3, 4}
    assert not rep.violations["L2"]  # degree 2 is even


def test_bridge_and_degree_one_flagged():
    g = Graph.from_edge_list([(0, 1)], n=2)
    from oddcolor.embedding import OnePlanarDrawing

    d = OnePlanarDrawing(base=g, crossings=(), rotation={0: (1,), 1: (0,)})
    apg = build_associated_plane_graph(d)
    rep = detect_lemma_violations(apg)
    kinds = {item.get("reason") for item in rep.violations["L1"]}
    assert "bridge" in kinds and "degree below 2" in kinds


def test_l8_flags_778_triangle():
    # shrink the degree-10 ring vertex of the special-7 drawing to 8: the
    # triangle (hub, ring1, ring4) becomes (7, 8, 7)
    d = special7_drawing().without_edge(1, 8).without_edge(1, 9)
    apg = build_associated_plane_graph(d)
    assert d.base.degree(1) == 8
    rep = detect_lemma_violations(apg)
    flagged = [item for item in rep.violations["L8"]]
    assert any(set(item["face_vertices"]) == {0, 1, 4} for item in flagged)


def test_l2_flags_low_odd_degree():
    g = Graph.from_edge_list([(0, 1), (0, 2), (0, 3)], n=4)
    from oddcolor.embedding import OnePlanarDrawing

    d = OnePlanarDrawing(
        base=g, crossings=(), rotation={0: (1, 2, 3), 1: (0,), 2: (0,), 3: (0,)}
    )
    apg = build_associated_plane_graph(d)
    rep = detect_lemma_violations(apg)
    assert {item["vertex"] for item in rep.violations["L2"]} >= {0}


def test_detectors_reject_small_palettes():
    d = plane_c5_drawing()
    apg = build_associated_plane_graph(d)
    with pytest.raises(ValueError):
        detect_lemma_violations(apg, colors=5)


def test_lemmas_touching_explains_elements():
    d = plane_c5_drawing()
    apg = build_associated_plane_graph(d)
    rep = detect_lemma_violations(apg)
    hits = rep.lemmas_touching(("v", 0), apg)
    assert "L3" in hits and "L4" in hits


def test_special_7_tags_are_consistent(corpus, corpus_apgs):
    for d, apg in zip(corpus, corpus_apgs):
        vt = classify_vertices(apg)
        for v in vt.special_7:
            assert d.base.degree(v) == 7
            assert all(len(apg.faces[i]) == 3 for i in apg.faces_at(v))
        for v in vt.special_2:
            assert d.base.degree(v) == 2


# ---------------------------------------------------------------------------
# the reference taxonomy


def _check_taxonomy_against_reference(d: OnePlanarDrawing) -> None:
    """classify_vertices' easy and special vertices and classify_faces'
    class of each face are those of reference.taxonomy."""
    apg = build_associated_plane_graph(d)
    vt = classify_vertices(apg)
    ft = classify_faces(apg, vt)
    ref = reference.taxonomy(d)
    assert (vt.easy, vt.special_2, vt.special_7) == (ref.easy, ref.special_2, ref.special_7)
    got = list(zip(apg.faces, (cls.value for cls in ft.face_class)))
    assert got == list(zip(reference.faces(d.rotation), ref.face_class))


@pytest.mark.parametrize("make", GOLDEN_DRAWINGS.values(), ids=GOLDEN_DRAWINGS)
def test_taxonomy_matches_the_reference_on_golden_drawings(make):
    _check_taxonomy_against_reference(make())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 60),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["zero", "default", "n"]),
    st.integers(0, 2**32 - 1),
)
def test_taxonomy_matches_the_reference_on_random_drawings(n, seed, cap, cut):
    """Random drawings less up to half their edges: the cut makes the
    2-vertices and semi-poor faces that the generator's own drawings lack."""
    d = random_one_planar(n, seed=seed, crossings={"zero": 0, "default": None, "n": n}[cap])
    rng = random.Random(cut)
    for e in rng.sample(sorted(d.base.edges), rng.randint(0, len(d.base.edges) // 2)):
        d = d.without_edge(*e)
    _check_taxonomy_against_reference(d)


def test_poor6_drawing_reaches_poor6():
    d = poor6_drawing()
    six = (0, 13, 1, 14, 2, 15)
    assert reference.taxonomy(d).face_class[reference.faces(d.rotation).index(six)] == "poor6"
    assert _face_classes(d)[six] == (FaceClass.POOR6, {"u": 0, "v": 1, "w": 2, "x": 3, "y": 4})


def test_poor3_drawing_reaches_poor3():
    d = poor3_drawing()
    ref = reference.taxonomy(d)
    assert ref.special_7 == {0, 4}
    assert ref.face_class[reference.faces(d.rotation).index((0, 1, 4))] == "poor3"
    assert _face_classes(d)[0, 1, 4] == (FaceClass.POOR3, {"special_7": [0, 4]})


def test_special_7_ring_is_matched_from_any_neighbor_either_way_round():
    ring = [10, structure.STAR, 7, structure.STAR, 8, structure.STAR, 7]
    for shift in range(7):
        turned = ring[shift:] + ring[:shift]
        assert structure.matches_special_7(turned) and structure.matches_special_7(turned[::-1])
    assert not structure.matches_special_7([9, *ring[1:]])
    assert not structure.matches_special_7([10, 7, structure.STAR, *ring[3:]])


def _taxonomy_check_fails(make) -> bool:
    try:
        _check_taxonomy_against_reference(make())
    except AssertionError:
        return True
    return False


def _perturbed(entry):
    """A degree test one higher, or a crossing marker turned into the test
    d = 4, the degree a crossing vertex has in G*."""
    if entry == structure.STAR:
        return eq, 4
    relation, degree = entry
    return relation, degree + 1


@pytest.mark.parametrize("index", range(len(structure.SPECIAL_7)), ids=[f"v{i}" for i in range(1, 8)])
def test_every_special_7_entry_is_held_to_the_reference(monkeypatch, index):
    """Perturbing one entry of SPECIAL_7 breaks the reference taxonomy test
    on at least one golden drawing."""
    ring = structure.SPECIAL_7
    monkeypatch.setattr(structure, "SPECIAL_7", (*ring[:index], _perturbed(ring[index]), *ring[index + 1:]))
    assert any(_taxonomy_check_fails(make) for make in GOLDEN_DRAWINGS.values())
