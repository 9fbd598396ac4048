import random
import sys

import pytest

from oddcolor import embedding
from oddcolor.embedding import build_associated_plane_graph, trace_faces
from oddcolor.generators import (
    complete,
    complete_minus_edge,
    cycle,
    random_one_planar,
    random_plane_triangulation,
    subdivided_complete,
)


def test_cycle_counts():
    g = cycle(6)
    assert g.n == 6 and len(g.edges) == 6
    assert all(g.degree(v) == 2 for v in range(6))
    with pytest.raises(ValueError):
        cycle(2)


def test_complete_counts():
    g = complete(6)
    assert len(g.edges) == 15
    h = complete_minus_edge(6)
    assert len(h.edges) == 14 and (0, 1) not in h.edges


def test_subdivided_complete_structure():
    g = subdivided_complete(7)
    assert g.n == 7 + 21 == 28
    assert len(g.edges) == 42
    for v in range(7):
        assert g.degree(v) == 6
    for v in range(7, 28):
        assert g.degree(v) == 2
    # bipartite: no edge between two branch or two subdivision vertices
    for u, v in g.edges:
        assert (u < 7) != (v < 7)


def test_random_one_planar_deterministic():
    d1 = random_one_planar(20, seed=5)
    d2 = random_one_planar(20, seed=5)
    assert d1.base == d2.base
    assert d1.crossings == d2.crossings
    assert d1.rotation == d2.rotation
    d3 = random_one_planar(20, seed=6)
    assert (d1.base, d1.crossings, d1.rotation) != (d3.base, d3.crossings, d3.rotation)


def test_random_one_planar_has_crossings():
    d = random_one_planar(30, seed=1)
    assert d.num_crossings >= 1
    assert d.num_crossings <= max(1, 30 // 5)


def test_random_one_planar_crossing_cap():
    d = random_one_planar(25, seed=2, crossings=2)
    assert d.num_crossings <= 2


def test_random_one_planar_minimum_size():
    with pytest.raises(ValueError):
        random_one_planar(3, seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2, 5, 9, 31])
def test_triangulation_keeps_the_traced_face_list(seed):
    """After every insertion the kept list is trace_faces's list, in order.

    A triangulation on m vertices makes the first m - 3 insertions of any
    larger one drawn from the same seed, so each prefix is one step.
    """
    for m in range(3, 61):
        rotation, faces = random_plane_triangulation(m, random.Random(seed))
        assert faces == [f.walk for f in trace_faces(rotation)]


def test_random_one_planar_traces_no_faces(monkeypatch):
    calls = []
    real = embedding.trace_faces

    def counting(rotation):
        calls.append(1)
        return real(rotation)

    for module in [m for name, m in sys.modules.items() if name.startswith("oddcolor")]:
        for key, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, key, counting)
    random_one_planar(300, seed=1)
    assert len(calls) == 0
    build_associated_plane_graph(random_one_planar(10, seed=1))
    assert len(calls) == 1  # the counter sees trace_faces where it is called


def test_random_one_planar_large_drawing_under_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    d = random_one_planar(6400, seed=3)
    apg = build_associated_plane_graph(d)  # validates d first
    assert d.base.n == 6400 and len(apg.star_vertices) == d.num_crossings == 6400 // 5


def test_corpus_drawings_validate_and_planarize(corpus, corpus_apgs):
    for d, apg in zip(corpus, corpus_apgs):
        d.validate()  # idempotent; also ran at construction
        # planarization invariants
        for v in range(d.base.n):
            assert apg.gstar.degree(v) == d.base.degree(v)
        assert len(apg.star_vertices) == d.num_crossings
