"""Shared hand-built drawings and the random corpus used across test modules."""

from __future__ import annotations

import json

import pytest

from oddcolor.graph import Graph
from oddcolor.embedding import OnePlanarDrawing, build_associated_plane_graph, drawing_to_json
from oddcolor.generators import random_one_planar


def poor4_drawing() -> OnePlanarDrawing:
    """A drawing whose planarization has a poor 4-face.

    Center vertex u=0 (degree 4) and a 2-vertex v=1 bound a 4-face together
    with two crossing vertices; the far ends of u's crossed edges (x=2, y=3)
    have degree 2, hence are easy.
    """
    edges = [(0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (3, 5), (0, 4), (0, 5)]
    g = Graph.from_edge_list(edges, n=6)
    rot = {
        0: (4, 6, 7, 5),
        1: (6, 7),
        2: (6, 4),
        3: (5, 7),
        4: (0, 2, 6),
        5: (0, 7, 3),
        6: (0, 4, 2, 1),
        7: (5, 0, 1, 3),
    }
    return OnePlanarDrawing(
        base=g,
        crossings=(((0, 2), (1, 4)), ((0, 3), (1, 5))),
        rotation=rot,
    )


def semipoor5_drawing(extra_leaf: bool = False, c_leaves: int = 2) -> OnePlanarDrawing:
    """A semi-poor 5-face (a, b, z2, v, z1) plus a poor 4-face sharing v.

    Vertices a=0 and b=1 have degree 7; v=2 is a 2-vertex whose two edges
    are crossed by a-c and b-c, so v sits on both a 5-face with a and b and
    a 4-face with c=3.  With ``extra_leaf`` the degree of a rises to 8,
    switching a's payment from R2 to R1.  c has ``c_leaves`` leaves; with
    six, its degree is 8 and it pays the poor 4-face 1 under R1.
    """
    edges = [(0, 1), (0, 3), (1, 3), (2, 4), (2, 5)]
    edges += [(0, i) for i in range(6, 11)]
    edges += [(1, i) for i in range(11, 16)]
    c_leaf_ids = range(16, 16 + c_leaves)
    edges += [(3, leaf) for leaf in c_leaf_ids]
    n = 16 + c_leaves
    if extra_leaf:
        edges.append((0, n))
        n += 1
    g = Graph.from_edge_list(edges, n=n)
    z1, z2 = n, n + 1
    a_rot = [1, 6, 7, 8, 9, 10, n - 1, z1] if extra_leaf else [1, 6, 7, 8, 9, 10, z1]
    rot = {
        0: tuple(a_rot),
        1: (11, 12, 13, 14, 15, 0, z2),
        2: (z1, z2),
        3: (z2, z1, *c_leaf_ids),
        4: (z1,),
        5: (z2,),
        z1: (2, 0, 4, 3),
        z2: (1, 2, 3, 5),
    }
    for leaf in range(6, 11):
        rot[leaf] = (0,)
    for leaf in range(11, 16):
        rot[leaf] = (1,)
    for leaf in c_leaf_ids:
        rot[leaf] = (3,)
    if extra_leaf:
        rot[n - 1] = (0,)
    return OnePlanarDrawing(
        base=g,
        crossings=(((0, 3), (2, 4)), ((1, 3), (2, 5))),
        rotation=rot,
    )


def semipoor4_drawing() -> OnePlanarDrawing:
    """The plane square 0-1-2-3 with five leaves on 0 in the outer face.

    0 has degree 7 and 1, 2, 3 are 2-vertices, so the inner 4-face is
    semi-poor and 0 pays it 1/2 under R2.
    """
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)] + [(0, leaf) for leaf in range(4, 9)]
    rot = {0: (1, 4, 5, 6, 7, 8, 3), 1: (2, 0), 2: (3, 1), 3: (0, 2)}
    rot.update({leaf: (0,) for leaf in range(4, 9)})
    return OnePlanarDrawing(base=Graph.from_edge_list(edges, n=9), crossings=(), rotation=rot)


def special7_drawing() -> OnePlanarDrawing:
    """A drawing with a genuine special 7-vertex at the hub.

    Hub 0 has seven incident triangles; three of its spokes are crossed by
    the ring chords 1-2, 2-3, 3-4, producing the alternating original/4*
    neighbor pattern.  Leaves pad the ring degrees to 10, 7, 7, 7.
    """
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (0, 5), (0, 6), (0, 7)]
    edges += [(1, 2), (2, 3), (3, 4)]
    edges += [(1, leaf) for leaf in range(8, 15)]
    edges += [(2, leaf) for leaf in range(15, 19)]
    edges += [(3, leaf) for leaf in range(19, 23)]
    edges += [(4, leaf) for leaf in range(23, 27)]
    g = Graph.from_edge_list(edges, n=27)
    rot = {
        0: (1, 27, 2, 28, 3, 29, 4),
        1: (27, 0, 4, 8, 9, 10, 11, 12, 13, 14),
        2: (28, 0, 27, 15, 16, 17, 18),
        3: (29, 0, 28, 19, 20, 21, 22),
        4: (1, 0, 29, 23, 24, 25, 26),
        5: (27,),
        6: (28,),
        7: (29,),
        27: (2, 0, 1, 5),
        28: (3, 0, 2, 6),
        29: (4, 0, 3, 7),
    }
    for leaf in range(8, 15):
        rot[leaf] = (1,)
    for leaf in range(15, 19):
        rot[leaf] = (2,)
    for leaf in range(19, 23):
        rot[leaf] = (3,)
    for leaf in range(23, 27):
        rot[leaf] = (4,)
    return OnePlanarDrawing(
        base=g,
        crossings=(((0, 5), (1, 2)), ((0, 6), (2, 3)), ((0, 7), (3, 4))),
        rotation=rot,
    )


def crossed_k4_drawing(star_rotation: tuple[int, ...] = (0, 1, 2, 3)) -> OnePlanarDrawing:
    """K4 drawn as a square with crossing diagonals (one 4*-vertex, 4).

    The default rotation at the star alternates the diagonals' ends;
    (0, 2, 1, 3) does not.
    """
    g = Graph.from_edge_list(
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)], n=4
    )
    rot = {
        0: (1, 4, 3),
        1: (2, 4, 0),
        2: (3, 4, 1),
        3: (0, 4, 2),
        4: star_rotation,
    }
    return OnePlanarDrawing(base=g, crossings=(((0, 2), (1, 3)),), rotation=rot)


def nonplanar_rotation_drawing() -> OnePlanarDrawing:
    """random_one_planar(8, seed=3) with the first two entries of vertex 0's
    rotation swapped: its crossings alternate, but V - E + F = 9 - 21 + 12."""
    d = random_one_planar(8, seed=3)
    first, second, *rest = d.rotation[0]
    return OnePlanarDrawing(d.base, d.crossings, {**d.rotation, 0: (second, first, *rest)})


def plane_c5_drawing() -> OnePlanarDrawing:
    g = Graph.from_edge_list([(i, (i + 1) % 5) for i in range(5)], n=5)
    rot = {i: ((i + 1) % 5, (i - 1) % 5) for i in range(5)}
    return OnePlanarDrawing(base=g, crossings=(), rotation=rot)


def disjoint_union(a: OnePlanarDrawing, b: OnePlanarDrawing) -> OnePlanarDrawing:
    """a and b side by side: b's vertices follow a's, and the crossing
    vertices follow all of them, a's first."""
    na, nb, ca = a.base.n, b.base.n, len(a.crossings)

    def in_a(x: int) -> int:
        return x if x < na else x + nb

    def in_b(x: int) -> int:
        return x + na if x < nb else x + na + ca

    edges = [*a.base.edges, *((in_b(u), in_b(v)) for u, v in b.base.edges)]
    crossings = (*a.crossings, *(tuple((in_b(u), in_b(v)) for u, v in pair) for pair in b.crossings))
    rotation = {in_a(x): tuple(map(in_a, order)) for x, order in a.rotation.items()}
    rotation.update({in_b(x): tuple(map(in_b, order)) for x, order in b.rotation.items()})
    return OnePlanarDrawing(Graph.from_edge_list(edges, n=na + nb), crossings, rotation)


_K4_EDGES = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
_K4_ROTATION = {"0": [1, 3, 2], "1": [0, 2, 3], "2": [1, 0, 3], "3": [2, 0, 1]}


def _k4(crossings=None, **rotation) -> dict:
    """A plane K4 drawing payload, with crossings and rotation entries replaced."""
    payload = {"n": 4, "edges": _K4_EDGES, "rotation": {**_K4_ROTATION, **rotation}}
    if crossings is not None:
        payload["crossings"] = crossings
    return payload


def k4_with_rotation_key(key: str) -> dict:
    """The plane K4 payload with vertex 1's rotation key written as key."""
    payload = _k4()
    payload["rotation"] = {key if v == "1" else v: order for v, order in _K4_ROTATION.items()}
    return payload


# Drawing payloads that `gstar` must reject with exit code 2, by name.
MALFORMED_DRAWINGS = {
    "n-string": {"n": "x", "edges": [[0, 1]]},
    "rotation-order-int": {"n": 2, "edges": [[0, 1]], "rotation": {"0": 5, "1": [0]}},
    "edge-float": {"n": 2, "edges": [[0, 1.5]]},
    "edge-string": {"n": 2, "edges": [[0, "1"]]},
    "n-bool": {"n": True, "edges": []},
    "n-negative": {"n": -1, "edges": []},
    "edges-object": {"n": 3, "edges": {"0": 1}},
    "edge-length-3": {"n": 3, "edges": [[0, 1, 2]]},
    "crossing-length-1": {"n": 2, "edges": [[0, 1]], "crossings": [[0]]},
    "crossings-int": {"n": 2, "edges": [[0, 1]], "crossings": 7},
    "rotation-list": {"n": 2, "edges": [[0, 1]], "rotation": [[1], [0]]},
    "top-level-list": [2, [[0, 1]]],
    "edge-not-list": {"n": 2, "edges": [[0, 1], 7]},
    "edge-integral-float": {"n": 2, "edges": [[0, 1.0]]},
    "edge-bool": {"n": 2, "edges": [[0, 1], [True, 0]]},
    "edge-nested": {"n": 3, "edges": [[0, 1], [[1], 2]]},
    "edge-length-1": {"n": 2, "edges": [[0]]},
    "edge-self-loop": {"n": 3, "edges": [[0, 1], [2, 2]]},
    "edge-negative-id": {"n": 3, "edges": [[0, 1], [2, -1]]},
    "edge-loop-before-negative": {"n": 3, "edges": [[1, 1], [-1, 0]]},
    "edge-negative-before-loop": {"n": 3, "edges": [[0, -1], [1, 1]]},
    "edge-endpoint-n": {"n": 3, "edges": [[0, 1], [1, 3]]},
    "crossing-length-3": _k4([[1, 4, 0]]),
    "crossing-bool": _k4([[1, True]]),
    "crossing-integral-float": _k4([[1.0, 4]]),
    "crossing-nested": _k4([[1, [4]]]),
    "crossing-index-m": _k4([[1, 6]]),
    "crossing-negative-index": _k4([[-1, 4]]),
    "crossing-range-before-type": _k4([[1, 9], [0, True]]),
    "crossing-without-rotation": {"n": 4, "edges": _K4_EDGES, "crossings": [[1, 4]]},
    "rotation-order-object": _k4(**{"2": {"1": 0}}),
    "rotation-bool": _k4(**{"2": [1, True, 3]}),
    "rotation-float": _k4(**{"2": [1, 0.0, 3]}),
    "rotation-nested": _k4(**{"2": [1, [0], 3]}),
    "rotation-repeat": _k4(**{"2": [1, 0, 1]}),
    "rotation-uncovered": _k4(**{"0": [1, 3], "2": [1, 3]}),
    "rotation-asymmetric": _k4(**{"3": [2, 0]}),
    "rotation-key-out-of-range": _k4(**{"9": []}),
    "rotation-key-negative": _k4(**{"-1": []}),
    "rotation-key-letter": _k4(x=[1]),
    "rotation-key-empty": _k4(**{"": []}),
    "rotation-key-leading-zero": k4_with_rotation_key("01"),
    "rotation-key-space": k4_with_rotation_key(" 1"),
    "rotation-key-plus": k4_with_rotation_key("+1"),
    "rotation-key-duplicate": _k4(**{"01": [3, 2, 0]}),
    "rotation-key-underscore": {"n": 11, "edges": [[0, 10]], "rotation": {"0": [10], "1_0": [0]}},
    # json.dumps cannot write an integer this long, so the payload is the file's text
    "edge-long-integer": '{"n": 2, "edges": [[0, %s]]}' % ("1" * 5000),
    "rotation-key-long": _k4(**{"1" * 5000: []}),
    "rotation-key-long-letters": _k4(**{"x" * 5000: []}),
    "nonplanar-rotation": drawing_to_json(nonplanar_rotation_drawing()),
}


def drawing_text(payload) -> str:
    """The file text of a drawing payload: a str is the text itself."""
    return payload if isinstance(payload, str) else json.dumps(payload)


CORPUS_SIZE = 100


@pytest.fixture(scope="session")
def corpus():
    """100 seeded random 1-planar drawings with n ranging up to 40."""
    out = []
    for i in range(CORPUS_SIZE):
        n = 8 + (i % 33)  # 8..40
        out.append(random_one_planar(n, seed=i))
    return out


@pytest.fixture(scope="session")
def corpus_apgs(corpus):
    return [build_associated_plane_graph(d) for d in corpus]
