"""Canned instances and seeded random 1-planar drawings.

The random drawings come from an incremental plane triangulation (insert
each new vertex inside a random face, keeping the rotation system exact)
followed by crossing insertion: inside a quadrilateral formed by two
triangles sharing an edge, the missing diagonal is added so that it
crosses the shared edge.  Quadrilaterals are chosen edge-disjoint, so the
one-crossing-per-edge invariant holds by construction.
"""

from __future__ import annotations

import bisect
import itertools
import random

from .graph import Edge, Graph, norm_edge
from .embedding import OnePlanarDrawing


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edge_list([(i, (i + 1) % n) for i in range(n)], n=n)


def complete(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"complete needs n >= 3, got {n}")
    return Graph.from_edge_list(list(itertools.combinations(range(n), 2)), n=n)


def complete_minus_edge(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"complete_minus_edge needs n >= 3, got {n}")
    pairs = [e for e in itertools.combinations(range(n), 2) if e != (0, 1)]
    return Graph.from_edge_list(pairs, n=n)


def subdivided_complete(n: int) -> Graph:
    """K_n with every edge subdivided once.

    Branch vertices 0..n-1 keep degree n-1; the C(n,2) subdivision
    vertices have degree 2.  The result is bipartite, yet needs at least n
    colors in any odd coloring: equal-colored branch vertices leave their
    middle vertex without an odd color.
    """
    if n < 2:
        raise ValueError(f"subdivided_complete needs n >= 2, got {n}")
    pairs = []
    mid = n
    for i, j in itertools.combinations(range(n), 2):
        pairs.append((i, mid))
        pairs.append((mid, j))
        mid += 1
    return Graph.from_edge_list(pairs, n=mid)


# ---------------------------------------------------------------------------
# random plane triangulation with crossings


def _insert_vertex(rotation: dict[int, list[int]], face: tuple[int, int, int], v: int) -> None:
    """Insert v inside triangle face (a, b, c), splitting it into three."""
    a, b, c = face
    # rot[b]: v goes between a and c (after a); likewise cyclically
    for x, after in ((b, a), (c, b), (a, c)):
        i = rotation[x].index(after)
        rotation[x].insert(i + 1, v)
    rotation[v] = [c, b, a]


def random_plane_triangulation(
    n: int, rng: random.Random
) -> tuple[dict[int, list[int]], list[tuple[int, int, int]]]:
    """Rotation system and faces of a random stacked triangulation on n >= 3 vertices.

    The faces are kept in ``trace_faces`` order: a triangle's least dart
    leaves its least vertex, so each walk starts there, and the walks are
    sorted.  ``rng.choice`` indexes this list, so the order fixes the
    drawing a seed gives.  Splitting (a, b, c) by v leaves the walks
    (a, b, v), (b, c, v) and (c, a, v), where v is the greatest vertex.
    """
    rotation: dict[int, list[int]] = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    faces = [(0, 1, 2), (0, 2, 1)]
    for v in range(3, n):
        a, b, c = face = rng.choice(faces)
        del faces[bisect.bisect_left(faces, face)]
        for x, y in ((a, b), (b, c), (c, a)):
            bisect.insort(faces, (x, y, v) if x < y else (y, v, x))
        _insert_vertex(rotation, face, v)
    return rotation, faces


def random_one_planar(
    n: int, seed: int, crossings: int | None = None
) -> OnePlanarDrawing:
    """Seed-deterministic random 1-planar drawing on n >= 4 vertices.

    ``crossings`` caps the number of crossing pairs inserted (default
    roughly n/5); fewer may be produced when disjoint quadrilaterals run
    out.
    """
    if n < 4:
        raise ValueError(f"random_one_planar needs n >= 4, got {n}")
    rng = random.Random(seed)
    rotation, faces = random_plane_triangulation(n, rng)
    base_edges = {(u, v) for u, order in rotation.items() for v in order if u < v}
    if crossings is None:
        crossings = max(1, n // 5)

    dart_face: dict[tuple[int, int], tuple[int, int, int]] = {}
    for f in faces:
        a, b, c = f
        dart_face[(a, b)] = dart_face[(b, c)] = dart_face[(c, a)] = f

    # every edge of a triangulation borders two triangles
    candidates = sorted(base_edges)
    rng.shuffle(candidates)

    used_edges: set[Edge] = set()
    chosen: list[tuple[int, int, int, int]] = []  # quad (a, b, c, d), crossing ac x bd
    new_edges: set[Edge] = set()
    for a, c in candidates:
        if len(chosen) >= crossings:
            break
        # face walks around the shared edge {a, c}: f1 has dart (a,c), f2 (c,a)
        f1 = dart_face[(a, c)]
        f2 = dart_face[(c, a)]
        d = sum(f1) - a - c  # the third vertex of each triangle
        b = sum(f2) - a - c
        if b == d:
            continue
        bd = norm_edge(b, d)
        if bd in base_edges or bd in new_edges:
            continue
        quad_edges = {
            norm_edge(a, c),
            norm_edge(a, b),
            norm_edge(b, c),
            norm_edge(c, d),
            norm_edge(d, a),
        }
        if quad_edges & used_edges:
            continue
        used_edges |= quad_edges
        new_edges.add(bd)
        chosen.append((a, b, c, d))

    crossing_pairs: list[tuple[Edge, Edge]] = []
    for z, (a, b, c, d) in enumerate(chosen, start=n):
        # orient the quad along its boundary: f2 gives a -> b -> c, f1 gives c -> d -> a
        rotation[a][rotation[a].index(c)] = z
        rotation[c][rotation[c].index(a)] = z
        i = rotation[b].index(a)
        rotation[b].insert(i + 1, z)
        i = rotation[d].index(c)
        rotation[d].insert(i + 1, z)
        rotation[z] = [d, c, b, a]
        crossing_pairs.append(((a, c), norm_edge(b, d)))  # a < c in every candidate

    base = Graph.from_edge_list(base_edges | new_edges, n=n)
    return OnePlanarDrawing(
        base=base,
        crossings=tuple(crossing_pairs),
        rotation={v: tuple(o) for v, o in rotation.items()},
    )
