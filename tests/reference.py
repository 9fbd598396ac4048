"""Slow, plain definitions that the package's fast paths are tested against.

The functions read only the package's data: a graph's ``n`` and
``edges``, a drawing's ``base``, ``crossings`` and ``rotation``, a
coloring's ``k`` and ``assign``, the taxonomy's ``special_2``,
``special_7`` and ``face_class`` (which ``taxonomy`` also derives from
the drawing alone) and the witnesses of a lemma report.  None of them
calls a function of the package, so a fault in the code under test
cannot also be in its oracle.  ``test_imports`` fails if this module
imports an ``oddcolor`` name outside ``if TYPE_CHECKING:``.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    from oddcolor.coloring import Coloring
    from oddcolor.embedding import OnePlanarDrawing
    from oddcolor.graph import Edge, Graph
    from oddcolor.structure import FaceTags, VertexTags


def adjacency(n: int, edges: Iterable[Edge]) -> tuple[tuple[int, ...], ...]:
    """Each of the vertices 0..n-1's neighbors, ascending, read from the edges alone."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(a)) for a in nbrs)


def components(adj: Sequence[Sequence[int]]) -> list[set[int]]:
    """The vertex sets of the components, by a plain walk from each vertex not yet reached."""
    seen: set[int] = set()
    out = []
    for s in range(len(adj)):
        if s in seen:
            continue
        comp, todo = {s}, [s]
        while todo:
            for w in adj[todo.pop()]:
                if w not in comp:
                    comp.add(w)
                    todo.append(w)
        seen |= comp
        out.append(comp)
    return out


def bridges(g: Graph) -> set[Edge]:
    """An edge is a bridge iff deleting it increases the component count."""
    base = len(components(adjacency(g.n, g.edges)))
    return {e for e in g.edges if len(components(adjacency(g.n, g.edges - {e}))) > base}


# ---------------------------------------------------------------------------
# odd colorings

Colors = Mapping[int, int] | Sequence[int]  # a color per vertex, looked up by its id


def _sees_an_odd_color(color: Colors, nbrs: Iterable[int]) -> bool:
    counts: dict[int, int] = {}
    for u in nbrs:
        counts[color[u]] = counts.get(color[u], 0) + 1
    return any(count % 2 for count in counts.values())


def _is_odd(edges: Iterable[Edge], adj: Sequence[Sequence[int]], color: Colors) -> bool:
    for u, v in edges:
        if color[u] == color[v]:
            return False
    for nbrs in adj:
        if nbrs and not _sees_an_odd_color(color, nbrs):
            return False
    return True


def violations(g: Graph, color: Mapping[int, int]) -> tuple[set[Edge], set[int], set[int]]:
    """The proper violations, odd violations and uncolored vertices of a partial coloring.

    An edge is a proper violation when both ends have one color.  A vertex
    is an odd violation when it has neighbors, all of them colored, and sees
    each of their colors an even number of times.
    """
    proper = {(u, v) for u, v in g.edges if u in color and v in color and color[u] == color[v]}
    odd = {
        v
        for v, nbrs in enumerate(adjacency(g.n, g.edges))
        if nbrs and all(u in color for u in nbrs) and not _sees_an_odd_color(color, nbrs)
    }
    return proper, odd, {v for v in range(g.n) if v not in color}


def is_odd_coloring(g: Graph, color: Colors) -> bool:
    """Whether color, which gives each vertex of g a color, is proper and has
    each vertex with a neighbor see some color an odd number of times."""
    return _is_odd(g.edges, adjacency(g.n, g.edges), color)


def odd_colorings(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Every odd coloring of g with colors 1..k, as a tuple indexed by vertex, by trying all k**n."""
    adj = adjacency(g.n, g.edges)
    return (c for c in itertools.product(range(1, k + 1), repeat=g.n) if _is_odd(g.edges, adj, c))


def chi_odd(g: Graph, kmax: int) -> int | None:
    """The least k <= kmax for which g has an odd k-coloring, or None."""
    return next((k for k in range(1, kmax + 1) if next(odd_colorings(g, k), None) is not None), None)


# ---------------------------------------------------------------------------
# drawings


def planarization(d: OnePlanarDrawing) -> dict[Edge, Edge]:
    """Each edge of G* mapped to its base edge, in the order of ``d.base.edges``.

    An uncrossed edge maps to itself; a crossed edge gives way to the two
    half-edges from its ends to its crossing vertex, n + its crossing's index.
    """
    star = {e: z for z, pair in enumerate(d.crossings, start=d.base.n) for e in pair}
    origin: dict[Edge, Edge] = {}
    for e in d.base.edges:
        z = star.get(e)
        if z is None:
            origin[e] = e
        else:  # z > e[1] > e[0]
            origin[e[0], z] = e
            origin[e[1], z] = e
    return origin


def gstar_adjacency(d: OnePlanarDrawing) -> tuple[tuple[int, ...], ...]:
    """G*'s neighbor lists, ascending: the graph of the planarization on n + #crossings vertices."""
    return adjacency(d.base.n + len(d.crossings), planarization(d))


def former_validate(d: OnePlanarDrawing) -> None:
    """``OnePlanarDrawing.validate`` as it was before its one-pass accept rule, verbatim."""
    n = d.base.n
    seen_edges: set = set()
    for e1, e2 in d.crossings:
        for e in (e1, e2):
            if e not in d.base.edges:
                raise ValueError(f"crossing refers to non-edge {e}")
            if e in seen_edges:
                raise ValueError(f"edge {e} crossed twice")
            seen_edges.add(e)
        ends = {e1[0], e1[1], e2[0], e2[1]}
        if len(ends) != 4:
            raise ValueError(
                f"crossing pair {e1} x {e2} shares an endpoint"
            )
    planar_edges = planarization(d).keys()
    nverts = n + len(d.crossings)
    for v, order in d.rotation.items():
        if not 0 <= v < nverts:
            raise ValueError(f"rotation key {v} out of range")
        if len(set(order)) != len(order):
            raise ValueError(f"rotation at {v} repeats a neighbor")
    darts = {(v, w) for v, order in d.rotation.items() for w in order}
    rot_edges = {(v, w) if v <= w else (w, v) for v, w in darts}
    if rot_edges != planar_edges:
        missing = planar_edges - rot_edges
        extra = rot_edges - planar_edges
        raise ValueError(
            f"rotation does not cover the planarization exactly "
            f"(missing={sorted(missing)}, extra={sorted(extra)})"
        )
    if len(darts) != 2 * len(planar_edges):  # some edge has one dart only
        for u, v in planar_edges:
            if (u, v) not in darts or (v, u) not in darts:
                raise ValueError(f"rotation is not symmetric on edge ({u}, {v})")
    for z, (e1, e2) in enumerate(d.crossings, start=n):
        order = d.rotation[z]
        if {order[0], order[2]} not in ({*e1}, {*e2}):
            raise ValueError(f"rotation at crossing vertex {z} does not alternate {e1} and {e2}")


def faces(rotation: Mapping[int, Sequence[int]]) -> list[tuple[int, ...]]:
    """The boundary walks of a rotation system whose darts all have reverses.

    From each dart not yet walked, in ascending order, the walk follows
    (u, v) by (v, w), w the successor of u in the rotation at v, until it
    comes back; a face is the tuple of the vertices it leaves.
    """
    walked: set[tuple[int, int]] = set()
    out = []
    for start in sorted((u, v) for u, order in rotation.items() for v in order):
        if start in walked:
            continue
        walk = []
        u, v = start
        while (u, v) not in walked:
            walked.add((u, v))
            walk.append(u)
            order = rotation[v]
            u, v = v, order[(order.index(u) + 1) % len(order)]
        out.append(tuple(walk))
    return out


def planarity_fault(d: OnePlanarDrawing) -> str | None:
    """For a drawing that passes the former checks, the message naming the
    first component of G* with an edge, by least vertex, on which V - E + F
    != 2, F counting the face walks that start in it; or None."""
    adj, walks = gstar_adjacency(d), faces(d.rotation)
    for comp in components(adj):
        nv, ne = len(comp), sum(len(adj[v]) for v in comp) // 2
        nf = sum(f[0] in comp for f in walks)
        if ne and nv - ne + nf != 2:
            return f"rotation system is not planar on component {sorted(comp)[:8]}...: V-E+F = {nv}-{ne}+{nf} != 2"
    return None


def is_valid_drawing(d: OnePlanarDrawing) -> bool:
    """Whether d passes the former checks and its rotation is planar, V - E + F = 2
    on each component of G* that has an edge."""
    try:
        former_validate(d)
    except ValueError:
        return False
    return planarity_fault(d) is None


# ---------------------------------------------------------------------------
# taxonomy


class Taxonomy(NamedTuple):
    easy: set[int]
    special_2: set[int]
    special_7: set[int]
    face_class: list[str]  # the class of each walk of faces(d.rotation), by its string value


def _special_7_ring(x: int, walks: Sequence[tuple[int, ...]], deg: Sequence[int], n: int) -> bool:
    """Whether the 7-vertex x lies on triangles only, and its neighbors
    v1..v7 in order around it, one way round or the other, are a vertex of
    degree >= 10, a crossing vertex, a vertex of degree >= 7, a crossing
    vertex, a vertex of degree >= 7, a crossing vertex and a 7-vertex.

    The order around x is read off its triangles: a walk (p, x, s) turns
    at x from the neighbor p to the next one, s.
    """
    if any(len(f) != 3 for f in walks if x in f):
        return False
    after = {f[i - 1]: f[(i + 1) % 3] for f in walks for i in range(3) if f[i] == x}
    ring = [min(after)]
    while len(ring) < len(after):
        ring.append(after[ring[-1]])
    for r in (ring, ring[::-1]):
        for s in range(len(r)):
            v1, v2, v3, v4, v5, v6, v7 = r[s:] + r[:s]
            if min(v2, v4, v6) >= n and deg[v1] >= 10 and deg[v3] >= 7 and deg[v5] >= 7 and deg[v7] == 7:
                return True
    return False


def taxonomy(d: OnePlanarDrawing) -> Taxonomy:
    """Easy vertices, special 2- and 7-vertices and the class of each face walk.

    Degrees are in G*, where a vertex of the base graph keeps its degree
    and a crossing vertex has 4; a vertex at or above n is a crossing
    vertex.  A vertex is easy when, in the base graph, its degree is at
    most 6 or odd, or a neighbor's degree is at most 6.  A special
    2-vertex is a 2-vertex on a 4-face; a special 7-vertex is as
    ``_special_7_ring`` says.  A face is, the first that applies:

    - poor3: a triangle of degrees 7, 7 and 10 or more whose 7-vertices are special;
    - poor4: a 4-face read from some vertex as (u, z1, v, z2), with crossing
      vertices z1 and z2, d(v) = 2, d(u) != 2 and easy far ends of u's
      edges through z1 and z2;
    - poor6: a 6-face read from some vertex as (u, z1, v, z2, w, z3), with
      crossing vertices z1, z2 and z3, special 2-vertices v and w, and easy
      far ends of u's edges through z1 and z3;
    - semi_poor: a 4- or 5-face through a 2-vertex, or a face of degree 6
      or more whose passes are all through crossing vertices, 2-vertices
      and vertices of degree 8 or more, exactly one of them the last kind;
    - ordinary.
    """
    n, adj, walks = d.base.n, gstar_adjacency(d), faces(d.rotation)
    deg = [len(nbrs) for nbrs in adj]
    base = adjacency(n, d.base.edges)
    easy = {x for x, nbrs in enumerate(base) if len(nbrs) <= 6 or len(nbrs) % 2 or any(len(base[y]) <= 6 for y in nbrs)}
    special_2 = {x for x in range(n) if deg[x] == 2 and any(len(f) == 4 for f in walks if x in f)}
    special_7 = {x for x in range(n) if deg[x] == 7 and _special_7_ring(x, walks, deg, n)}

    def far_end(z: int, u: int) -> int:
        a, b = next(e for e in d.crossings[z - n] if u in e)
        return a + b - u

    classes = []
    for f in walks:
        turns = [f[i:] + f[:i] for i in range(len(f))]
        ds = sorted(deg[x] for x in f)
        if len(f) == 3 and ds[:2] == [7, 7] and ds[2] >= 10 and {x for x in f if deg[x] == 7} <= special_7:
            cls = "poor3"
        elif len(f) == 4 and any(
            min(z1, z2) >= n and deg[v] == 2 and deg[u] != 2 and far_end(z1, u) in easy and far_end(z2, u) in easy
            for u, z1, v, z2 in turns
        ):
            cls = "poor4"
        elif len(f) == 6 and any(
            min(z1, z2, z3) >= n and {v, w} <= special_2 and far_end(z1, u) in easy and far_end(z3, u) in easy
            for u, z1, v, z2, w, z3 in turns
        ):
            cls = "poor6"
        elif len(f) in (4, 5) and 2 in ds:
            cls = "semi_poor"
        elif len(f) >= 6 and sum(dx >= 8 for dx in ds) == 1 and all(x >= n or deg[x] == 2 or deg[x] >= 8 for x in f):
            cls = "semi_poor"
        else:
            cls = "ordinary"
        classes.append(cls)
    return Taxonomy(easy, special_2, special_7, classes)


# ---------------------------------------------------------------------------
# charges

Element = tuple[str, int]  # ("v", vertex of G*) or ("f", index of a face walk)
Move = tuple[Element, Element, Fraction, str]  # source, target, amount, rule
POOR = ("poor3", "poor4", "poor6")


def discharge(d: OnePlanarDrawing, vt: VertexTags, ft: FaceTags) -> tuple[dict, dict, Counter[Move]]:
    """The initial and final charges of G*'s elements and the multiset of R1-R4's transfers.

    Each vertex of G* with a neighbor and each face walk f starts with its
    degree less 4, d(f) being the length of the walk.  The rules give per
    incidence, so a walk that passes a vertex twice gives or takes twice:

    - R1: a vertex of degree >= 8 gives 1 to a poor face, and 1/2 to any
      other face that is semi-poor or a 3-face.
    - R2: a 7-vertex gives 1/2 to a semi-poor 4-face, to a semi-poor
      5-face that passes 7-vertices twice, to a 3-face at a crossing
      vertex, and, if it is not a special 7-vertex, to a 3-face whose
      degrees are 7, 7 and 10 or more.
    - R3: a face of degree >= 5 splits d(f) - 4 equally among its
      passes through 2-vertices.
    - R4, after R1 and R2 have paid every face: a face of degree >= 4
      splits what they gave it equally among its passes through special
      2-vertices.

    A transfer of 0 is none.  Faces are compared to their classes by the
    classes' string values.
    """
    adj, walks = gstar_adjacency(d), faces(d.rotation)
    deg = [len(nbrs) for nbrs in adj]
    crossing_vertices = range(d.base.n, len(adj))
    mu: dict[Element, Fraction] = {("v", x): Fraction(dx - 4) for x, dx in enumerate(deg) if dx}
    mu.update({("f", i): Fraction(len(f) - 4) for i, f in enumerate(walks)})
    final = dict(mu)
    moves: Counter[Move] = Counter()

    def give(source: Element, target: Element, amount: Fraction, rule: str) -> None:
        if amount:
            moves[source, target, amount, rule] += 1
            final[source] -= amount
            final[target] += amount

    half = Fraction(1, 2)
    income = [Fraction(0)] * len(walks)
    for i, f in enumerate(walks):
        cls, size = ft.face_class[i], len(f)
        degrees = sorted(deg[x] for x in f)
        for x in f:
            amount, rule = Fraction(0), "R1"
            if deg[x] >= 8:
                amount = 1 if cls in POOR else half if cls == "semi_poor" or size == 3 else 0
            elif deg[x] == 7:
                rule = "R2"
                if cls == "semi_poor" and (size == 4 or size == 5 and degrees.count(7) == 2):
                    amount = half
                elif size == 3 and any(z in crossing_vertices for z in f):
                    amount = half
                elif size == 3 and degrees[:2] == [7, 7] and degrees[2] >= 10 and x not in vt.special_7:
                    amount = half
            give(("v", x), ("f", i), Fraction(amount), rule)
            income[i] += amount
    for i, f in enumerate(walks):
        twos = [x for x in f if deg[x] == 2]
        specials = [x for x in f if x in vt.special_2]
        if len(f) >= 5:
            for x in twos:
                give(("f", i), ("v", x), Fraction(len(f) - 4, len(twos)), "R3")
        if len(f) >= 4:
            for x in specials:
                give(("f", i), ("v", x), income[i] / len(specials), "R4")
    return mu, final, moves


def explained_by(d: OnePlanarDrawing, violations: Mapping[str, Sequence[dict]], element: Element) -> list[str]:
    """The lemmas, in order, that explain element, read from their witnesses.

    A witness names the vertex under its "vertex" key, the ends of its
    "edge" and the vertices of its "face" walk.  A lemma explains a vertex
    when one of its witnesses names the vertex, and a face when a witness
    names the face or one of the face's vertices.
    """
    walks = faces(d.rotation)

    def named(witness: dict) -> set[int]:
        out = set(witness.get("edge", ()))
        if "vertex" in witness:
            out.add(witness["vertex"])
        if "face" in witness:
            out.update(walks[witness["face"]])
        return out

    kind, x = element

    def explains(witness: dict) -> bool:
        if kind == "v":
            return x in named(witness)
        return witness.get("face") == x or bool(named(witness) & set(walks[x]))

    return [lemma for lemma, witnesses in sorted(violations.items()) if any(map(explains, witnesses))]


# ---------------------------------------------------------------------------
# JSON


def json_of_drawing(d: OnePlanarDrawing) -> str:
    """The drawing's text as json's own encoder writes it."""
    edges = sorted(d.base.edges)
    idx = {e: i for i, e in enumerate(edges)}
    payload = {
        "n": d.base.n,
        "edges": [list(e) for e in edges],
        "crossings": [[idx[e1], idx[e2]] for e1, e2 in d.crossings],
        "rotation": {str(v): list(order) for v, order in sorted(d.rotation.items())},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def json_of_coloring(c: Coloring) -> str:
    """reduce-color's success payload for c, as json's own encoder writes it."""
    payload = {
        "ok": True,
        "k": c.k,
        "colors_used": len(set(c.assign.values())),
        "coloring": {str(v): a for v, a in sorted(c.assign.items())},
    }
    return json.dumps(payload, sort_keys=True, indent=2)
