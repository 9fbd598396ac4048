"""Structural taxonomy of a 1-planar drawing and its plane graph.

Easy vertices, special 2-/7-vertices, poor and semi-poor faces, and
detectors for the conclusions of the eight reducibility lemmas.  Easiness
is always evaluated in the base graph, never in the planarization: the
crossing vertices are artifacts of the drawing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import eq, ge
from typing import Callable, Iterable, Iterator, Sequence

from .graph import Graph
from .embedding import AssociatedPlaneGraph, Face

PALETTE = 13
"""The palette of the theorem: every 1-planar graph is odd 13-colorable."""


def is_low(degree: int, colors: int = PALETTE) -> bool:
    """Degree at most (colors-1)//2: a vertex too small to block a color."""
    return degree <= (colors - 1) // 2


def is_easy(degree: int, neighbor_degrees: Iterable[int], colors: int = PALETTE) -> bool:
    """Whether a vertex forbids only one color when a neighbor gets colored.

    It does when its degree is low or odd, or it has a neighbor of low degree.
    """
    return (
        is_low(degree, colors)
        or degree % 2 == 1
        or any(is_low(du, colors) for du in neighbor_degrees)
    )


def easy_neighbors(g: Graph, v: int, easy: set[int]) -> int:
    """How many neighbors of v lie in easy."""
    return sum(1 for u in g.adj[v] if u in easy)


def breaks_lemma4(g: Graph, v: int, easy: set[int], colors: int = PALETTE) -> bool:
    """Lemma 4's bound fails: an easy vertex of degree above the low ones has
    more than 2d - colors easy neighbors, so it is reducible.

    easy is easy_vertices(g, colors); its neighbors are counted last, only
    for the vertices the cheaper tests leave.
    """
    d = g.degree(v)
    return (
        not is_low(d, colors)
        and v in easy
        and easy_neighbors(g, v, easy) > 2 * d - colors
    )


def _sevens_of_77x(
    f: Face, apg: AssociatedPlaneGraph, third_ok: Callable[[int], bool]
) -> list[int]:
    """The degree-7 vertices of f, in walk order, when f is a triangle with
    degrees 7, 7 and a third accepted by third_ok; else [].

    Crossing vertices have degree 4, so these degrees exclude them.
    """
    degs = [apg.gstar.degree(x) for x in f]
    if len(f) != 3 or sorted(degs)[:2] != [7, 7] or not third_ok(max(degs)):
        return []
    return [x for x, dx in zip(f, degs) if dx == 7]


def sevens_of_778(f: Face, apg: AssociatedPlaneGraph) -> list[int]:
    """The 7-vertices of a 7-7-8 triangle (Lemma 8), else []."""
    return _sevens_of_77x(f, apg, lambda d: d == 8)


def sevens_of_7710(f: Face, apg: AssociatedPlaneGraph) -> list[int]:
    """The 7-vertices of a 7-7-10+ triangle (a poor 3-face candidate), else []."""
    return _sevens_of_77x(f, apg, lambda d: d >= 10)


def easy_vertices(g: Graph, colors: int = PALETTE) -> set[int]:
    """Vertices that forbid only one color when a neighbor gets colored."""
    return {
        v for v in range(g.n)
        if is_easy(g.degree(v), (g.degree(u) for u in g.adj[v]), colors)
    }


@dataclass
class VertexTags:
    easy: set[int]
    special_2: set[int]
    special_7: set[int]
    stars: set[int]
    n_e: dict[int, int]  # easy-neighbor count, in the base graph
    m_star: dict[int, int]  # 4*-neighbor count, in the planarization

    def to_jsonable(self) -> dict:
        return {
            "easy": sorted(self.easy),
            "special_2": sorted(self.special_2),
            "special_7": sorted(self.special_7),
            "stars": sorted(self.stars),
            "n_e": {str(v): c for v, c in sorted(self.n_e.items())},
            "m_star": {str(v): c for v, c in sorted(self.m_star.items())},
        }


class FaceClass(str, Enum):
    POOR3 = "poor3"
    POOR4 = "poor4"
    POOR6 = "poor6"
    SEMI_POOR = "semi_poor"
    ORDINARY = "ordinary"

    @property
    def is_poor(self) -> bool:
        return self in (FaceClass.POOR3, FaceClass.POOR4, FaceClass.POOR6)


@dataclass
class FaceTags:
    face_class: list[FaceClass]
    witness: list[dict]
    n_2: list[int]  # 2-vertex incidences per face
    n_2_special: list[int]  # special-2-vertex incidences per face

    def to_jsonable(self) -> dict:
        return {
            "faces": [
                {
                    "class": cls.value,
                    "witness": wit,
                    "n_2": n2,
                    "n_2_special": n2s,
                }
                for cls, wit, n2, n2s in zip(
                    self.face_class, self.witness, self.n_2, self.n_2_special
                )
            ]
        }


def classify_vertices(apg: AssociatedPlaneGraph) -> VertexTags:
    g = apg.drawing.base
    easy = easy_vertices(g)
    stars = set(apg.star_vertices)
    n_e = {v: easy_neighbors(g, v, easy) for v in range(g.n)}
    m_star = {
        v: sum(1 for u in apg.gstar.adj[v] if u in stars) for v in range(g.n)
    }
    special_2 = {
        v
        for v in range(g.n)
        if g.degree(v) == 2 and any(len(apg.faces[i]) == 4 for i in apg.faces_at(v))
    }
    special_7 = {
        v for v in range(g.n) if g.degree(v) == 7 and _is_special_7(v, apg)
    }
    return VertexTags(
        easy=easy,
        special_2=special_2,
        special_7=special_7,
        stars=stars,
        n_e=n_e,
        m_star=m_star,
    )


STAR = "4*"  # a crossing vertex, in SPECIAL_7 and as a neighbor's type

SPECIAL_7 = ((ge, 10), STAR, (ge, 7), STAR, (ge, 7), STAR, (eq, 7))
"""The ring v1..v7 of a special 7-vertex: STAR, or (relation, degree) that
a true neighbor's degree must pass."""


def _turns(seq: Sequence, backwards: bool = False) -> Iterator[Sequence]:
    """seq read from each of its positions in turn, and with backwards reversed as well."""
    for s in (seq, seq[::-1]) if backwards else (seq,):
        for i in range(len(s)):
            yield s[i:] + s[:i]


def _fits(entry, kind) -> bool:
    """Whether a neighbor of type kind, STAR or its degree, passes a ring entry."""
    return entry == kind if STAR in (entry, kind) else entry[0](kind, entry[1])


def matches_special_7(ring: Sequence) -> bool:
    """Whether a 7-vertex's ring of neighbor types, STAR or a degree, in
    rotation order, matches SPECIAL_7 from some neighbor either way round."""
    return any(all(map(_fits, SPECIAL_7, turn)) for turn in _turns(ring, backwards=True))


def _is_special_7(v: int, apg: AssociatedPlaneGraph) -> bool:
    """Whether the 7-vertex v has seven incident triangles and a ring that matches SPECIAL_7."""
    if any(len(apg.faces[i]) != 3 for i in apg.faces_at(v)):
        return False
    return matches_special_7([STAR if apg.is_star(u) else apg.gstar.degree(u) for u in apg.drawing.rotation[v]])


def _far_end(apg: AssociatedPlaneGraph, z: int, u: int) -> int:
    """For star z adjacent to u: the far end of u's crossed edge through z."""
    a, b = apg.drawing.crossed_edge(z, u)
    return a + b - u


def _poor4_witness(f: Face, apg: AssociatedPlaneGraph, easy: set[int]) -> dict | None:
    """Check the 4-face f for the poor pattern (u, 4*, 2-vertex, 4*).

    u and v are neighbors of stars, so true vertices; consecutive around a
    star, they lie on its two different crossed edges.
    """
    for u, z1, v, z2 in _turns(f):
        if apg.is_star(z1) and apg.is_star(z2) and apg.gstar.degree(v) == 2 and apg.gstar.degree(u) != 2:
            # both of v's edges are crossed by edges of u, whose far ends must be easy
            x, y = _far_end(apg, z1, u), _far_end(apg, z2, u)
            if x in easy and y in easy:
                return {"u": u, "v": v, "x": x, "y": y}
    return None


def _poor6_witness(f: Face, apg: AssociatedPlaneGraph, easy: set[int], special_2: set[int]) -> dict | None:
    """Check the 6-face f for the poor pattern (u, 4*, 2, 4*, 2, 4*), whose
    2-vertices are special."""
    for u, z1, v, z2, w, z3 in _turns(f):
        if apg.is_star(z1) and apg.is_star(z2) and apg.is_star(z3) and v in special_2 and w in special_2:
            # z1 crosses an edge of u with an edge of v; z3 likewise for u and w
            x, y = _far_end(apg, z1, u), _far_end(apg, z3, u)
            if x in easy and y in easy:
                return {"u": u, "v": v, "w": w, "x": x, "y": y}
    return None


def classify_faces(apg: AssociatedPlaneGraph, vt: VertexTags) -> FaceTags:
    classes: list[FaceClass] = []
    witnesses: list[dict] = []
    n2_list: list[int] = []
    n2s_list: list[int] = []
    for f in apg.faces:
        n2 = sum(1 for v in f if apg.gstar.degree(v) == 2)
        n2s = sum(1 for v in f if v in vt.special_2)
        cls = FaceClass.ORDINARY
        wit: dict = {}
        deg = len(f)
        if deg == 3:
            sevens = sevens_of_7710(f, apg)
            if sevens and all(v in vt.special_7 for v in sevens):
                cls = FaceClass.POOR3
                wit = {"special_7": sorted(sevens)}
        elif deg == 4:
            w4 = _poor4_witness(f, apg, vt.easy)
            if w4 is not None:
                cls = FaceClass.POOR4
                wit = w4
            elif n2 > 0:
                cls = FaceClass.SEMI_POOR
        elif deg == 5:
            if n2 > 0:
                cls = FaceClass.SEMI_POOR
        elif deg == 6:
            w6 = _poor6_witness(f, apg, vt.easy, vt.special_2)
            if w6 is not None:
                cls = FaceClass.POOR6
                wit = w6
        if cls is FaceClass.ORDINARY and deg >= 6:
            eights = [v for v in f if apg.gstar.degree(v) >= 8]
            rest_ok = all(
                apg.is_star(v) or apg.gstar.degree(v) == 2 or apg.gstar.degree(v) >= 8
                for v in f
            )
            if len(eights) == 1 and rest_ok:
                cls = FaceClass.SEMI_POOR
                wit = {"v8plus": eights[0]}
        classes.append(cls)
        witnesses.append(wit)
        n2_list.append(n2)
        n2s_list.append(n2s)
    return FaceTags(
        face_class=classes, witness=witnesses, n_2=n2_list, n_2_special=n2s_list
    )


# ---------------------------------------------------------------------------
# lemma-conclusion detectors


@dataclass
class LemmaReport:
    violations: dict[str, list]

    @property
    def satisfied_all(self) -> bool:
        return all(not v for v in self.violations.values())

    def lemmas_touching(self, element: tuple[str, int], apg) -> list[str]:
        """Lemma ids whose witnesses touch a vertex or face element."""
        kind, ident = element
        hits = []
        for lemma, items in sorted(self.violations.items()):
            for item in items:
                if not isinstance(item, dict):
                    continue
                verts: set[int] = set()
                faces: set[int] = set()
                for key in ("vertex", "u", "v"):
                    if key in item and isinstance(item[key], int):
                        verts.add(item[key])
                if "edge" in item:
                    verts.update(item["edge"])
                if "face" in item:
                    faces.add(item["face"])
                    verts.update(apg.faces[item["face"]])
                if kind == "v" and (
                    ident in verts or any(ident in set(apg.faces[fi]) for fi in faces)
                ):
                    hits.append(lemma)
                    break
                if kind == "f":
                    face_verts = set(apg.faces[ident])
                    if ident in faces or (verts & face_verts):
                        hits.append(lemma)
                        break
        return hits

    def to_jsonable(self) -> dict:
        return {"violations": self.violations, "satisfied_all": self.satisfied_all}


def detect_lemma_violations(apg: AssociatedPlaneGraph, colors: int = PALETTE) -> LemmaReport:
    """Witnesses against the conclusions of the eight reducibility lemmas.

    Thresholds parameterize in the palette size where the general versions
    apply: odd vertices need degree >= (colors+1)//2, edges at vertices of
    degree <= (colors-1)//2 must be crossed, and triangles need two or
    three vertices of degree >= (colors+1)//2.
    """
    if colors < 7:
        raise ValueError("colors must be >= 7")
    g = apg.drawing.base
    easy = easy_vertices(g, colors)
    v: dict[str, list] = {f"L{i}": [] for i in range(1, 9)}

    for e in sorted(g.bridges()):
        v["L1"].append({"edge": list(e), "reason": "bridge"})
    for x in range(g.n):
        if 0 < g.degree(x) < 2:
            v["L1"].append({"vertex": x, "reason": "degree below 2"})

    for x in range(g.n):
        dx = g.degree(x)
        if dx % 2 == 1 and is_low(dx, colors):
            v["L2"].append({"vertex": x, "degree": dx})

    for e in sorted(g.edges & apg.gstar.edges):  # the uncrossed edges
        a, b = e
        if is_low(g.degree(a), colors) or is_low(g.degree(b), colors):
            v["L3"].append({"edge": list(e)})

    for x in range(g.n):
        dx = g.degree(x)
        if dx and is_low(dx, colors):
            if dx % 2 == 1 or any(is_low(g.degree(u), colors) for u in g.adj[x]):
                v["L4"].append({"vertex": x, "degree": dx, "reason": "degree"})
        elif breaks_lemma4(g, x, easy, colors):
            v["L4"].append(
                {"vertex": x, "degree": dx,
                 "easy_neighbors": easy_neighbors(g, x, easy),
                 "reason": "too many easy neighbors"}
            )

    for i, f in enumerate(apg.faces):
        if len(f) <= 2:
            v["L5"].append({"face": i, "reason": f"{len(f)}-face"})
        elif len(f) == 3:
            stars = sum(1 for x in f if apg.is_star(x))
            big = sum(
                1
                for x in f
                if not apg.is_star(x) and not is_low(apg.gstar.degree(x), colors)
            )
            if not (stars == 0 and big == 3) and not (stars == 1 and big == 2):
                v["L5"].append(
                    {"face": i, "face_vertices": sorted(set(f)),
                     "reason": "off-pattern 3-face"}
                )

    for x in range(g.n):
        if g.degree(x) != 2:
            continue
        incidences = sorted(len(apg.faces[i]) for i in apg.faces_at(x))
        # a 2-vertex lies on two face incidences; need one 5+ and one 4+
        if not (incidences[-1] >= 5 and incidences[-2] >= 4):
            v["L6"].append({"vertex": x, "face_degrees": incidences})

    for i, f in enumerate(apg.faces):
        if len(f) != 4:
            continue
        twos = sum(1 for x in f if apg.gstar.degree(x) == 2)
        stars = sum(1 for x in f if apg.is_star(x))
        if twos == 2 and stars == 2:
            v["L7"].append({"face": i})

    for i, f in enumerate(apg.faces):
        if sevens_of_778(f, apg):
            v["L8"].append({"face": i, "face_vertices": sorted(set(f))})

    return LemmaReport(violations=v)
