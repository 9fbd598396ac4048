"""1-planar drawings, the associated plane graph, and face tracing.

A drawing is input data, never computed: it carries the base graph, the
set of crossing edge pairs, and a rotation system for the *planarized*
drawing.  Crossing i is planarized as vertex ``n + i`` (a 4*-vertex).
Face tracing follows the usual dart convention: the dart after (u, v) is
(v, w) where w is the successor of u in the rotation at v.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .graph import Edge, Graph, norm_edge


@dataclass(frozen=True)
class OnePlanarDrawing:
    base: Graph
    crossings: tuple[tuple[Edge, Edge], ...]
    rotation: dict[int, tuple[int, ...]]

    @property
    def num_crossings(self) -> int:
        return len(self.crossings)

    def star_id(self, crossing_index: int) -> int:
        return self.base.n + crossing_index

    def star_of_edge(self) -> dict[Edge, int]:
        """The crossing vertex on each crossed base edge."""
        return {e: self.star_id(i) for i, pair in enumerate(self.crossings) for e in pair}

    def crossed_edges(self) -> set[Edge]:
        return set(self.star_of_edge())

    def planarization(self) -> dict[Edge, Edge]:
        """Each edge of the planarization mapped to its base edge.

        An uncrossed edge maps to itself; a crossed edge is split into the
        two half-edges from its ends to its crossing vertex.
        """
        star = self.star_of_edge()
        origin: dict[Edge, Edge] = {}
        for e in self.base.edges:
            z = star.get(e)
            if z is None:
                origin[e] = e
            else:  # z > e[1] > e[0]
                origin[e[0], z] = e
                origin[e[1], z] = e
        return origin

    def validate(self) -> None:
        n = self.base.n
        seen_edges: set[Edge] = set()
        for e1, e2 in self.crossings:
            for e in (e1, e2):
                if e not in self.base.edges:
                    raise ValueError(f"crossing refers to non-edge {e}")
                if e in seen_edges:
                    raise ValueError(f"edge {e} crossed twice")
                seen_edges.add(e)
            ends = {e1[0], e1[1], e2[0], e2[1]}
            if len(ends) != 4:
                raise ValueError(
                    f"crossing pair {e1} x {e2} shares an endpoint"
                )
        planar_edges = self.planarization().keys()
        nverts = n + len(self.crossings)
        for v, order in self.rotation.items():
            if not 0 <= v < nverts:
                raise ValueError(f"rotation key {v} out of range")
            if len(set(order)) != len(order):
                raise ValueError(f"rotation at {v} repeats a neighbor")
        darts = {(v, w) for v, order in self.rotation.items() for w in order}
        rot_edges = {(v, w) if v <= w else (w, v) for v, w in darts}
        if rot_edges != planar_edges:
            missing = planar_edges - rot_edges
            extra = rot_edges - planar_edges
            raise ValueError(
                f"rotation does not cover the planarization exactly "
                f"(missing={sorted(missing)}, extra={sorted(extra)})"
            )
        for u, v in planar_edges:
            if (u, v) not in darts or (v, u) not in darts:
                raise ValueError(f"rotation is not symmetric on edge ({u}, {v})")

    def without_vertex(self, v: int) -> "OnePlanarDrawing":
        """Drawing with every base edge at v removed (v becomes isolated)."""
        keep = [e for e in self.base.edges if v not in e]
        return _rebuild_subdrawing(self, set(keep))

    def without_edge(self, u: int, v: int) -> "OnePlanarDrawing":
        e = norm_edge(u, v)
        if e not in self.base.edges:
            raise ValueError(f"no such edge {e}")
        keep = set(self.base.edges) - {e}
        return _rebuild_subdrawing(self, keep)


def _rebuild_subdrawing(d: OnePlanarDrawing, keep: set[Edge]) -> OnePlanarDrawing:
    """Restrict a drawing to a subset of base edges, keeping vertex ids.

    Crossings with a removed member disappear; the surviving partner edge
    becomes uncrossed and its two half-edge darts are spliced back together.
    """
    n = d.base.n
    origin = d.planarization()
    kept = [i for i, (e1, e2) in enumerate(d.crossings) if e1 in keep and e2 in keep]
    new_star = {d.star_id(old): n + new for new, old in enumerate(kept)}
    rotation: dict[int, tuple[int, ...]] = {}
    for v, order in d.rotation.items():
        if v >= n and v not in new_star:
            continue
        out = []
        for w in order:
            e = origin[norm_edge(v, w)]
            if e not in keep:
                continue
            if w < n:
                out.append(w)
            elif w in new_star:
                out.append(new_star[w])
            else:
                out.append(e[0] + e[1] - v)  # the far end of v's now uncrossed edge
        rotation[new_star.get(v, v)] = tuple(out)
    base = Graph.from_edge_list(sorted(keep), n=n)
    return OnePlanarDrawing(
        base=base, crossings=tuple(d.crossings[i] for i in kept), rotation=rotation
    )


@dataclass(frozen=True)
class Face:
    """A boundary walk of the planarization, as the cycle of vertices it visits.

    The walk leaves ``walk[i]`` along the edge to ``walk[i + 1]`` (cyclically).
    Non-simple faces repeat vertices; all counts downstream are per incidence.
    """

    walk: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.walk)


@dataclass(frozen=True)
class AssociatedPlaneGraph:
    gstar: Graph
    star_vertices: frozenset[int]
    origin: dict[Edge, Edge]  # planarized edge -> base edge
    faces: tuple[Face, ...]
    rotation: dict[int, tuple[int, ...]]

    def is_star(self, v: int) -> bool:
        return v in self.star_vertices

    @cached_property
    def _face_incidence(self) -> dict[int, tuple[int, ...]]:
        """Each vertex's faces, ascending, once per pass of their walks through it."""
        out: dict[int, list[int]] = {}
        for i, f in enumerate(self.faces):
            for x in f.walk:
                out.setdefault(x, []).append(i)
        return {x: tuple(fs) for x, fs in out.items()}

    def faces_at(self, v: int) -> tuple[int, ...]:
        """Indices of faces incident to v (with multiplicity)."""
        return self._face_incidence.get(v, ())

    def split_components(self) -> list[tuple[list[int], list[int]]]:
        """Sorted vertices and face indices of each component with an edge.

        Components come in order of their least vertex; a face belongs to
        the component of the first vertex on its walk.
        """
        comps = [sorted(c) for c in self.gstar.components() if len(c) > 1]
        label = {v: i for i, comp in enumerate(comps) for v in comp}
        faces: list[list[int]] = [[] for _ in comps]
        for i, f in enumerate(self.faces):
            faces[label[f.walk[0]]].append(i)
        return list(zip(comps, faces))


def trace_faces(rotation: Mapping[int, Sequence[int]]) -> tuple[Face, ...]:
    """Partition the darts of a rotation system into boundary walks."""
    index_of: dict[int, dict[int, int]] = {}
    for v, order in rotation.items():
        index_of[v] = {w: i for i, w in enumerate(order)}
    darts = {(u, v) for u, order in rotation.items() for v in order}
    for u, v in darts:
        if (v, u) not in darts:
            raise ValueError(f"dart ({u}, {v}) has no reverse dart")
    seen: set[tuple[int, int]] = set()
    faces: list[Face] = []
    for start in sorted(darts):
        if start in seen:
            continue
        walk: list[int] = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            u, v = cur
            walk.append(u)
            order = rotation[v]
            i = index_of[v][u]
            w = order[(i + 1) % len(order)]
            cur = (v, w)
        if cur != start:
            raise ValueError(f"face walk from dart {start} did not close at {cur}")
        faces.append(Face(walk=tuple(walk)))
    return tuple(faces)


def build_associated_plane_graph(d: OnePlanarDrawing) -> AssociatedPlaneGraph:
    """Planarize a drawing: each crossing pair becomes a fresh 4*-vertex.

    A valid drawing crosses each edge at most once, by an edge with other
    ends, so each star gets four base neighbors and every base vertex
    keeps its degree.
    """
    d.validate()
    origin = d.planarization()
    nverts = d.base.n + len(d.crossings)
    gstar = Graph.from_edge_list(sorted(origin), n=nverts)
    rotation = {v: tuple(order) for v, order in d.rotation.items()}
    for v in range(nverts):
        rotation.setdefault(v, ())
    faces = trace_faces(rotation)
    apg = AssociatedPlaneGraph(
        gstar=gstar,
        star_vertices=frozenset(range(d.base.n, nverts)),
        origin=origin,
        faces=faces,
        rotation=rotation,
    )
    _check_euler(apg)
    return apg


def _check_euler(apg: AssociatedPlaneGraph) -> None:
    """V - E + F = 2 per connected component (isolated vertices skipped)."""
    for verts, faces in apg.split_components():
        nv, nf = len(verts), len(faces)
        ne = sum(apg.gstar.degree(v) for v in verts) // 2
        if nv - ne + nf != 2:
            raise ValueError(
                f"rotation system is not planar on component "
                f"{verts[:8]}...: V-E+F = {nv}-{ne}+{nf} != 2"
            )


# ---------------------------------------------------------------------------
# drawing JSON + DOT


def drawing_to_json(d: OnePlanarDrawing) -> str:
    edges = sorted(d.base.edges)
    idx = {e: i for i, e in enumerate(edges)}
    payload = {
        "n": d.base.n,
        "edges": [list(e) for e in edges],
        "crossings": [[idx[e1], idx[e2]] for e1, e2 in d.crossings],
        "rotation": {str(v): list(order) for v, order in sorted(d.rotation.items())},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _ints(value, what: str, size: int | None = None) -> list[int]:
    """value, checked to be a JSON list of integers, of length size if given."""
    if (
        not isinstance(value, list)
        or {*map(type, value)} - {int}
        or size not in (None, len(value))
    ):
        raise ValueError(
            f"{what} must be a list of {size or 'any number of'} integers, got {value!r}"
        )
    return value


def _vertex_id(key: str) -> int:
    """A rotation key as a vertex id, which it must spell as str() does."""
    if key.removeprefix("-").isdecimal() and str(int(key)) == key:
        return int(key)
    raise ValueError(f"rotation key {key!r} is not a canonical vertex id")


def drawing_from_json(text: str) -> OnePlanarDrawing:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed drawing JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("drawing JSON must be an object")
    for key in ("n", "edges"):
        if key not in payload:
            raise ValueError(f"drawing JSON missing field {key!r}")
    n = payload["n"]
    if type(n) is not int or n < 0:
        raise ValueError(f"field 'n' must be a non-negative integer, got {n!r}")
    raw_edges = payload["edges"]
    if not isinstance(raw_edges, list):
        raise ValueError("field 'edges' must be a list")
    edges = [norm_edge(*_ints(e, "edge", 2)) for e in raw_edges]
    base = Graph.from_edge_list(edges, n=n)
    raw_crossings = payload.get("crossings", [])
    if not isinstance(raw_crossings, list):
        raise ValueError("field 'crossings' must be a list")
    crossings = []
    for pair in raw_crossings:
        i, j = _ints(pair, "crossing", 2)
        if not (0 <= i < len(edges) and 0 <= j < len(edges)):
            raise ValueError(f"crossing index pair [{i}, {j}] out of range")
        crossings.append((edges[i], edges[j]))
    rotation_raw = payload.get("rotation")
    if rotation_raw is None:
        if crossings:
            raise ValueError("rotation is mandatory when crossings are present")
        rotation = planar_rotation(base)
    elif not isinstance(rotation_raw, dict):
        raise ValueError("field 'rotation' must be an object")
    else:
        rotation = {
            _vertex_id(v): tuple(_ints(order, f"rotation at {v}"))
            for v, order in rotation_raw.items()
        }
    d = OnePlanarDrawing(base=base, crossings=tuple(crossings), rotation=rotation)
    d.validate()
    return d


def planar_rotation(g: Graph) -> dict[int, tuple[int, ...]]:
    """Compute a planar rotation system for a crossing-free graph."""
    import networkx as nx

    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges)
    ok, emb = nx.check_planarity(gx)
    if not ok:
        raise ValueError("graph is not planar; a rotation system is required")
    return {
        v: tuple(emb.neighbors_cw_order(v)) if g.adj[v] else ()
        for v in range(g.n)
    }


def gstar_to_dot(apg: AssociatedPlaneGraph) -> str:
    lines = ["graph gstar {"]
    for v in range(apg.gstar.n):
        shape = "box" if apg.is_star(v) else "circle"
        lines.append(f'  {v} [shape={shape}];')
    for u, v in sorted(apg.gstar.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
