"""1-planar drawings, the associated plane graph, and face tracing.

A drawing is input data, never computed: it carries the base graph, the
set of crossing edge pairs, and a rotation system for the *planarized*
drawing.  Crossing i is planarized as vertex ``n + i`` (a 4*-vertex).
``OnePlanarDrawing.validate`` is the one definition of a crossing: its two
edges are distinct, uncrossed otherwise and share no end, and the rotation
at its vertex alternates their ends.  So a crossing vertex of G* has four
neighbors, all true vertices, and two vertices next to each other around
it lie on different crossed edges.

The associated plane graph G* is built from one drawing and keeps it, so
the analysis layers take G* alone and read the base graph, crossings and
rotation through ``apg.drawing``.  A face is the tuple of vertices its
boundary walk visits.  Face tracing follows the usual dart convention:
the dart after (u, v) is (v, w) where w is the successor of u in the
rotation at v.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .graph import Edge, Graph, canonical_int, norm_edge, reach


@dataclass(frozen=True)
class OnePlanarDrawing:
    base: Graph
    crossings: tuple[tuple[Edge, Edge], ...]
    rotation: dict[int, tuple[int, ...]]

    def crossed_edge(self, z: int, u: int) -> Edge:
        """The base edge at u through crossing vertex z."""
        e1, e2 = self.crossings[z - self.base.n]
        return e1 if u in e1 else e2

    def validate(self) -> None:
        """Raise ValueError naming the drawing's first fault, if it has one."""
        if self._fault is not None:
            raise ValueError(self._fault)

    @cached_property
    def _fault(self) -> str | None:
        """The first fault of the drawing, or None if it is valid.

        In order: each crossing pairs two base edges, none crossed twice,
        with four distinct ends; every rotation key is a vertex of G* and
        repeats no neighbor; the rotation lists each vertex's G* neighbors,
        from both ends of every edge; each crossing vertex's rotation
        alternates its two edges' ends; and V - E + F = 2 on each component
        of G*.  Kept once per drawing, whose fields no code changes.
        """
        n, crossings, rotation = self.base.n, self.crossings, self.rotation
        crossed: set[Edge] = set()
        for e1, e2 in crossings:
            for e in (e1, e2):
                if e not in self.base.edges:
                    return f"crossing refers to non-edge {e}"
                if e in crossed:
                    return f"edge {e} crossed twice"
                crossed.add(e)
            if len({*e1, *e2}) != 4:
                return f"crossing pair {e1} x {e2} shares an endpoint"
        nbrs = [*map(set, self.base.adj)]  # G*'s, once each crossed edge gives way to its star
        for z, (e1, e2) in enumerate(crossings, start=n):
            nbrs.append({*e1, *e2})
            for u, v in (e1, e2):
                nbrs[u] ^= {v, z}
                nbrs[v] ^= {u, z}
        exact = True  # each key lists exactly its G* neighbors
        for v, order in rotation.items():
            if not 0 <= v < len(nbrs):
                return f"rotation key {v} out of range"
            entries = set(order)
            if len(entries) != len(order):
                return f"rotation at {v} repeats a neighbor"
            exact = exact and entries == nbrs[v]
        # With every key exact, equal dart totals mean no vertex of G* lacks a key.
        if not exact or sum(map(len, rotation.values())) != sum(map(len, nbrs)):
            star = {e: z for z, pair in enumerate(crossings, start=n) for e in pair}
            halves = ([(e[0], star[e]), (e[1], star[e])] if e in star else [e] for e in self.base.edges)
            planar_edges = dict.fromkeys(chain.from_iterable(halves)).keys()  # G*'s edges, in base-edge order
            darts = {(v, w) for v, order in rotation.items() for w in order}
            rot_edges = {(v, w) if v <= w else (w, v) for v, w in darts}
            if rot_edges != planar_edges:
                return (
                    "rotation does not cover the planarization exactly (missing="
                    f"{sorted(planar_edges - rot_edges)}, extra={sorted(rot_edges - planar_edges)})"
                )
            # The rotation covers G*'s edges but lists some edge from one end only.
            u, v = next((u, v) for u, v in planar_edges if (u, v) not in darts or (v, u) not in darts)
            return f"rotation is not symmetric on edge ({u}, {v})"
        for z, (e1, e2) in enumerate(crossings, start=n):
            order = rotation[z]
            if {order[0], order[2]} not in ({*e1}, {*e2}):
                return f"rotation at crossing vertex {z} does not alternate {e1} and {e2}"
        (comps, label), size = self._components, len(nbrs)
        nf, nxt = [0] * len(comps), _face_permutation(rotation, size)
        while nxt:  # pop one orbit, a face, at a time
            start, dart = nxt.popitem()
            nf[label[start // size]] += 1
            while dart != start:
                dart = nxt.pop(dart)
        for verts, f in zip(comps, nf):
            nv, ne = len(verts), sum(len(nbrs[v]) for v in verts) // 2
            if nv - ne + f != 2:
                return f"rotation system is not planar on component {verts[:8]}...: V-E+F = {nv}-{ne}+{f} != 2"
        return None

    @cached_property
    def _components(self) -> tuple[list[list[int]], dict[int, int]]:
        """G*'s components with an edge, each sorted, by least vertex, and each
        vertex's index among them, read from a rotation that lists G*'s edges."""
        comps, label = [], {}
        for s in sorted(self.rotation):
            if s not in label and self.rotation[s]:
                comps.append(sorted(reach(self.rotation, s)))
                label.update(dict.fromkeys(comps[-1], len(comps) - 1))
        return comps, label

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
    kept = [i for i, (e1, e2) in enumerate(d.crossings) if e1 in keep and e2 in keep]
    new_star = {n + old: n + new for new, old in enumerate(kept)}
    rotation: dict[int, tuple[int, ...]] = {}
    for v, order in d.rotation.items():
        if v >= n and v not in new_star:
            continue
        out = []
        for w in order:
            u, z = sorted((v, w))  # no two stars are adjacent, so z is the star if there is one
            e = (u, z) if z < n else d.crossed_edge(z, u)
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


Face = tuple[int, ...]
"""A boundary walk of the planarization, as the cycle of vertices it visits.

The walk leaves ``f[i]`` along the edge to ``f[i + 1]`` (cyclically).
Non-simple faces repeat vertices; all counts downstream are per incidence.
"""


@dataclass(frozen=True)
class AssociatedPlaneGraph:
    drawing: OnePlanarDrawing
    gstar: Graph
    faces: tuple[Face, ...]

    @property
    def star_vertices(self) -> frozenset[int]:
        return frozenset(range(self.drawing.base.n, self.gstar.n))

    def is_star(self, v: int) -> bool:
        return self.drawing.base.n <= v < self.gstar.n

    @cached_property
    def _face_incidence(self) -> dict[int, tuple[int, ...]]:
        """Each vertex's faces, ascending, once per pass of their walks through it."""
        out: dict[int, list[int]] = {}
        for i, f in enumerate(self.faces):
            for x in f:
                out.setdefault(x, []).append(i)
        return {x: tuple(fs) for x, fs in out.items()}

    def faces_at(self, v: int) -> tuple[int, ...]:
        """Indices of faces incident to v (with multiplicity)."""
        return self._face_incidence.get(v, ())

    @cached_property
    def components(self) -> list[tuple[list[int], list[int]]]:
        """Sorted vertices and face indices of each component with an edge.

        Components come in order of their least vertex; a face belongs to
        the component of the first vertex on its walk.
        """
        comps, label = self.drawing._components
        faces: list[list[int]] = [[] for _ in comps]
        for i, f in enumerate(self.faces):
            faces[label[f[0]]].append(i)
        return list(zip(comps, faces))


def _face_permutation(rotation: Mapping[int, Sequence[int]], size: int) -> dict[int, int]:
    """The dart after each dart of its face, the dart u→v written u * size + v:
    after u→v comes v→w, w the successor of u in the rotation at v."""
    return {u * size + v: v * size + w for v, o in rotation.items() for u, w in zip(o[-1:] + o, o)}


def trace_faces(rotation: Mapping[int, Sequence[int]]) -> tuple[Face, ...]:
    """Partition a rotation system's darts into boundary walks, each from its least dart, in that order."""
    ids = [*rotation, *chain.from_iterable(rotation.values())]
    if min(ids, default=0) < 0:
        raise ValueError(f"rotation has negative vertex id {min(ids)}")
    size = max(ids, default=0) + 1
    nxt = _face_permutation(rotation, size)
    darts = sorted(u * size + v for u, order in rotation.items() for v in order)
    if not all(map(nxt.__contains__, darts)):  # some dart's reverse is not a dart
        raise ValueError(f"dart {divmod(min(set(darts) - nxt.keys()), size)} has no reverse dart")
    faces: list[Face] = []
    for start in filter(nxt.__contains__, darts):  # each dart that no walk has taken yet
        walk, dart = [], start
        while dart in nxt:
            walk.append(dart // size)
            dart = nxt.pop(dart)
        if dart != start:
            raise ValueError(f"face walk from dart {divmod(start, size)} did not close at {divmod(dart, size)}")
        faces.append(tuple(walk))
    return tuple(faces)


def build_associated_plane_graph(d: OnePlanarDrawing) -> AssociatedPlaneGraph:
    """Planarize a drawing: each crossing pair becomes a fresh 4*-vertex.

    A valid drawing crosses each edge at most once, by an edge with other
    ends, so each star gets four base neighbors and every base vertex
    keeps its degree.
    """
    d.validate()  # so the rotation lists each vertex's G* neighbors and is planar
    nbrs = [sorted(d.rotation.get(v, ())) for v in range(d.base.n + len(d.crossings))]
    edges = frozenset((v, w) for v, ws in enumerate(nbrs) for w in ws if v < w)
    gstar = Graph(n=len(nbrs), edges=edges, adj=tuple(map(tuple, nbrs)))
    return AssociatedPlaneGraph(drawing=d, gstar=gstar, faces=trace_faces(d.rotation))


# ---------------------------------------------------------------------------
# drawing JSON + DOT


_PAIR = "[\n      %d,\n      %d\n    ]"  # an edge or a crossing, as an item of a top-level list


def _json_block(items: Iterable[str], indent: str, brackets: str = "[]") -> str:
    """A list (or, with brackets "{}", an object) as ``json.dumps(..., indent=2)``
    prints it at this indent, from its items' JSON text."""
    text = (",\n  " + indent).join(items)
    if not text:
        return brackets
    return f"{brackets[0]}\n  {indent}{text}\n{indent}{brackets[1]}"


def drawing_to_json(d: OnePlanarDrawing) -> str:
    """The drawing's JSON object, byte for byte as ``json.dumps(...,
    sort_keys=True, indent=2) + "\\n"`` prints it.

    It is written directly, because with an indent json runs its
    pure-Python encoder.  Rotation keys come in string order ("10" before
    "2"), as sort_keys puts them.
    """
    edges = sorted(d.base.edges)
    idx = {e: i for i, e in enumerate(edges)}
    crossings = [(idx[e1], idx[e2]) for e1, e2 in d.crossings]
    rotation = sorted((str(v), order) for v, order in d.rotation.items())
    entries = [f'"{v}": {_json_block(map(str, order), "    ")}' for v, order in rotation]
    return (
        f'{{\n  "crossings": {_json_block(map(_PAIR.__mod__, crossings), "  ")},\n'
        f'  "edges": {_json_block(map(_PAIR.__mod__, edges), "  ")},\n'
        f'  "n": {d.base.n},\n'
        f'  "rotation": {_json_block(entries, "  ", "{}")}\n}}\n'
    )


def _int_lists(values: list, size: int | None = None) -> bool:
    """Whether each item of values is a JSON list of integers, of length size if given."""
    return (
        {*map(type, values)} <= {list}
        and (size is None or {*map(len, values)} <= {size})
        and {*map(type, chain.from_iterable(values))} <= {int}
    )


def _ints(value, what: str, size: int | None = None) -> list[int]:
    """value, checked to be a JSON list of integers, of length size if given."""
    if not _int_lists([value], size):
        raise ValueError(
            f"{what} must be a list of {size or 'any number of'} integers, got {value!r}"
        )
    return value


def drawing_from_json(text: str) -> OnePlanarDrawing:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed drawing JSON: {exc}") from exc
    except ValueError:  # an integer longer than int() reads
        raise ValueError("malformed drawing JSON: an integer has too many digits") from None
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
    if _int_lists(raw_edges, 2):
        edges = [(u, v) if u <= v else (v, u) for u, v in raw_edges]
    else:  # item by item, to name the first bad edge
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
        typed = _int_lists([*rotation_raw.values()])  # if not, each order is checked after its key
        rotation = {
            canonical_int(v, "rotation key ", "vertex id"):
                tuple(order if typed else _ints(order, f"rotation at {v}"))
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
