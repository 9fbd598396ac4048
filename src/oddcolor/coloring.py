"""Odd-coloring semantics: verification, exact search, and the reduction colorer.

An odd coloring is a proper coloring in which every non-isolated vertex
sees some color an odd number of times on its neighborhood.  The minimum
odd color of a vertex is used whenever a canonical choice is needed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Iterable, Iterator

from .graph import Edge, Graph, bridges_of, canonical_int, reach
from .embedding import OnePlanarDrawing, _json_block, _rebuild_subdrawing, build_associated_plane_graph
from .structure import PALETTE, breaks_lemma4, easy_vertices, is_easy, is_low, sevens_of_778


@dataclass(frozen=True)
class Coloring:
    k: int
    assign: dict[int, int]

    @staticmethod
    def of(assign: dict[int, int], k: int | None = None) -> "Coloring":
        not_int = [v for v, c in assign.items() if type(c) is not int]
        if not_int:  # colors are integers: 2.0 and True would alias 2 and 1
            raise ValueError(f"colors must be integers at vertices {not_int}")
        if k is None:
            k = max(assign.values(), default=1)
        bad = [v for v, c in assign.items() if not 1 <= c <= k]
        if bad:
            raise ValueError(f"colors out of range [1..{k}] at vertices {bad}")
        return Coloring(k=k, assign=dict(assign))


@dataclass(frozen=True)
class OddReport:
    proper_violations: frozenset[Edge]
    odd_violations: frozenset[int]
    uncolored: frozenset[int]

    @property
    def valid(self) -> bool:
        return not self.proper_violations and not self.odd_violations and not self.uncolored


def verify_odd_coloring(g: Graph, c: Coloring) -> OddReport:
    """Violations of c on g; oddness is read from parity bitmasks over the colors' ranks."""
    index = {a: 1 << i for i, a in enumerate(sorted(set(c.assign.values())))}
    bit = {v: index[a] for v, a in c.assign.items()}.get
    get = c.assign.get
    proper = frozenset(e for e in g.edges if (a := get(e[0])) is not None and a == get(e[1]))
    odd_bad = set()
    for v, nbrs in enumerate(g.adj):
        mask = 0
        for u in nbrs:
            b = bit(u)
            if b is None:
                break  # cannot judge oddness; reported via uncolored
            mask ^= b
        else:
            if nbrs and not mask:  # isolated vertices are exempt
                odd_bad.add(v)
    return OddReport(
        proper_violations=proper,
        odd_violations=frozenset(odd_bad),
        uncolored=frozenset(v for v in range(g.n) if v not in c.assign),
    )


# ---------------------------------------------------------------------------
# exact search


def find_odd_coloring(g: Graph, k: int, max_nodes: int | None = None) -> Coloring | None:
    """Complete backtracking search for an odd k-coloring.

    Vertices are colored in descending-degree order.  A branch is pruned
    as soon as some fully-surrounded vertex has no odd color, that is when its
    parity mask is 0: no later assignment can change its neighborhood.
    Colors are capped at one more than the number already in use, which
    cuts color-permutation symmetry.

    The search runs on an explicit stack of frames, one per colored
    vertex, so its depth is not bounded by the recursion limit.  Isolated
    vertices sort last and take color 1 with no search node.

    ``max_nodes`` bounds the number of search-tree nodes; the search
    raises ``SearchBudgetExceeded`` when the budget runs out.
    """
    n = g.n
    color = [0] * n
    uncolored_nbrs = [g.degree(v) for v in range(n)]
    par = [0] * n
    adj = g.adj
    nodes = 0

    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    searched = sum(1 for v in range(n) if adj[v])

    def frame(depth: int, max_used: int) -> tuple[int, Iterator[int], int]:
        """The vertex at depth, the colors left to try on it, and the colors in use."""
        v = order[depth]
        banned = {color[u] for u in adj[v] if color[u]}
        top = min(k, max_used + 1)
        return v, iter([a for a in range(1, top + 1) if a not in banned]), max_used

    def place(v: int, a: int) -> None:
        """Color v with a, or uncolor it when a is 0."""
        step = -1 if a else 1
        flip = 1 << (a or color[v])
        color[v] = a
        for u in adj[v]:
            uncolored_nbrs[u] += step
            par[u] ^= flip

    stack = [frame(0, 0)] if searched else []
    found = not searched
    while stack and not found:
        v, options, max_used = stack[-1]
        if color[v]:
            place(v, 0)
        a = next(options, 0)
        if not a:
            stack.pop()
            continue
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise SearchBudgetExceeded(
                f"odd-coloring search exceeded {max_nodes} nodes"
            )
        place(v, a)
        # a neighbor whose neighbors are all colored must have an odd color now
        if all(par[u] for u in adj[v] if uncolored_nbrs[u] == 0):
            if len(stack) == searched:
                found = True
            else:
                stack.append(frame(len(stack), max(max_used, a)))

    if found and (k >= 1 or searched == n):  # isolated vertices need color 1
        return Coloring.of({v: color[v] or 1 for v in range(n)}, k=k)
    return None


class SearchBudgetExceeded(RuntimeError):
    pass


def exact_odd_chromatic_number(
    g: Graph, kmax: int
) -> tuple[int | None, Coloring | None]:
    """Least k <= kmax admitting an odd k-coloring, with a verified witness.

    Returns (None, None) when every k up to kmax fails ("exceeds kmax").
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    for k in range(1, kmax + 1):
        c = find_odd_coloring(g, k)
        if c is not None:
            return k, c
    return None, None


# ---------------------------------------------------------------------------
# the proof-derived extension at a vertex


def extend_at_vertex(g: Graph, c: Coloring, v: int, k: int) -> Coloring | None:
    """Extend an odd k-coloring of g - v to all of g.

    Follows the one-vertex extension argument: each easy neighbor forbids
    one color, each other neighbor two; if v then lacks an odd color, a
    single low-degree vertex near v is recolored to repair parity.
    c has to be odd on g - v: this is ``_extend``, the kernel the reduction
    colorer runs at every level, and its local parity checks assume it.  The
    result is verified once; None means it is not odd on g, or that no
    sanctioned combination works (reported, not fatal).
    """
    if any(u not in c.assign for u in g.neighbors(v)):
        raise ValueError(f"coloring does not cover N({v})")
    if any(x not in c.assign for x in range(g.n) if x != v):
        return None  # uncolored vertices fail verification whatever v gets
    peel = _Peel(g)
    peel.paint(c.assign.get(x, 1) for x in range(g.n))
    if not _extend(peel, v, k):
        return None
    out = Coloring.of(dict(enumerate(peel.color)), k=k)
    return out if verify_odd_coloring(g, out).valid else None


# ---------------------------------------------------------------------------
# kernels of the reduction colorer
#
# They work on a ``_Peel``, whose parity masks stay exact through every change.
# Recoloring t, or adding or removing edges at t, can break only the
# properness of the edges at t, the parity at t and the parities at the
# neighbors of t.  So when a coloring was odd before such a change, checking
# those constraints decides whether it is odd after it.  Colors above
# ``peel.top`` are on no vertex and act alike, so only the least is tried.


def _colors(k: int, top: int, skip: int = 0) -> Iterator[int]:
    """Colors 1..min(k, top + 1) whose bits are clear in skip, ascending."""
    for a in range(1, min(k, top + 1) + 1):
        if not skip >> a & 1:
            yield a


def _odd_around(adj: list[set[int]], par: list[int], t: int) -> bool:
    """Whether t and each neighbor of t see some color an odd number of times."""
    return par[t] != 0 and all(par[x] for x in adj[t])


def _extend(peel: _Peel, v: int, k: int) -> bool:
    """Color v, whose edges are in peel, given an odd k-coloring of the rest.

    Colors no neighbor forbids go first: a neighbor w forbids the least
    color odd on N(w) - v, if there is one, unless w is easy and d(w) is
    not low (w's own color is never a candidate).  Easy and low use the
    thresholds of the 13-color theorem, whatever k is.  Each color is tried
    alone, then with one recolored repair target r at a time; a change is
    accepted when each recolored vertex stays proper and the parity masks
    are non-zero at v, N(v), r and N(r).  On success the coloring is odd
    on the whole graph; on failure it is left as it was.
    """
    adj, color, par = peel.adj, peel.color, peel.par
    nbrs = adj[v]
    banned = forbidden = 0
    for w in nbrs:
        banned |= 1 << color[w]
        odd = par[w] ^ 1 << color[v]
        dw = len(adj[w])
        if odd and (is_low(dw) or not is_easy(dw, (len(adj[u]) for u in adj[w]))):
            forbidden |= odd & -odd
    top = peel.top
    old_v = color[v]
    targets = None
    for a in chain(_colors(k, top, banned | forbidden), _colors(k, top, banned | ~forbidden)):
        peel.recolor(v, a)
        if not nbrs or _odd_around(adj, par, v):
            peel.top = max(top, a)
            return True
        if targets is None:
            targets = _repair_targets(adj, v, sorted(nbrs))
        for r in targets:
            old = color[r]
            clash = 1 << old
            for y in adj[r]:
                clash |= 1 << color[y]
            for b in _colors(k, max(top, a), clash):
                peel.recolor(r, b)
                if _odd_around(adj, par, v) and _odd_around(adj, par, r):
                    peel.top = max(top, a, b)
                    return True
            peel.recolor(r, old)
    peel.recolor(v, old_v)
    return False


def _repair_targets(adj: list[set[int]], v: int, nbrs: list[int]) -> list[int]:
    """Vertices of low degree in N(v), then in N(N(v)) - v, in id order."""
    out = [w for w in nbrs if is_low(len(adj[w]))]
    seen = set(out)
    for w in nbrs:
        for w2 in sorted(adj[w]):
            if w2 != v and is_low(len(adj[w2])) and w2 not in seen:
                seen.add(w2)
                out.append(w2)
    return out


def _swap_bits(mask: int, a: int, b: int) -> int:
    """mask with bits a and b exchanged."""
    if ((mask >> a) ^ (mask >> b)) & 1:
        mask ^= (1 << a) | (1 << b)
    return mask


def _bridge_colors(peel: _Peel, u: int, v: int, k: int) -> tuple[int, int] | None:
    """The first colors (a, b) for the ends of bridge uv, absent from peel, that work.

    Exchanging a with u's color on u's side, and b with v's color on v's
    side, permutes the colors of each side, which keeps it odd.  Once the
    bridge is back, u sees its old odd colors, exchanged, plus b, and v
    likewise; a != b keeps uv proper.  So only the masks at u and v can fail.
    """
    color, par, top = peel.color, peel.par, peel.top
    for a in _colors(k, top):
        seen_by_u = _swap_bits(par[u], a, color[u])
        for b in _colors(k, max(top, a), 1 << a):
            if seen_by_u != 1 << b and _swap_bits(par[v], b, color[v]) != 1 << a:
                return a, b
    return None


def _exchange(peel: _Peel, s: int, a: int) -> None:
    """Exchange color a with the color of s on the component of s."""
    color, par = peel.color, peel.par
    c = color[s]
    if a != c:
        for x in reach(peel.adj, s):
            par[x] = _swap_bits(par[x], a, c)  # N(x) is in the component too
            if color[x] == a:
                color[x] = c
            elif color[x] == c:
                color[x] = a
        peel.top = max(peel.top, a)


# ---------------------------------------------------------------------------
# reduction colorer


@dataclass
class ReductionResult:
    coloring: Coloring | None
    trace: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.coloring is not None


class _Peel:
    """The graph of the colorer's current level and its coloring, changed in place.

    Holds neighbor sets, the colors, their bound ``top`` and parity masks
    ``par`` (bit c set iff color c is odd on a vertex's current neighbors),
    the number of non-isolated vertices, a heap of (degree, vertex) with
    stale entries skipped lazily, and the bridges (None until computed).
    """

    def __init__(self, g: Graph) -> None:
        self.adj = [set(a) for a in g.adj]
        self.color = [1] * g.n
        self.top = min(g.n, 1)
        self.par = [(len(a) & 1) << 1 for a in self.adj]  # bit 1: color 1 on every neighbor
        self.active = sum(1 for a in self.adj if a)
        self.bridges: set[Edge] | None = None
        self.reheap()

    def paint(self, colors: Iterable[int]) -> None:
        """Color every vertex anew."""
        for x, c in enumerate(colors):
            self.recolor(x, c)
        self.top = max(self.color, default=0)

    def recolor(self, x: int, c: int) -> None:
        """Give x color c; the caller keeps ``top`` a bound."""
        flip = (1 << self.color[x]) ^ (1 << c)
        self.color[x] = c
        par = self.par
        for y in self.adj[x]:
            par[y] ^= flip

    def reheap(self) -> None:
        self.heap = [(len(a), v) for v, a in enumerate(self.adj) if a]
        heapq.heapify(self.heap)

    def least_degree(self) -> tuple[int, int] | None:
        """(degree, vertex) of the non-isolated vertex of least degree, then id.

        Valid while degrees only fall, that is while peeling; after edges
        come back, ``reheap`` first.
        """
        heap, adj = self.heap, self.adj
        while heap and heap[0][0] != len(adj[heap[0][1]]):
            heapq.heappop(heap)
        return heap[0] if heap else None

    def _drop(self, x: int, y: int) -> None:
        ax = self.adj[x]
        ax.discard(y)
        self.par[x] ^= 1 << self.color[y]
        if ax:
            heapq.heappush(self.heap, (len(ax), x))
        else:
            self.active -= 1

    def _add(self, x: int, y: int) -> None:
        if not self.adj[x]:
            self.active += 1
        self.adj[x].add(y)
        self.par[x] ^= 1 << self.color[y]

    def cut_vertex(self, v: int) -> set[int]:
        """Remove the edges at v and return its former neighbors.

        An edge that becomes a bridge when v leaves a bridgeless graph lay
        on a cycle through v, so it separates two former neighbors of v.
        When those neighbors alone span a connected bridgeless subgraph, no
        edge separates them and the graph stays bridgeless; otherwise the
        bridges are recomputed when next needed.
        """
        nbrs = self.adj[v]
        self.adj[v] = set()
        self.par[v] = 0
        self.active -= 1
        for w in nbrs:
            self._drop(w, v)
        if not (self.bridges == set() and _spans_bridgeless(self.adj, nbrs)):
            self.bridges = None
        return nbrs

    def restore_vertex(self, v: int, nbrs: set[int]) -> None:
        self.active += 1
        self.adj[v] = nbrs
        for w in nbrs:
            self._add(w, v)
            self.par[v] ^= 1 << self.color[w]

    def cut_edge(self, u: int, v: int) -> None:
        """Remove bridge uv; the other bridges stay bridges, and no new ones appear."""
        self._drop(u, v)
        self._drop(v, u)
        self.bridges.discard((u, v))

    def restore_edge(self, u: int, v: int) -> None:
        self._add(u, v)
        self._add(v, u)

    def graph(self) -> Graph:
        pairs = [(u, w) for u, a in enumerate(self.adj) for w in a if u < w]
        return Graph.from_edge_list(pairs, n=len(self.adj))

    def active_graph(self) -> tuple[dict[int, int], Graph]:
        """The non-isolated vertices renumbered 0, 1, ... in id order, and the graph they span."""
        index = {x: i for i, x in enumerate(x for x, a in enumerate(self.adj) if a)}
        pairs = [(i, index[y]) for x, i in index.items() for y in self.adj[x] if x < y]
        return index, Graph.from_edge_list(pairs, n=len(index))


def _spans_bridgeless(adj: list[set[int]], vertices: set[int]) -> bool:
    """Whether the subgraph induced on ``vertices`` is connected and bridgeless."""
    if len(vertices) <= 5:  # a bridge or a second component needs three vertices per side
        return len(vertices) == 1 or all(len(adj[x] & vertices) >= 2 for x in vertices)
    order = list(vertices)
    index = {x: i for i, x in enumerate(order)}
    local = [[index[y] for y in adj[x] if y in index] for x in order]
    return len(reach(local, 0)) == len(order) and not bridges_of(local)


def _pick_reducible(d: OnePlanarDrawing, g: Graph) -> list[tuple[int, str]]:
    """Reducible vertices of g, a subgraph of d.base, in priority order.

    Each comes with the name of the detector that fired.  The detectors
    use the thresholds of the 13-color theorem.  The face778 detector
    planarizes d restricted to the edges of g.
    """
    out: list[tuple[int, str]] = []
    by_degree = sorted((v for v in range(g.n) if g.adj[v]), key=g.degree)
    out += [(v, "6minus") for v in by_degree if is_low(g.degree(v))]
    easy = easy_vertices(g)
    out += [(v, "lemma4") for v in by_degree if breaks_lemma4(g, v, easy)]
    if not out:
        try:
            apg = build_associated_plane_graph(_rebuild_subdrawing(d, set(g.edges)))
        except ValueError:
            return out
        for f in apg.faces:
            sevens = sevens_of_778(f, apg)
            if sevens:
                out.append((sevens[0], "face778"))
    return out


def color_by_reduction(
    d: OnePlanarDrawing, k: int = PALETTE, exact_limit: int = 20
) -> ReductionResult:
    """Best-effort odd k-coloring driven by the reducibility detectors.

    One loop over an explicit peel stack, on a graph changed in place.
    Descending, each level removes the smallest bridge if there is one,
    else the first reducible vertex (the least-degree vertex when its
    degree is low, so the full detector list is built only when
    needed), until at most ``exact_limit`` non-isolated vertices remain
    and exact search colors them.  Unwinding, each vertex is colored by
    ``_extend`` and each bridge merged by color exchanges on its two
    sides, both checked only where the change can break the coloring.
    When an extension fails, the next of the level's first four detector
    hits is peeled instead and the descent starts again from that level;
    after four failures, or with no hit at all, the level is colored by
    greedy search with repair.  The trace records every step, and the
    result has passed one full verification at the end.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    g = d.base
    peel = _Peel(g)
    trace: list[str] = []
    # frames: ("bridge", u, v) or ("vertex", v, former neighbors, detector hits or None, index)
    stack: list[tuple] = []

    def peel_vertex(v: int, why: str, hits: list | None, i: int) -> None:
        trace.append(f"reduce vertex {v} ({why}, degree {len(peel.adj[v])})")
        stack.append(("vertex", v, peel.cut_vertex(v), hits, i))

    def greedy() -> bool:
        trace.append(f"greedy with repair on {peel.active} vertices")
        assign = _greedy_with_repair(peel.graph(), k)
        if assign is None:
            trace.append("greedy repair failed")
            return False
        peel.paint(assign[x] for x in range(g.n))
        return True

    def descend() -> bool:
        """Peel down to a leaf and color it; False when that fails."""
        while True:
            if peel.active <= exact_limit:
                trace.append(f"exact search on {peel.active} active vertices")
                index, sub = peel.active_graph()
                c = find_odd_coloring(sub, k)
                if c is None:
                    trace.append(f"no odd {k}-coloring exists on the remainder")
                    return False
                # the vertices left out take color 1, as the search gives isolated vertices
                peel.paint(c.assign[index[x]] if x in index else 1 for x in range(g.n))
                return True
            if peel.bridges is None:
                peel.bridges = bridges_of(peel.adj)
            if peel.bridges:
                u, v = min(peel.bridges)
                trace.append(f"bridge ({u}, {v}): split and merge")
                peel.cut_edge(u, v)
                stack.append(("bridge", u, v))
                continue
            least = peel.least_degree()
            if least is not None and is_low(least[0]):
                peel_vertex(least[1], "6minus", None, 0)
                continue
            hits = _pick_reducible(d, peel.graph())[:4]
            if not hits:
                return greedy()
            peel_vertex(*hits[0], hits, 0)

    ok = descend()
    while ok and stack:
        frame = stack.pop()
        if frame[0] == "bridge":
            _, u, v = frame
            ab = _bridge_colors(peel, u, v, k)
            if ab is None:
                trace.append(f"bridge merge failed at ({u}, {v})")
                ok = False
                break
            _exchange(peel, u, ab[0])
            _exchange(peel, v, ab[1])
            peel.restore_edge(u, v)
            continue
        _, v, nbrs, hits, i = frame
        peel.restore_vertex(v, nbrs)
        if _extend(peel, v, k):
            continue
        trace.append(f"extension failed at vertex {v}; trying next detector")
        if hits is None:
            hits = _pick_reducible(d, peel.graph())[:4]
        if i + 1 < len(hits):
            peel.bridges = set()  # a vertex level has no bridges
            peel.reheap()
            peel_vertex(*hits[i + 1], hits, i + 1)
            ok = descend()
        else:
            ok = greedy()
    if not ok:
        return ReductionResult(None, trace)

    c = Coloring.of(dict(enumerate(peel.color)), k=k)
    if not verify_odd_coloring(g, c).valid:
        trace.append("final verification failed")
        return ReductionResult(None, trace)
    return ReductionResult(c, trace)


def _greedy_with_repair(g: Graph, k: int) -> dict[int, int] | None:
    def errors(rep: OddReport) -> int:
        return len(rep.odd_violations) + len(rep.proper_violations)

    order = sorted((v for v in range(g.n) if g.adj[v]), key=g.degree, reverse=True)
    assign: dict[int, int] = {}
    for v in order:
        banned = {assign[u] for u in g.adj[v] if u in assign}
        assign[v] = next(a for a in count(1) if a not in banned)
        if assign[v] > k:
            return None
    c = Coloring.of({**assign, **{v: 1 for v in range(g.n) if v not in assign}}, k=k)
    for _ in range(4 * g.n):
        rep = verify_odd_coloring(g, c)
        if rep.valid:
            return dict(c.assign)
        bad = min(rep.odd_violations | {u for e in rep.proper_violations for u in e})
        top = min(k, max(c.assign.values()) + 1)  # higher colors act as top does
        trials = (
            Coloring.of({**c.assign, r: b}, k=k)
            for r in (bad, *g.adj[bad])
            for b in range(1, top + 1)
            if b != c.assign[r]
        )
        c = next((t for t in trials if errors(verify_odd_coloring(g, t)) < errors(rep)), None)
        if c is None:
            return None
    return None


# ---------------------------------------------------------------------------
# coloring text format


def parse_coloring(text: str, g: Graph, k: int | None = None) -> Coloring:
    """Parse lines of "<vertex> <color>"."""
    assign: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<vertex> <color>'")
        v, col = (canonical_int(t, f"line {lineno}: ") for t in parts)
        if not 0 <= v < g.n:
            raise ValueError(f"line {lineno}: vertex {v} out of range")
        if v in assign:
            raise ValueError(f"line {lineno}: vertex {v} colored twice")
        assign[v] = col
    return Coloring.of(assign, k=k)


def format_coloring(c: Coloring) -> str:
    return "\n".join(f"{v} {col}" for v, col in sorted(c.assign.items())) + "\n"


def coloring_json(c: Coloring) -> str:
    """``reduce-color``'s JSON for c, byte for byte as ``json.dumps(..., sort_keys=True,
    indent=2)`` prints it, written directly as ``drawing_to_json`` is."""
    entries = sorted(zip(map(str, c.assign), c.assign.values()))
    coloring = _json_block((f'"{v}": {a}' for v, a in entries), "  ", "{}")
    return (
        f'{{\n  "coloring": {coloring},\n  "colors_used": {len(set(c.assign.values()))},\n'
        f'  "k": {c.k},\n  "ok": true\n}}'
    )
