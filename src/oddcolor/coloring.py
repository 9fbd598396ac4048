"""Odd-coloring semantics: verification, exact search, and the reduction colorer.

An odd coloring is a proper coloring in which every non-isolated vertex
sees some color an odd number of times on its neighborhood.  The minimum
odd color of a vertex is used whenever a canonical choice is needed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .graph import Edge, Graph, bridges_of
from .embedding import OnePlanarDrawing, _rebuild_subdrawing, build_associated_plane_graph
from .structure import PALETTE, breaks_lemma4, easy_vertices, is_easy, is_low, sevens_of_778


@dataclass(frozen=True)
class Coloring:
    k: int
    assign: dict[int, int]

    @staticmethod
    def of(g: Graph, assign: dict[int, int], k: int | None = None) -> "Coloring":
        not_int = [v for v, c in assign.items() if type(c) is not int]
        if not_int:  # verification reads a color as a bit position
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
    """Violations of c on g; oddness is read from each vertex's color-parity bitmask."""
    get = c.assign.get
    proper = frozenset(e for e in g.edges if (a := get(e[0])) is not None and a == get(e[1]))
    odd_bad = set()
    for v, nbrs in enumerate(g.adj):
        mask = 0
        for u in nbrs:
            a = get(u)
            if a is None:
                break  # cannot judge oddness; reported via uncolored
            mask ^= 1 << a
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
    as soon as some fully-surrounded vertex has no odd color: no later
    assignment can change its neighborhood.
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
        color[v] = a
        for u in adj[v]:
            uncolored_nbrs[u] += step

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
        if all(_odd_mask(adj, color, u) for u in adj[v] if uncolored_nbrs[u] == 0):
            if len(stack) == searched:
                found = True
            else:
                stack.append(frame(len(stack), max(max_used, a)))

    if found and (k >= 1 or searched == n):  # isolated vertices need color 1
        assign = {v: color[v] or 1 for v in range(n)}
        c = Coloring.of(g, assign, k=k)
        rep = verify_odd_coloring(g, c)
        assert rep.valid, "search returned an invalid coloring"
        return c
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
    if g.n == 0:
        return 1 if kmax >= 1 else None, Coloring.of(g, {}, k=1)
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
    Returns a fully verified coloring, or None when no sanctioned
    combination works (reported, not fatal).  This is ``_extend``, the
    kernel the reduction colorer runs at every level, with each trial
    verified in full: c need not be odd on g - v.
    """
    nbrs = g.neighbors(v)
    if any(u not in c.assign for u in nbrs):
        raise ValueError(f"coloring does not cover N({v})")
    base = dict(c.assign)
    base.pop(v, None)
    if not nbrs:
        return Coloring.of(g, {**base, v: 1}, k=k)
    if any(x not in base for x in range(g.n) if x != v):
        return None  # uncolored vertices fail verification whatever v gets
    color = [base.get(x, 1) for x in range(g.n)]

    def verified(adj: list[set[int]], color: list[int], touched: Iterable[int]) -> bool:
        return verify_odd_coloring(g, Coloring.of(g, dict(enumerate(color)), k=k)).valid

    if not _extend([set(a) for a in g.adj], color, v, k, verified):
        return None
    return Coloring.of(g, dict(enumerate(color)), k=k)


# ---------------------------------------------------------------------------
# local checks and kernels of the reduction colorer
#
# They work on a mutable adjacency (one neighbor set per vertex) and a color
# list indexed by vertex.  Recoloring t, or adding or removing edges at t,
# can break only the properness of the edges at t, the parity at t and the
# parities at the neighbors of t.  So when a coloring was odd before such a
# change, checking those constraints decides whether it is odd after it.


def _odd_mask(adj: list[set[int]], color: list[int], x: int, skip: int = -1) -> int:
    """Bit c is set iff color c appears an odd number of times on N(x) - skip."""
    mask = 0
    for y in adj[x]:
        if y != skip:
            mask ^= 1 << color[y]
    return mask


def _valid_near(adj: list[set[int]], color: list[int], touched: Iterable[int]) -> bool:
    """Whether every constraint a change at the touched vertices can break holds."""
    for t in touched:
        ct = color[t]
        if any(color[y] == ct for y in adj[t]):
            return False
        if any(adj[x] and not _odd_mask(adj, color, x) for x in (t, *adj[t])):
            return False
    return True


def _extend(
    adj: list[set[int]],
    color: list[int],
    v: int,
    k: int,
    valid: Callable[[list[set[int]], list[int], Iterable[int]], bool] = _valid_near,
) -> bool:
    """Color v, whose edges are in adj, given an odd k-coloring of the rest.

    Colors no neighbor forbids go first (an easy neighbor w forbids its
    least odd color when d(w) is low and it has one, else its own color;
    any other neighbor forbids both).  Easy and low use the thresholds
    of the 13-color theorem, whatever k is.  Each color is tried alone, then
    with one recolored repair target at a time, until ``valid`` accepts
    the change at the touched vertices.  On success color is odd on the
    whole graph; on failure it is left as it was.
    """
    nbrs = sorted(adj[v])
    forbidden: set[int] = set()
    for w in nbrs:
        odd = _odd_mask(adj, color, w, skip=v)
        least_odd = (odd & -odd).bit_length() - 1
        if is_easy(len(adj[w]), (len(adj[u]) for u in adj[w])):
            forbidden.add(least_odd if odd and is_low(len(adj[w])) else color[w])
        else:
            forbidden.add(color[w])
            if odd:
                forbidden.add(least_odd)
    banned = {color[w] for w in nbrs}
    candidates = [a for a in range(1, k + 1) if a not in banned]
    candidates.sort(key=lambda a: (a in forbidden, a))

    old_v = color[v]
    targets = None
    for a in candidates:
        color[v] = a
        if valid(adj, color, (v,)):
            return True
        if targets is None:
            targets = _repair_targets(adj, v, nbrs)
        for r in targets:
            old = color[r]
            for b in range(1, k + 1):
                if b != old:
                    color[r] = b
                    if valid(adj, color, (v, r)):
                        return True
            color[r] = old
    color[v] = old_v
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


def _bridge_colors(
    adj: list[set[int]], color: list[int], u: int, v: int, k: int
) -> Iterator[tuple[int, int]]:
    """Colors (a, b) for the ends of bridge uv, absent from adj, that work.

    Exchanging a with u's color on u's side, and b with v's color on v's
    side, permutes the colors of each side, which keeps it odd.  Once the
    bridge is back, u sees its old odd colors, exchanged, plus b, and v
    likewise; a != b keeps uv proper.  So only the parities at u and v
    can fail, and the pairs are checked on them alone, in order.
    """
    odd_u = _odd_mask(adj, color, u)
    odd_v = _odd_mask(adj, color, v)
    for a in range(1, k + 1):
        seen_by_u = _swap_bits(odd_u, a, color[u])
        for b in range(1, k + 1):
            if b != a and seen_by_u != 1 << b and _swap_bits(odd_v, b, color[v]) != 1 << a:
                yield a, b


def _exchange(adj: list[set[int]], color: list[int], s: int, a: int) -> None:
    """Exchange color a with the color of s on the component of s."""
    c = color[s]
    if a == c:
        return
    seen = {s}
    stack = [s]
    while stack:
        x = stack.pop()
        if color[x] == a:
            color[x] = c
        elif color[x] == c:
            color[x] = a
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)


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
    """The graph of the colorer's current level, changed in place.

    Holds neighbor sets, the number of non-isolated vertices, a heap of
    (degree, vertex) with stale entries skipped lazily, and the bridges
    (None until computed for the current graph).
    """

    def __init__(self, g: Graph) -> None:
        self.adj = [set(a) for a in g.adj]
        self.active = sum(1 for a in self.adj if a)
        self.bridges: set[Edge] | None = None
        self.reheap()

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
        if ax:
            heapq.heappush(self.heap, (len(ax), x))
        else:
            self.active -= 1

    def _add(self, x: int, y: int) -> None:
        if not self.adj[x]:
            self.active += 1
        self.adj[x].add(y)

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


def _spans_bridgeless(adj: list[set[int]], vertices: set[int]) -> bool:
    """Whether the subgraph induced on ``vertices`` is connected and bridgeless."""
    order = list(vertices)
    index = {x: i for i, x in enumerate(order)}
    local = [[index[y] for y in adj[x] if y in index] for x in order]
    seen = {0}
    stack = [0]
    while stack:
        for y in local[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(order) and not bridges_of(local)


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
    g = d.base
    peel = _Peel(g)
    color = [1] * g.n
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
        color[:] = [assign[x] for x in range(g.n)]
        return True

    def descend() -> bool:
        """Peel down to a leaf and color it; False when that fails."""
        while True:
            if peel.active <= exact_limit:
                trace.append(f"exact search on {peel.active} active vertices")
                c = find_odd_coloring(peel.graph(), k)
                if c is None:
                    trace.append(f"no odd {k}-coloring exists on the remainder")
                    return False
                color[:] = [c.assign[x] for x in range(g.n)]
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
            ab = next(_bridge_colors(peel.adj, color, u, v, k), None)
            if ab is None:
                trace.append(f"bridge merge failed at ({u}, {v})")
                ok = False
                break
            _exchange(peel.adj, color, u, ab[0])
            _exchange(peel.adj, color, v, ab[1])
            peel.restore_edge(u, v)
            continue
        _, v, nbrs, hits, i = frame
        peel.restore_vertex(v, nbrs)
        if _extend(peel.adj, color, v, k):
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

    c = Coloring.of(g, dict(enumerate(color)), k=k)
    if not verify_odd_coloring(g, c).valid:
        trace.append("final verification failed")
        return ReductionResult(None, trace)
    return ReductionResult(c, trace)


def _greedy_with_repair(g: Graph, k: int) -> dict[int, int] | None:
    order = sorted((v for v in range(g.n) if g.adj[v]), key=g.degree, reverse=True)
    assign: dict[int, int] = {}
    for v in order:
        banned = {assign[u] for u in g.adj[v] if u in assign}
        choices = [a for a in range(1, k + 1) if a not in banned]
        if not choices:
            return None
        assign[v] = choices[0]
    c = Coloring.of(g, {**assign, **{v: 1 for v in range(g.n) if v not in assign}}, k=k)
    for _ in range(4 * g.n):
        rep = verify_odd_coloring(g, c)
        if rep.valid:
            return dict(c.assign)
        bad = min(rep.odd_violations | {u for e in rep.proper_violations for u in e})
        fixed = False
        for r in (bad, *g.adj[bad]):
            old = c.assign[r]
            for b in range(1, k + 1):
                if b == old:
                    continue
                trial = dict(c.assign)
                trial[r] = b
                c2 = Coloring.of(g, trial, k=k)
                r2 = verify_odd_coloring(g, c2)
                if len(r2.odd_violations) + len(r2.proper_violations) < len(
                    rep.odd_violations
                ) + len(rep.proper_violations):
                    c = c2
                    fixed = True
                    break
            if fixed:
                break
        if not fixed:
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
        v, col = int(parts[0]), int(parts[1])
        if not 0 <= v < g.n:
            raise ValueError(f"line {lineno}: vertex {v} out of range")
        if v in assign:
            raise ValueError(f"line {lineno}: vertex {v} colored twice")
        assign[v] = col
    return Coloring.of(g, assign, k=k)


def format_coloring(c: Coloring) -> str:
    return "\n".join(f"{v} {col}" for v, col in sorted(c.assign.items())) + "\n"
