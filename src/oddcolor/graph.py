"""Simple undirected graphs with dense integer vertex ids.

Vertices are 0..n-1.  Loops are rejected and parallel edges are merged
into one; isolated vertices are representable (they matter: the
odd-color condition exempts them).  Graphs are immutable after
construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    """Normalize an edge to (min, max) order."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[Edge]
    adj: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edge_list(pairs: Iterable[Sequence[int]], n: int | None = None) -> "Graph":
        """Build a graph from vertex pairs, deduplicating parallel edges.

        ``n`` declares the vertex count (for trailing isolated vertices);
        when omitted it is inferred from the largest id seen.
        """
        if n is not None and n < 0:
            raise ValueError(f"vertex count must be non-negative, got n={n}")
        if iter(pairs) is pairs:  # a one-shot iterator; a bad pair is looked up again below
            pairs = list(pairs)
        edges = {(u, v) if u < v else (v, u) for u, v in pairs}
        low, high = zip(*edges) if edges else ((), ())
        if min(low, default=0) < 0 or any(u == v for u, v in edges):
            for u, v in pairs:  # name the first bad pair
                if u == v:
                    raise ValueError(f"loop edge not allowed: ({u}, {v})")
                if u < 0 or v < 0:
                    raise ValueError(f"negative vertex id in edge ({u}, {v})")
        top = max(high, default=-1)
        if n is None:
            n = top + 1
        elif top >= n:
            raise ValueError(f"edge endpoint {top} out of range for n={n}")
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        for a in nbrs:
            a.sort()
        return Graph(n=n, edges=frozenset(edges), adj=tuple(map(tuple, nbrs)))

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"unknown vertex {v}")
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise ValueError(f"unknown vertex {v}")
        return self.adj[v]

    def components(self) -> list[set[int]]:
        """Connected components as vertex sets (isolated vertices included)."""
        out: list[set[int]] = []
        seen: set[int] = set()
        for s in range(self.n):
            if s not in seen:
                out.append(reach(self.adj, s))
                seen |= out[-1]
        return out

    def bridges(self) -> set[Edge]:
        """Cut edges, via iterative DFS lowpoint computation."""
        return bridges_of(self.adj)


def reach(adj: Sequence[Collection[int]], s: int) -> set[int]:
    """The vertices joined to s by a path in the graph with adjacency ``adj``, s included."""
    seen = {s}
    stack = [s]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def bridges_of(adj: Sequence[Collection[int]]) -> set[Edge]:
    """Cut edges of the simple graph with adjacency ``adj``, in O(n + m).

    Iterative Tarjan lowpoints.  Each DFS frame keeps an iterator over its
    vertex's neighbors; in a simple graph the tree edge back to the parent
    is the only neighbor equal to the parent, so it is skipped by id.
    """
    n = len(adj)
    disc = [0] * n  # discovery time, from 1; 0 means not yet visited
    low = [0] * n
    out: set[Edge] = set()
    timer = 0
    for root in range(n):
        if disc[root] or not adj[root]:
            continue
        timer += 1
        disc[root] = low[root] = timer
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, nbrs = stack[-1]
            for w in nbrs:
                if w == parent:
                    continue
                if disc[w]:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    timer += 1
                    disc[w] = low[w] = timer
                    stack.append((w, v, iter(adj[w])))
                    break
            else:
                stack.pop()
                if parent >= 0:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        out.add(norm_edge(parent, v))
    return out


def canonical_int(token: str, where: str, what: str = "integer") -> int:
    """token as an integer, which it must spell as str() does, in no more digits than int()
    reads; where and what name it otherwise, and its first 20 characters show it."""
    try:
        if token.removeprefix("-").isdecimal() and str(value := int(token)) == token:
            return value
        fault = f"is not a canonical {what}"
    except ValueError:  # more digits than int() reads
        fault = f"is too long to be a canonical {what} ({len(token)} characters)"
    shown = repr(token) if len(token) <= 20 else f"{token[:20]!r}..."
    raise ValueError(f"{where}{shown} {fault}")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    First meaningful line is ``p <n> <m>``, followed by ``m`` lines
    ``e <u> <v>`` with 0-based ids.  Blank lines and ``#`` comments are
    ignored.
    """
    n = None
    m = None
    pairs: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate problem line")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'p <n> <m>'")
            n, m = (canonical_int(t, f"line {lineno}: ") for t in parts[1:])
        elif parts[0] == "e":
            if n is None:
                raise ValueError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'e <u> <v>'")
            pairs.append(tuple(canonical_int(t, f"line {lineno}: ") for t in parts[1:]))
        else:
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise ValueError("missing problem line 'p <n> <m>'")
    if m is not None and len(pairs) != m:
        raise ValueError(f"problem line declared {m} edges, found {len(pairs)}")
    return Graph.from_edge_list(pairs, n=n)


def format_edge_list(g: Graph) -> str:
    lines = [f"p {g.n} {len(g.edges)}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
