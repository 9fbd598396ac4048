"""Inputs, CLI invocations and output checks of the two benchmark workloads.

Each workload builds its inputs in set-up rounds: round ``r`` of seed ``s``
makes one shard of inputs from its own sub-seed, so every round does the
same kind and amount of work and the measured passes use the inputs of all
rounds.  The largest inputs, which cost the most to make, are made once
per run by ``once``.

Each size mix puts one large class of like inputs across the middle of the
ranks: both ``op_p50_s`` and ``op_tail_s`` (p75) then fall inside that
class, not on a boundary between classes, where the percentile would jump
with the seed.

The output checks never call the package: they parse the input files and
the captured CLI output themselves, so a bug in a layer under test cannot
also hide in its own check.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oddcolor import generators
from oddcolor.embedding import drawing_to_json

K = 13  # palette of the reduction colorer, as in the paper's theorem


@dataclass(frozen=True)
class Input:
    name: str  # unique within a run; file name stem
    size: str  # size class, for the op count per class
    text: str  # file contents handed to the CLI


@dataclass(frozen=True)
class Workload:
    name: str
    suffix: str
    shard: Callable[[int, int], list[Input]]
    once: Callable[[int], list[Input]]
    argv: Callable[[Path], list[str]]
    check: Callable[[Input, Path, str], str | None]


def _rng(seed: int, r: int | str) -> random.Random:
    return random.Random(f"{seed}/{r}")


# ---------------------------------------------------------------------------
# independent checkers


def check_odd_coloring(
    n: int, edges: list[tuple[int, int]], assign: dict[int, int], k: int
) -> str | None:
    """Why ``assign`` is not an odd k-coloring of the graph, or None.

    Every vertex must be colored with a color in 1..k, no edge may join
    two equal colors, and every non-isolated vertex must see some color an
    odd number of times on its neighborhood.
    """
    missing = [v for v in range(n) if v not in assign]
    if missing:
        return f"uncolored vertices {missing[:5]}"
    extra = sorted(v for v in assign if not 0 <= v < n)
    if extra:
        return f"colored non-vertices {extra[:5]}"
    bad = sorted(v for v, c in assign.items() if not 1 <= c <= k)
    if bad:
        return f"colors outside 1..{k} at {bad[:5]}"
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if assign[u] == assign[v]:
            return f"edge ({u}, {v}) has both ends colored {assign[u]}"
        nbrs[u].append(v)
        nbrs[v].append(u)
    for v in range(n):
        counts = Counter(assign[u] for u in nbrs[v])
        if nbrs[v] and not any(c % 2 for c in counts.values()):
            return f"vertex {v} sees no color an odd number of times"
    return None


def audit_check(inp: Input, path: Path, stdout: str) -> str | None:
    """Every component charges -8 before and after, and the audit agrees."""
    payload = json.loads(stdout)
    if not payload["components"]:
        return "no components"
    for comp in payload["components"]:
        if comp["sum_initial"] != "-8" or comp["sum_final"] != "-8":
            return f"component {comp['component']} sums {comp['sum_initial']} -> {comp['sum_final']}"
    if payload["conserved"] is not True or payload["replay_ok"] is not True:
        return f"conserved={payload['conserved']} replay_ok={payload['replay_ok']}"
    return None


# ---------------------------------------------------------------------------
# audit: `oddcolor discharge` on random 1-planar drawings.  The whole read
# pipeline runs on every op and coloring never does.  Many small drawings
# give the latency percentiles samples; the crossing cap of the n = 100 and
# n = 400 drawings cycles through none, default and n, so planarization sees
# 0 to about n/3 crossings.  A pass is 4 n = 100, 8 n = 200 and 1 n = 400
# drawings per shard, then the n = 800 drawing: the n = 200 drawings hold
# ranks 30% to 90%.


def _crossing_cap(mode: int, n: int) -> int | None:
    """Crossing cap: none, the generator's default (about n/5), or n."""
    return (0, None, n)[mode % 3]


def _drawing(name: str, size: str, n: int, seed: int, cap: int | None) -> Input:
    d = generators.random_one_planar(n, seed=seed, crossings=cap)
    return Input(name=name, size=size, text=drawing_to_json(d))


AUDIT_SIZES = [100] * 4 + [200] * 8 + [400]
# The n = 200 drawings keep the default cap, so the class that holds p50 and
# p75 is one kind of drawing.
AUDIT_VARIED_CAP = (100, 400)
AUDIT_ONCE_N = 800


def audit_shard(seed: int, r: int) -> list[Input]:
    rng = _rng(seed, r)
    out = []
    for i, n in enumerate(AUDIT_SIZES):
        cap = _crossing_cap(i + r, n) if n in AUDIT_VARIED_CAP else None
        label = "default" if cap is None else cap
        out.append(_drawing(f"r{r}-{i:02d}-n{n}-cap{label}", f"n{n}", n, rng.getrandbits(32), cap))
    return out


def audit_once(seed: int) -> list[Input]:
    n = AUDIT_ONCE_N
    return [_drawing(f"once-n{n}", f"n{n}", n, _rng(seed, "once").getrandbits(32), None)]


# ---------------------------------------------------------------------------
# reduce: `oddcolor reduce-color --k 13` on random 1-planar drawings.  The
# colorer recurses once per peeled vertex, so n = 1200 exceeds the default
# recursion limit; that op keeps the known failure in every pass.  A pass is
# 6 n = 60, 18 n = 100 and 1 n = 200 drawings per shard, plus the n = 300,
# 400 and 1200 drawings: the n = 100 drawings hold ranks 23% to 94% of the
# successful ops.

REDUCE_SIZES = [60] * 6 + [100] * 18 + [200]
REDUCE_ONCE_N = (300, 400)
CEILING_N = 1200


def reduce_shard(seed: int, r: int) -> list[Input]:
    rng = _rng(seed, r)
    return [
        _drawing(f"r{r}-{i:02d}-n{n}", f"n{n}", n, rng.getrandbits(32), None)
        for i, n in enumerate(REDUCE_SIZES)
    ]


def reduce_once(seed: int) -> list[Input]:
    rng = _rng(seed, "once")
    return [
        _drawing(f"once-n{n}", f"n{n}", n, rng.getrandbits(32), None)
        for n in (*REDUCE_ONCE_N, CEILING_N)
    ]


def reduce_check(inp: Input, path: Path, stdout: str) -> str | None:
    payload = json.loads(stdout)
    if payload.get("ok") is not True or payload.get("k") != K:
        return f"ok={payload.get('ok')} k={payload.get('k')}"
    drawing = json.loads(inp.text)
    assign = {int(v): c for v, c in payload["coloring"].items()}
    return check_odd_coloring(drawing["n"], drawing["edges"], assign, K)


WORKLOADS = {
    "audit": Workload(
        "audit", ".json", audit_shard, audit_once, lambda p: ["discharge", str(p)], audit_check
    ),
    "reduce": Workload(
        "reduce",
        ".json",
        reduce_shard,
        reduce_once,
        lambda p: ["reduce-color", str(p), "--k", str(K), "--format", "json"],
        reduce_check,
    ),
}
