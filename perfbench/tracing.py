"""Outside-in tracing of the oddcolor layers.

The tracer wraps public functions and methods from outside the package:
each module-level function is replaced in every ``oddcolor`` module that
binds it (``cli`` and ``coloring`` import names with ``from .x import``),
and each method is replaced on its class.  Recursive calls that resolve
through the module global, such as ``color_by_reduction`` calling itself,
are caught too.  Each wrapper adds a stack frame, so while wrappers are
active the recursion limit is raised by their number: the traced program
reaches the depth of the untraced one, within one frame, before it fails
with RecursionError.  Runs compare which ops fail with and without tracing.

Spans stay in memory as (name, start, end, parent, op, outcome) tuples and
are written once, after the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path
from typing import Any, Callable

# (module, attribute path, ratio stat name, outcome of a call)
TRACED: list[tuple[str, str, str | None, Callable[[Any], bool] | None]] = [
    ("generators", "random_one_planar", None, None),
    ("embedding", "trace_faces", None, None),
    ("embedding", "drawing_from_json", None, None),
    ("embedding", "OnePlanarDrawing.validate", None, None),
    ("embedding", "build_associated_plane_graph", None, None),
    ("embedding", "AssociatedPlaneGraph.faces_at", None, None),
    ("embedding", "OnePlanarDrawing.without_vertex", None, None),
    ("embedding", "OnePlanarDrawing.without_edge", None, None),
    ("graph", "Graph.from_edge_list", None, None),
    ("graph", "Graph.bridges", None, None),
    ("graph", "Graph.components", None, None),
    ("structure", "easy_vertices", None, None),
    ("structure", "classify_vertices", None, None),
    ("structure", "classify_faces", None, None),
    ("structure", "detect_lemma_violations", None, None),
    ("structure", "LemmaReport.lemmas_touching", None, None),
    ("discharging", "initial_charges", None, None),
    ("discharging", "apply_rules", None, None),
    ("discharging", "audit", None, None),
    ("coloring", "color_by_reduction", None, None),
    ("coloring", "extend_at_vertex", "success_ratio", lambda res: res is not None),
    ("coloring", "verify_odd_coloring", "valid_ratio", lambda res: res.valid),
    ("coloring", "find_odd_coloring", None, None),
    ("cli", "main", None, None),
]

PACKAGE = "oddcolor"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def metric_names() -> list[str]:
    """Per-layer metric names a traced run reports, in a fixed order."""
    names = []
    for module, attr, ratio, _ in TRACED:
        base = span_name(module, attr)
        names += [f"{base}.calls", f"{base}.self_s"]
        if ratio:
            names.append(f"{base}.{ratio}")
    return names + ["trace_overhead_ratio"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._base = sys.getrecursionlimit()

    def _wrap(self, fn: Callable, name: str, outcome: Callable | None) -> Callable:
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self
        base, setlimit = self._base, sys.setrecursionlimit

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            setlimit(base + len(stack))
            ok = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    ok = outcome(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op, ok)
                try:
                    setlimit(base + len(stack))
                except RecursionError:
                    pass  # too low for the depth while unwinding; the next call resets it

        return traced

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module, attr, _, outcome in TRACED:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    self._patch(cls, meth, staticmethod(self._wrap(raw.__func__, name, outcome)))
                else:
                    self._patch(cls, meth, self._wrap(raw, name, outcome))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(fn, name, outcome)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapper)

    def remove(self) -> None:
        sys.setrecursionlimit(self._base)
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def layer_metrics(self) -> dict[str, float]:
        """calls, self seconds and outcome ratios per traced function.

        A span's self time is its duration minus the durations of its
        direct children; spans on one thread nest, so children never overlap.
        """
        spans = [s for s in self.spans if s is not None]
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        oks: dict[str, int] = {}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, _, ok = span
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[idx]
            oks[name] = oks.get(name, 0) + bool(ok)
        out: dict[str, float] = {}
        for module, attr, ratio, _ in TRACED:
            base = span_name(module, attr)
            out[f"{base}.calls"] = calls.get(base, 0)
            out[f"{base}.self_s"] = self_s.get(base, 0.0)
            if ratio:
                out[f"{base}.{ratio}"] = oks.get(base, 0) / calls[base] if calls.get(base) else 0.0
        return out

    def write(self, path: Path, t0: float) -> None:
        """Write the spans as tab-separated lines, times relative to t0."""
        with path.open("w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\toutcome\n")
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, op, ok = span
                fh.write(f"{name}\t{start - t0:.6f}\t{end - t0:.6f}\t{parent}\t{op}\t{ok}\n")
