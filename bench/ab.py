"""A/B CPU time of one benchmark workload on two checkouts.

    python3 bench/ab.py BASE CHANGE audit|reduce

BASE and CHANGE are the roots of two checkouts.  Each round starts one
child process per checkout, and the order alternates between rounds.  A
child puts its checkout's ``src`` first on ``sys.path`` and builds the
seed-1 inputs of the workload with this repository's
``perfbench/workloads.py`` (not timed).  It then runs passes over them,
each op one in-process call of ``oddcolor.cli.main``, in the order that
``perfbench/run.py`` runs them.  It prints the ``time.process_time`` of
each pass and the sha256 of its first pass's stdout, which is
``run.py``'s ``output_sha256``.  It then times as many passes of its
checkout's ``drawing_from_json`` alone over the same drawings' text: the
parse and ``validate`` part of each op.  Last, it times as many passes
of the later phases of the ops, one phase at a time over all inputs.
Each phase is timed alone, on the previous phase's output, whose making
is not counted:

- ``audit``: G* (``build_associated_plane_graph``), taxonomy
  (``classify_vertices`` and ``classify_faces``),
  ``detect_lemma_violations``, ``apply_rules``, ``audit`` (which runs
  ``apply_rules`` again, as the op does) and encode (``to_jsonable`` and
  ``json.dumps`` with the CLI's arguments);
- ``reduce``: ``color_by_reduction`` and ``coloring_json``.

A side's figure for a round is the median CPU time of its passes.  For
the ops, ``drawing_from_json`` and each phase alone, the report gives
each side's median and quartiles over the rounds, the ratio of the
medians, and the rounds in which CHANGE was faster.  The exit code is 1
if any child's output digest differs from the others, else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1  # the pinned seed of perfbench/pins.json
ROUNDS = 10
PASSES = 5
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import ab; ab.child(*sys.argv[2:])"


def _phases(workload: str) -> list[tuple]:
    """The phases of an op after its parse, each a function of the previous one's output."""
    from oddcolor.coloring import color_by_reduction, coloring_json
    from oddcolor.discharging import apply_rules, audit
    from oddcolor.embedding import build_associated_plane_graph
    from oddcolor.structure import classify_faces, classify_vertices, detect_lemma_violations
    from workloads import K

    def taxonomy(apg):
        vt = classify_vertices(apg)
        return apg, vt, classify_faces(apg, vt)

    def rules(tagged):
        apply_rules(*tagged[:3])
        return tagged  # audit runs the rules itself

    if workload == "reduce":
        return [
            ("color_by_reduction", lambda d: color_by_reduction(d, k=K)),
            ("coloring_json", lambda res: coloring_json(res.coloring)),
        ]
    return [
        ("G*", build_associated_plane_graph),
        ("taxonomy", taxonomy),
        ("detect_lemma_violations", lambda tagged: (*tagged, detect_lemma_violations(tagged[0]))),
        ("apply_rules", rules),
        ("audit", lambda tagged: audit(*tagged)),
        ("encode", lambda report: json.dumps(report.to_jsonable(), sort_keys=True, indent=2)),
    ]


def child(root: str, workload: str, passes: str) -> None:
    """Time passes of workload on the checkout at root; print one JSON line."""
    src = Path(root).resolve() / "src"
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import oddcolor.cli
    from oddcolor.embedding import drawing_from_json
    from run import ROUNDS as SHARDS, spread
    from workloads import WORKLOADS

    if src not in Path(oddcolor.cli.__file__).resolve().parents:
        raise SystemExit(f"imported oddcolor from {oddcolor.cli.__file__}, not {src}")
    wl = WORKLOADS[workload]
    inputs = spread([x for r in range(SHARDS) for x in wl.shard(SEED, r)] + wl.once(SEED))
    times, parse, digest = [], [], None
    with tempfile.TemporaryDirectory() as tmp:
        argvs = []
        for inp in inputs:
            path = Path(tmp) / f"{inp.name}{wl.suffix}"
            path.write_text(inp.text)
            argvs.append(wl.argv(path))
        for _ in range(int(passes)):
            out = io.StringIO()
            start = time.process_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                for argv in argvs:
                    oddcolor.cli.main(argv)
            times.append(time.process_time() - start)
            digest = digest or hashlib.sha256(out.getvalue().encode()).hexdigest()
    for _ in range(int(passes)):
        start = time.process_time()
        for inp in inputs:
            drawing_from_json(inp.text)
        parse.append(time.process_time() - start)
    figures = {"ops": times, "drawing_from_json alone": parse}
    drawings = [drawing_from_json(inp.text) for inp in inputs]
    for _ in range(int(passes)):
        xs = drawings
        for name, phase in _phases(workload):
            start = time.process_time()
            xs = [phase(x) for x in xs]
            figures.setdefault(f"{name} alone", []).append(time.process_time() - start)
    print(json.dumps({"figures": figures, "sha256": digest}))


def measure(root: str, workload: str, passes: int) -> dict:
    """One child's pass times of the ops and of each phase alone, and its output digest."""
    run = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(__file__).resolve().parent), root, workload, str(passes)],
        capture_output=True, text=True,
    )
    if run.returncode:
        raise SystemExit(f"the child on {root} failed:\n{run.stderr}")
    return json.loads(run.stdout)


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def main(argv: list[str], rounds: int = ROUNDS, passes: int = PASSES) -> int:
    base, change, workload = argv
    sides = {"base": base, "change": change}
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for r in range(rounds):
        for side in ("base", "change") if r % 2 == 0 else ("change", "base"):
            runs[side].append(measure(sides[side], workload, passes))
    for what in runs["base"][0]["figures"]:
        figures = {side: [statistics.median(run["figures"][what]) for run in rs] for side, rs in runs.items()}
        print(f"{workload}, {what}: {rounds} rounds of {passes} passes, CPU seconds per pass")
        for side, root in sides.items():
            q1, q3 = quartiles(figures[side])
            print(f"  {side:6} {statistics.median(figures[side]):.4f} [{q1:.4f}-{q3:.4f}]  {root}")
        ratio = statistics.median(figures["change"]) / statistics.median(figures["base"])
        wins = sum(c < b for b, c in zip(figures["base"], figures["change"]))
        print(f"  change/base {ratio:.3f}; change faster in {wins} of {rounds} rounds")
    digests = {run["sha256"] for rs in runs.values() for run in rs}
    print(f"  output sha256 {'equal' if len(digests) == 1 else 'DIFFER'}: {' '.join(sorted(digests))}")
    return 0 if len(digests) == 1 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
