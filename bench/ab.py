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
parse and ``validate`` part of each op.

A side's figure for a round is the median CPU time of its passes.  For
the ops and for ``drawing_from_json`` alone, the report gives each side's
median and quartiles over the rounds, the ratio of the medians, and the
rounds in which CHANGE was faster.  The exit code is 1 if any child's
output digest differs from the others, else 0.
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
    print(json.dumps({"times": times, "parse": parse, "sha256": digest}))


def measure(root: str, workload: str, passes: int) -> dict:
    """One child's pass times, drawing_from_json pass times and output digest."""
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
    for key, what in (("times", "ops"), ("parse", "drawing_from_json alone")):
        figures = {side: [statistics.median(run[key]) for run in rs] for side, rs in runs.items()}
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
