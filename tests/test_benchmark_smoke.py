"""The benchmark's correctness gate runs with the tests.

``perfbench/run.py --workload reduce --seconds 0.1`` makes the pinned
seed-1 inputs, runs one pass of ``reduce-color`` over them and checks each
coloring with its own checker; ``--workload audit`` does the same with
``discharge`` and its audit checker.  The digest of each pass's output pins
its bytes.  ``bench/ab.py``, the A/B timer of two checkouts, prints the
same digest.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REDUCE_SHA256 = "64bbe6d6520a8102bd5375e6b2ec11c111a460089deaf3235accf3dbb07b7b2b"
AUDIT_SHA256 = "e4cb2598303601e5664a769d01eeb70218d7a7d05acc3abfdc4c4972400e6efe"


def _check_one_pass(workload: str, sha256: str) -> None:
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seconds", "0.1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr
    *report, summary = run.stdout.splitlines()
    assert f"# {workload}: output sha256 {sha256}" in report
    summary = json.loads(summary)
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] > 0


def test_reduce_benchmark_pass_is_correct():
    _check_one_pass("reduce", REDUCE_SHA256)


def test_audit_benchmark_pass_is_correct():
    _check_one_pass("audit", AUDIT_SHA256)


def test_ab_digests_agree_on_one_checkout(capsys):
    """``bench/ab.py`` on this checkout against itself: one round of one
    ``reduce`` pass per side, with run.py's output digest on both."""
    sys.path.insert(0, str(ROOT / "bench"))
    import ab

    assert ab.main([str(ROOT), str(ROOT), "reduce"], rounds=1, passes=1) == 0
    assert f"output sha256 equal: {REDUCE_SHA256}" in capsys.readouterr().out
