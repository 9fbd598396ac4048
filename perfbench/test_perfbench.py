"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

CLI = run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from oddcolor import coloring, generators  # noqa: E402
from oddcolor.embedding import drawing_to_json  # noqa: E402


def declared(kind: str) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def test_checker_rejects_one_flipped_color(tmp_path):
    d = generators.random_one_planar(24, seed=3)
    path = tmp_path / "d.json"
    path.write_text(drawing_to_json(d))
    _, stdout, reason = run.run_op(CLI, ["reduce-color", str(path), "--k", "13", "--format", "json"])
    assert reason is None
    inp = workloads.Input("d", "n24", path.read_text())
    assert workloads.reduce_check(inp, path, stdout) is None

    assign = {int(v): c for v, c in json.loads(stdout)["coloring"].items()}
    edges = sorted(d.base.edges)
    u, v = edges[0]
    flipped = {**assign, u: assign[v]}
    assert "both ends" in workloads.check_odd_coloring(d.base.n, edges, flipped, 13)


def test_checker_rejects_parity_and_range():
    path3 = [(0, 1), (1, 2)]
    assert workloads.check_odd_coloring(3, path3, {0: 1, 1: 2, 2: 3}, 3) is None
    assert "odd" in workloads.check_odd_coloring(3, path3, {0: 1, 1: 2, 2: 1}, 3)
    assert "outside" in workloads.check_odd_coloring(3, path3, {0: 1, 1: 2, 2: 4}, 3)
    assert "uncolored" in workloads.check_odd_coloring(3, path3, {0: 1, 1: 2}, 3)


@pytest.fixture
def tiny_reduce(monkeypatch, tmp_path):
    """The reduce workload cut to the first two inputs of each shard, writing under tmp_path."""
    wl = workloads.WORKLOADS["reduce"]
    small = workloads.Workload(
        wl.name, wl.suffix, lambda seed, r: wl.shard(seed, r)[:2], lambda seed: [], wl.argv, wl.check
    )
    monkeypatch.setitem(workloads.WORKLOADS, "reduce", small)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return small


def test_tampered_input_digest_fails_setup(tiny_reduce, tmp_path):
    seed = json.loads(run.PINS.read_text())["seed"]
    pinned = run.load_pins("reduce", seed)["sha256"]
    names = [f"r{r}-{i:02d}-n60" for r in range(run.ROUNDS) for i in range(2)]
    pins = {"sha256": {name: pinned[name] for name in names}}
    (tmp_path / "ok").mkdir()
    run.Bench(CLI, tiny_reduce, seed, tmp_path / "ok").setup(pins)

    tampered = {"sha256": {**pins["sha256"], names[0]: "0" * 64}}
    (tmp_path / "t").mkdir()
    with pytest.raises(run.SetupError, match=names[0]):
        run.Bench(CLI, tiny_reduce, seed, tmp_path / "t").setup(tampered)


def test_printed_metric_names_match_benchmark_json(tiny_reduce, capsys):
    assert tracing.metric_names() == declared("per_layer")
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "reduce", "--seed", "99", "--seconds", "0", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == declared(kind)


def test_tracer_counts_recursion_and_restores_bindings(tmp_path):
    from oddcolor import cli

    original = coloring.color_by_reduction
    path = tmp_path / "d.json"
    path.write_text(drawing_to_json(generators.random_one_planar(40, seed=5)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.color_by_reduction is coloring.color_by_reduction is not original
        _, _, reason = run.run_op(cli, ["reduce-color", str(path), "--format", "json"])
    finally:
        tracer.remove()
    assert reason is None
    assert cli.color_by_reduction is coloring.color_by_reduction is original
    metrics = tracer.layer_metrics()
    assert metrics["coloring.color_by_reduction.calls"] > 1
    assert metrics["cli.main.calls"] == 1
    assert 0 < metrics["coloring.verify_odd_coloring.valid_ratio"] <= 1
