"""Golden outputs of the CLI and the reduction colorer.

``golden_reduce_color.json`` was recorded before the colorer's rewrite.
Each case pins the sha256 of the exact ``reduce-color --k 13 --format json``
stdout and its exit code, plus the sha256 of the colorer's trace.  The set
includes drawings whose traces split bridges, and library runs with a
smaller palette or ``exact_limit`` whose traces show extension failures,
the next-candidate fallback, greedy repair and outright failure.

``golden_cli.json`` pins the stdout, stderr and exit code of the analysis
commands (``gstar``, ``classify``, ``lemmas``, ``discharge``) on the same
drawings, plus a two-component drawing with an isolated vertex and one
whose second component is not planar.  The latter's stderr was recorded
again when ``validate`` began to check planarity, since its message now
names the file, as every other drawing fault does.

``golden_malformed.json`` pins the stdout, stderr and exit code of
``gstar`` on each malformed drawing of ``conftest.MALFORMED_DRAWINGS``,
with the drawing's path written as its file name.  It was recorded before
the drawing decoder's bulk type checks.  The rotation-key cases whose
outputs changed since, because keys must be canonical vertex ids, were
recorded again after that change: ``rotation-key-duplicate``,
``-empty``, ``-leading-zero``, ``-letter``, ``-plus``, ``-space`` and
``-underscore``.  The over-long integer cases (``edge-long-integer``,
``rotation-key-long`` and ``rotation-key-long-letters``) were added when
the parsers began to refuse such integers themselves, and
``nonplanar-rotation`` when ``validate`` began to check planarity.

``golden_generators.json`` was recorded before the generator kept its
face list incrementally.  It pins the sha256 of ``drawing_to_json`` of
``random_one_planar(n, seed, crossings=cap)`` for every n in
``GENERATOR_SIZES``, seeds 0-11 and caps 0, default and n.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from functools import reduce
from operator import xor
from pathlib import Path

import pytest

from oddcolor import cli, coloring
from oddcolor.coloring import Coloring, _Peel, color_by_reduction, coloring_json, verify_odd_coloring
from oddcolor.embedding import OnePlanarDrawing, drawing_to_json
from oddcolor.generators import complete, random_one_planar
from oddcolor.graph import Graph, bridges_of

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import (  # noqa: E402
    MALFORMED_DRAWINGS,
    drawing_text,
    plane_c5_drawing,
    poor4_drawing,
    semipoor5_drawing,
    special7_drawing,
)
from reference import json_of_coloring  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden_reduce_color.json"
GOLDEN_CLI = Path(__file__).resolve().parent / "golden_cli.json"
GOLDEN_GENERATORS = Path(__file__).resolve().parent / "golden_generators.json"
GOLDEN_MALFORMED = Path(__file__).resolve().parent / "golden_malformed.json"

# (n, seed) of random_one_planar drawings; the second group splits bridges
RANDOM = [
    (8, 0), (12, 1), (16, 2), (20, 3), (24, 4), (30, 5), (40, 6), (50, 7),
    (60, 8), (70, 9), (90, 10), (100, 11), (130, 12), (150, 13),
    (60, 173), (80, 2), (80, 17), (100, 14), (120, 14), (150, 6),
]
FIXTURES = {
    "poor4": poor4_drawing,
    "semipoor5": semipoor5_drawing,
    "semipoor5-leaf": lambda: semipoor5_drawing(extra_leaf=True),
    "special7": special7_drawing,
    "plane-c5": plane_c5_drawing,
}
# (n, seed, k, exact_limit): deep peels, extension failures and greedy repair
RANDOM_LIBRARY = [
    (20, 134, 13, 4), (30, 30, 7, 4), (40, 6, 13, 2),
    (12, 20, 5, 4), (12, 19, 5, 4), (20, 10, 5, 4), (12, 3, 5, 4),
]
# (n, k, exact_limit) on K_n with an empty rotation.  The colorer reads the
# rotation only in its face778 detector, where this one fails validation.
# Random drawings always keep a vertex of degree <= 6; these reach the
# lemma4 detector (K_8, K_10) and levels with no detector hit (K_9, K_10).
COMPLETE_LIBRARY = [(8, 13, 2), (8, 5, 2), (9, 13, 2), (9, 8, 2), (10, 13, 3)]
LIBRARY = {
    **{
        f"n{n}-s{seed}-k{k}-limit{limit}": (lambda n=n, seed=seed: random_one_planar(n, seed=seed), k, limit)
        for n, seed, k, limit in RANDOM_LIBRARY
    },
    **{
        f"K{n}-k{k}-limit{limit}": (lambda n=n: OnePlanarDrawing(complete(n), (), {}), k, limit)
        for n, k, limit in COMPLETE_LIBRARY
    },
}


def two_component_drawing() -> OnePlanarDrawing:
    """K4 with one crossing, a triangle, and the isolated vertex 7."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3), (4, 5), (5, 6), (4, 6)]
    rot = {
        0: (1, 8, 3), 1: (2, 8, 0), 2: (3, 8, 1), 3: (2, 0, 8), 8: (2, 3, 0, 1),
        4: (5, 6), 5: (6, 4), 6: (4, 5),
    }
    return OnePlanarDrawing(Graph.from_edge_list(edges, n=8), (((0, 2), (1, 3)),), rot)


def nonplanar_second_component_drawing() -> OnePlanarDrawing:
    """A triangle, then a K4 whose rotation traces 2 faces (V - E + F = 0)."""
    edges = [(0, 1), (1, 2), (0, 2)] + [(a, b) for a in range(3, 7) for b in range(a + 1, 7)]
    rot = {0: (1, 2), 1: (2, 0), 2: (0, 1)}
    rot.update({v: tuple(w for w in range(3, 7) if w != v) for v in range(3, 7)})
    return OnePlanarDrawing(Graph.from_edge_list(edges, n=7), (), rot)


CLI_EXTRA = {
    "two-components": two_component_drawing,
    "nonplanar-second-component": nonplanar_second_component_drawing,
}
CLI_COMMANDS = {
    "gstar": ["gstar", "--format", "json"],
    "classify": ["classify"],
    "lemmas": ["lemmas"],
    "lemmas-colors7": ["lemmas", "--colors", "7"],
    "discharge": ["discharge", "--transfers"],
}


GENERATOR_SIZES = [4, 5, 6, 10, 30, 77, 150, 400]
GENERATOR_SEEDS = range(12)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _generator_cases(n: int) -> dict:
    """Digests of the drawings of size n, each validated: the generator does not check its output."""
    out = {}
    for seed in GENERATOR_SEEDS:
        for cap in (0, None, n):
            d = random_one_planar(n, seed, crossings=cap)
            d.validate()
            out[f"s{seed}-cap{cap}"] = _sha(drawing_to_json(d))
    return out


def compute_generators() -> dict:
    return {f"n{n}": _generator_cases(n) for n in GENERATOR_SIZES}


def _drawings() -> dict:
    out = {f"n{n}-s{seed}": (lambda n=n, seed=seed: random_one_planar(n, seed=seed)) for n, seed in RANDOM}
    out.update(FIXTURES)
    return out


def _cli_case(make, tmp: Path) -> dict:
    d = make()
    path = tmp / "drawing.json"
    path.write_text(drawing_to_json(d))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["reduce-color", str(path), "--k", "13", "--format", "json"])
    trace = "\n".join(color_by_reduction(d, k=13).trace)
    return {"exit": code, "stdout_sha256": _sha(out.getvalue()), "trace_sha256": _sha(trace)}


def _library_case(make, k: int, limit: int) -> dict:
    res = color_by_reduction(make(), k=k, exact_limit=limit)
    assign = sorted(res.coloring.assign.items()) if res.ok else None
    return {"ok": res.ok, "result_sha256": _sha(json.dumps({"trace": res.trace, "coloring": assign}))}


def _cli_drawings() -> dict:
    return {**_drawings(), **CLI_EXTRA}


def _pinned_run(command: str, path: Path, *flags: str) -> dict:
    """Exit code and output digests of one CLI call on path, named in stderr by its file name."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([command, str(path), *flags])
    return {
        "exit": code,
        "stdout_sha256": _sha(stdout.getvalue()),
        "stderr_sha256": _sha(stderr.getvalue().replace(str(path), path.name)),
    }


def _analysis_case(make, tmp: Path) -> dict:
    path = tmp / "drawing.json"
    path.write_text(drawing_to_json(make()))
    return {name: _pinned_run(command, path, *flags) for name, (command, *flags) in CLI_COMMANDS.items()}


def compute_cli(tmp: Path) -> dict:
    return {name: _analysis_case(make, tmp) for name, make in _cli_drawings().items()}


def _malformed_case(payload, tmp: Path) -> dict:
    path = tmp / "drawing.json"
    path.write_text(drawing_text(payload))
    return _pinned_run("gstar", path)


def compute_malformed(tmp: Path) -> dict:
    return {name: _malformed_case(payload, tmp) for name, payload in MALFORMED_DRAWINGS.items()}


def compute(tmp: Path) -> dict:
    return {
        "cli": {name: _cli_case(make, tmp) for name, make in _drawings().items()},
        "library": {name: _library_case(*case) for name, case in LIBRARY.items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(_drawings()))
def test_cli_output_matches_golden(golden, name, tmp_path):
    assert _cli_case(_drawings()[name], tmp_path) == golden["cli"][name]


@pytest.fixture(scope="module")
def golden_cli() -> dict:
    return json.loads(GOLDEN_CLI.read_text())


@pytest.mark.parametrize("name", sorted(_cli_drawings()))
def test_analysis_commands_match_golden(golden_cli, name, tmp_path):
    assert _analysis_case(_cli_drawings()[name], tmp_path) == golden_cli[name]


def test_cli_golden_set_covers_components_and_failures(golden_cli):
    assert golden_cli["two-components"]["discharge"]["exit"] == 0
    assert {case["exit"] for case in golden_cli["nonplanar-second-component"].values()} == {2}


@pytest.fixture(scope="module")
def golden_malformed() -> dict:
    return json.loads(GOLDEN_MALFORMED.read_text())


@pytest.mark.parametrize("name", sorted(MALFORMED_DRAWINGS))
def test_malformed_drawings_match_golden(golden_malformed, name, tmp_path):
    assert _malformed_case(MALFORMED_DRAWINGS[name], tmp_path) == golden_malformed[name]


@pytest.fixture(scope="module")
def golden_generators() -> dict:
    return json.loads(GOLDEN_GENERATORS.read_text())


@pytest.mark.parametrize("n", GENERATOR_SIZES)
def test_generator_drawings_match_golden(golden_generators, n):
    assert _generator_cases(n) == golden_generators[f"n{n}"]


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_result_matches_golden(golden, name):
    assert _library_case(*LIBRARY[name]) == golden["library"][name]


def test_golden_set_covers_the_colorer_branches():
    traces = [color_by_reduction(make(), k=13).trace for make in _drawings().values()]
    assert any(line.startswith("bridge (") for t in traces for line in t)
    lib = [color_by_reduction(make(), k=k, exact_limit=limit).trace for make, k, limit in LIBRARY.values()]
    for needle in ("extension failed", "greedy with repair", "greedy repair failed", "lemma4"):
        assert any(needle in line for t in lib for line in t), needle


def test_peel_bridges_stay_exact(monkeypatch):
    """After every cut on the golden runs, the colorer's bridge set is unknown or exact."""
    checks = 0

    def checked(cut):
        def wrapper(peel, *args):
            nonlocal checks
            out = cut(peel, *args)
            assert peel.bridges is None or peel.bridges == bridges_of(peel.adj)
            checks += 1
            return out

        return wrapper

    for name in ("cut_vertex", "cut_edge"):
        monkeypatch.setattr(_Peel, name, checked(getattr(_Peel, name)))
    for make in _drawings().values():
        color_by_reduction(make(), k=13)
    for make, k, limit in LIBRARY.values():
        color_by_reduction(make(), k=k, exact_limit=limit)
    assert checks > 1000


def test_reduce_color_time_does_not_grow_with_k():
    """Colors above every one in use act alike, so a palette of a million costs
    what the 13 colors of the theorem cost, on the golden n = 60 drawing."""
    d = random_one_planar(60, seed=8)
    best, results = {13: float("inf"), 10**6: float("inf")}, {}
    for _ in range(3):
        for k in best:
            start = time.perf_counter()
            results[k] = color_by_reduction(d, k=k)
            best[k] = min(best[k], time.perf_counter() - start)
    assert results[10**6].ok and verify_odd_coloring(d.base, results[10**6].coloring).valid
    assert best[10**6] <= 3 * best[13]


def test_peel_parity_stays_exact(monkeypatch):
    """From construction on, after every change to the colorer's graph or colors
    on the golden runs, each parity mask equals a recount, and no color exceeds ``top``."""
    checks = 0

    def checked(change, bounded=True):
        def wrapper(*args):
            nonlocal checks
            out = change(*args)
            peel = args[0]
            recount = [reduce(xor, (1 << peel.color[y] for y in a), 0) for a in peel.adj]
            assert peel.par == recount
            assert not bounded or max(peel.color) <= peel.top
            checks += 1
            return out

        return wrapper

    for name in ("__init__", "cut_vertex", "restore_vertex", "cut_edge", "restore_edge", "paint"):
        monkeypatch.setattr(_Peel, name, checked(getattr(_Peel, name)))
    # _extend recolors past top while it tries colors, and sets top when it commits
    monkeypatch.setattr(_Peel, "recolor", checked(_Peel.recolor, bounded=False))
    for name in ("_exchange", "_extend"):
        monkeypatch.setattr(coloring, name, checked(getattr(coloring, name)))
    for make in _drawings().values():
        color_by_reduction(make(), k=13)
    for make, k, limit in LIBRARY.values():
        color_by_reduction(make(), k=k, exact_limit=limit)
    assert checks > 1000


def test_coloring_json_matches_json_dumps(tmp_path):
    """The directly written reduce-color JSON is json.dumps's, byte for byte: on
    every golden drawing (keys "10" before "2"), on n = 0 and with colors >= 10."""
    colorings = [color_by_reduction(make(), k=13).coloring for make in _drawings().values()]
    colorings += [Coloring.of({}, k=13), Coloring.of({v: 12 - v % 12 for v in range(30)}, k=12)]
    for c in colorings:
        assert coloring_json(c) == json_of_coloring(c)
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "edges": []}')
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["reduce-color", str(path), "--format", "json"]) == 0
    empty = json_of_coloring(Coloring.of({}, k=13))
    assert out.getvalue() == empty + "\n" and '"coloring": {}' in empty


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(compute(Path(tmp)), indent=1, sort_keys=True) + "\n")
        GOLDEN_CLI.write_text(json.dumps(compute_cli(Path(tmp)), indent=1, sort_keys=True) + "\n")
        GOLDEN_MALFORMED.write_text(json.dumps(compute_malformed(Path(tmp)), indent=1, sort_keys=True) + "\n")
    GOLDEN_GENERATORS.write_text(json.dumps(compute_generators(), indent=1, sort_keys=True) + "\n")
