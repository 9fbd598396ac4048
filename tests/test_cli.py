import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from oddcolor import cli
from oddcolor.cli import main
from oddcolor.embedding import drawing_to_json
from oddcolor.graph import Graph, format_edge_list

from conftest import (
    MALFORMED_DRAWINGS,
    crossed_k4_drawing,
    drawing_text,
    k4_with_rotation_key,
    nonplanar_rotation_drawing,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_and_chi_odd(tmp_path, capsys):
    graph = tmp_path / "c5.txt"
    assert main(["gen", "cycle", "5", "-o", str(graph)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "chi-odd", str(graph))
    assert code == 0 and out.strip() == "5"


def test_chi_odd_json_and_witness(tmp_path, capsys):
    graph = tmp_path / "c4.txt"
    main(["gen", "cycle", "4", "-o", str(graph)])
    capsys.readouterr()
    witness = tmp_path / "c4.col"
    code, out, _ = run(
        capsys, "chi-odd", str(graph), "--format", "json", "--witness", str(witness)
    )
    assert code == 0
    assert json.loads(out)["chi_odd"] == 4
    code, out, _ = run(capsys, "verify", str(graph), str(witness))
    assert code == 0 and out.strip() == "valid"


def test_chi_odd_exceeds_kmax(tmp_path, capsys):
    graph = tmp_path / "c5.txt"
    main(["gen", "cycle", "5", "-o", str(graph)])
    capsys.readouterr()
    code, out, _ = run(capsys, "chi-odd", str(graph), "--kmax", "4")
    assert code == 1 and out.strip() == "exceeds 4"


def test_chi_odd_exceeds_kmax_json(tmp_path, capsys):
    graph = tmp_path / "c5.txt"
    main(["gen", "cycle", "5", "-o", str(graph)])
    capsys.readouterr()
    code, out, _ = run(capsys, "chi-odd", str(graph), "--kmax", "3", "--format", "json")
    assert code == 1 and json.loads(out) == {"chi_odd": None, "kmax": 3}


def test_verify_invalid_exit_code(tmp_path, capsys):
    graph = tmp_path / "c4.txt"
    main(["gen", "cycle", "4", "-o", str(graph)])
    bad = tmp_path / "bad.col"
    bad.write_text("0 1\n1 2\n2 1\n3 2\n")
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", str(graph), str(bad))
    assert code == 1 and "invalid" in out


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "junk.txt"
    bad.write_text("not a graph\n")
    code, _, err = run(capsys, "chi-odd", str(bad))
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "gstar", str(bad))
    assert code == 2


@pytest.mark.parametrize("token", ["x", "1_0", "+1", "\u0663", "01", "-0"])
def test_text_parsers_require_canonical_integers(tmp_path, capsys, token):
    """Edge lists and colorings take integers as str() writes them, and name the line."""
    graph, coloring = tmp_path / "g.txt", tmp_path / "c.col"
    graph.write_text(f"p 2 1\ne 0 {token}\n")
    message = f"line 2: {token!r} is not a canonical integer\n"
    assert run(capsys, "chi-odd", str(graph)) == (2, "", f"error: {graph}: {message}")
    graph.write_text("p 2 1\ne 0 1\n")
    coloring.write_text(f"0 1\n1 {token}\n")
    assert run(capsys, "verify", str(graph), str(coloring)) == (2, "", f"error: {coloring}: {message}")


def test_text_parsers_name_the_line_of_an_over_long_integer(tmp_path, capsys):
    """A token with more digits than int() reads is refused by the parser, which
    names its line and shows its first 20 characters."""
    graph, coloring = tmp_path / "g.txt", tmp_path / "c.col"
    token = "1" * 5000
    graph.write_text(f"p 2 1\ne 0 {token}\n")
    message = "line 2: '11111111111111111111'... is too long to be a canonical integer (5000 characters)\n"
    assert run(capsys, "chi-odd", str(graph)) == (2, "", f"error: {graph}: {message}")
    graph.write_text("p 2 1\ne 0 1\n")
    coloring.write_text(f"0 1\n1 {token}\n")
    assert run(capsys, "verify", str(graph), str(coloring)) == (2, "", f"error: {coloring}: {message}")
    coloring.write_text(f"0 1\n1 {'x' * 5000}\n")
    message = "line 2: 'xxxxxxxxxxxxxxxxxxxx'... is not a canonical integer\n"
    assert run(capsys, "verify", str(graph), str(coloring)) == (2, "", f"error: {coloring}: {message}")


@pytest.mark.parametrize("command", ["gstar", "reduce-color"])
def test_drawing_over_long_integers_exit_2(tmp_path, capsys, command):
    """An over-long JSON integer is malformed JSON; an over-long rotation key is
    named by its first 20 characters.  No message advises an interpreter setting."""
    drawing = tmp_path / "d.json"
    drawing.write_text(drawing_text(MALFORMED_DRAWINGS["edge-long-integer"]))
    message = "malformed drawing JSON: an integer has too many digits\n"
    assert run(capsys, command, str(drawing)) == (2, "", f"error: {drawing}: {message}")
    drawing.write_text(drawing_text(MALFORMED_DRAWINGS["rotation-key-long"]))
    message = "rotation key '11111111111111111111'... is too long to be a canonical vertex id (5000 characters)\n"
    assert run(capsys, command, str(drawing)) == (2, "", f"error: {drawing}: {message}")


def test_missing_file_exit_code(tmp_path, capsys):
    absent = tmp_path / "absent.txt"
    code, _, err = run(capsys, "chi-odd", str(absent))
    assert code == 2 and err.startswith(f"error: cannot read {absent}: ")


def test_gstar_text_and_dot(tmp_path, capsys):
    drawing = tmp_path / "d.json"
    main(["gen", "random-one-planar", "15", "--seed", "3", "-o", str(drawing)])
    capsys.readouterr()
    dot = tmp_path / "d.dot"
    code, out, _ = run(capsys, "gstar", str(drawing), "--dot", str(dot))
    assert code == 0
    assert "euler=ok" in out
    assert dot.read_text().startswith("graph gstar {")


def test_classify_and_lemmas_json(tmp_path, capsys):
    drawing = tmp_path / "d.json"
    main(["gen", "random-one-planar", "12", "--seed", "0", "-o", str(drawing)])
    capsys.readouterr()
    code, out, _ = run(capsys, "classify", str(drawing))
    assert code == 0
    payload = json.loads(out)
    assert "vertices" in payload and "faces" in payload
    code, out, _ = run(capsys, "lemmas", str(drawing))
    assert code == 0
    assert set(json.loads(out)["violations"]) == {f"L{i}" for i in range(1, 9)}


def test_discharge_deterministic_output(tmp_path, capsys):
    drawing = tmp_path / "d.json"
    main(["gen", "random-one-planar", "18", "--seed", "4", "-o", str(drawing)])
    capsys.readouterr()
    code1, out1, _ = run(capsys, "discharge", str(drawing), "--transfers")
    code2, out2, _ = run(capsys, "discharge", str(drawing), "--transfers")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical JSON
    payload = json.loads(out1)
    assert payload["conserved"] and payload["replay_ok"]
    assert payload["sum_initial"] == "-8"


def test_gen_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "random-one-planar", "16", "--seed", "9", "-o", str(a)])
    main(["gen", "random-one-planar", "16", "--seed", "9", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_invalid_size(capsys):
    code, _, err = run(capsys, "gen", "cycle", "2")
    assert code == 2


def test_reduce_color(tmp_path, capsys):
    drawing = tmp_path / "d.json"
    main(["gen", "random-one-planar", "25", "--seed", "7", "-o", str(drawing)])
    capsys.readouterr()
    code, out, _ = run(capsys, "reduce-color", str(drawing), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["k"] == 13
    assert payload["colors_used"] <= 13


def test_chi_odd_long_path_needs_no_recursion(tmp_path, capsys):
    """The exact search keeps its frames on a stack of its own: a 1200-vertex
    path is solved under the default recursion limit."""
    graph = tmp_path / "path.txt"
    graph.write_text(format_edge_list(Graph.from_edge_list([(i, i + 1) for i in range(1199)])))
    code, out, _ = run(capsys, "chi-odd", str(graph), "--kmax", "4")
    assert code == 0 and out.strip() == "3"


@pytest.mark.parametrize("name", MALFORMED_DRAWINGS)
def test_gstar_rejects_malformed_drawing(tmp_path, capsys, name):
    drawing = tmp_path / "d.json"
    drawing.write_text(drawing_text(MALFORMED_DRAWINGS[name]))
    code, out, err = run(capsys, "gstar", str(drawing))
    assert (code, out) == (2, "") and err.startswith("error:")


@pytest.mark.parametrize("name", MALFORMED_DRAWINGS)
@pytest.mark.parametrize("command", ["classify", "lemmas", "discharge", "reduce-color"])
def test_drawing_commands_reject_malformed_drawing_as_gstar_does(tmp_path, capsys, command, name):
    """Every other command that reads a drawing exits 2 on a malformed one,
    prints nothing and writes gstar's message."""
    drawing = tmp_path / "d.json"
    drawing.write_text(drawing_text(MALFORMED_DRAWINGS[name]))
    expected = run(capsys, "gstar", str(drawing))
    assert run(capsys, command, str(drawing)) == expected


@pytest.mark.parametrize("command", ["gstar", "reduce-color"])
def test_deeply_nested_drawing_json_exits_2(tmp_path, capsys, command):
    """json.dumps cannot build this payload, so the file is written as text."""
    drawing = tmp_path / "d.json"
    drawing.write_text("[" * 100_000)
    code, out, err = run(capsys, command, str(drawing))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {drawing}: malformed drawing JSON: ")


@pytest.mark.parametrize("command", ["gstar", "reduce-color"])
def test_non_alternating_crossing_rotation_exits_2(tmp_path, capsys, command):
    drawing = tmp_path / "d.json"
    drawing.write_text(drawing_to_json(crossed_k4_drawing(star_rotation=(0, 2, 1, 3))))
    code, out, err = run(capsys, command, str(drawing))
    assert (code, out) == (2, "")
    assert "rotation at crossing vertex 4 does not alternate" in err


def test_reduce_color_rejects_a_nonplanar_rotation(tmp_path, capsys):
    """Its crossings alternate but its rotation is not planar.  The colorer never
    traces faces, so validate must reject it."""
    drawing = tmp_path / "d.json"
    drawing.write_text(drawing_to_json(nonplanar_rotation_drawing()))
    code, out, err = run(capsys, "reduce-color", str(drawing))
    assert (code, out) == (2, "")
    assert "rotation system is not planar" in err


def _assert_cannot_write(capsys, path, *argv):
    """The command fails before it prints a result."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")


def test_gen_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "c5.txt"
    _assert_cannot_write(capsys, out, "gen", "cycle", "5", "-o", str(out))


def test_chi_odd_unwritable_witness_exits_2(tmp_path, capsys):
    graph = tmp_path / "c5.txt"
    main(["gen", "cycle", "5", "-o", str(graph)])
    witness = tmp_path / "missing" / "w.col"
    _assert_cannot_write(capsys, witness, "chi-odd", str(graph), "--witness", str(witness))


def test_gstar_unwritable_dot_exits_2(tmp_path, capsys):
    drawing = tmp_path / "d.json"
    main(["gen", "random-one-planar", "15", "--seed", "3", "-o", str(drawing)])
    dot = tmp_path / "missing" / "g.dot"
    _assert_cannot_write(capsys, dot, "gstar", str(drawing), "--dot", str(dot))


# integers stay small: a drawing allocates per-vertex storage for its declared n
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2, 6) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)
_pairs = st.lists(st.integers(-1, 6), min_size=2, max_size=2) | st.integers(0, 6) | _json_values


@settings(max_examples=150, deadline=None)
@given(
    st.fixed_dictionaries(
        {"n": st.integers(0, 6) | _json_values, "edges": st.lists(_pairs, max_size=8) | _json_values},
        optional={
            "crossings": _json_values | st.lists(_pairs, max_size=3),
            "rotation": _json_values
            | st.dictionaries(st.sampled_from("0123456"), st.lists(st.integers(-1, 8), max_size=4)),
        },
    )
)
def test_gstar_exit_code_on_randomly_typed_drawing(tmp_path_factory, payload):
    drawing = tmp_path_factory.mktemp("fuzz") / "d.json"
    drawing.write_text(json.dumps(payload))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["gstar", str(drawing)]) in (0, 1, 2)


def test_negative_vertex_count_names_the_count(tmp_path, capsys):
    graph = tmp_path / "neg.txt"
    graph.write_text("p -1 0\n")
    code, _, err = run(capsys, "chi-odd", str(graph))
    assert code == 2
    assert "vertex count must be non-negative, got n=-1" in err and "endpoint" not in err


_tokens = st.sampled_from(["p", "e", "x", "#", "-1", "0", "1", "2", "3", "7", "1.5", "+2", "", "p1"])
_junk = st.lists(st.lists(_tokens, max_size=5).map(" ".join), max_size=2)
_pair = st.tuples(st.integers(-1, 7), st.integers(-1, 7))


def _with_junk(draw, lines: list[str]) -> str:
    for line in draw(_junk):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


@st.composite
def _graph_text(draw) -> str:
    edges = [f"e {u} {v}" for u, v in draw(st.lists(_pair, max_size=6))]
    # n stays small: a graph allocates one neighbour set per declared vertex
    n = draw(st.integers(-2, 7))
    m = draw(st.sampled_from([len(edges), len(edges) + 1, -1]))
    return _with_junk(draw, [f"p {n} {m}", *edges])


@st.composite
def _coloring_text(draw) -> str:
    return _with_junk(draw, [f"{v} {c}" for v, c in draw(st.lists(_pair, max_size=8))])


@settings(max_examples=300, deadline=None)
@given(
    _graph_text(),
    _coloring_text(),
    st.sampled_from([[], ["--k", "0"], ["--k", "-1"], ["--k", "3"]]),
    st.sampled_from([[], ["--format", "json"]]),
)
def test_verify_exit_code_on_random_texts(tmp_path_factory, graph_text, coloring_text, k, fmt):
    tmp = tmp_path_factory.mktemp("fuzz")
    graph, coloring = tmp / "g.txt", tmp / "c.col"
    graph.write_text(graph_text)
    coloring.write_text(coloring_text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["verify", str(graph), str(coloring), *k, *fmt]) in (0, 1, 2)


def test_reduce_color_failure_follows_format(tmp_path, capsys):
    """Odd 3-colorings of this drawing do not exist, so the colorer fails."""
    drawing = tmp_path / "d.json"
    main(["gen", "random-one-planar", "8", "--seed", "0", "-o", str(drawing)])
    capsys.readouterr()
    code, out, _ = run(capsys, "reduce-color", str(drawing), "--k", "3", "--format", "json")
    assert code == 1
    trace = json.loads(out)["trace"]
    assert out == json.dumps({"ok": False, "trace": trace}, sort_keys=True, indent=2) + "\n"
    assert trace[-1] == "no odd 3-coloring exists on the remainder"
    code, out, _ = run(capsys, "reduce-color", str(drawing), "--k", "3")
    assert code == 1 and out == "".join(f"{line}\n" for line in trace)


@pytest.mark.parametrize("k", ["0", "-1"])
def test_reduce_color_rejects_empty_palette(tmp_path, capsys, k):
    """A palette below 1 is malformed input, like chi-odd's --kmax 0, not a failed coloring."""
    drawing = tmp_path / "d.json"
    main(["gen", "random-one-planar", "60", "--seed", "1", "-o", str(drawing)])
    capsys.readouterr()
    code, out, err = run(capsys, "reduce-color", str(drawing), "--k", k)
    assert (code, out, err) == (2, "", "error: k must be >= 1\n")


@pytest.mark.parametrize("key", ["01", " 1", "+1", "1_0", "x", ""])
def test_rotation_keys_must_be_canonical_vertex_ids(tmp_path, capsys, key):
    """Vertex 1's rotation under a key that int() reads as a vertex id, or not at all."""
    drawing = tmp_path / "d.json"
    drawing.write_text(json.dumps(k4_with_rotation_key(key)))
    code, out, err = run(capsys, "gstar", str(drawing))
    assert (code, out) == (2, "")
    assert err == f"error: {drawing}: rotation key {key!r} is not a canonical vertex id\n"


def _call(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    graph = tmp_path / "c5.txt"
    calls = [
        ["gen", "cycle", "5", "-o", str(graph)],
        ["chi-odd", str(graph)],
        ["chi-odd", str(graph), "--format", "json"],
    ]
    assert [_call(argv)[0] for argv in calls] == [0, 0, 0]
    assert built == [1]


def test_reused_parser_carries_no_state_between_calls(tmp_path, monkeypatch):
    """Each call of a mixed sequence prints what it prints alone, with a new parser."""
    drawing, graph, coloring = tmp_path / "d.json", tmp_path / "g.txt", tmp_path / "c.col"
    main(["gen", "random-one-planar", "12", "--seed", "3", "-o", str(drawing)])
    d = json.loads(drawing.read_text())
    graph.write_text(format_edge_list(Graph.from_edge_list(d["edges"], n=d["n"])))
    sequence = [
        ["reduce-color", str(drawing), "--format", "json"],
        ["reduce-color", str(drawing)],
        ["gstar", str(drawing)],
        ["verify", str(graph), str(coloring), "--k", "13"],
        ["verify", str(graph)],  # argparse error: the coloring is missing
        ["chi-odd", str(graph)],
    ]
    coloring.write_text(_call(sequence[1])[1])
    in_sequence = [_call(argv) for argv in sequence]
    alone = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_parser", None)
        alone.append(_call(argv))
    assert in_sequence == alone
    assert [code for code, _, _ in alone] == [0, 0, 0, 0, 2, 0]
    assert json.loads(alone[0][1])["k"] == 13 and not alone[1][1].startswith("{")
