"""Every public function, method and property of the package has a reader.

Like ``test_imports``, this parses the package with ``ast``.  A public
name (no leading underscore) defined at module level or in a class body
must be referenced somewhere in ``src/oddcolor`` outside its own
definition, be listed in ``oddcolor.__all__``, or be a target of the
benchmark tracer, whose ``TRACED`` list ``test_tracer_targets`` reads.
A name used only by tests is dead API.
"""

from __future__ import annotations

import ast
from pathlib import Path

import oddcolor
from test_tracer_targets import _traced_targets

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "oddcolor").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_defs(tree: ast.Module) -> list[ast.AST]:
    """The public functions of the module and the public methods of its classes."""
    defs = [node for node in tree.body if isinstance(node, FUNCTIONS)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        defs += [node for node in cls.body if isinstance(node, FUNCTIONS)]
    return [node for node in defs if not node.name.startswith("_")]


def _references(node: ast.AST, outside: ast.AST) -> set[str]:
    """Names and attribute names read anywhere in node, except inside outside."""
    if node is outside:
        return set()
    out = set()
    if isinstance(node, ast.Name):
        out.add(node.id)
    elif isinstance(node, ast.Attribute):
        out.add(node.attr)
    for child in ast.iter_child_nodes(node):
        out |= _references(child, outside)
    return out


def test_every_public_definition_has_a_reader():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in FILES}
    alive = {*oddcolor.__all__, *(attr.rsplit(".", 1)[-1] for _, attr in _traced_targets())}
    dead = [
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in _public_defs(tree)
        if node.name not in alive and not any(node.name in _references(t, node) for t in trees.values())
    ]
    assert dead == [], f"public definitions no code in src/oddcolor reads: {dead}"
