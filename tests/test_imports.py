"""Every imported name is used by the module that imports it, and the
tests' reference model imports nothing of the package it checks.

No linter ships with the project, so this parses the package and the
tests with ``ast``.  A name listed in ``__all__`` counts as used.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "oddcolor").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in used)
    assert unused == [], f"{path.name}: unused imports (line, name): {unused}"


def _runtime_imports(node: ast.AST) -> list[ast.stmt]:
    """The imports under node, except those in an ``if TYPE_CHECKING:`` block."""
    if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
        return [i for n in node.orelse for i in _runtime_imports(n)]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [node]
    return [i for child in ast.iter_child_nodes(node) for i in _runtime_imports(child)]


def test_reference_imports_no_package_name_at_run_time():
    path = ROOT / "tests" / "reference.py"
    found = []
    for node in _runtime_imports(ast.parse(path.read_text(), str(path))):
        modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
        if any(m.partition(".")[0] == "oddcolor" for m in modules):
            found.append((node.lineno, ast.unparse(node)))
    assert found == [], f"reference.py imports the package it checks: {found}"
