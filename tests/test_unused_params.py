"""Every parameter of a function in the package is read by its body.

Like ``test_imports``, this parses the package with ``ast``.  ``self`` and
``cls`` are exempt; a read in a nested function counts.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "oddcolor").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _unread(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each parameter that its function's body never reads."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out += [(node.lineno, p.arg) for p in params if p.arg not in read | {"self", "cls"}]
    return sorted(out)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = _unread(ast.parse(path.read_text(), str(path)))
    assert unread == [], f"{path.name}: parameters never read (line, name): {unread}"
