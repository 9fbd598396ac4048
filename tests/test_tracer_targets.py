"""The benchmark tracer's targets exist in the package.

``perfbench/tracing.py`` wraps the functions and methods listed in
``TRACED`` by module and attribute path; a traced run fails when one of
them is renamed or deleted.  The tracer is loaded by file path, since
``perfbench`` is not a package on the test path.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _, _ in tracing.TRACED]


def test_every_traced_name_resolves():
    targets = _traced_targets()
    assert targets
    for module, attr in targets:
        owner = importlib.import_module(f"oddcolor.{module}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        # methods are wrapped through the class __dict__, functions through the module
        assert name in vars(owner) and callable(getattr(owner, name)), f"{module}.{attr}"
