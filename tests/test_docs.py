"""The README's library example runs, and every exported name exists."""

import re
from pathlib import Path

import oddcolor

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in oddcolor.__all__ if not hasattr(oddcolor, name)]
    assert missing == []
