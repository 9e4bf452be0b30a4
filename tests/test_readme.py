"""The README's Python examples run as written: every ``python`` block, in order, in one namespace."""

from __future__ import annotations

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md, python block {i}", "exec"), namespace)
