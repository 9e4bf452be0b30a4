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


def test_readme_config_schema_lists_exactly_the_cli_keys():
    from noisecomb import cli

    schema = re.search(r"^```jsonc\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
    assert set(re.findall(r'^  "(\w+)":', schema, re.M)) == cli._SAMPLE_KEYS | cli._SOLVE_KEYS
    task = re.search(r'^  "task": \{[^\n]*\n(.*?)^  \},', schema, re.M | re.S).group(1)
    assert set(re.findall(r'^    "(\w+)":', task, re.M)) == cli._TASK_KEYS
