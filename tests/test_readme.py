"""The README's Python examples run as written.

Each ```python block executes in a fresh namespace, so an example that
names something the package no longer exports fails here.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})
