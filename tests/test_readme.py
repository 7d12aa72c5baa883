"""The README's python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


def test_readme_python_examples_run():
    namespace: dict = {}
    for n, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {n}", "exec"), namespace)
