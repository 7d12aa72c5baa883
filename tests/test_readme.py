"""The README's python examples run as written, in order, in one namespace,
and its table of checks names every check a run writes."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
CHECKS = re.findall(r"^\| `(\w+)` \|", README.read_text(), re.M)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


def test_readme_python_examples_run():
    namespace: dict = {}
    for n, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {n}", "exec"), namespace)


@pytest.mark.filterwarnings("ignore::relfix.errors.ContractionWarning")
def test_check_table_names_every_check_the_snapshot_runs_write(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "snapshot_outputs", ROOT / "tools" / "snapshot_outputs.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.snapshot(tmp_path)
    written = {
        name
        for path in tmp_path.rglob("report.json")
        for name in json.loads(path.read_text())["checks"]
    }
    assert len(CHECKS) == len(set(CHECKS)) == 28
    assert set(CHECKS) == written
