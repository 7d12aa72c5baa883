"""``tools/snapshot_outputs.py``: the sweep that compares two checkouts' outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The cases that end with a failed check: two steps too coarse for their
# battery, a solve that diverges and one stopped by max_iter.
FAILING = {"verify-Ex1_7-step2", "verify-Ex2_3-step3", "solve-diverging", "solve-max_iter2"}


def _sweep(out: Path) -> dict:
    """Run the tool in a fresh process; every file it wrote, by relative path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "snapshot_outputs.py"), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def test_two_sweeps_write_identical_trees(tmp_path):
    first = _sweep(tmp_path / "first")
    assert _sweep(tmp_path / "second") == first
    assert _sweep(tmp_path / "first") == first  # every file overwritten in place
    status = json.loads(first[Path("status.json")])
    assert {case: code for case, code in status.items() if code != 0} == dict.fromkeys(FAILING, 3)
    assert all(Path(case, "report.json") in first for case in status)
