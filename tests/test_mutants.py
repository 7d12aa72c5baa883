"""``tools/mutants.py``: each row is applied to a copy of the checkout and run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_rows_record_their_outcome_on_one_test():
    tail = next(m for m in mutants.MUTANTS if m.old == "TAIL_FRACTION = 0.25")
    node0 = next(m for m in mutants.MUTANTS if m.file.endswith("fractional.py"))
    test = "tests/test_relations.py::TestSelfClosedWitness::test_tail_window_is_the_last_quarter"
    assert mutants.run(tail, test) == mutants.Outcome(tail, True, test)
    assert mutants.run(node0, test) == mutants.Outcome(node0, False, None)


def test_every_row_matches_its_file_once():
    for m in mutants.MUTANTS:
        assert (ROOT / m.file).read_text().count(m.old) == 1, m
