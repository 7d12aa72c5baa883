"""The names the benchmark tracer wraps still exist in relfix.

``bench/tracer.py`` reports a traced name relfix no longer has only on
stderr and reads its metrics as 0, so a rename would go unnoticed there.
The tracer is read here, never imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def spanned_names():
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SPANNED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no SPANNED table")


@pytest.mark.parametrize("span, target", sorted(spanned_names().items()))
def test_spanned_function_exists(span, target):
    module_name, attr = target
    assert callable(getattr(importlib.import_module(module_name), attr, None)), span


def test_counted_callbacks_exist():
    from relfix import spaces
    from relfix.relations import Relation
    from relfix.wdistance import WDistance

    assert callable(getattr(spaces, "point_distance", None))
    # a class is itself callable, so look the method up on its own classes
    for cls in (Relation, WDistance):
        assert any("__call__" in vars(c) for c in cls.__mro__ if c is not object), cls
