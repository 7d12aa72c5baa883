"""The names the benchmark uses still exist in relfix.

``bench/tracer.py`` reports a traced name relfix no longer has only on
stderr and reads its metrics as 0, so a rename would go unnoticed there;
any other relfix name the benchmark calls that is gone fails only when the
benchmark runs.  The files under ``bench/`` are read here with ``ast``,
never imported or run.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


def _attribute_chain(node):
    """``(root, [attr, ...])`` of a chain such as ``relfix.cli.main``, or None
    when the chain does not start at a plain name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) else None


def relfix_references():
    """``(file, dotted name)`` for every relfix import and every attribute
    chain on a name bound to relfix in the benchmark's sources."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        roots = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "relfix":
                        found.add((path.name, alias.name))
                        roots[alias.asname or "relfix"] = alias.name if alias.asname else "relfix"
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
                if node.module.split(".")[0] == "relfix":
                    found.update((path.name, f"{node.module}.{a.name}") for a in node.names)
        for node in ast.walk(tree):
            chain = _attribute_chain(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in roots:
                found.add((path.name, ".".join([roots[chain[0]], *chain[1]])))
    return sorted(found)


def resolves(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif isinstance(obj, ModuleType):
            try:
                obj = importlib.import_module(".".join(parts[:k]))
            except ModuleNotFoundError:
                return False
        else:
            return False
    return True


def test_benchmark_reaches_relfix():
    names = {name for _, name in relfix_references()}
    assert {"relfix.check_w3", "relfix.WDistance.on_scalars", "relfix.cli.main"} <= names


@pytest.mark.parametrize("path, name", relfix_references())
def test_benchmark_name_exists(path, name):
    assert resolves(name), f"{path} uses {name}, which relfix does not have"
