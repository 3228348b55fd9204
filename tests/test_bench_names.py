"""The benchmark names library functions per layer; each name must still
resolve, or its per-layer metric would silently read 0."""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def traced_functions() -> dict:
    """The FUNCTIONS table of bench/run.py, read without importing it."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no FUNCTIONS table in {RUN}")


def test_every_traced_function_exists():
    table = traced_functions()
    assert {"core", "fields", "chow", "triang", "flip", "stacks", "cli"} <= set(table)
    missing = [
        f"matchfield.{layer}.{name}"
        for layer, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"matchfield.{layer}"), name, None))
    ]
    assert not missing, f"bench/run.py traces functions that are gone: {missing}"
