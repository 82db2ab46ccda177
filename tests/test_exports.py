"""Guards on the public surface: the package exports and the functions the
benchmark's traced run wraps must exist, so a deletion in the library shows
up here rather than in a benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

import carleson_lab

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_pairs():
    """The TRACED tuple of perfbench/spans.py, read as data (not imported)."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {SPANS}")


def test_all_names_resolve():
    missing = [name for name in carleson_lab.__all__ if not hasattr(carleson_lab, name)]
    assert missing == []


@pytest.mark.parametrize("module, function", _traced_pairs())
def test_traced_function_exists(module, function):
    mod = importlib.import_module(f"carleson_lab.{module}")
    assert callable(getattr(mod, function, None)), f"carleson_lab.{module}.{function}"
