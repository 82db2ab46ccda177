"""Guards on the public surface: the package exports, the functions the
benchmark's traced run wraps and the module-level names its workloads call
must exist, so a deletion in the library shows up here rather than in a
benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

import carleson_lab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _traced_pairs():
    """The TRACED tuple of perfbench/spans.py, read as data (not imported)."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {SPANS}")


def _workload_names():
    """(module, name) for every carleson_lab module attribute that
    perfbench/workloads.py reads, from its AST (the file is not imported)."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {
        alias.asname or alias.name: alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "carleson_lab"
        for alias in node.names
    }
    names = {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert names, f"no carleson_lab calls found in {WORKLOADS}"
    return sorted(names)


def test_all_names_resolve():
    missing = [name for name in carleson_lab.__all__ if not hasattr(carleson_lab, name)]
    assert missing == []


@pytest.mark.parametrize("module, function", _traced_pairs())
def test_traced_function_exists(module, function):
    mod = importlib.import_module(f"carleson_lab.{module}")
    assert callable(getattr(mod, function, None)), f"carleson_lab.{module}.{function}"


@pytest.mark.parametrize("module, name", _workload_names())
def test_workload_name_exists(module, name):
    mod = importlib.import_module(f"carleson_lab.{module}")
    assert callable(getattr(mod, name, None)), f"carleson_lab.{module}.{name}"
