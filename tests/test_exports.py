"""Guards on the public surface: the package exports, the functions the
benchmark's traced run wraps and the module-level names its workloads call
must exist, so a deletion in the library shows up here rather than in a
benchmark run."""

import argparse
import ast
import importlib
import io
import math
import re
import tokenize
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


# ---------------------------------------------------------------------------
# no library surface that only tests reach

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "carleson_lab"
USERS = ("src", "scripts", "perfbench")

# public names that only tests call, each kept for what it backs
TEST_ONLY = {
    "kernel_lowerbound_check": "Berezin => geometric: K(z,z) and |k_z|^2 bounded below",
    "atoms_to_csv": "writes the atom table that --measure reads",
}


def _public_definitions():
    """(module path, name, first line, last line) of every public top-level
    function, class and assignment in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    yield path, name, node.lineno, node.end_lineno


def _code_lines(text):
    """The lines of a source file with its docstrings and comments blanked,
    so a name mentioned only in prose does not count as used."""
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                for k in range(first.lineno - 1, first.end_lineno):
                    lines[k] = ""
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    return lines


def _unused_names():
    """Public names that no .py file under src/, scripts/ or perfbench/
    uses outside the name's own definition (word match on the code).  The
    package's __init__.py is not read: a re-export is not a use."""
    paths = [path for d in USERS for path in sorted((ROOT / d).rglob("*.py"))]
    paths = [path for path in paths if path != PACKAGE / "__init__.py"]
    code = {path: _code_lines(path.read_text()) for path in paths}
    texts = {path: "\n".join(lines) for path, lines in code.items()}
    unused = set()
    for path, name, start, end in _public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = "\n".join(code[path][: start - 1] + code[path][end:])  # without the definition
        if not any(word.search(own if p == path else text) for p, text in texts.items()):
            unused.add(name)
    return unused


def test_every_public_name_has_a_user():
    # a name only tests reach is deleted, or listed in TEST_ONLY with what it
    # backs; a listed name that gains a user leaves the list
    assert sorted(_unused_names() ^ set(TEST_ONLY)) == []


# ---------------------------------------------------------------------------
# no defaulted parameter that only tests set

# (function, parameter) pairs that no call outside the tests passes, each
# kept for what it backs
TEST_KNOBS = {
    ("berezin", "base"): "the one-point Berezin transform: a density's nu-uniform base",
    ("boundary_cluster", "levels"): "acceptance criterion 9: a cluster that diverges on the grid",
}


def _defaulted_parameters():
    """(function, parameter, position) of every defaulted parameter of a
    public top-level function in the package; position is None for a
    keyword-only parameter."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for k in range(first, len(positional)):
                yield node.name, positional[k].arg, k
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def _passed_parameters():
    """Per called name, the keywords and the largest number of positional
    arguments any call under src/, scripts/ or perfbench/ passes it."""
    keywords, positions = {}, {}
    paths = [path for d in USERS for path in sorted((ROOT / d).rglob("*.py"))]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = math.inf if starred else len(node.args)
            positions[name] = max(positions.get(name, 0), count)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    return keywords, positions


def _unpassed_parameters():
    keywords, positions = _passed_parameters()
    unpassed = set()
    for name, param, k in _defaulted_parameters():
        if name in TEST_ONLY:
            continue
        named = param in keywords.get(name, ()) or None in keywords.get(name, ())
        placed = k is not None and positions.get(name, 0) > k
        if not (named or placed):
            unpassed.add((name, param))
    return unpassed


def test_every_defaulted_parameter_has_a_caller():
    # a default that no caller outside the tests overrides is a constant:
    # the parameter is deleted, or listed in TEST_KNOBS with what it backs;
    # a listed one that gains a caller leaves the list
    assert sorted(_unpassed_parameters() ^ set(TEST_KNOBS)) == []


# ---------------------------------------------------------------------------
# no defaulted dataclass field that only tests set

# (class, field) pairs that no code outside the tests passes, each kept for
# what it backs
TEST_FIELDS = {
    ("CarlesonConfig", "levels"): "the tests' reduced grid",
    ("CarlesonConfig", "extra_rays"): "the tests' reduced grid",
    ("CarlesonConfig", "interior_points"): "the tests' reduced grid",
}


def _dataclass_fields():
    """(class, field, position, defaulted) for every field of a public
    dataclass in the package; position is the field's place in __init__."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            if not any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                continue
            fields = [
                stmt for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
            for k, stmt in enumerate(fields):
                yield node.name, stmt.target.id, k, stmt.value is not None


def _unpassed_fields():
    # a field is passed by a keyword or a position in a call of its class, or
    # by a keyword of dataclasses.replace (whatever the instance's class)
    keywords, positions = _passed_parameters()
    replaced = keywords.get("replace", set())
    unpassed = set()
    for cls, name, k, defaulted in _dataclass_fields():
        named = {name, None} & (keywords.get(cls, set()) | replaced)
        if defaulted and not (named or positions.get(cls, 0) > k):
            unpassed.add((cls, name))
    return unpassed


def test_every_defaulted_field_has_a_caller():
    # a field default that no code outside the tests overrides is a constant:
    # the field is deleted, or listed in TEST_FIELDS with what it backs; a
    # listed one that gains a caller leaves the list
    assert sorted(_unpassed_fields() ^ set(TEST_FIELDS)) == []


# ---------------------------------------------------------------------------
# no parameter that the body never reads


def _unread_parameters():
    """(function, parameter) for every parameter of a public top-level
    function in the package that its body never reads."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for arg in params:
                if arg.arg not in read:
                    yield node.name, arg.arg


def test_every_parameter_is_read():
    # a parameter the body ignores is a chore for every caller and a promise
    # the function does not keep: it is deleted
    assert sorted(_unread_parameters()) == []


def _unread_flags():
    """(command, option) for every option of a CLI subcommand, other than
    --domain and --out (main reads them), that the command's function in
    cli._COMMANDS never reads as args.<option>; _echo and _validate do not
    count."""
    from carleson_lab import cli

    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    functions = {
        node.name: node
        for node in ast.parse(Path(cli.__file__).read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    for command, sub in commands.choices.items():
        body = functions[cli._COMMANDS[command].__name__]
        read = {
            node.attr
            for node in ast.walk(body)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "args"
        }
        for action in sub._actions:
            if action.option_strings and action.dest not in ("help", "domain", "out"):
                if action.dest not in read:
                    yield command, action.dest


def test_every_cli_flag_is_read():
    # a flag its command never reads changes no result: it is deleted
    assert sorted(_unread_flags()) == []


# ---------------------------------------------------------------------------
# no dataclass field that nothing reads

# fields of public dataclasses that no code reads by name, each kept for
# what it backs
UNREAD_FIELDS = {
    ("Thm42Report", "gamma"): "the benchmark digests every field of the thm42 report",
}


def _read_attributes():
    """Every attribute name that some .py file under src/, scripts/,
    perfbench/ or tests/ reads as `obj.name`."""
    paths = [path for d in (*USERS, "tests") for path in sorted((ROOT / d).rglob("*.py"))]
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read():
    # a field that nothing reads is work every constructor does for no one:
    # it is deleted, or listed in UNREAD_FIELDS with what it backs; a listed
    # field that gains a reader leaves the list
    read = _read_attributes()
    unread = {(cls, name) for cls, name, *_ in _dataclass_fields() if name not in read}
    assert sorted(unread ^ set(UNREAD_FIELDS)) == []


# ---------------------------------------------------------------------------
# the README's table of spec keys is the one spec_from_json reads


def _readme_spec_keys():
    """{kind: keys} from the README table headed `| kind | keys |`: the
    backquoted name of each row's first cell and those of its second."""
    lines = (ROOT / "README.md").read_text().splitlines()
    header = re.compile(r"\|\s*kind\s*\|\s*keys\s*\|")
    (start,) = [k for k, line in enumerate(lines) if header.fullmatch(line.strip())]
    table = {}
    for line in lines[start + 2 :]:  # past the header and its rule
        if not line.startswith("|"):
            break
        kind, keys = line.strip().strip("|").split("|")
        table[kind.strip().strip("`")] = tuple(re.findall(r"`(\w+)`", keys))
    return table


def test_readme_lists_the_spec_keys():
    from carleson_lab import domains

    assert _readme_spec_keys() == domains._JSON_KEYS
