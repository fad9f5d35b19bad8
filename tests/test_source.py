"""Static checks over the package and test source."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "graphgcd"
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names a module's import statements bind that no expression in it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_finds_a_stray_name():
    source = ("from dataclasses import dataclass, field\nimport numpy as np\nimport os.path\n"
              "x = field(default=np.zeros(1))\n")
    assert unused_imports(source) == ["dataclass", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def raised_or_caught(source: str) -> set[str]:
    """Names a module's raise statements raise and its except clauses catch."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            found = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            found = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        else:
            continue
        # `errors.FormatError` names FormatError
        names.update(getattr(n, "id", None) or getattr(n, "attr", None) for n in found)
    return names - {None}


def test_raised_or_caught_reads_raise_and_except_clauses():
    source = ("try:\n    raise A('x')\nexcept (B, errors.C):\n    raise D from None\n"
              "except E:\n    raise\nF('built, never raised')\n")
    assert raised_or_caught(source) == {"A", "B", "C", "D", "E"}


def test_every_error_class_is_raised_or_caught_by_name():
    # an error type nothing raises or catches by name is only a message format
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    used = set().union(*(raised_or_caught(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")))
    assert sorted(classes - used - {"GraphGcdError"}) == []  # the base only gathers the rest


def unread_definitions(sources: list[str]) -> list[str]:
    """Top-level functions and classes that no module reads by name or attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    read = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)  # `embed_io.parse_config` reads parse_config
    return sorted(defined - read)


def test_unread_definitions_finds_a_test_only_helper():
    sources = ["def used():\n    pass\n\ndef helper():\n    return used()\n\nclass Box:\n    pass\n",
               "import m\nm.helper()\n"]
    assert unread_definitions(sources) == ["Box"]


def test_every_definition_is_read_in_the_package():
    # a function or class that only tests call is code the program does not run
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert unread_definitions(sources) == []


def matches_on_tmp_path(source: str) -> list[tuple[int, str]]:
    """(line, pattern) of each string-literal match= in a test taking tmp_path that
    also matches the test's tmp_path directory name.

    pytest names that directory after the test name's first 30 characters, each
    non-word one replaced by '_', plus a number. An error message that starts with
    a path under it satisfies such a pattern whatever the rest of it says.
    """
    sites = []
    for test in ast.walk(ast.parse(source)):
        if not (isinstance(test, ast.FunctionDef) and test.name.startswith("test")
                and "tmp_path" in [arg.arg for arg in test.args.args]):
            continue
        directory = re.sub(r"\W", "_", test.name)[:30] + "0"
        for node in ast.walk(test):
            if (isinstance(node, ast.keyword) and node.arg == "match"
                    and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
                    and re.search(node.value.value, directory)):
                sites.append((node.value.lineno, node.value.value))
    return sites


def test_matches_on_tmp_path_finds_a_pattern_its_directory_satisfies():
    source = ("def test_load_rejects_duplicate_tensor(tmp_path):\n"
              "    with raises(E, match='duplicate'):\n        pass\n"
              "    with raises(E, match=r'dup\\.gvlp: record 3$'):\n        pass\n"
              "def test_no_tmp_path_duplicate():\n    raises(E, match='duplicate')\n")
    assert matches_on_tmp_path(source) == [(2, "duplicate")]


@pytest.mark.parametrize("path", sorted(TESTS.glob("test_*.py")), ids=lambda p: p.name)
def test_no_message_check_passes_on_its_tmp_path(path):
    assert matches_on_tmp_path(path.read_text(encoding="utf-8")) == []
