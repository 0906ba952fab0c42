"""Every test function sits where pytest collects it.

pytest collects a `def test_*` at module level or directly in a `Test*`
class. One nested anywhere else (inside a helper, another function, or a
class whose name does not start with `Test`) is silently never run. This
parses the test files and names any such test.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TEST_FILES = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/tests/*.py")])


def misplaced_tests(source: str) -> list:
    """(line, name) of each `def test_*` that pytest would not collect."""
    tree = ast.parse(source)
    collected = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            collected.update(map(id, node.body))
        else:
            collected.add(id(node))
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("test_")
        and id(node) not in collected
    )


def test_the_files_are_found():
    names = {path.name for path in TEST_FILES}
    assert {"test_collection.py", "test_online.py", "test_perfbench_self.py"} <= names


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_test_is_collected(path):
    assert misplaced_tests(path.read_text(encoding="utf-8")) == []


def test_nested_tests_are_named():
    source = '''
def test_top(): pass

class TestA:
    def test_method(self): pass

    def helper(self):
        def test_in_method(): pass

class Helpers:
    def test_in_plain_class(self): pass

def _helper(monkeypatch):
    def test_in_helper(): pass
'''
    assert misplaced_tests(source) == [
        (8, "test_in_method"), (11, "test_in_plain_class"), (14, "test_in_helper"),
    ]
