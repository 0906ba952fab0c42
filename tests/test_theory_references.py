"""Every stated theory formula has a written-out reference in criterion 8.

A function under `src/smoothbench` whose docstring has a `Statement (` line
implements a statement of the paper, or of a paper it cites. Acceptance
criterion 8 holds such formulas to written-out references at random points.
This parses both and fails on a stated function that criterion 8's source
never calls, so a theory column cannot land without a reference.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CRITERION = "test_criterion_08_formula_exactness"


def stated_functions(sources) -> set:
    """Names of the functions in `sources` whose docstring has a `Statement (` line."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                doc = ast.get_docstring(node) or ""
                if any(line.strip().startswith("Statement (") for line in doc.splitlines()):
                    names.add(node.name)
    return names


def called_names(source: str, function: str) -> set:
    """Names that `function` in `source` calls, as `name(...)` or `module.name(...)`,
    and those its module-level helpers call, which it reaches by name."""
    tree = ast.parse(source)
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    called, todo = set(), [function]
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in defs and name not in called:
                    todo.append(name)
                called.add(name)
    return called


def test_every_stated_formula_has_a_reference_in_criterion_8():
    stated = stated_functions(
        path.read_text(encoding="utf-8") for path in (ROOT / "src" / "smoothbench").rglob("*.py")
    )
    assert {"stepsize_for", "regularized_erm_bound", "lower_bound_value"} <= stated
    called = called_names((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"),
                          CRITERION)
    assert sorted(stated - called) == []


def test_an_unreferenced_statement_is_named():
    src = '''
def cited(n):
    """n / 2.
    Statement (arXiv 1009.3896): something."""
    return n / 2

def plain(n):
    """Statement without the parenthesis is no statement."""
    return n
'''
    criterion = '''
def helper():
    return sb.cited(3)

def test_criterion_08_formula_exactness():
    helper()
'''
    assert stated_functions([src]) == {"cited"}
    assert "cited" in called_names(criterion, CRITERION)
    assert "cited" not in called_names(criterion.replace("sb.cited(3)", "3"), CRITERION)
