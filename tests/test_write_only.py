"""Every dataclass field in `src/smoothbench` is read somewhere.

A field that is set and never read is state that nothing uses. This parses
`src/smoothbench` and names each dataclass field that no code under
`src/`, `tests/` or `perfbench/` reads as `.name`. Two kinds of dataclass
are read by field list, through `dataclasses.fields`, and are exempt: the
CSV row types (`csv_table`) and `ExperimentConfig` (`with_defaults`).
"""

import ast
from pathlib import Path

from smoothbench.harness import EXPERIMENTS, ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "smoothbench").rglob("*.py"))
READERS = SOURCES + sorted([*ROOT.glob("tests/**/*.py"), *ROOT.glob("perfbench/**/*.py")])
EXEMPT = {spec.row.__name__ for spec in EXPERIMENTS.values()} | {ExperimentConfig.__name__}


def _is_dataclass(decorator) -> bool:
    """`@dataclass`, `@dataclass(...)` or `@dataclasses.dataclass(...)`."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def dataclass_fields(source: str) -> list:
    """(class, field) of each field of each dataclass in the source."""
    return [
        (node.name, stmt.target.id)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and not ast.unparse(stmt.annotation).startswith("ClassVar")
    ]


def attribute_reads(source: str) -> set:
    """The names the source reads as `.name`."""
    return {
        node.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read():
    reads = set().union(*(attribute_reads(p.read_text(encoding="utf-8")) for p in READERS))
    unread = [
        f"{cls}.{name}"
        for path in SOURCES
        for cls, name in dataclass_fields(path.read_text(encoding="utf-8"))
        if cls not in EXEMPT and name not in reads
    ]
    assert unread == []


def test_fields_and_reads_are_found():
    source = '''
import dataclasses
from dataclasses import dataclass

@dataclass(frozen=True)
class A:
    read: int
    written: float = 0.0
    limits: ClassVar[tuple] = (0, 1)

@dataclasses.dataclass
class B:
    x: int

class Plain:
    y: int

a.written = a.read + B(1).x
'''
    assert dataclass_fields(source) == [("A", "read"), ("A", "written"), ("B", "x")]
    assert {"read", "x"} <= attribute_reads(source) and "written" not in attribute_reads(source)
