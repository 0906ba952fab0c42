"""Every top-level definition in `src/smoothbench` is reached from the CLI.

A function or class that no CLI path reaches is code that only the tests or
the benchmark run. This parses `src/smoothbench` and walks by name from
`harness.cli.main`: into each definition it reaches (a class with all of its
methods) and each module-level assignment it reads (the `EXPERIMENTS` and
`FAMILIES` tables among them). Names resolve through each module's own
definitions and its imports from the package; annotations are not run, so a
name read only there is not reached. Each unreached definition must be on
`ALLOWED`, with the ROADMAP item that deletes it or gives it a caller, and
each entry there must still be unreached: the list only shrinks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ROOT_NAME = "smoothbench.harness.cli.main"
_PER_RUN = "ROADMAP item 4 deletes the per-run online path after benchmark v2"
ALLOWED = {
    **{f"smoothbench.online.{name}": _PER_RUN for name in (
        "run_mirror_descent", "OnlineTrace", "InstanceStream", "fixed_stream", "iid_stream",
        "adaptive_stream", "average_regret", "hindsight_average_loss", "averaged_iterate")},
    "smoothbench.geometry.regularizer_value": "ROADMAP items 4 and 16: the checked wrappers "
                                              "that only tests and the tracer call",
    "smoothbench.geometry.bregman_divergence": "ROADMAP items 4 and 16, as regularizer_value",
    "smoothbench.bounds.smooth_risk_bound": "ROADMAP item 5 gives it a column",
    "smoothbench.bounds.lipschitz_excess_bound": "ROADMAP item 10's margin column calls it",
}


def _scopes(sources: dict) -> tuple[dict, dict, set]:
    """(qualified name -> the def, class or assigned value it names; module -> {local
    name -> qualified name}; the qualified names of the top-level defs and classes) of
    `sources`, which maps each file's path under src/ to its text."""
    nodes, scopes, definitions = {}, {}, set()
    for path, source in sources.items():
        parts = path.removesuffix(".py").split("/")
        package = parts[-1] == "__init__"
        module = ".".join(parts[:-1] if package else parts)
        local = scopes[module] = {}
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                local[node.name] = f"{module}.{node.name}"
                nodes[local[node.name]] = node
                definitions.add(local[node.name])
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name):
                        local[target.id] = f"{module}.{target.id}"
                        nodes[local[target.id]] = node.value
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative: from the module's package, up level - 1
                    base = module if package else module.rpartition(".")[0]
                    for _ in range(node.level - 1):
                        base = base.rpartition(".")[0]
                    base = f"{base}.{node.module}" if node.module else base
                else:
                    base = node.module
                for alias in node.names:
                    local[alias.asname or alias.name] = f"{base}.{alias.name}"
    return nodes, scopes, definitions


def _run_names(node):
    """The Name and Attribute nodes under `node` that run; annotations do not."""
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                if isinstance(child, (ast.Name, ast.Attribute)):
                    yield child
                yield from _run_names(child)


def unreached(sources: dict, root: str) -> set:
    """The top-level defs and classes of `sources` that the walk from `root` misses."""
    nodes, scopes, definitions = _scopes(sources)

    def resolve(name):
        """`name` after its re-exports: module.x, where module imported x, is x's origin."""
        module, _, attr = name.rpartition(".")
        origin = scopes.get(module, {}).get(attr, name)
        return name if origin == name else resolve(origin)

    seen, todo = set(), [root]
    while todo:
        name = resolve(todo.pop())
        if name in seen or name not in nodes:
            continue
        seen.add(name)
        local = scopes[name.rpartition(".")[0]]
        for node in _run_names(nodes[name]):
            if isinstance(node, ast.Name) and node.id in local:
                todo.append(local[node.id])
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in local:
                todo.append(f"{local[node.value.id]}.{node.attr}")  # module.attr
    return definitions - seen


def test_every_definition_is_reached_or_allowed():
    sources = {p.relative_to(SRC).as_posix(): p.read_text(encoding="utf-8")
               for p in sorted(SRC.rglob("*.py"))}
    missed = unreached(sources, ROOT_NAME)
    assert sorted(missed - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - missed) == []  # reached or gone: drop the entry


def test_walk_follows_imports_tables_and_methods():
    sources = {
        "pkg/__init__.py": "from .lib import Runner\n",
        "pkg/cli.py": '''
from . import lib
from .lib import TABLE as T

def main() -> lib.Hint:
    return T["a"]() + lib.Runner().go()

def orphan():
    return lib.dead()
''',
        "pkg/lib.py": '''
from . import Runner as Again

class Hint:
    pass

def run_a(x: Hint = None):
    return _inner()

def _inner():
    return Again

class Runner:
    def go(self):
        return _from_method()

def _from_method():
    pass

def dead():
    pass

TABLE = {"a": run_a}
''',
    }
    assert unreached(sources, "pkg.cli.main") == {"pkg.cli.orphan", "pkg.lib.dead", "pkg.lib.Hint"}
