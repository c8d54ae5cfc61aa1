"""The package's import graph: every package import at a module's top level, and no cycle.

An import inside a function runs at call time and binds whichever copy of
the package `sys.modules` holds then, so two copies in one process can mix.
A cycle among the modules is what such an import works around.  Both are
read from the source: each `src/sl2frob/*.py` file is parsed, and an edge
a -> b is an import of package module b in module a (`from . import b`,
`from .b import x`, or the absolute spellings; a name that is no module
file is read from `__init__`).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sl2frob"
PACKAGE = SRC.name
MODULES = {path.stem for path in SRC.glob("*.py")}


def _imported(node: ast.AST) -> set[str]:
    """The package modules an import statement loads; empty for any other node."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        if base in (".", PACKAGE):
            dotted = [f".{alias.name}" for alias in node.names]
        else:
            dotted = [base]
    else:
        return set()
    out = set()
    for name in dotted:
        for prefix in (".", f"{PACKAGE}."):
            if name.startswith(prefix):
                head = name[len(prefix):].split(".")[0]
                out.add(head if head in MODULES else "__init__")
        if name == PACKAGE:
            out.add("__init__")
    return out


def import_graph() -> tuple[dict[str, set[str]], list[str]]:
    """(module -> the package modules it imports, the imports below a module's top level)."""
    graph, nested = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set(map(id, tree.body))
        graph[path.stem] = set()
        for node in ast.walk(tree):
            targets = _imported(node)
            graph[path.stem] |= targets
            if targets and id(node) not in top:
                nested.append(f"{path.stem}:{node.lineno}")
    return graph, nested


def cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """One closed path a -> ... -> a for each back edge a depth-first walk meets."""
    out, state = [], {}

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                out.append(path[path.index(nxt):] + [nxt])
            elif nxt not in state:
                visit(nxt, path + [nxt])
        state[node] = "done"

    for node in sorted(graph):
        if node not in state:
            visit(node, [node])
    return out


def test_every_package_import_is_at_top_level():
    assert import_graph()[1] == []


def test_package_imports_are_acyclic():
    assert cycles(import_graph()[0]) == []


def test_repcore_imports_only_exactfield():
    # repcore owns the divided powers; the modules above it read them
    assert import_graph()[0]["repcore"] == {"exactfield"}
