"""Every function, class and method of the package is reached from the package.

A definition counts as reached when its name is used (as a name or an
attribute) anywhere in `src/sl2frob`.  Code that only tests reach is either
a command's business or dead weight, so it fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sl2frob"

# kept only as the independent oracle the Hom solver's tests compare against
ALLOWED = {"hom_space_unblocked"}


def _definitions(tree: ast.Module):
    """(qualified name, name) of each top-level function and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def unreached() -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{module[:-3]}.{qualified}"
                  for module, tree in trees.items()
                  for qualified, name in _definitions(tree)
                  if name not in used and name not in ALLOWED)


def test_every_definition_is_reached_from_the_package():
    assert unreached() == []
