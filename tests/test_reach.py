"""Every function, class and method of the package is reached from the package.

A definition counts as reached when its name is used (as a name or an
attribute) anywhere in `src/sl2frob`.  Code that only tests reach is either
a command's business or dead weight, so it fails here.  Likewise every
parameter of a `def` is read in its body: a parameter that every caller
passes and nothing reads only misleads.  Lambdas are exempt, since the memo
passes every argument to its `key` and `reuse` callbacks.
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


def unread_parameters() -> list[str]:
    """module.function.parameter for each parameter a `def` never reads in its body."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                      *(x for x in (a.vararg, a.kwarg) if x is not None)]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            out += [f"{path.stem}.{node.name}.{x.arg}" for x in params if x.arg not in read]
    return sorted(out)


def test_every_definition_is_reached_from_the_package():
    assert unreached() == []


def test_every_parameter_is_read():
    assert unread_parameters() == []
