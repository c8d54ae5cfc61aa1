"""Every function, class and method of the package is reached from the package.

A definition counts as reached when its name is used outside its own body
in `src/sl2frob`: a function or class as a name or an attribute, a method
only as an attribute.  So neither a recursive call nor a builtin or local
variable of the same name keeps a method alive.  Code that only tests reach
is either a command's business or dead weight, so it fails here.  Likewise every
parameter of a `def` is read in its body: a parameter that every caller
passes and nothing reads only misleads.  Lambdas are exempt, since a
callback takes every argument its caller passes.  Every field of a
`@dataclass` is read as an attribute somewhere in the package.  Every name the
benchmark's tracer patches (`perfbench/spans.py`, `TARGETS`) still exists.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sl2frob"

# kept only as the independent oracle the Hom solver's tests compare against
ALLOWED = {"hom_space_unblocked"}


def _definitions(tree: ast.Module):
    """(qualified name, name, node, is method) of each top-level function and
    class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item, True


def _uses(node: ast.AST, enclosing: tuple = ()):
    """(name, is attribute, enclosing definitions) for each name and attribute used."""
    if isinstance(node, ast.Name):
        yield node.id, False, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, True, enclosing
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing + (node,)
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, enclosing)


def unreached() -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses: dict[str, list] = {}
    for tree in trees.values():
        for name, is_attr, enclosing in _uses(tree):
            uses.setdefault(name, []).append((is_attr, enclosing))

    def reached(name, node, is_method):
        return any((is_attr or not is_method) and node not in enclosing
                   for is_attr, enclosing in uses.get(name, ()))

    return sorted(f"{module[:-3]}.{qualified}"
                  for module, tree in trees.items()
                  for qualified, name, node, is_method in _definitions(tree)
                  if name not in ALLOWED and not reached(name, node, is_method))


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


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute) and target.attr == "dataclass")


def unread_dataclass_fields() -> list[str]:
    """module.class.field for each `@dataclass` field no attribute access in the package reads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}.{node.name}.{item.target.id}"
                  for module, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
                  for item in node.body
                  if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                  and item.target.id not in read)


def test_every_definition_is_reached_from_the_package():
    assert unreached() == []


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_every_dataclass_field_is_read():
    assert unread_dataclass_fields() == []


def test_every_traced_benchmark_name_resolves():
    # `perfbench/run.py --trace 1` patches these by name; a missing one
    # would stop the traced run
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, path, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"sl2frob.{module}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert missing == []
