"""Every function, class, method, annotated class field and module-level
constant in ``src/blocksca`` is reached by the package itself or by the
benchmark, not only by its own tests.

A definition counts as reached when its name appears as a ``Name``, an
``Attribute`` or an import alias somewhere in the package or in perfbench,
outside the definition itself and outside ``__init__.py`` (re-exporting a
name does not use it). So a field that only the constructor sets, or a
constant that nothing names, is unreached. Dunder names are used by the
interpreter, so they are not checked.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blocksca"
BENCH = [ROOT / "perfbench" / f"{name}.py" for name in ("run", "spans", "workloads")]

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(tree, skip=None) -> set:
    """Names used in ``tree``, not counting anything inside ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names


def definitions(tree):
    """(name, node) of every function, class and method of a module, every
    annotated field of its classes, and every name its top level assigns."""
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield item.target.id, item
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def unreached_definitions() -> list:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in
             [*sorted(PACKAGE.glob("*.py")), *BENCH]}
    users = {path: referenced_names(tree) for path, tree in trees.items()
             if path.name != "__init__.py"}
    unreached = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue
        for name, node in definitions(tree):
            if name.startswith("__"):
                continue
            own = referenced_names(tree, skip=node)
            if name not in own and not any(
                name in names for other, names in users.items() if other != path
            ):
                unreached.append(f"{path.name}:{node.lineno} {name}")
    return unreached


def test_every_definition_is_reached_outside_the_tests():
    unreached = unreached_definitions()
    assert not unreached, "reached only by tests: " + ", ".join(unreached)
