"""Every function, class, method, annotated class field and module-level
constant in ``src/blocksca`` is reached by the package itself or by the
benchmark, not only by its own tests.

A definition counts as reached when its name appears as a ``Name``, an
``Attribute`` or an import alias somewhere in the package or in perfbench,
outside the definition itself and outside ``__init__.py`` (re-exporting a
name does not use it). So a field that only the constructor sets, or a
constant that nothing names, is unreached. Dunder names are used by the
interpreter, so they are not checked.

Every parameter with a default is also passed, by keyword or by position,
by some call in the package or in perfbench. A call is matched to a
definition by name, and a ``*args`` or ``**kwargs`` at a call counts as
passing every parameter it could fill, so the check errs toward passing.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blocksca"
BENCH = [ROOT / "perfbench" / f"{name}.py" for name in ("run", "spans", "workloads")]

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Test seams: defaults only the tests override. The tests drive the CLI
# in-process through main(argv), and the NonFiniteIterate tests start both
# run loops from NaN or inf iterates through x0.
SEAMS = {("cli.py", "main", "argv"), ("solver.py", "run_block_sca", "x0"),
         ("solver.py", "run_gradient_push", "x0")}


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


def parsed_sources() -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in
            [*sorted(PACKAGE.glob("*.py")), *BENCH]}


def unreached_definitions() -> list:
    trees = parsed_sources()
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


def defaulted_parameters(tree):
    """(function, parameter, position, line) of every parameter with a
    default; position is None for a keyword-only parameter and counts from
    the first argument a call passes, so a method's self or cls is skipped."""
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, FUNCTIONS)
               and not any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)}
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS):
            continue
        positional = [*node.args.posonlyargs, *node.args.args][int(id(node) in methods):]
        for pos in range(len(positional) - len(node.args.defaults), len(positional)):
            yield node.name, positional[pos].arg, pos, node.lineno
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None, node.lineno


def passes(call: ast.Call, parameter: str, position) -> bool:
    """Whether ``call`` may fill ``parameter`` at ``position``."""
    keywords = {k.arg for k in call.keywords}
    if parameter in keywords or None in keywords:  # None is a **kwargs
        return True
    if position is None:
        return False
    starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
    return len(call.args) > position or any(i <= position for i in starred)


def unpassed_parameters() -> list:
    trees = parsed_sources()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for function, parameter, position, lineno in defaulted_parameters(tree):
            if (path.name, function, parameter) in SEAMS or function.startswith("__"):
                continue
            if not any(passes(call, parameter, position) for call in calls.get(function, ())):
                unpassed.append(f"{path.name}:{lineno} {function}({parameter})")
    return unpassed


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    unpassed = unpassed_parameters()
    assert not unpassed, "defaults only tests override: " + ", ".join(unpassed)


def test_every_definition_is_reached_outside_the_tests():
    unreached = unreached_definitions()
    assert not unreached, "reached only by tests: " + ", ".join(unreached)
