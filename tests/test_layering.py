"""``objective`` is the data layer: the problem data, the regularizer and the
gradients. It must not import the layers built on it (block schedules and
weights, the solver, the tracking kernel, the harness), so that how x is
cut into blocks stays with the run and never becomes part of an instance.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blocksca"
ABOVE_OBJECTIVE = {"blockcomm", "solver", "tracking", "harness"}


def imported_modules(tree) -> set:
    """Package modules a module imports, by their last dotted part, from
    both ``import blocksca.x`` and ``from .x import y`` forms; names imported
    from the package itself (``from . import x``) count as modules too."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.rsplit(".", 1)[-1])
            if node.module in (None, "blocksca"):
                found.update(alias.name for alias in node.names)
    return found


def test_objective_imports_no_layer_built_on_it():
    # the check sees each import form, so an empty result below means something
    forms = ast.parse("import blocksca.solver\nfrom .tracking import push_sum_mix\n"
                      "from . import harness\nfrom blocksca import blockcomm\n")
    assert imported_modules(forms) == ABOVE_OBJECTIVE | {"blocksca"}
    tree = ast.parse((PACKAGE / "objective.py").read_text(encoding="utf-8"))
    assert imported_modules(tree) & ABOVE_OBJECTIVE == set()
