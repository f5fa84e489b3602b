"""Every public name of the package is reached by the package or the benchmark.

Every module but the entry points (``__init__``, ``__main__``, ``cli``)
declares its public names in ``__all__``, so none escapes the check below.
A name listed in a module's ``__all__`` must be referenced by code in
``src/symprop`` (a load of the name or of an attribute of that name, in any
module but ``__init__.py``, whose imports only re-export) or be called by a
library op of ``perfbench/workloads.py``.  A name that only tests reach is a
test oracle and belongs in ``tests/``.  Every private module-level name (a
function, class or constant whose name starts with one underscore), and
every field of a private class, must be loaded by code in ``src/symprop``:
a setting or helper nothing reads is dead.  Everything is read from the
source by ``ast``, so nothing is imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symprop"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

# Public names allowed to go unreached.  This list may only shrink.
# prob_B_upper_bound and admissible_divisor_check are the closed P(B) bound
# and the divisor classes that theorem 2's all-n tail and the claims ledger
# are to call (ROADMAP items 1 and 3).
UNREACHED_ALLOWED = frozenset({"__version__", "prob_B_upper_bound", "admissible_divisor_check"})


def _exported(tree: ast.Module) -> list[str] | None:
    """The names in the module's ``__all__``, or None when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return None


def _referenced(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _library_ops() -> set[str]:
    """The function names of every ``_lib("module.function", ...)`` op."""
    names = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_lib" and node.args
                and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value.rsplit(".", 1)[-1])
    return names


def test_every_module_declares_its_public_names():
    # the entry points are not libraries, and __init__ re-exports the rest
    entry = {"__init__.py", "__main__.py", "cli.py"}
    missing = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if path.name not in entry and _exported(ast.parse(path.read_text())) is None]
    assert missing == []


def test_every_public_name_is_reached_outside_the_tests():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    public = {name for tree in trees.values() for name in _exported(tree) or ()}
    reached = _library_ops().union(*(_referenced(tree) for file, tree in trees.items()
                                     if file != "__init__.py"))
    assert sorted(public - reached) == sorted(UNREACHED_ALLOWED)


def _private_definitions(tree: ast.Module) -> list[str]:
    """The module's private top-level names, and ``Class.field`` for every
    annotated field of a private class."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            bound = []
        names += [name for name in bound if name.startswith("_") and not name.startswith("__")]
        if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
            names += [f"{node.name}.{field.target.id}" for field in node.body
                      if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)]
    return names


def _loaded(tree: ast.AST) -> set[str]:
    """The names and attribute names the code reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_private_name_is_loaded_in_the_package():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    loaded = set().union(*map(_loaded, trees))
    dead = [name for tree in trees for name in _private_definitions(tree)
            if name.rsplit(".", 1)[-1] not in loaded]
    assert dead == []
