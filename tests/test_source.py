"""Static checks of the library source, on the standard library's ast.

Every name a module of src/majlat imports is used in that module. The
package's __init__.py is left out: its imports are the public re-exports.
Every private name a module defines at its top level is read somewhere in
src/majlat, so no helper is left behind that only tests call.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "majlat"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SRC.glob("*.py")}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import; __future__ features are not names."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, at any depth."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_is_checked():
    assert {path.name for path in MODULES} >= {"core.py", "lattice.py", "numeric.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = TREES[path.name]
    unused = {name: line for name, line in _imported(tree).items() if name not in _used(tree)}
    assert not unused, f"{path.name} imports names it never uses (name: line): {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name (one leading underscore, not a dunder) that the module's top level
    binds by def, class or assignment, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {name: line for name, line in names.items() if name.startswith("_") and not name.startswith("__")}


def _reads(tree: ast.Module) -> set[str]:
    """Every name the module reads: as a name, as an attribute, or imported from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_name_is_read():
    read = set().union(*map(_reads, TREES.values()))
    unread = {f"{module}:{line} {name}" for module, tree in TREES.items()
              for name, line in _private_definitions(tree).items() if name not in read}
    assert not unread, f"private names src/majlat defines and never reads: {sorted(unread)}"
