"""Module boundaries of the package, read from its source.

Two rules keep the modules separable: a module uses only the public names of
another (no ``from .x import _y``, no ``x._y`` on an imported module), and
every import sits at module level, so the import graph is the one the module
headers show and has no cycle hidden inside a function.  A third keeps the
records lean: every annotated field of a package class is read as an
attribute somewhere in the library, its tests or its benchmark.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "artifact"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_package(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "artifact"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_names_across_modules(path):
    tree = _tree(path)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                elif node.module is None or node.module == "artifact":
                    modules.add(alias.asname or alias.name)  # from . import x
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    assert not found, found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_imports_inside_functions(path):
    found = [
        f"line {inner.lineno}: {node.name} imports"
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not found, found


ROOT = PACKAGE.parents[1]
READERS = sorted(
    path
    for folder in ("src", "tests", "bench")
    for path in (ROOT / folder).rglob("*.py")
)


def test_every_field_is_read():
    # a stored value that no code reads as x.name is dead weight: every
    # annotated field of a package class must be read somewhere in the
    # library, its tests or its benchmark
    read = {
        node.attr
        for path in READERS
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.stem}.{cls.name}.{item.target.id}"
        for path in MODULES
        for cls in ast.walk(_tree(path))
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and item.target.id not in read
    ]
    assert not unread, unread
