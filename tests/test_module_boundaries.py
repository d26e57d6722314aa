"""Module boundaries of the package, read from its source.

Two rules keep the modules separable: a module uses only the public names of
another (no ``from .x import _y``, no ``x._y`` on an imported module), and
every import sits at module level, so the import graph is the one the module
headers show and has no cycle hidden inside a function.  A third keeps the
records lean: every annotated field of a package class is read as an
attribute somewhere in the library, its tests or its benchmark.  A fourth
keeps the benchmark's tracer on the channel's strip only: it wraps
``ribbon.assemble_strip`` by object identity in every module, so no other
module may bind that object.  A fifth keeps the reduced wall operator in one
module: its envelope pairs, shooting and envelope solve are defined in
``wall_dirac`` only.  A sixth keeps the import graph light: importing the
package loads no ``scipy.integrate``, ``scipy.optimize`` or
``scipy.special``.  A seventh keeps the reduced wall operator's solves
banded: ``wall_dirac`` imports no ``scipy.sparse``.
"""

import ast
import importlib
import os
import subprocess
import sys
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


def test_only_ribbon_binds_the_traced_strip_builder():
    # the tracer sums op.matrix of every strip the wrapped object returns;
    # a second binding (say in strip or quasimode) would put the residual
    # study's strips, up to dim 382,585, under that observer
    traced = importlib.import_module("artifact.ribbon").assemble_strip
    names = ["artifact"] + [
        f"artifact.{path.stem}" for path in MODULES if path.stem != "__init__"
    ]
    binders = [
        f"{module}.{attr}"
        for module in names
        if module != "artifact.ribbon"
        for attr, value in vars(importlib.import_module(module)).items()
        if value is traced
    ]
    assert not binders, binders


def test_reduced_model_lives_in_wall_dirac():
    # envelope pairs, shooting and the envelope solve are defined once, in
    # wall_dirac; quasimode only re-binds the three objects the benchmark
    # calls and wraps on it, so the tracer wraps one object in every module
    quasimode = importlib.import_module("artifact.quasimode")
    wall_dirac = importlib.import_module("artifact.wall_dirac")
    for name in ("ladder_pair", "shooting_pair", "zero_mode_pair"):
        assert getattr(quasimode, name) is getattr(wall_dirac, name), name
    defined = {
        node.name
        for node in _tree(PACKAGE / "quasimode.py").body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not defined & {"EnvelopePair", "_halves", "_bordered_solve"}


def test_no_integrate_optimize_or_special_in_the_import_graph():
    # the package integrates, searches and normalizes with its own routines,
    # so importing all of it loads none of these scipy subpackages (and the
    # HiGHS, spatial and fft modules they pull in)
    names = ", ".join(
        f"artifact.{path.stem}" for path in MODULES if path.stem != "__init__"
    )
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.special")
    code = (
        f"import sys, {names}\n"
        f"print('\\n'.join(m for m in sys.modules if m.startswith({heavy!r})))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.split()
    assert out == [], out


def test_wall_dirac_imports_no_sparse_matrices():
    # the envelope correction writes its squared operator straight into
    # LAPACK band storage, so the reduced model needs no sparse matrix
    imported = []
    for node in ast.walk(_tree(PACKAGE / "wall_dirac.py")):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    sparse = [name for name in imported if name.startswith("scipy.sparse")]
    assert not sparse, sparse
