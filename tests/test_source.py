"""Rules over the package source, checked on its syntax trees.

Only geometry decides how many rows a block holds and which points skip the
kernel: no other module names CHUNK_CELLS, SKIP_CENTERS or center_index, so
every caller of nearest_center gets the skip where geometry finds it pays.
Each static coreset is finished in solvers (finish_coreset), so only
construction and solvers name k_median_coreset; only geometry and solvers
name distance_table, and every other module takes table rows a block at a
time (geometry.table_rows).  No module multiplies arrays through BLAS (`@`,
np.dot and its kin, an array's .dot), so no result depends on the BLAS build
or its thread count.

Every public name has a reader: each name coreclust exports, and each public
method or property of an exported class, is read by the package's own
modules, a demo, the acceptance suite or the benchmark harness.
"""

import ast
from pathlib import Path

import pytest

import coreclust

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "coreclust").glob("*.py"))
READERS = ([p for p in SOURCES if p.name != "__init__.py"]
           + sorted((ROOT / "demos").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"]
           + sorted((ROOT / "perfbench").glob("*.py")))
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot"}
# names that only the modules listed may use
OWNED = {"k_median_coreset": {"construction.py", "solvers.py"},
         "distance_table": {"geometry.py", "solvers.py"}}


def names(tree):
    """Every name a tree reads, binds or imports, attributes included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def blas_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.MatMult):
            yield f"line {node.lineno}: @"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS:
            # np.dot, numpy.matmul, and an array's own .dot
            yield f"line {node.lineno}: .{node.attr}"


def test_the_sources_are_found():
    assert "geometry.py" in [p.name for p in SOURCES] and len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_geometry_sizes_blocks_and_skips_centers(path):
    if path.name == "geometry.py":
        return
    used = set(names(ast.parse(path.read_text(), str(path))))
    assert sorted(used & {"CHUNK_CELLS", "SKIP_CENTERS", "center_index"}) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_owners_name_the_builder_and_the_table(path):
    used = set(names(ast.parse(path.read_text(), str(path))))
    assert sorted(name for name, owners in OWNED.items()
                  if name in used and path.name not in owners) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_calls_blas(path):
    assert list(blas_uses(ast.parse(path.read_text(), str(path)))) == []


def public_names():
    """Each exported name as (label, name), and each public method or
    property of an exported class as (label, method name)."""
    for module, exported in coreclust._EXPORTS.items():
        path = ROOT / "src" / "coreclust" / f"{module}.py"
        classes = {node.name: node
                   for node in ast.parse(path.read_text(), str(path)).body
                   if isinstance(node, ast.ClassDef)}
        for name in exported:
            yield f"{module}.{name}", name
            for node in getattr(classes.get(name), "body", ()):
                if isinstance(node, ast.FunctionDef) and \
                        not node.name.startswith("_"):
                    yield f"{module}.{name}.{node.name}", node.name


def test_every_public_name_has_a_reader():
    assert len(READERS) > 15
    read = set()
    for path in READERS:
        read.update(names(ast.parse(path.read_text(), str(path))))
    unread = [label for label, name in public_names() if name not in read]
    assert not unread, f"public names that nothing reads: {unread}"
