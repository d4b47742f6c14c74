"""Rules over the package source, checked on its syntax trees.

Only geometry decides how many rows a block holds and which points skip the
kernel: no other module names CHUNK_CELLS or calls center_index.  No module
multiplies arrays through BLAS (`@`, np.dot and its kin, an array's .dot),
so no result depends on the BLAS build or its thread count.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "coreclust").glob("*.py"))
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot"}


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
    assert sorted(used & {"CHUNK_CELLS", "center_index"}) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_calls_blas(path):
    assert list(blas_uses(ast.parse(path.read_text(), str(path)))) == []
