"""Rules the library's source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "multidom"


def test_no_assert_serves_as_a_runtime_contract():
    # python -O strips assert statements, so a check that must hold raises
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")) and found == []


def test_only_graph_reads_the_csr_arrays():
    # every other module takes them from Graph.csr(), the one traced accessor
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "graph.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in ("indptr", "indices")]
    assert list(SRC.glob("*.py")) and found == []
