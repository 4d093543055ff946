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


def _gathers_after_ellipsis(tree) -> list[int]:
    """Lines reading x[..., idx] with idx neither a slice nor a constant:
    numpy's general fancy-index path, which writes a (T, n) block out of C
    order. In an annotation, tuple[int, ...] names a type and is skipped."""
    typed = {id(sub) for node in ast.walk(tree)
             for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
             if ann is not None for sub in ast.walk(ann)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Subscript) or id(node) in typed:
            continue
        parts = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        if (isinstance(node.ctx, ast.Load)
                and any(isinstance(p, ast.Constant) and p.value is Ellipsis for p in parts)
                and any(not isinstance(p, (ast.Constant, ast.Slice)) for p in parts)):
            lines.append(node.lineno)
    return lines


def test_neighbourhood_gathers_use_take():
    # x.take(idx, axis=-1) gathers a C-contiguous block about twice as fast
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in _gathers_after_ellipsis(ast.parse(path.read_text(encoding="utf-8")))]
    assert list(SRC.glob("*.py")) and found == []
