"""Exact domination numbers on small graphs by exhaustive search.

Ground truth for the bounds and the randomized constructions. Set variants
run an increasing-cardinality subset search (the first feasible size is the
domination number by definition); function variants run a depth-first
assignment over vertices ordered by ascending degree, so small closed
neighborhoods complete early and prune hard. Resource limits are explicit
inputs and exceeding them refuses loudly rather than truncating silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import MultidomError, ResourceLimitError
from .graph import Graph
from .verify import DominationSpec, VertexFunction, _witness_dict, verify_function, verify_set


@dataclass(frozen=True)
class ExactResult:
    value: int
    witness: tuple[int, ...] | VertexFunction
    nodes_explored: int
    spec: DominationSpec

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": _witness_dict(self.witness),
            "nodes_explored": self.nodes_explored,
            "spec": self.spec.to_dict(),
        }


def _check_limits(limit_n: int, node_budget: int) -> None:
    if limit_n < 1:
        raise ValueError(f"limit_n must be >= 1, got {limit_n}")
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")


def _rows(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    """The rows of a CSR as Python lists, for the interpreter kernels."""
    ptr = indptr.tolist()
    idx = indices.tolist()
    return [idx[ptr[v] : ptr[v + 1]] for v in range(len(ptr) - 1)]


def exact_set_number(
    g: Graph,
    spec: DominationSpec,
    limit_n: int = 20,
    node_budget: int = 10_000_000,
) -> ExactResult:
    """Minimum cardinality of a witness set for a set-type spec."""
    if not spec.is_set_variant:
        raise ValueError(f"exact_set_number needs a set variant, got {spec.variant}")
    _check_limits(limit_n, node_budget)
    if g.n > limit_n:
        raise ResourceLimitError(f"n={g.n} exceeds limit_n={limit_n}; raise the limit explicitly")
    spec.check_feasible(g)
    k_req, l_req = spec.requirements()
    cindptr, cindices = g.csr(closed=True)
    nbrs = _rows(cindptr, cindices)
    suf = _kernels.suffix_counts(cindptr, cindices, g.n).T.tolist()
    # every vertex needs min(k_req, l_req) coverage and one pick covers at
    # most max_degree+1 vertices
    t_start = max(0, math.ceil(g.n * min(k_req, l_req) / (g.max_degree + 1)))
    nodes_total = 0
    for t in range(t_start, g.n + 1):
        status, membership, nodes = _kernels.set_search_fixed_size(
            nbrs, suf, t, k_req, l_req, node_budget - nodes_total
        )
        nodes_total += nodes
        if status == -1:
            raise ResourceLimitError(
                f"node budget {node_budget} exhausted at size {t}",
                partial={"size_reached": t, "nodes": nodes_total},
            )
        if status == 1:
            witness = tuple(v for v in range(g.n) if membership[v])
            if not verify_set(g, spec, witness).valid:
                raise MultidomError("internal: search returned an invalid witness")
            return ExactResult(t, witness, nodes_total, spec)
    raise MultidomError("internal: the (l-1)-core of G should satisfy any feasible set spec")


def exact_function_number(
    g: Graph,
    spec: DominationSpec,
    limit_n: int = 12,
    node_budget: int = 10_000_000,
) -> ExactResult:
    """Minimum weight of a witness function for brace_k / rs / total_rs."""
    if not spec.is_function_variant:
        raise ValueError(f"exact_function_number needs a function variant, got {spec.variant}")
    _check_limits(limit_n, node_budget)
    if g.n > limit_n:
        raise ResourceLimitError(f"n={g.n} exceeds limit_n={limit_n}; raise the limit explicitly")
    spec.check_feasible(g)
    caps, demands = spec.vectors(g.n)
    order = np.argsort(g.degrees, kind="stable")
    inv = np.empty(g.n, dtype=np.int64)
    inv[order] = np.arange(g.n)
    # the constraint CSR of the graph relabelled into search order
    edges = np.array(g.edges(), dtype=np.int64).reshape(-1, 2)
    nindptr, nindices = Graph(g.n, inv[edges]).csr(closed=not spec.uses_open_neighborhoods)
    perm = order.tolist()
    caps_perm = [caps[v] for v in perm]
    demands_perm = [demands[v] for v in perm]
    best_init = sum(caps_perm)  # the all-caps function; valid by feasibility
    status, best_w, best_vals, nodes = _kernels.function_search_min_weight(
        _rows(nindptr, nindices), caps_perm, demands_perm, node_budget, best_init
    )
    if status == -1:
        raise ResourceLimitError(
            f"node budget {node_budget} exhausted",
            partial={"best_weight_so_far": best_w, "nodes": nodes},
        )
    values = [0] * g.n
    for i, v in enumerate(perm):
        values[v] = best_vals[i]
    witness = VertexFunction(values)
    report = verify_function(g, spec, witness)
    if not report.valid or report.weight != best_w:
        raise MultidomError("internal: search returned an invalid witness")
    return ExactResult(best_w, witness, nodes, spec)
