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


def _admit(g: Graph, spec: DominationSpec, limit_n: int, node_budget: int) -> None:
    """Refuse a search the limits forbid or the spec makes infeasible."""
    if limit_n < 1:
        raise ValueError(f"limit_n must be >= 1, got {limit_n}")
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    if g.n > limit_n:
        raise ResourceLimitError(f"n={g.n} exceeds limit_n={limit_n}; raise the limit explicitly")
    spec.check_feasible(g)


def _rows(g: Graph, closed: bool) -> list[list[int]]:
    """Each N(v) from the open CSR as a Python list, v appended when ``closed``."""
    indptr, indices = g.csr()
    ptr = indptr.tolist()
    idx = indices.tolist()
    rows = [idx[ptr[v] : ptr[v + 1]] for v in range(g.n)]
    if closed:
        for v, row in enumerate(rows):
            row.append(v)
    return rows


def exact_set_number(
    g: Graph,
    spec: DominationSpec,
    limit_n: int = 20,
    node_budget: int = 10_000_000,
) -> ExactResult:
    """Minimum cardinality of a witness set for a set-type spec."""
    if not spec.is_set_variant:
        raise ValueError(f"exact_set_number needs a set variant, got {spec.variant}")
    _admit(g, spec, limit_n, node_budget)
    k_req, l_req = spec.requirements()
    nbrs = _rows(g, closed=True)
    suf = _kernels.suffix_counts(g).T.tolist()
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
    _admit(g, spec, limit_n, node_budget)
    caps, demands = spec.vectors(g.n)
    # search position i holds vertex perm[i]; vertex v sits at position inv[v]
    order = np.argsort(g.degrees, kind="stable")
    perm, inv = order.tolist(), np.argsort(order).tolist()
    rows = _rows(g, closed=not spec.uses_open_neighborhoods)
    nbrs = [[inv[w] for w in rows[v]] for v in perm]
    caps_perm = [caps[v] for v in perm]
    demands_perm = [demands[v] for v in perm]
    best_init = sum(caps_perm)  # the all-caps function; valid by feasibility
    status, best_w, best_vals, nodes = _kernels.function_search_min_weight(
        nbrs, caps_perm, demands_perm, node_budget, best_init
    )
    if status == -1:
        raise ResourceLimitError(
            f"node budget {node_budget} exhausted",
            partial={"best_weight_so_far": best_w, "nodes": nodes},
        )
    witness = VertexFunction([best_vals[i] for i in inv])
    report = verify_function(g, spec, witness)
    if not report.valid or report.weight != best_w:
        raise MultidomError("internal: search returned an invalid witness")
    return ExactResult(best_w, witness, nodes, spec)
