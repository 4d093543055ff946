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
from .verify import DominationSpec, VertexFunction, verify_function, verify_set


@dataclass(frozen=True)
class ExactResult:
    value: int
    witness: tuple[int, ...] | VertexFunction
    nodes_explored: int
    spec: DominationSpec

    def to_dict(self) -> dict:
        w = (
            {"set": list(self.witness)}
            if isinstance(self.witness, tuple)
            else {"values": list(self.witness.values)}
        )
        return {
            "value": self.value,
            "witness": w,
            "nodes_explored": self.nodes_explored,
            "spec": self.spec.to_dict(),
        }


def exact_set_number(
    g: Graph,
    spec: DominationSpec,
    limit_n: int = 20,
    node_budget: int = 10_000_000,
) -> ExactResult:
    """Minimum cardinality of a witness set for a set-type spec."""
    if not spec.is_set_variant:
        raise ValueError(f"exact_set_number needs a set variant, got {spec.variant}")
    if g.n > limit_n:
        raise ResourceLimitError(f"n={g.n} exceeds limit_n={limit_n}; raise the limit explicitly")
    spec.check_feasible(g)
    k_req, l_req = spec.requirements()
    cindptr, cindices = g.csr(closed=True)
    suffix = _kernels.suffix_counts(cindptr, cindices, g.n)
    # every vertex needs min(k_req, l_req) coverage and one pick covers at
    # most max_degree+1 vertices
    t_start = max(0, math.ceil(g.n * min(k_req, l_req) / (g.max_degree + 1)))
    nodes_total = 0
    for t in range(t_start, g.n + 1):
        status, membership, nodes = _kernels.set_search_fixed_size(
            cindptr, cindices, suffix, t, k_req, l_req, node_budget - nodes_total
        )
        nodes_total += nodes
        if status == -1:
            raise ResourceLimitError(
                f"node budget {node_budget} exhausted at size {t}",
                partial={"size_reached": t, "nodes": nodes_total},
            )
        if status == 1:
            witness = tuple(int(v) for v in np.flatnonzero(membership))
            if not verify_set(g, spec, witness).valid:
                raise MultidomError("internal: search returned an invalid witness")
            return ExactResult(t, witness, nodes_total, spec)
    raise MultidomError("internal: V(G) itself should satisfy any feasible set spec")


def exact_function_number(
    g: Graph,
    spec: DominationSpec,
    limit_n: int = 12,
    node_budget: int = 10_000_000,
) -> ExactResult:
    """Minimum weight of a witness function for brace_k / rs / total_rs."""
    if not spec.is_function_variant:
        raise ValueError(f"exact_function_number needs a function variant, got {spec.variant}")
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
    caps_perm = np.asarray(caps, dtype=np.int64)[order]
    demands_perm = np.asarray(demands, dtype=np.int64)[order]
    best_init = int(caps_perm.sum())  # the all-caps function; valid by feasibility
    status, best_w, best_vals, nodes = _kernels.function_search_min_weight(
        nindptr, nindices, caps_perm, demands_perm, node_budget, best_init
    )
    if status == -1:
        raise ResourceLimitError(
            f"node budget {node_budget} exhausted",
            partial={"best_weight_so_far": int(best_w), "nodes": nodes},
        )
    values = [0] * g.n
    for i, v in enumerate(order):
        values[int(v)] = int(best_vals[i])
    witness = VertexFunction(tuple(values), caps)
    report = verify_function(g, spec, witness)
    if not report.valid or report.weight != int(best_w):
        raise MultidomError("internal: search returned an invalid witness")
    return ExactResult(int(best_w), witness, nodes, spec)
