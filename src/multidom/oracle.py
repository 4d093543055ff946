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
from .errors import MultidomError, ResourceLimitError, _integer
from .graph import Graph, coverage
from .verify import (
    DominationSpec,
    VertexFunction,
    _guaranteed_witness,
    _witness_dict,
    verify_function,
    verify_set,
)


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


def _admit(g: Graph, spec: DominationSpec, limit_n: int, node_budget: int) -> int:
    """Refuse a search the limits forbid or the spec makes infeasible;
    returns node_budget as a Python int."""
    limit_n = _integer(limit_n, "limit_n", 1)
    node_budget = _integer(node_budget, "node_budget", 1)
    if g.n > limit_n:
        raise ResourceLimitError(f"n={g.n} exceeds limit_n={limit_n}; raise the limit explicitly")
    spec.check_feasible(g)
    return node_budget


def exact_set_number(
    g: Graph,
    spec: DominationSpec,
    limit_n: int = 20,
    node_budget: int = 10_000_000,
) -> ExactResult:
    """Minimum cardinality of a witness set for a set-type spec.

    Running out of node_budget raises ResourceLimitError; its ``partial``
    brackets the value with ``lower_bound`` (the size reached) and
    ``upper_bound``, the size of ``witness``: the (l-1)-core as a tuple,
    always a witness."""
    if not spec.is_set_variant:
        raise ValueError(f"exact_set_number needs a set variant, got {spec.variant}")
    node_budget = _admit(g, spec, limit_n, node_budget)
    k_req, l_req = spec.requirements()
    tables = _kernels.prune_tables(g, k_req, l_req)
    # every vertex needs min(k_req, l_req) coverage and one pick covers at
    # most max_degree+1 vertices
    t_start = max(0, math.ceil(g.n * min(k_req, l_req) / (g.max_degree + 1)))
    nodes_total = 0
    for t in range(t_start, g.n + 1):
        status, picks, nodes = _kernels.set_search_fixed_size(
            *tables, t, k_req, node_budget - nodes_total
        )
        nodes_total += nodes
        if status == -1:
            # every size below t is ruled out: from t_start up by exhausted
            # searches, below t_start by the counting bound
            core = tuple(np.flatnonzero(_guaranteed_witness(g, spec)).tolist())
            raise ResourceLimitError(
                f"node budget {node_budget} exhausted at size {t}; "
                f"the domination number is at least {t}",
                partial={"size_reached": t, "nodes": nodes_total, "lower_bound": t,
                         "upper_bound": len(core), "witness": core},
            )
        if status == 1:
            witness = tuple(picks)
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
    """Minimum weight of a witness function for brace_k / rs / total_rs.

    Running out of node_budget raises ResourceLimitError; its ``partial``
    brackets the value with ``lower_bound`` = max(max s, ceil(sum s / w)),
    w = Δ+1 closed or Δ open, and ``upper_bound``, the weight of the
    incumbent ``witness`` (also ``best_weight_so_far``)."""
    if not spec.is_function_variant:
        raise ValueError(f"exact_function_number needs a function variant, got {spec.variant}")
    node_budget = _admit(g, spec, limit_n, node_budget)
    caps, demands = spec.vectors(g.n)
    # search position i holds vertex perm[i]; vertex v sits at position inv[v]
    order = np.argsort(g.degrees, kind="stable")
    perm, inv = order.tolist(), np.argsort(order)
    closed = not spec.uses_open_neighborhoods
    indptr, indices = g.csr()
    ptr, idx = indptr.tolist(), inv.take(indices).tolist()
    # the open row of perm[i] in search positions, and i itself when closed
    nbrs = [idx[ptr[v] : ptr[v + 1]] + [i] * closed for i, v in enumerate(perm)]
    cap_sums = coverage(g, caps, closed)[order].tolist()
    best_init = spec.cap_summary(g.n)[2]  # the all-caps function; valid by feasibility
    status, best_w, best_vals, nodes = _kernels.function_search_min_weight(
        nbrs, caps[order].tolist(), demands[order].tolist(), cap_sums, node_budget, best_init
    )
    witness = VertexFunction(np.take(best_vals, inv))
    if status == -1:
        # a unit of label at u enters at most w = Δ+1 closed (Δ open) sums;
        # w = 0 only with open rows and no edges, where every demand is 0
        w = max(g.max_degree + closed, 1)
        lower = max(int(demands.max()), -(-int(demands.sum()) // w))
        raise ResourceLimitError(
            f"node budget {node_budget} exhausted",
            partial={"best_weight_so_far": best_w, "nodes": nodes, "lower_bound": lower,
                     "upper_bound": best_w, "witness": witness},
        )
    report = verify_function(g, spec, witness)
    if not report.valid or report.weight != best_w:
        raise MultidomError("internal: search returned an invalid witness")
    return ExactResult(best_w, witness, nodes, spec)
