"""Exact domination numbers on small graphs by exhaustive search.

Ground truth for the bounds and the randomized constructions. Set variants
run an increasing-cardinality subset search (the first feasible size is the
domination number by definition); function variants run a depth-first
assignment over vertices ordered by ascending degree, so small closed
neighborhoods complete early and prune hard. Resource limits are explicit
inputs and exceeding them refuses loudly rather than truncating silently.

A search ends one of three ways. A refusal (n above limit_n) raises
ResourceLimitError with no ``partial``. A budget stop raises it with the
bracket lower_bound <= value <= upper_bound, a witness of weight
upper_bound and the nodes explored. A finished search returns an
ExactResult whose witness has been verified and weighs the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NoReturn

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


def _budget_stop(message: str, lower: int, upper: int, witness, nodes: int) -> NoReturn:
    """Raise the budget stop of a search: ResourceLimitError whose
    ``partial`` brackets the optimum, lower_bound <= value <= upper_bound,
    with a valid ``witness`` of weight upper_bound and the ``nodes``
    explored."""
    raise ResourceLimitError(message, partial={
        "lower_bound": lower, "upper_bound": upper, "witness": witness, "nodes": nodes})


def _verified(g: Graph, spec: DominationSpec, value: int, witness, nodes: int) -> ExactResult:
    """The result of a finished search, once its witness verifies and weighs value."""
    verify = verify_set if spec.is_set_variant else verify_function
    report = verify(g, spec, witness)
    if not report.valid or report.weight != value:
        raise MultidomError("internal: search returned an invalid witness")
    return ExactResult(value, witness, nodes, spec)


def exact_set_number(
    g: Graph,
    spec: DominationSpec,
    limit_n: int = 20,
    node_budget: int = 10_000_000,
) -> ExactResult:
    """Minimum cardinality of a witness set for a set-type spec.

    Running out of node_budget at size t raises ResourceLimitError; its
    ``partial`` brackets the value with ``lower_bound`` = t and
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
            _budget_stop(f"node budget {node_budget} exhausted at size {t}; "
                         f"the domination number is at least {t}",
                         t, len(core), core, nodes_total)
        if status == 1:
            return _verified(g, spec, t, tuple(picks), nodes_total)
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
    incumbent ``witness``."""
    if not spec.is_function_variant:
        raise ValueError(f"exact_function_number needs a function variant, got {spec.variant}")
    node_budget = _admit(g, spec, limit_n, node_budget)
    closed, _, caps, demands = spec.model(g.n)
    # search position i holds vertex perm[i]; vertex v sits at position inv[v]
    order = np.argsort(g.degrees, kind="stable")
    perm, inv = order.tolist(), np.argsort(order)
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
        _budget_stop(f"node budget {node_budget} exhausted", lower, best_w, witness, nodes)
    return _verified(g, spec, best_w, witness, nodes)
