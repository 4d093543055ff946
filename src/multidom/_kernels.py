"""Hot search loops for the exact solvers, with a numba fast path.

The same functions run either JIT-compiled or as plain Python over numpy
arrays, so both paths return bit-identical results. Selection:

  MULTIDOM_NUMBA=0   force the pure-Python/numpy fallback
  (default)          use numba when it imports, else fall back

``python_impl(fn)`` recovers the undecorated function, so tests can run both.
"""

from __future__ import annotations

import os

import numpy as np


def _env_wants_numba() -> bool:
    flag = os.environ.get("MULTIDOM_NUMBA", "").strip().lower()
    return flag not in ("0", "false", "off", "no")


USING_NUMBA = False
if _env_wants_numba():
    try:
        from numba import njit

        USING_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        USING_NUMBA = False

if not USING_NUMBA:

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


def python_impl(fn):
    """The plain-Python implementation behind a (possibly jitted) kernel."""
    return getattr(fn, "py_func", fn)


@njit(cache=True)
def set_search_fixed_size(cindptr, cindices, suffix, t, k_req, l_req, budget):
    """Search for a set D of size exactly t meeting per-vertex coverage demands.

    Coverage of v is |N[v] ∩ D| (closed neighborhoods, cindptr/cindices
    include each vertex itself). Vertices in D need l_req, vertices outside
    need k_req. suffix[v, x] counts members of N[v] with id >= x.

    Returns (status, membership, nodes): status 1 found / 0 exhausted /
    -1 node budget exceeded. Lexicographic DFS, so the witness is the
    lexicographically smallest valid set of size t.
    """
    n = suffix.shape[0]
    in_d = np.zeros(n, np.bool_)
    cov = np.zeros(n, np.int64)
    chosen = np.zeros(t + 1, np.int64)
    min_req = k_req if k_req < l_req else l_req
    nodes = 0
    if t == 0:
        status = 1 if k_req <= 0 else 0
        return status, in_d, nodes
    depth = 0
    cand = 0
    while True:
        if depth == t:
            valid = True
            for v in range(n):
                need = l_req if in_d[v] else k_req
                if cov[v] < need:
                    valid = False
                    break
            if valid:
                return 1, in_d, nodes
            u = chosen[depth - 1]
            depth -= 1
            in_d[u] = False
            for j in range(cindptr[u], cindptr[u + 1]):
                cov[cindices[j]] -= 1
            cand = u + 1
            continue
        if cand > n - (t - depth):
            if depth == 0:
                return 0, in_d, nodes
            u = chosen[depth - 1]
            depth -= 1
            in_d[u] = False
            for j in range(cindptr[u], cindptr[u + 1]):
                cov[cindices[j]] -= 1
            cand = u + 1
            continue
        u = cand
        nodes += 1
        if nodes > budget:
            return -1, in_d, nodes
        chosen[depth] = u
        depth += 1
        in_d[u] = True
        for j in range(cindptr[u], cindptr[u + 1]):
            cov[cindices[j]] += 1
        nxt = u + 1
        rem = t - depth
        # Admissible prune: even if all remaining picks landed inside N[v],
        # v could not reach its (best-case) demand.
        prune = False
        for v in range(n):
            avail = suffix[v, nxt]
            if avail > rem:
                avail = rem
            ub = cov[v] + avail
            if in_d[v]:
                if ub < l_req:
                    prune = True
                    break
            elif v <= u:
                if ub < k_req:
                    prune = True
                    break
            else:
                if ub < min_req:
                    prune = True
                    break
        if prune:
            depth -= 1
            in_d[u] = False
            for j in range(cindptr[u], cindptr[u + 1]):
                cov[cindices[j]] -= 1
            cand = u + 1
        else:
            cand = nxt


@njit(cache=True)
def function_search_min_weight(nindptr, nindices, caps, demands, budget, best_init):
    """Minimum-weight integer labeling with per-vertex caps and demands.

    Vertex i takes a value in 0..caps[i]; the constraint at w is
    sum of values over nindices[nindptr[w]:nindptr[w+1]] >= demands[w]
    (pass closed or open neighborhoods as appropriate). DFS assigns
    vertices in index order, values ascending, with two admissible prunes:
    residual demand must fit in the unassigned capacity of each
    neighborhood, and weight + max residual demand must beat the best.

    Returns (status, best_weight, best_values, nodes): status 1 improved on
    best_init / 0 nothing below best_init / -1 budget exceeded.
    """
    n = caps.shape[0]
    val = np.full(n, -1, np.int64)
    sum_asg = np.zeros(n, np.int64)
    cap_un = np.zeros(n, np.int64)
    for u in range(n):
        for j in range(nindptr[u], nindptr[u + 1]):
            cap_un[nindices[j]] += caps[u]
    best_w = best_init
    best_vals = caps.copy()
    improved = False
    weight = 0
    nodes = 0
    pos = 0
    status = 0
    while pos >= 0:
        x = val[pos]
        if x >= 0:
            weight -= x
            for j in range(nindptr[pos], nindptr[pos + 1]):
                sum_asg[nindices[j]] -= x
        else:
            for j in range(nindptr[pos], nindptr[pos + 1]):
                cap_un[nindices[j]] -= caps[pos]
        x += 1
        val[pos] = x
        if x > caps[pos]:
            for j in range(nindptr[pos], nindptr[pos + 1]):
                cap_un[nindices[j]] += caps[pos]
            val[pos] = -1
            pos -= 1
            continue
        weight += x
        for j in range(nindptr[pos], nindptr[pos + 1]):
            sum_asg[nindices[j]] += x
        nodes += 1
        if nodes > budget:
            status = -1
            break
        lb = 0
        infeasible = False
        for w in range(n):
            resid = demands[w] - sum_asg[w]
            if resid > cap_un[w]:
                infeasible = True
                break
            if resid > lb:
                lb = resid
        if infeasible:
            continue
        if weight + lb >= best_w:
            continue
        if pos == n - 1:
            # cap_un is all zero here, so the feasibility sweep above
            # certifies every demand is met.
            best_w = weight
            for i in range(n):
                best_vals[i] = val[i]
            improved = True
            continue
        pos += 1
    if status == 0:
        status = 1 if improved else 0
    return status, best_w, best_vals, nodes


def suffix_counts(cindptr: np.ndarray, cindices: np.ndarray, n: int) -> np.ndarray:
    """suffix[v, x] = |{u in N[v] : u >= x}| for the set-search prune."""
    suffix = np.zeros((n, n + 1), dtype=np.int64)
    for v in range(n):
        row = np.zeros(n + 1, dtype=np.int64)
        for j in range(cindptr[v], cindptr[v + 1]):
            row[cindices[j]] = 1
        suffix[v] = np.cumsum(row[::-1])[::-1]
    return suffix
