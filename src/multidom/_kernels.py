"""Hot search loops for the exact solvers, written for the Python interpreter.

Both searches run over plain Python lists: element access on a list costs a
fraction of reading a numpy scalar from the interpreter, and the graphs the
exact oracle accepts (n <= 20 by default) are far too small for array
operations to pay back their call overhead. ``oracle.py`` converts the CSR
and the suffix table to lists once per exact call and passes them in.
"""

from __future__ import annotations

import numpy as np


def set_search_fixed_size(nbrs, suf, t, k_req, l_req, budget):
    """Search for a set D of size exactly t meeting per-vertex coverage demands.

    Coverage of v is |N[v] ∩ D|: ``nbrs[u]`` lists the closed neighbourhood
    N[u], u itself included. Vertices in D need l_req, vertices outside
    need k_req. ``suf[x][v]`` counts members of N[v] with id >= x, the
    transpose of ``suffix_counts``.

    Returns (status, membership, nodes): status 1 found / 0 exhausted /
    -1 node budget exceeded; membership is a list of n bools. Lexicographic
    DFS, so the witness is the lexicographically smallest valid set of size t.
    """
    n = len(nbrs)
    in_d = [False] * n
    cov = [0] * n
    chosen = [0] * (t + 1)
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
                if cov[v] < (l_req if in_d[v] else k_req):
                    valid = False
                    break
            if valid:
                return 1, in_d, nodes
            depth -= 1
            u = chosen[depth]
            in_d[u] = False
            for w in nbrs[u]:
                cov[w] -= 1
            cand = u + 1
            continue
        if cand > n - (t - depth):
            if depth == 0:
                return 0, in_d, nodes
            depth -= 1
            u = chosen[depth]
            in_d[u] = False
            for w in nbrs[u]:
                cov[w] -= 1
            cand = u + 1
            continue
        u = cand
        nodes += 1
        if nodes > budget:
            return -1, in_d, nodes
        chosen[depth] = u
        depth += 1
        in_d[u] = True
        for w in nbrs[u]:
            cov[w] += 1
        nxt = u + 1
        rem = t - depth
        # Admissible prune: even if all remaining picks landed inside N[v],
        # v could not reach its (best-case) demand. Picks ascend, so every
        # member is <= u and a vertex above u may still join D: it needs
        # only min(k_req, l_req).
        row = suf[nxt]
        prune = False
        for v in range(nxt):
            avail = row[v]
            if avail > rem:
                avail = rem
            if cov[v] + avail < (l_req if in_d[v] else k_req):
                prune = True
                break
        if not prune:
            for v in range(nxt, n):
                avail = row[v]
                if avail > rem:
                    avail = rem
                if cov[v] + avail < min_req:
                    prune = True
                    break
        if prune:
            depth -= 1
            in_d[u] = False
            for w in nbrs[u]:
                cov[w] -= 1
        cand = nxt


def function_search_min_weight(nbrs, caps, demands, budget, best_init):
    """Minimum-weight integer labeling with per-vertex caps and demands.

    Vertex i takes a value in 0..caps[i]; the constraint at w is
    sum of values over nbrs[w] >= demands[w] (pass closed or open
    neighbourhoods as appropriate; the relation must be symmetric). DFS
    assigns vertices in index order, values ascending, with two admissible
    prunes: residual demand must fit in the unassigned capacity of each
    neighbourhood, and weight + max residual demand must beat the best.

    Returns (status, best_weight, best_values, nodes): status 1 improved on
    best_init / 0 nothing below best_init / -1 budget exceeded.
    """
    n = len(caps)
    val = [-1] * n
    sum_asg = [0] * n
    cap_un = [0] * n
    for u in range(n):
        for w in nbrs[u]:
            cap_un[w] += caps[u]
    best_w = best_init
    best_vals = list(caps)
    improved = False
    weight = 0
    nodes = 0
    pos = 0
    status = 0
    while pos >= 0:
        x = val[pos]
        nb = nbrs[pos]
        if x >= 0:
            weight -= x
            for w in nb:
                sum_asg[w] -= x
        else:
            cap = caps[pos]
            for w in nb:
                cap_un[w] -= cap
        x += 1
        val[pos] = x
        if x > caps[pos]:
            cap = caps[pos]
            for w in nb:
                cap_un[w] += cap
            val[pos] = -1
            pos -= 1
            continue
        weight += x
        for w in nb:
            sum_asg[w] += x
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
            best_vals = val[:]
            improved = True
            continue
        pos += 1
    if status == 0:
        status = 1 if improved else 0
    return status, best_w, best_vals, nodes


def suffix_counts(cindptr: np.ndarray, cindices: np.ndarray, n: int) -> np.ndarray:
    """suffix[v, x] = |{u in N[v] : u >= x}| for the set-search prune."""
    dense = np.zeros((n, n + 1), dtype=np.int64)
    dense[np.repeat(np.arange(n), np.diff(cindptr)), cindices] = 1
    return np.ascontiguousarray(np.cumsum(dense[:, ::-1], axis=1)[:, ::-1])
