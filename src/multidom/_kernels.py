"""Hot search loops for the exact solvers, written for the Python interpreter.

Both searches run over plain Python lists: element access on a list costs a
fraction of reading a numpy scalar from the interpreter, and the graphs the
exact oracle accepts (n <= 20 by default) are far too small for array
operations to pay back their call overhead. ``oracle.py`` takes the rows
from ``graph._rows`` once per exact call, and the function search's
starting capacity sums from ``coverage``, the neighbourhood sums every
other layer uses.

The set search also takes two tables from ``prune_tables``, built once per
graph and demand pair with numpy: ``gain``, so that one scan over the
vertices decides whether a pick survives, and ``after``, so that a pick
pruned at a vertex v skips at once every later sibling that misses N[v].
"""

from __future__ import annotations

import numpy as np


def set_search_fixed_size(nbrs, gain, after, t, k_req, l_req, budget):
    """Search for a set D of size exactly t <= n meeting per-vertex demands.

    Coverage of v is |N[v] ∩ D|: ``nbrs[u]`` lists the closed neighbourhood
    N[u] in any order (the open CSR row of u with u appended). Vertices in
    D need l_req, vertices outside need k_req. ``gain`` and ``after`` come
    from ``prune_tables(g, k_req, l_req)``.

    The search keeps slack[v] = coverage of v minus its demand and tests a
    pick u before applying it: u is kept iff slack[v] + gain[rem][u][v] >= 0
    for every v, rem being the picks that follow u. This is an admissible
    prune (no v may fall short even if every later pick landed in N[v]) and,
    at rem = 0, the full check, so a kept last pick completes a valid set.
    If u fails at v != u, every later sibling u' that misses N[v] fails at
    v too: same earlier picks, no more coverage and no more suffix for v, and
    no lower demand. The search jumps to after[v][u] and counts the skipped
    picks as nodes, so ``nodes`` is the count of the loop that visits every
    sibling, budget stops included.

    Returns (status, membership, nodes): status 1 found / 0 exhausted /
    -1 node budget exceeded; membership is a list of n bools. Lexicographic
    DFS, so the witness is the lexicographically smallest valid set of size t.
    """
    n = len(nbrs)
    in_d = [False] * n
    nodes = 0
    if t == 0:
        return (1 if k_req <= 0 else 0), in_d, nodes
    slack = [-k_req] * n
    lift = k_req - l_req  # slack change at u when u joins D
    chosen = [0] * t
    depth = 0
    cand = 0
    while True:
        rem = t - depth - 1
        limit = n - t + depth  # the last candidate that leaves room for rem
        rows = gain[rem]
        while cand <= limit:
            u = cand
            nodes += 1
            if nodes > budget:
                return -1, in_d, nodes
            row = rows[u]
            for v in range(n):
                if slack[v] + row[v] < 0:
                    break
            else:
                break
            if v == u:  # u's own demand changed; a sibling may pass
                cand = u + 1
                continue
            cand = after[v][u]
            if cand > limit:
                cand = limit + 1
            nodes += cand - u - 1
            if nodes > budget:
                return -1, in_d, budget + 1
        else:
            # no candidate left at this depth: drop the last pick u and go
            # on from u + 1
            if depth == 0:
                return 0, in_d, nodes
            depth -= 1
            u = chosen[depth]
            in_d[u] = False
            for w in nbrs[u]:
                slack[w] -= 1
            slack[u] -= lift
            cand = u + 1
            continue
        in_d[u] = True
        if rem == 0:
            return 1, in_d, nodes
        for w in nbrs[u]:
            slack[w] += 1
        slack[u] += lift
        chosen[depth] = u
        depth += 1
        cand = u + 1


def function_search_min_weight(nbrs, caps, demands, cap_un, budget, best_init):
    """Minimum-weight integer labeling with per-vertex caps and demands.

    Vertex i takes a value in 0..caps[i]; the constraint at w is
    sum of values over nbrs[w] >= demands[w] (pass closed or open
    neighbourhoods as appropriate; the relation must be symmetric). DFS
    assigns vertices in index order, values ascending, with two admissible
    prunes: residual demand must fit in the unassigned capacity of each
    neighbourhood, and weight + max residual demand must beat the best.
    cap_un[w] starts as the sum of caps over nbrs[w] (``coverage`` of the
    caps) and is updated in place.

    Returns (status, best_weight, best_values, nodes): status 1 improved on
    best_init / 0 nothing below best_init / -1 budget exceeded.
    """
    n = len(caps)
    val = [-1] * n
    sum_asg = [0] * n
    best_w = best_init
    best_vals = list(caps)
    improved = False
    weight = 0
    nodes = 0
    pos = 0
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
            return -1, best_w, best_vals, nodes
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
    return (1 if improved else 0), best_w, best_vals, nodes


def suffix_counts(g) -> np.ndarray:
    """suffix[v, x] = |{u in N[v] : u >= x}| for the set-search prune,
    from the open CSR of g plus the diagonal."""
    indptr, indices = g.csr()
    dense = np.eye(g.n, g.n + 1, dtype=np.int64)
    dense[np.repeat(np.arange(g.n), g.degrees), indices] = 1
    return np.ascontiguousarray(np.cumsum(dense[:, ::-1], axis=1)[:, ::-1])


def prune_tables(g, k_req, l_req) -> tuple[list, list]:
    """(gain, after) for ``set_search_fixed_size`` on g with these demands.

    gain[rem][u][v] = [v in N[u]] + min(suf[u+1][v], rem)
                      + (k_req - min(k_req, l_req)) * [v > u] * [rem > 0]
                      - (l_req - k_req) * [v = u],
    where suf[x][v] = |{w in N[v] : w >= x}| (``suffix_counts``). The third
    term lets a vertex above u, which may still join D, ask only the smaller
    demand while picks remain; the last turns u's demand from k_req into
    l_req. A closed neighbourhood has at most Δ+1 members, so every layer
    with rem > Δ+1 is the layer Δ+1 list itself. after[v][u] is the smallest
    member of N[v] above u, or n if there is none.
    """
    n = g.n
    suffix = suffix_counts(g)
    closed = suffix[:, :-1] - suffix[:, 1:]  # [u in N[v]], symmetric
    ids = np.arange(n)
    top = min(g.max_degree + 1, n - 1)
    rem = np.arange(top + 1)[:, None, None]
    gain = (
        closed
        - (l_req - k_req) * (ids == ids[:, None])
        + np.minimum(suffix[:, 1:].T, rem)
        + (k_req - min(k_req, l_req)) * ((ids > ids[:, None]) & (rem > 0))
    ).tolist()
    gain += [gain[top]] * (n - 1 - top)
    first = np.where(closed == 1, ids, n)
    after = np.full((n, n), n)
    after[:, :-1] = np.minimum.accumulate(first[:, :0:-1], axis=1)[:, ::-1]
    return gain, after.tolist()
