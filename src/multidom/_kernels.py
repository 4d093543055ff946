"""Hot search loops for the exact solvers, written for the Python interpreter.

Both searches keep their per-vertex state packed into one Python int, one
field of b bits per vertex: field v holds the vertex's value plus a bias
B = 2**(b-1) in bits [b*v, b*v + b). While every field stays in [0, 2**b),
adding two packed ints adds field by field with no carry between fields, and
the top bit of field v is set exactly when v's value is >= 0. So one big-int
add and one mask with ``high`` (the top bit of every field) test every
vertex at once, and the lowest set bit of the mask names the first vertex
that fails: ``(fail & -fail).bit_length() // b - 1``. This is broadword
computing (Lamport, CACM 18(8), 1975; Knuth, TAOCP 4A, 7.1.3). The graphs
the exact oracle accepts (n <= 20 by default) make ints of a few hundred
bits, so each such add replaces an interpreted loop over n list entries.

The set search takes its tables from ``prune_tables``: ``pick``, what a pick
adds to the slack of every vertex, ``gain``, so that one add decides whether
a pick survives, and ``after``, so that a pick pruned at a vertex v skips at
once every later sibling that misses N[v]. What reads only the graph is
built with numpy once per graph and cached; each demand pair adds its own
fields with one packed add per row. The function search packs its demands,
assigned sums and unassigned capacities itself, from the rows ``oracle.py``
cuts from the CSR arrays and the starting capacity sums from ``coverage``,
the neighbourhood sums every other layer uses.
"""

from __future__ import annotations

import functools
from itertools import repeat

import numpy as np


def _ones(bits, n):
    """The packed int with 1 in each of n fields of the given width."""
    return ((1 << bits * n) - 1) // ((1 << bits) - 1)


def set_search_fixed_size(bits, pick, gain, after, t, k_req, budget):
    """Search for a set D of size exactly t <= n meeting per-vertex demands.

    Coverage of v is |N[v] ∩ D|. Vertices in D need l_req, vertices outside
    need k_req. ``bits``, ``pick``, ``gain`` and ``after`` are the tuple
    ``prune_tables(g, k_req, l_req)`` returns.

    The search keeps slack[v] = coverage of v minus its demand, packed, and
    tests a pick u before applying it: u is kept iff slack[v] +
    gain[rem][u][v] >= 0 for every v, rem being the picks that follow u.
    This is an admissible prune (no v may fall short even if every later
    pick landed in N[v]) and, at rem = 0, the full check, so a kept last
    pick completes a valid set. If u fails at v != u, every later sibling u'
    that misses N[v] fails at v too: same earlier picks, no more coverage
    and no more suffix for v, and no lower demand. The search jumps to
    after[v][u] and counts the skipped picks as nodes, so ``nodes`` is the
    count of the loop that visits every sibling, budget stops included.

    Returns (status, picks, nodes): status 1 found / 0 exhausted / -1 node
    budget exceeded; picks is the ascending list of vertices in D, the
    picks made so far on a budget stop and empty when exhausted.
    Lexicographic DFS, so the witness is the lexicographically smallest
    valid set of size t.
    """
    n = len(pick)
    nodes = 0
    if t == 0:
        return (1 if k_req <= 0 else 0), [], nodes
    ones = _ones(bits, n)
    high = ones << (bits - 1)
    slack = -k_req * ones
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
                return -1, chosen[:depth], nodes
            fail = high & ~(slack + rows[u])
            if not fail:
                break
            v = (fail & -fail).bit_length() // bits - 1
            if v == u:  # u's own demand changed; a sibling may pass
                cand = u + 1
                continue
            cand = after[v][u]
            if cand > limit:
                cand = limit + 1
            nodes += cand - u - 1
            if nodes > budget:
                return -1, chosen[:depth], budget + 1
        else:
            # no candidate left at this depth: drop the last pick u and go
            # on from u + 1
            if depth == 0:
                return 0, [], nodes
            depth -= 1
            u = chosen[depth]
            slack -= pick[u]
            cand = u + 1
            continue
        chosen[depth] = u
        if rem == 0:
            return 1, chosen, nodes
        slack += pick[u]
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
    cap_un[w] must be the sum of caps over nbrs[w] (``coverage`` of the
    caps); it is read, not changed. best_init is the weight to beat, at
    most sum(caps).

    The demands D, the assigned sums A and the unassigned capacities C are
    packed, so some residual demand exceeds its capacity iff
    high & (D - A - C - 1 + B) over every field, and weight + max(0, max
    residual) >= best iff gap = best - weight <= 0 or
    high & (D - A - gap + B). The field width holds both with no carry.

    Returns (status, best_weight, best_values, nodes): status 1 improved on
    best_init / 0 nothing below best_init / -1 budget exceeded.
    """
    n = len(caps)
    # |D - A - C - 1| and |D - A - gap| stay below the bias: A + C and A
    # are at most cap_un, and gap at most best_init
    bits = (max(demands) + max(cap_un) + max(best_init, 0) + 1).bit_length() + 1
    ones = _ones(bits, n)
    high = ones << (bits - 1)
    rows = [sum(1 << bits * w for w in nb) for nb in nbrs]
    need = sum(d << bits * w for w, d in enumerate(demands)) + high  # D + B
    short = need - ones  # D - 1 + B
    assigned = 0
    unassigned = sum(c << bits * w for w, c in enumerate(cap_un))
    val = [-1] * n
    best_w = best_init
    best_vals = list(caps)
    improved = False
    weight = 0
    nodes = 0
    pos = 0
    while pos >= 0:
        x = val[pos] + 1
        cap = caps[pos]
        row = rows[pos]
        if x > cap:
            # every value tried: take back the cap assigned last and hand
            # the capacity back
            weight -= cap
            assigned -= cap * row
            unassigned += cap * row
            val[pos] = -1
            pos -= 1
            continue
        val[pos] = x
        if x:
            weight += 1
            assigned += row
        else:
            unassigned -= cap * row
        nodes += 1
        if nodes > budget:
            return -1, best_w, best_vals, nodes
        if high & (short - assigned - unassigned):
            continue
        gap = best_w - weight
        if gap <= 0 or high & (need - assigned - gap * ones):
            continue
        if pos == n - 1:
            # nothing is unassigned here, so the feasibility test above
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


def _pack(rows, width):
    """Each row of a 2-D integer array as one packed int: field v holds
    rows[., v] + B in ``width`` bytes, B = 2**(8*width - 1). Every entry
    must lie in [-B, B)."""
    dtype = np.dtype(f"<u{width}")
    biased = rows.astype(dtype)  # two's complement, so adding B wraps to value + B
    biased += dtype.type(1 << (8 * width - 1))
    packed = np.frombuffer(biased.tobytes(), dtype=f"S{rows.shape[1] * width}")
    return list(map(int.from_bytes, packed.tolist(), repeat("little")))


# The spec-free part of prune_tables, per graph and field width. Callers run
# the specs of one graph in a row: in one round of perfbench's exact-small,
# 488 of 611 builds are for the graph of the build before, and a cache of 2
# hits as often as one of 64. It stays that small because with limit_n
# raised one graph's tables reach megabytes.
TABLE_CACHE_SIZE = 2


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _graph_tables(g, width) -> tuple[tuple, tuple, tuple, tuple]:
    """(base, after, unit, above) of g at fields of ``width`` bytes:
    base[rem][u] packs [v in N[u]] + min(suf[u+1][v], rem) biased, for rem
    up to min(Δ+1, n-1); unit[u] has 1 in field u, and above[u] has 1 in
    every field above u."""
    n = g.n
    suffix = suffix_counts(g)
    closed = suffix[:, :-1] - suffix[:, 1:]  # [u in N[v]], symmetric
    top = min(g.max_degree + 1, n - 1)
    layers = closed + np.minimum(suffix[:, 1:].T, np.arange(top + 1)[:, None, None])
    packed = _pack(layers.reshape(-1, n), width)
    base = tuple(tuple(packed[n * r : n * (r + 1)]) for r in range(top + 1))
    bits = 8 * width
    ones = _ones(bits, n)
    unit = tuple(1 << bits * u for u in range(n))
    above = tuple(ones >> bits * (u + 1) << bits * (u + 1) for u in range(n))
    ids = np.arange(n)
    first = np.where(closed == 1, ids, n)
    after = np.full((n, n), n)
    after[:, :-1] = np.minimum.accumulate(first[:, :0:-1], axis=1)[:, ::-1]
    return base, tuple(map(tuple, after.tolist())), unit, above


def prune_tables(g, k_req, l_req) -> tuple[int, list, list, tuple]:
    """(bits, pick, gain, after) for ``set_search_fixed_size`` on g with
    these demands.

    Slack is packed in fields of ``bits`` bits, the smallest of 8, 16, 32
    and 64 whose bias B exceeds 2n + 1 + 2(k_req + l_req) >= |slack + gain|.
    gain[rem][u] holds, biased by B in each field,

    gain[rem][u][v] = [v in N[u]] + min(suf[u+1][v], rem)
                      + (k_req - min(k_req, l_req)) * [v > u] * [rem > 0]
                      - (l_req - k_req) * [v = u],

    where suf[x][v] = |{w in N[v] : w >= x}| (``suffix_counts``). The third
    term lets a vertex above u, which may still join D, ask only the smaller
    demand while picks remain; the last turns u's demand from k_req into
    l_req. The first two terms and ``after`` read only g, so they are
    cached per graph, and the last two are added field-wise as packed ints.
    A closed neighbourhood has at most Δ+1 members, so every layer with rem
    > Δ+1 is the layer Δ+1 list itself. pick[u] is gain[0][u] without its
    bias: picking u adds [v in N[u]] - (l_req - k_req) * [v = u] to the
    slack of each v. after[v][u] is the smallest member of N[v] above u, or
    n if there is none.
    """
    n = g.n
    width = next(w for w in (1, 2, 4, 8) if 2 * n + 1 + 2 * (k_req + l_req) < 1 << (8 * w - 1))
    bits = 8 * width
    base, after, unit, above = _graph_tables(g, width)
    # u's own field asks l_req, not k_req; while picks remain, every field
    # above u asks only min(k_req, l_req)
    own = [-(l_req - k_req) * x for x in unit]
    rest = [x + (k_req - min(k_req, l_req)) * y for x, y in zip(own, above)]
    gain = [[b + d for b, d in zip(base[0], own)]]
    gain += [[b + d for b, d in zip(row, rest)] for row in base[1:]]
    top = len(base) - 1
    gain += [gain[top]] * (n - 1 - top)
    high = _ones(bits, n) << (bits - 1)
    pick = [row - high for row in gain[0]]
    return bits, pick, gain, after
