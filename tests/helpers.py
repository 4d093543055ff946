"""Independent brute-force oracles and shared graph collections for tests.

These deliberately work off plain adjacency lists read from
``Graph.neighbors`` and never call the library's verify/oracle code paths,
so they can serve as ground truth.
"""

from itertools import combinations, product

import numpy as np

from multidom import Graph, cycle, complete, gnp, path, petersen
from multidom.errors import GraphFormatError, ResourceLimitError
from multidom.graph import MAX_VERTICES


def adjacency(g: Graph) -> list[tuple[int, ...]]:
    return [g.neighbors(v) for v in range(g.n)]


def brute_set_number(g: Graph, k_req: int, l_req: int):
    """Minimum size of a set whose closed-neighborhood coverage meets
    k_req outside the set and l_req inside; None if none exists."""
    adj = adjacency(g)
    for t in range(g.n + 1):
        for chosen in combinations(range(g.n), t):
            xs = set(chosen)
            ok = True
            for v in range(g.n):
                cov = sum(1 for u in adj[v] if u in xs) + (1 if v in xs else 0)
                need = l_req if v in xs else k_req
                if cov < need:
                    ok = False
                    break
            if ok:
                return t
    return None


def brute_function_number(g: Graph, caps, demands, open_nbhd: bool = False):
    """Minimum weight over all cap-respecting labelings meeting the demands."""
    adj = adjacency(g)
    best = None
    for vals in product(*(range(c + 1) for c in caps)):
        ok = True
        for v in range(g.n):
            nb = adj[v] if open_nbhd else adj[v] + (v,)
            if sum(vals[u] for u in nb) < demands[v]:
                ok = False
                break
        if ok:
            w = sum(vals)
            if best is None or w < best:
                best = w
    return best


def dense_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) from all n(n-1)/2 draws at once, pairs in np.triu_indices order."""
    draws = np.random.default_rng(seed).random(n * (n - 1) // 2)
    rows, cols = np.triu_indices(n, k=1)
    mask = draws < p
    return Graph(n, np.column_stack((rows[mask], cols[mask])))


def coverage(g: Graph, members: set[int], v: int, closed: bool = True) -> int:
    cov = sum(1 for u in g.neighbors(v) if u in members)
    if closed and v in members:
        cov += 1
    return cov


def acceptance_graphs():
    """The 50 seeded graphs of the acceptance suite."""
    graphs = []
    for i in range(30):
        n = 6 + (i % 9)  # 6..14
        p = (0.25, 0.35, 0.5)[i % 3]
        graphs.append((f"gnp{n}-{p}-{i}", gnp(n, p, seed=100 + i)))
    for n in range(4, 10):
        graphs.append((f"C{n}", cycle(n)))
    for n in range(3, 10):
        graphs.append((f"P{n}", path(n)))
    for n in range(3, 9):
        graphs.append((f"K{n}", complete(n)))
    graphs.append(("petersen", petersen()))
    assert len(graphs) == 50
    return graphs


def small_graphs(max_n: int = 8):
    return [(name, g) for name, g in acceptance_graphs() if g.n <= max_n]


# -- reference implementations kept from before the vectorised versions ------
#
# The graph readers and random_regular's simplicity check as they were written
# line by line in Python. The vectorised code must give the same graph, or the
# same error with the same message and line, on every input.


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"expected integer {what}, got {token!r}", lineno) from None


def _check_vertex_count(n: int, lineno: int | None = None) -> None:
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}", lineno)


def reference_read_edge_list(text: str) -> Graph:
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    declared_n: int | None = None
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n=") and declared_n is None:
                declared_n = _parse_int(body[2:].strip(), lineno, "vertex count")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'u v', got {raw!r}", lineno)
        u = _parse_int(parts[0], lineno, "vertex id")
        v = _parse_int(parts[1], lineno, "vertex id")
        if u < 0 or v < 0:
            raise GraphFormatError("vertex ids must be nonnegative", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(f"duplicate edge ({key[0]},{key[1]})", lineno)
        seen.add(key)
        edges.append(key)
        max_seen = max(max_seen, u, v)
    n = declared_n if declared_n is not None else max_seen + 1
    if n < 1:
        raise GraphFormatError("empty edge list and no '# n=' header")
    _check_vertex_count(n)
    if max_seen >= n:
        raise GraphFormatError(f"vertex id {max_seen} exceeds declared n={n}")
    return Graph(n, edges)


def reference_read_dimacs(text: str) -> Graph:
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError(f"expected 'p edge n m', got {raw!r}", lineno)
            n = _parse_int(parts[2], lineno, "vertex count")
            _check_vertex_count(n, lineno)
            m = _parse_int(parts[3], lineno, "edge count")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError("edge before problem line", lineno)
            if len(parts) != 3:
                raise GraphFormatError(f"expected 'e u v', got {raw!r}", lineno)
            u = _parse_int(parts[1], lineno, "vertex id")
            v = _parse_int(parts[2], lineno, "vertex id")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"vertex id out of range 1..{n}", lineno)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            key = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({u},{v})", lineno)
            seen.add(key)
            edges.append(key)
        else:
            raise GraphFormatError(f"unknown line type {parts[0]!r}", lineno)
    if n is None:
        raise GraphFormatError("missing problem line")
    if m is not None and m != len(edges):
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)}")
    return Graph(n, edges)


def reference_random_regular(n: int, d: int, seed: int, max_attempts: int = 100_000) -> Graph:
    """random_regular with the per-pair Python set check of each attempt."""
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(max_attempts):
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u > v:
                u, v = v, u
            if u == v or (u, v) in edges:
                ok = False
                break
            edges.add((u, v))
        if ok:
            return Graph(n, edges)
    raise ResourceLimitError(
        f"pairing model failed to produce a simple {d}-regular graph "
        f"on {n} vertices in {max_attempts} attempts"
    )


# -- the set-search kernel before its prune tables --------------------------
#
# _kernels.set_search_fixed_size must return the same (status, membership,
# nodes) as this loop on every input, budget stops included.


def reference_set_search(nbrs, suf, t, k_req, l_req, budget):
    """The set search as it was before its prune tables: apply each pick,
    then scan for a vertex that can no longer reach its demand.

    Coverage of v is |N[v] ∩ D|: ``nbrs[u]`` lists the closed neighbourhood
    N[u] in any order (the open CSR row of u with u appended). Vertices in
    D need l_req, vertices outside need k_req. ``suf[x][v]`` counts members
    of N[v] with id >= x: the transpose of ``suffix_counts(g)``.

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
        return (1 if k_req <= 0 else 0), in_d, nodes
    depth = 0
    cand = 0
    while True:
        if depth < t and cand <= n - (t - depth):
            u = cand
            nodes += 1
            if nodes > budget:
                return -1, in_d, nodes
            chosen[depth] = u
            depth += 1
            in_d[u] = True
            for w in nbrs[u]:
                cov[w] += 1
            cand = u + 1
            rem = t - depth
            # Admissible prune: even if all remaining picks landed inside
            # N[v], v could not reach its (best-case) demand. Picks ascend,
            # so every member is <= u and a vertex above u may still join
            # D: it needs only min(k_req, l_req).
            row = suf[cand]
            prune = False
            for v in range(cand):
                avail = row[v]
                if avail > rem:
                    avail = rem
                if cov[v] + avail < (l_req if in_d[v] else k_req):
                    prune = True
                    break
            if not prune:
                for v in range(cand, n):
                    avail = row[v]
                    if avail > rem:
                        avail = rem
                    if cov[v] + avail < min_req:
                        prune = True
                        break
            if not prune:
                continue
        elif depth == t:
            for v in range(n):
                if cov[v] < (l_req if in_d[v] else k_req):
                    break
            else:
                return 1, in_d, nodes
        elif depth == 0:
            return 0, in_d, nodes
        # a full set that fails, no candidate left, or a pruned pick: drop
        # the last pick u and go on from u + 1
        depth -= 1
        u = chosen[depth]
        in_d[u] = False
        for w in nbrs[u]:
            cov[w] -= 1
        cand = u + 1
