"""Independent brute-force oracles and shared graph collections for tests.

These deliberately work off plain adjacency lists read from
``Graph.neighbors`` and never call the library's verify/oracle code paths,
so they can serve as ground truth.
"""

from itertools import combinations, product

import numpy as np

from multidom import Graph, cycle, complete, gnp, path, petersen


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
