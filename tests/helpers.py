"""Independent brute-force oracles and shared graph collections for tests.

These deliberately work off plain adjacency lists read from
``Graph.neighbors`` and never call the library's verify/oracle code paths,
so they can serve as ground truth.
"""

from itertools import combinations, product

import numpy as np

import math

from multidom import Graph, cycle, complete, gnp, path, petersen
from multidom.bounds import (
    ParametricParams,
    RSParams,
    bound_parametric,
    bound_parametric_alt,
    bound_rs,
    bound_total_rs,
)
from multidom.construct import TRIAL_BLOCK_CELLS, ConstructionResult
from multidom.errors import GraphFormatError, MultidomError, ResourceLimitError
from multidom.graph import MAX_VERTICES
from multidom.graph import coverage as graph_coverage
from multidom.verify import DominationSpec, VertexFunction, _core, verify_function, verify_set


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
    if len(graphs) != 50:
        raise AssertionError(f"acceptance_graphs built {len(graphs)} graphs, not 50")
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


# -- the function-search kernel before packed fields -------------------------
#
# _kernels.function_search_min_weight must return the same (status,
# best_weight, best_values, nodes) as this loop on every input, budget stops
# included. Copied verbatim from the list kernel it replaced.


def reference_function_search(nbrs, caps, demands, cap_un, budget, best_init):
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


# -- the construction before trial blocks ------------------------------------
#
# The trial loop, plans and trials of multidom.construct as they were when
# each trial ran on its own: a Python loop placed each patch and verify_set
# or verify_function checked each witness. Copied verbatim, except that
# graph.coverage is called graph_coverage here, since this module's
# coverage is the brute-force one. The block construction must give the
# same ConstructionResult, trace included, on every input.


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _construct(
    g: Graph, spec: DominationSpec, seed: int, max_trials: int, collect_trace: bool
) -> ConstructionResult:
    """Run the spec's plan: draw trials in index order, verify each, stop at
    the first whose weight meets ceil(target) and keep the lightest."""
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if max_trials < 1:
        raise ValueError("max_trials must be >= 1")
    spec.check_feasible(g)  # once; the trials verify without repeating it
    plan = _parametric_plan if spec.is_set_variant else _capped_plan
    params, notes, target, draw = plan(g, spec)
    verify = verify_set if spec.is_set_variant else verify_function
    threshold = math.ceil(target)
    trace: list[int] = []
    best = None  # (weight, index, witness, notes)
    for i in range(max_trials):
        witness, trial_notes = draw(_trial_rng(seed, i))
        report = verify(g, spec, witness)
        if not report.valid:
            raise MultidomError(f"internal: trial {i} failed verification")
        trace.append(report.weight)
        if best is None or report.weight < best[0]:
            best = (report.weight, i, witness, trial_notes)
        if report.weight <= threshold:
            break
    weight, index, witness, trial_notes = best
    return ConstructionResult(
        witness=witness,
        weight=weight,
        trials=len(trace),
        trial_index=index,
        seed=seed,
        target=target,
        met_target=weight <= threshold,
        params=params,
        notes=tuple(notes) + trial_notes,
        weight_trace=tuple(trace) if collect_trace else None,
    )


def _witness_plan(g: Graph, spec: DominationSpec, why: str):
    """The plan for a spec the paper's construction does not cover: the
    witness feasibility guarantees, the (l-1)-core of a set variant or the
    all-caps function, against the trivial bound it always meets."""
    if spec.is_set_variant:
        l = spec.requirements()[1]
        witness = tuple(np.flatnonzero(_core(g, l - 1)).tolist())
        target, what = float(g.n), f"the {l - 1}-core"
    else:
        caps = spec.vectors(g.n)[0]
        witness = VertexFunction(caps)
        target, what = float(sum(caps)), "the all-caps function"
    notes = [f"{why}; returned {what}, the witness feasibility guarantees"]
    return {"delta": g.min_degree}, notes, target, lambda rng: (witness, ())


def _restricted(g: Graph, closed: bool) -> np.ndarray:
    """Row v holds N'(v) ascending: the min_degree lowest-indexed
    neighbours of v (the first entries of its CSR row), plus v iff closed."""
    indptr, indices = g.csr()
    picked = indices[indptr[:-1, None] + np.arange(g.min_degree)]
    if closed:
        return np.sort(np.column_stack((picked, np.arange(g.n))), axis=1)
    return picked


# -- capped-function construction (closed and open variants) --------------------


def _clamped_p(log_inner: float, theta: int) -> tuple[float, bool]:
    """p = 1 - (r/((1+theta) B_{s-1}))^(1/theta), clamped into [0, 1].

    p <= 0 happens on tiny graphs; the trial then degenerates to a = 0 and
    the repair step does all the work, which is still valid.
    """
    p = 1.0 - math.exp(log_inner / theta)
    clamped = p <= 0.0
    return (0.0 if clamped else min(p, 1.0)), clamped


def _capped_trial(
    restricted: np.ndarray,
    n: int,
    cap: int,
    s: int,
    theta: int,
    p: float,
    rng: np.random.Generator,
    debug: dict | None = None,
) -> np.ndarray:
    """One randomized trial: cap indicator draws, deficiency classes, repair.

    Returns labels f(v) = a(v) + max_m c_m(v) <= cap with every restricted
    neighborhood summing to at least s, hence valid for the full sums too.
    """
    a = (rng.random((cap, n)) < p).sum(axis=0).astype(np.int64)
    msum = a[restricted].sum(axis=1)
    room = (cap - a).tolist()
    repairs = np.zeros((s, n), dtype=np.int64)
    for m in range(s):
        cm = [0] * n
        members = np.flatnonzero(msum == m).tolist()  # ascending keeps trials reproducible
        for v in members:
            nb = restricted[v].tolist()
            cur = sum(cm[u] for u in nb)
            if cur >= s - m:
                continue  # enough repair mass already placed here
            need = s - m - cur
            # spare capacity in N'(v) is (slots*cap - m) - cur = need + theta > 0
            if sum(room[u] - cm[u] for u in nb) < need:
                raise MultidomError(f"internal: spare-capacity argument violated at vertex {v}")
            for u in nb:
                take = min(room[u] - cm[u], need)
                if take <= 0:
                    continue
                cm[u] += take
                need -= take
                if need == 0:
                    break
            if need:
                raise MultidomError(f"internal: repair at vertex {v} left {need} unplaced")
        repairs[m] = cm
        if debug is not None:
            debug.setdefault("class_sizes", {})[m] = len(members)
            debug.setdefault("repair_weights", {})[m] = sum(cm)
    return a + (repairs.max(axis=0) if s > 0 else 0)


def _capped_plan(g: Graph, spec: DominationSpec):
    """(params, notes, target, draw) of the capped-function construction."""
    delta = g.min_degree
    closed = not spec.uses_open_neighborhoods
    tau, s, cap_sum = spec.cap_summary(g.n)
    if s < 1:
        zero = VertexFunction((0,) * g.n)
        return {"p": 0.0, "delta": delta}, ["all demands are zero"], 0.0, lambda rng: (zero, ())
    if not closed and delta < 1:
        return _witness_plan(g, spec, "total construction needs delta >= 1")
    params = RSParams.derive(tau, s, delta, closed)
    if params.r > params.tau:
        return _witness_plan(
            g, spec, f"derived uniform cap r={params.r} exceeds min cap tau={params.tau}"
        )
    notes: list[str] = []
    log_inner = math.log(params.r) - math.log1p(params.theta) - params.log_b
    p, clamped = _clamped_p(log_inner, params.theta)
    if clamped:
        notes.append("selection probability clamped to 0; the repair step does all the work")
    target = (bound_rs if closed else bound_total_rs)(tau, s, cap_sum, delta, g.n).absolute
    restricted = _restricted(g, closed)

    def draw(rng: np.random.Generator):
        vals = _capped_trial(restricted, g.n, params.r, params.s, params.theta, p, rng)
        return VertexFunction(vals.tolist()), ()

    return ({"delta": delta, "r": params.r, "s": params.s, "theta": params.theta,
             "p": p, "p_clamped": clamped}, notes, target, draw)


# -- (k,l) set construction ------------------------------------------------------


def _parametric_trial(
    g: Graph,
    restricted: np.ndarray,
    k: int,
    l: int,
    p: float,
    rng: np.random.Generator,
    debug: dict | None = None,
) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """One randomized trial: the random set A, the deficiency classes, the
    patches; returns the members of D in ascending order."""
    n = g.n
    in_a = rng.random(n) < p
    msum = in_a[restricted].sum(axis=1)
    x = in_a.astype(np.int64)  # indicator of D
    a_patches: dict[int, set[int]] = {}
    b_patches: dict[int, set[int]] = {}
    a_sizes: dict[int, int] = {}
    b_sizes: dict[int, int] = {}
    # members of A short of l-1 and non-members short of k; the rest need no patch
    short = np.where(in_a, msum <= l - 2, msum <= k - 1)
    for v in np.flatnonzero(short).tolist():
        m = int(msum[v])
        if in_a[v]:
            take = l - m - 1
            bucket, sizes = a_patches, a_sizes
        else:
            take = k - m
            bucket, sizes = b_patches, b_sizes
        sizes[m] = sizes.get(m, 0) + 1
        nb = restricted[v]
        picked = nb[~in_a[nb]][:take]
        # delta >= max(k, l-1) guarantees enough candidates outside A
        if len(picked) < take:
            raise MultidomError(f"internal: not enough patch candidates in N'({v}) - A")
        bucket.setdefault(m, set()).update(picked.tolist())
        x[picked] = 1
    notes: tuple[str, ...] = ()
    if l >= k + 2:
        # Vertices pulled into D by a patch only carry the non-member
        # guarantee of k; top up their coverage to the member demand l.
        rounds = 0
        while True:
            cov = graph_coverage(g, x, closed=True)
            deficient = np.flatnonzero((x == 1) & (cov < l)).tolist()
            if not deficient:
                break
            rounds += 1
            for v in deficient:
                need = l - int(cov[v])
                for u in restricted[v].tolist():
                    if need == 0:
                        break
                    if not x[u]:
                        x[u] = 1
                        need -= 1
        if rounds:
            notes = (f"member coverage completion ran {rounds} round(s)",)
    if debug is not None:
        debug["a_class_sizes"] = a_sizes
        debug["b_class_sizes"] = b_sizes
        debug["a_patch_sizes"] = {m: len(s) for m, s in a_patches.items()}
        debug["b_patch_sizes"] = {m: len(s) for m, s in b_patches.items()}
    return tuple(np.flatnonzero(x).tolist()), notes


def _parametric_plan(g: Graph, spec: DominationSpec):
    """(params, notes, target, draw) of the (k,l) set construction."""
    k, l = spec.requirements()
    delta = g.min_degree
    phi = max(k, l - 1)
    if delta < phi:
        return _witness_plan(
            g, spec, f"construction needs min degree >= max(k, l-1) = {phi}, got {delta}"
        )
    params = ParametricParams.derive(k, l, delta)
    notes: list[str] = []
    if params.delta_bar >= 1:
        p = 1.0 - math.exp(
            -(math.log1p(params.delta_bar) + params.log_b_phi) / params.delta_bar
        )
    else:
        # delta == max(k, l-1): take the formula's limit as the margin
        # shrinks to zero, which is 1 - 1/e for b_{phi-1} = 1 and 1 otherwise
        p = 1.0 - math.exp(-1.0) if params.log_b_phi == 0.0 else 1.0
        notes.append(
            "selection probability taken as the zero-margin limit of the formula"
        )
    candidates = [
        r.absolute
        for r in (
            bound_parametric(k, l, delta, g.n),
            bound_parametric_alt(k, l, delta, g.n),
        )
        if r.applicable
    ]
    if candidates:
        target = min(candidates)
    else:
        target = float(g.n)
        notes.append("no strong bound applicable; target set to the trivial bound n")
    restricted = _restricted(g, closed=False)
    return (
        {"delta": delta, "k": k, "l": l, "phi": phi, "p": p}, notes, target,
        lambda rng: _parametric_trial(g, restricted, k, l, p, rng),
    )


reference_construct = _construct


# -- the capped repair that ran row by row over all n vertices ---------------------
#
# multidom.construct._capped_trial as it was before its repair walked only
# the short vertices: copied verbatim under a new name, taking the closed
# N' rows of _restricted(g, closed=True) above when closed. The current
# trial must give the same labels, debug dict and errors on every input.


def rowwise_capped_trial(
    restricted: np.ndarray,
    r: int,
    s: int,
    p: float,
    rng: np.random.Generator,
    debug: dict | None = None,
) -> np.ndarray:
    """One randomized trial: cap indicator draws, deficiency classes, repair.

    Returns labels f(v) = a(v) + max_m c_m(v) <= r with every restricted
    neighborhood summing to at least s, hence valid for the full sums too.
    Only the classes C_m that occur, m < s, are repaired, in ascending m.
    """
    n = len(restricted)
    # (r, n) uniforms in row chunks of at most TRIAL_BLOCK_CELLS cells: the doubles of one draw
    a = np.zeros(n, dtype=np.int64)
    rows = max(1, TRIAL_BLOCK_CELLS // n)
    for start in range(0, r, rows):
        a += (rng.random((min(rows, r - start), n)) < p).sum(axis=0)
    msum = a[restricted].sum(axis=1)
    room = (r - a).tolist()
    top = np.zeros(n, dtype=np.int64)
    if debug is not None:
        debug["class_sizes"], debug["repair_weights"] = {}, {}
    for m in sorted(set(msum[msum < s].tolist())):
        cm = [0] * n
        members = np.flatnonzero(msum == m).tolist()  # ascending keeps trials reproducible
        for v in members:
            nb = restricted[v].tolist()
            cur = sum(cm[u] for u in nb)
            if cur >= s - m:
                continue  # enough repair mass already placed here
            need = s - m - cur
            # spare capacity in N'(v) is (slots*r - m) - cur = need + theta > 0
            if sum(room[u] - cm[u] for u in nb) < need:
                raise MultidomError(f"internal: spare-capacity argument violated at vertex {v}")
            for u in nb:
                take = min(room[u] - cm[u], need)
                if take <= 0:
                    continue
                cm[u] += take
                need -= take
                if need == 0:
                    break
            if need:
                raise MultidomError(f"internal: repair at vertex {v} left {need} unplaced")
        np.maximum(top, cm, out=top)
        if debug is not None:
            debug["class_sizes"][m] = len(members)
            debug["repair_weights"][m] = sum(cm)
    return a + top


# -- bound_rv's coefficient and the grid minimum as they were -------------------
#
# The rv coefficient summed every factorial term, and _grid_minimum built its
# whole np.arange grid at once; both copied verbatim under new names. The
# current code must give the same floats bit for bit.


def reference_rv_coefficient(k: int, delta: int) -> float:
    total = k * math.log(delta + 1) / (delta + 1)
    for i in range(k):
        total += (k - i) / (math.factorial(i) * (delta + 1) ** (k - i))
    return total


def reference_grid_minimum(k: int, delta: int) -> tuple[float, float]:
    """(c, value) minimizing the threshold coefficient over feasible c."""
    step = 1e-3
    hi = (delta + 1) / k
    cs = np.arange(1.0 + step, hi + step / 2, step)
    cs = cs[cs <= hi]
    if cs.size == 0:
        cs = np.array([hi])
    vals = (cs / (delta + 1) + np.exp(-0.5 * k * (cs + 1.0 / cs - 2.0))) * k
    i = int(np.argmin(vals))
    return float(cs[i]), float(vals[i])


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def reference_real_roots_monic(b: float, c: float, d: float) -> list[float]:
    """Real roots of x^3 + b x^2 + c x + d, ascending, Newton-polished: the
    general cubic solver with every branch, kept as the reference for the
    tuner's solver fitted to its one cubic."""
    p = c - b * b / 3.0
    q = d - b * c / 3.0 + 2.0 * b ** 3 / 27.0
    if p == 0.0:
        roots = [_cbrt(-q)]
    else:
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
        if disc > 0.0:
            s = math.sqrt(disc)
            roots = [_cbrt(-q / 2.0 + s) + _cbrt(-q / 2.0 - s)]
        elif disc == 0.0:
            r = 3.0 * q / p
            roots = [r, -r / 2.0]
        else:
            arg = (3.0 * q / (2.0 * p)) * math.sqrt(-3.0 / p)
            arg = max(-1.0, min(1.0, arg))
            t = 2.0 * math.sqrt(-p / 3.0)
            s = math.acos(arg) / 3.0
            u = 2.0 * math.pi / 3.0
            roots = [t * math.cos(s - u * i) for i in range(3)]
    out = []
    for r in roots:
        x = r - b / 3.0
        for _ in range(3):  # one polish pass is enough; extras cost nothing
            f = ((x + b) * x + c) * x + d
            fp = (3.0 * x + 2.0 * b) * x + c
            if fp == 0.0:
                break
            step = f / fp
            x -= step
            if abs(step) <= 1e-15 * max(1.0, abs(x)):
                break
        out.append(x)
    out.sort()
    dedup: list[float] = []
    for x in out:
        if not dedup or abs(x - dedup[-1]) > 1e-9 * max(1.0, abs(x)):
            dedup.append(x)
    return dedup
