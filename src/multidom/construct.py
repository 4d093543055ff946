"""Randomized constructions of dominating functions and sets.

These execute the probabilistic arguments behind the closed-form bounds:
draw a random labeling/set with the bound's selection probability, classify
the deficient vertices through the restricted neighborhoods N', repair
deterministically, and verify the witness against the full neighborhoods.
Every trial yields a valid witness; trials stop early once one meets the
ceiling of the applicable bound, otherwise the best valid witness is
returned with met_target=False (the bound only holds in expectation).

Where the paper's construction does not apply, the witness that feasibility
guarantees (verify._guaranteed_witness, the one feasibility checks) is
returned against the trivial bound, with a note naming the failed
condition.

A capped trial draws its r x n uniforms in chunks of at most
TRIAL_BLOCK_CELLS cells and finds the short vertices with array passes over
n; Python then walks only those, class by class, keeping each repair c_m as
a dict of the vertices it touches, and one scatter adds the max over the
classes. None of its arrays grows with the demand s, and its Python work
grows with the short vertices, not with n.

Trials are independent given per-trial seeds derived from (seed, index);
the winner is the lowest index meeting the target. The trials run in
blocks: trial 0 alone, as it meets the target on most instances, then
blocks of 1, 2, 4, ... trials, each as large as all the trials before it
and at most TRIAL_BLOCK_CELLS cells, so the trials drawn past the stopping
one never outnumber those used. A block draws one row per trial from that
trial's own generator, patches the rows of a set construction in array
passes (the capped repair and the member completion run row by row over
their short vertices) and checks every row against the full
neighbourhoods with one coverage call.
The rows are then taken in index order, exactly as single trials were:
the blocks change no witness, weight, trace or note, and the rows past the
stopping trial are discarded unread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Sequence

import numpy as np

from .bounds import RSParams, ParametricParams
from .errors import MultidomError, _integer
from .graph import Graph, coverage
from .verify import DominationSpec, VertexFunction, _guaranteed_witness, _rows_valid, _witness_dict

# A block of trials holds at most this many cells, trials x (n + 2m): the
# closed neighbourhood sums of a row gather n + 2m labels, and n + 2m is at
# least n(delta + 1), the restricted-neighbourhood cells N' of a row. So a
# block's arrays stay within 2**18 entries (2 MB of int64) however many
# trials are asked for, unless one trial alone needs more. Every row is
# drawn from its own trial's generator, so the block sizes change no seeded
# output.
TRIAL_BLOCK_CELLS = 2**18


@dataclass(frozen=True)
class ConstructionResult:
    witness: VertexFunction | tuple[int, ...]
    weight: int
    trials: int
    trial_index: int
    seed: int
    target: float
    met_target: bool
    params: dict
    notes: tuple[str, ...]
    weight_trace: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        out = {
            "witness": _witness_dict(self.witness),
            "weight": self.weight,
            "trials": self.trials,
            "trial_index": self.trial_index,
            "seed": self.seed,
            "target": self.target,
            "met_target": self.met_target,
            "params": self.params,
            "notes": list(self.notes),
        }
        if self.weight_trace is not None:
            out["weight_trace"] = list(self.weight_trace)
        return out


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    # the PCG64 stream of SeedSequence((seed, index)), seeded without the wrapper
    return np.random.default_rng((seed, index))


def _construct(
    g: Graph, spec: DominationSpec, seed: int, max_trials: int, collect_trace: bool
) -> ConstructionResult:
    """Run the spec's plan: draw trials in index order, check each against
    the full neighbourhoods, stop at the first whose weight meets
    ceil(target) and keep the lightest.

    A plan's draw maps a list of generators to a (T, n) int64 array, one
    row per trial, and the notes of each row."""
    seed = _integer(seed, "seed", 0)
    max_trials = _integer(max_trials, "max_trials", 1)
    spec.check_feasible(g)  # once; the trials are checked without repeating it
    plan = _parametric_plan if spec.is_set_variant else _capped_plan
    params, notes, target, draw = plan(g, spec)
    threshold = math.ceil(target)
    cap = max(1, TRIAL_BLOCK_CELLS // (g.n + 2 * g.m))
    trace: list[int] = []
    best = None  # (weight, index, row, notes)
    start = 0
    while start < max_trials:
        # a block holds as many trials as ran before it: trial 0 alone, then
        # 1, 2, 4, ... up to the cell cap
        stop = min(max_trials, start + min(max(start, 1), cap))
        rows, row_notes = draw([_trial_rng(seed, i) for i in range(start, stop)])
        valid = _rows_valid(g, spec, rows)
        for j, weight in enumerate(rows.sum(axis=1).tolist()):
            if not valid[j]:
                raise MultidomError(f"internal: trial {start + j} failed verification")
            trace.append(weight)
            if best is None or weight < best[0]:
                best = (weight, start + j, rows[j], row_notes[j])
            if weight <= threshold:
                break
        if trace[-1] <= threshold:
            break
        start = stop
    weight, index, row, trial_notes = best
    if spec.is_set_variant:
        witness = tuple(np.flatnonzero(row).tolist())
    else:
        witness = VertexFunction(row)
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


def _fixed(row: np.ndarray):
    """A draw that gives every trial the same int64 row."""
    return lambda rngs: (np.tile(row, (len(rngs), 1)), [()] * len(rngs))


def _witness_plan(g: Graph, spec: DominationSpec, why: str):
    """The plan for a spec the paper's construction does not cover: the
    witness feasibility guarantees, the (l-1)-core of a set variant or the
    all-caps function, against the trivial bound it always meets."""
    row = _guaranteed_witness(g, spec)
    if spec.is_set_variant:
        target, what = float(g.n), f"the {spec.requirements()[1] - 1}-core"
    else:
        target, what = float(row.sum()), "the all-caps function"
    notes = [f"{why}; returned {what}, the witness feasibility guarantees"]
    return {"delta": g.min_degree}, notes, target, _fixed(row)


def _restricted(g: Graph) -> np.ndarray:
    """Row v holds the open N'(v) ascending: the min_degree lowest-indexed
    neighbours of v, the first entries of its CSR row. The closed N'(v)
    adds v itself. The (n, delta) array is the transpose of a C-ordered
    (delta, n) one, so ``take`` through ``restricted.T`` gathers a
    C-contiguous block that sums over its first axis at full speed."""
    indptr, indices = g.csr()
    return indices.take(np.arange(g.min_degree)[:, None] + indptr[:-1]).T


# -- capped-function construction (closed and open variants) --------------------


def _capped_trial(
    restricted: np.ndarray,
    closed: bool,
    r: int,
    s: int,
    p: float,
    rng: np.random.Generator,
    debug: dict | None = None,
) -> np.ndarray:
    """One randomized trial: cap indicator draws, deficiency classes, repair.

    Returns labels f(v) = a(v) + max_m c_m(v) <= r with every restricted
    neighborhood (the open rows of ``_restricted``, plus v iff closed)
    summing to at least s, hence valid for the full sums too. Only the
    classes C_m that occur, m < s, are repaired: classes in ascending m,
    members in ascending index, each patch placed greedily over N'(v) in
    ascending order. Python walks the short vertices alone; each class
    keeps its c_m as a dict of the vertices it touches.
    """
    n = len(restricted)
    # (r, n) uniforms in row chunks of at most TRIAL_BLOCK_CELLS cells: the doubles of one draw
    a = np.zeros(n, dtype=np.int64)
    rows = max(1, TRIAL_BLOCK_CELLS // n)
    for start in range(0, r, rows):
        a += (rng.random((min(rows, r - start), n)) < p).sum(axis=0)
    msum = a.take(restricted.T).sum(axis=0)
    if closed:
        msum += a
    short = np.flatnonzero(msum < s)
    short = short[np.argsort(msum[short], kind="stable")]  # by (m, index): trials reproduce
    nbrs = restricted[short]
    if closed:
        nbrs = np.sort(np.column_stack((nbrs, short)), axis=1)
    top: dict[int, int] = {}  # max over the classes of c_m(u), where positive
    if debug is not None:
        debug["class_sizes"], debug["repair_weights"] = {}, {}
    members = zip(msum[short].tolist(), short.tolist(), nbrs.tolist(), (r - a)[nbrs].tolist())
    for m, group in groupby(members, key=itemgetter(0)):
        cm: dict[int, int] = {}
        size = 0
        for _, v, nb, room in group:
            size += 1
            cur = sum([cm.get(u, 0) for u in nb])
            if cur >= s - m:
                continue  # enough repair mass already placed here
            need = s - m - cur
            # spare capacity in N'(v) is (slots*r - m) - cur = need + theta > 0
            if sum(room) - cur < need:
                raise MultidomError(f"internal: spare-capacity argument violated at vertex {v}")
            for u, spare in zip(nb, room):
                take = min(spare - cm.get(u, 0), need)
                if take <= 0:
                    continue
                cm[u] = cm.get(u, 0) + take
                need -= take
                if need == 0:
                    break
            # need is 0 here: cm[u] <= room[u] on distinct nb, so sum(room) - cur >= need all fit
        for u, c in cm.items():
            if c > top.get(u, 0):
                top[u] = c
        if debug is not None:
            debug["class_sizes"][m] = size
            debug["repair_weights"][m] = sum(cm.values())
    if top:
        a[list(top)] += list(top.values())
    return a


def _capped_plan(g: Graph, spec: DominationSpec):
    """(params, notes, target, draw) of the capped-function construction."""
    delta = g.min_degree
    closed = not spec.uses_open_neighborhoods
    tau, s, _ = spec.cap_summary(g.n)
    if s < 1:
        zero = _fixed(np.zeros(g.n, dtype=np.int64))
        return {"p": 0.0, "delta": delta}, ["all demands are zero"], 0.0, zero
    if not closed and delta < 1:
        return _witness_plan(g, spec, "total construction needs delta >= 1")
    params = RSParams.derive(tau, s, delta, closed)
    target = params.strong_target(g.n)  # bound_rs, or bound_total_rs when open
    if target is None:  # s >= 1 here, so the gate failed on r > tau
        return _witness_plan(
            g, spec, f"derived uniform cap r={params.r} exceeds min cap tau={params.tau}"
        )
    p = params.p
    notes: list[str] = []
    if p == 0.0:
        notes.append("selection probability clamped to 0; the repair step does all the work")
    restricted = _restricted(g)

    def draw(rngs: list[np.random.Generator]):
        rows = [_capped_trial(restricted, closed, params.r, params.s, p, rng) for rng in rngs]
        return np.array(rows), [()] * len(rngs)

    return ({"delta": delta, "r": params.r, "s": params.s, "theta": params.theta,
             "p": p, "p_clamped": p == 0.0}, notes, target, draw)


def construct_rs(
    g: Graph,
    r_vec: Sequence[int],
    s_vec: Sequence[int],
    seed: int,
    max_trials: int = 100,
    *,
    collect_trace: bool = False,
) -> ConstructionResult:
    """Randomized construction of a demand-dominating capped function."""
    return _construct(g, DominationSpec.rs(r_vec, s_vec), seed, max_trials, collect_trace)


def construct_total_rs(
    g: Graph,
    r_vec: Sequence[int],
    s_vec: Sequence[int],
    seed: int,
    max_trials: int = 100,
    *,
    collect_trace: bool = False,
) -> ConstructionResult:
    """Open-neighborhood (total) variant of construct_rs."""
    return _construct(g, DominationSpec.total_rs(r_vec, s_vec), seed, max_trials, collect_trace)


# -- (k,l) set construction ------------------------------------------------------


def _parametric_block(
    g: Graph,
    restricted: np.ndarray,
    k: int,
    l: int,
    p: float,
    rngs: list[np.random.Generator],
    debug: list | None = None,
) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """Trials of the (k,l) set construction, one row per generator: the
    random set A, the deficiency classes and the patches; returns the 0/1
    rows of D and the notes of each row.

    A member v of A with m = |N'(v) ∩ A| <= l-2 is patched with the first
    l-1-m vertices of N'(v) - A in ascending order, a non-member with
    m <= k-1 with the first k-m. The candidates depend only on A, so a
    running count over N'(v) - A picks every patch of every row in one
    pass. delta >= max(k, l-1) guarantees enough of them; a short count
    raises MultidomError, since the block check reads the full N[v] and
    could pass a vertex whose patch from N'(v) fell short.
    """
    in_a = np.array([rng.random(g.n) for rng in rngs]) < p
    slots = in_a.take(restricted.T, axis=1)  # slots[t, j, v]: is the j-th vertex of N'(v) in A
    msum = slots.sum(axis=1)
    take = np.where(in_a, l - 1, k) - msum  # > 0 exactly at the short vertices
    t, v = (take > 0).nonzero()
    x = in_a.astype(np.int64)  # rows: indicators of D
    picked = np.zeros((0, restricted.shape[1]), dtype=bool)
    if t.size:
        outside = ~slots.transpose(0, 2, 1)[t, v]  # one row per short vertex
        picked = outside & (outside.cumsum(axis=1) <= take[t, v][:, None])
        short_of = picked.sum(axis=1) < take[t, v]
        if short_of.any():
            raise MultidomError(
                f"internal: not enough patch candidates in N'({v[short_of.argmax()]}) - A"
            )
        short, j = picked.nonzero()
        x[t[short], restricted[v[short], j]] = 1
    notes: list[tuple[str, ...]] = [()] * len(rngs)
    if l >= k + 2:
        for row, completed in enumerate(x):
            rounds = _complete_members(g, restricted, l, completed)
            if rounds:
                notes[row] = (f"member coverage completion ran {rounds} round(s)",)
    if debug is not None:
        for row in range(len(rngs)):
            mine = t == row
            debug.append(_patch_accounting(
                restricted, in_a[row], msum[row], v[mine], picked[mine]))
    return x, notes


def _complete_members(g: Graph, restricted: np.ndarray, l: int, x: np.ndarray) -> int:
    """Vertices pulled into D by a patch only carry the non-member
    guarantee of k; top up their coverage to the member demand l, in
    place on the 0/1 row x. Returns the number of rounds that ran."""
    rounds = 0
    while True:
        cov = coverage(g, x, closed=True)
        deficient = np.flatnonzero((x == 1) & (cov < l)).tolist()
        if not deficient:
            return rounds
        rounds += 1
        for v in deficient:
            need = l - int(cov[v])
            for u in restricted[v].tolist():
                if need == 0:
                    break
                if not x[u]:
                    x[u] = 1
                    need -= 1


def _patch_accounting(restricted, in_a, msum, short, picked) -> dict:
    """Sizes of one row's deficiency classes A_m, B_m and of their patches
    A'_m, B'_m (the union of the patches of a class's vertices), from the
    row's short vertices and the patch each picked from its N'."""
    out = {}
    for name, side in (("a", in_a[short]), ("b", ~in_a[short])):
        classes = msum[short[side]]
        patches = [restricted[u][mask] for u, mask in zip(short[side], picked[side])]
        out[f"{name}_class_sizes"] = {}
        out[f"{name}_patch_sizes"] = {}
        for m in np.unique(classes).tolist():
            members = np.flatnonzero(classes == m)
            out[f"{name}_class_sizes"][m] = len(members)
            union = set().union(*(patches[i].tolist() for i in members))
            out[f"{name}_patch_sizes"][m] = len(union)
    return out


def _parametric_plan(g: Graph, spec: DominationSpec):
    """(params, notes, target, draw) of the (k,l) set construction."""
    k, l = spec.requirements()
    delta = g.min_degree
    params = ParametricParams.derive(k, l, delta)
    if delta < params.phi:
        return _witness_plan(
            g, spec, f"construction needs min degree >= max(k, l-1) = {params.phi}, got {delta}"
        )
    p = params.p_phi
    notes: list[str] = []
    if params.delta_bar == 0:
        # delta == max(k, l-1): the zero-margin limit of the formula
        notes.append(
            "selection probability taken as the zero-margin limit of the formula"
        )
    target = params.strong_target(g.n)
    if target is None:
        target = float(g.n)
        notes.append("no strong bound applicable; target set to the trivial bound n")
    restricted = _restricted(g)
    return (
        {"delta": delta, "k": k, "l": l, "phi": params.phi, "p": p}, notes, target,
        lambda rngs: _parametric_block(g, restricted, k, l, p, rngs),
    )


def construct_parametric(
    g: Graph,
    k: int,
    l: int,
    seed: int,
    max_trials: int = 100,
    *,
    collect_trace: bool = False,
) -> ConstructionResult:
    """Randomized construction of a (k,l)-dominating set."""
    return _construct(g, DominationSpec.parametric(k, l), seed, max_trials, collect_trace)
