"""Randomized constructions of dominating functions and sets.

These execute the probabilistic arguments behind the closed-form bounds:
draw a random labeling/set with the bound's selection probability, classify
the deficient vertices through the restricted neighborhoods N', repair
deterministically, and verify the witness against the full neighborhoods.
Every trial yields a valid witness; trials stop early once one meets the
ceiling of the applicable bound, otherwise the best valid witness is
returned with met_target=False (the bound only holds in expectation).

Trials are independent given per-trial seeds derived from (seed, index);
they run in index order and the winner is the lowest index meeting the
target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import (
    RSParams,
    ParametricParams,
    bound_parametric,
    bound_parametric_alt,
    bound_rs,
    bound_total_rs,
)
from .errors import InfeasibleSpecError, MultidomError
from .graph import Graph, coverage
from .verify import DominationSpec, VertexFunction, verify_function, verify_set


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
        w = (
            {"set": list(self.witness)}
            if isinstance(self.witness, tuple)
            else {"values": list(self.witness.values)}
        )
        out = {
            "witness": w,
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
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _check_seed(seed: int, max_trials: int) -> None:
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if max_trials < 1:
        raise ValueError("max_trials must be >= 1")


def _run_trials(
    trial_fn: Callable[[int, np.random.Generator], tuple[object, int, tuple[str, ...]]],
    seed: int,
    max_trials: int,
    threshold: int,
):
    """Evaluate trials in index order; stop at the first one meeting threshold."""
    trace: list[int] = []
    best = None  # (weight, index, witness, notes)
    met_index = None
    for i in range(max_trials):
        witness, wt, notes = trial_fn(i, _trial_rng(seed, i))
        trace.append(wt)
        if best is None or wt < best[0]:
            best = (wt, i, witness, notes)
        if wt <= threshold:
            met_index = i
            break
    return best, met_index, trace


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


def _construct_capped(
    g: Graph,
    r_vec: Sequence[int],
    s_vec: Sequence[int],
    seed: int,
    max_trials: int,
    collect_trace: bool,
    total: bool,
) -> ConstructionResult:
    _check_seed(seed, max_trials)
    spec = DominationSpec.total_rs(r_vec, s_vec) if total else DominationSpec.rs(r_vec, s_vec)
    spec.check_feasible(g)  # once; the trials verify without repeating it
    delta = g.min_degree
    notes: list[str] = []
    if total and delta < 1:
        raise InfeasibleSpecError("total construction needs delta >= 1")
    tau, s, cap_sum = spec.cap_summary(g.n)
    params = RSParams.derive(tau, s, delta, closed=not total)
    target_report = (bound_total_rs if total else bound_rs)(tau, s, cap_sum, delta, g.n)
    if params.r > params.tau:
        raise InfeasibleSpecError(
            f"derived uniform cap r={params.r} exceeds min cap tau={params.tau}"
        )
    if params.s < 1:
        zero = VertexFunction((0,) * g.n)
        return ConstructionResult(
            zero, 0, 1, 0, seed, 0.0, True,
            {"p": 0.0, "delta": delta}, ("all demands are zero",),
            (0,) if collect_trace else None,
        )
    log_inner = math.log(params.r) - math.log1p(params.theta) - params.log_b
    p, clamped = _clamped_p(log_inner, params.theta)
    if clamped:
        notes.append("selection probability clamped to 0; the repair step does all the work")
    target = target_report.absolute
    threshold = math.ceil(target)
    restricted = _restricted(g, closed=not total)

    def trial(i: int, rng: np.random.Generator):
        vals = _capped_trial(restricted, g.n, params.r, params.s, params.theta, p, rng)
        f = VertexFunction(vals.tolist())
        report = verify_function(g, spec, f)
        if not report.valid:
            raise MultidomError(f"internal: repaired trial {i} failed verification")
        return f, report.weight, ()

    best, met_index, trace = _run_trials(trial, seed, max_trials, threshold)
    weight, index, witness, trial_notes = best
    return ConstructionResult(
        witness=witness,
        weight=weight,
        trials=len(trace),
        trial_index=index,
        seed=seed,
        target=target,
        met_target=met_index is not None,
        params={
            "delta": delta, "r": params.r, "s": params.s, "theta": params.theta,
            "p": p, "p_clamped": clamped,
        },
        notes=tuple(notes) + tuple(trial_notes),
        weight_trace=tuple(trace) if collect_trace else None,
    )


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
    return _construct_capped(g, r_vec, s_vec, seed, max_trials, collect_trace, False)


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
    return _construct_capped(g, r_vec, s_vec, seed, max_trials, collect_trace, True)


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
            cov = coverage(g, x, closed=True)
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
    _check_seed(seed, max_trials)
    spec = DominationSpec.parametric(k, l)
    spec.check_feasible(g)  # once; the trials verify without repeating it
    delta = g.min_degree
    phi = max(k, l - 1)
    if delta < phi:
        raise InfeasibleSpecError(
            f"construction needs min degree >= max(k, l-1) = {phi}, got {delta}"
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
    threshold = math.ceil(target)
    restricted = _restricted(g, closed=False)

    def trial(i: int, rng: np.random.Generator):
        members, trial_notes = _parametric_trial(g, restricted, k, l, p, rng)
        report = verify_set(g, spec, members)
        if not report.valid:
            raise MultidomError(f"internal: patched trial {i} failed verification")
        return members, report.weight, trial_notes

    best, met_index, trace = _run_trials(trial, seed, max_trials, threshold)
    weight, index, witness, trial_notes = best
    return ConstructionResult(
        witness=witness,
        weight=weight,
        trials=len(trace),
        trial_index=index,
        seed=seed,
        target=target,
        met_target=met_index is not None,
        params={"delta": delta, "k": k, "l": l, "phi": phi, "p": p},
        notes=tuple(notes) + tuple(trial_notes),
        weight_trace=tuple(trace) if collect_trace else None,
    )
