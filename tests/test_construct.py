import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
import multidom
import multidom.construct
from helpers import reference_construct
from multidom import (
    DominationSpec,
    Graph,
    InfeasibleSpecError,
    MultidomError,
    VertexFunction,
    bound_rs,
    complete,
    construct_parametric,
    construct_rs,
    construct_total_rs,
    cycle,
    exact_function_number,
    exact_set_number,
    gnp,
    path,
    random_regular,
    verify_function,
    verify_set,
)
from multidom.bounds import (
    ParametricParams,
    RSParams,
    bound_parametric,
    bound_parametric_alt,
    bound_total_rs,
)
from multidom.construct import (
    _capped_trial,
    _construct,
    _parametric_block,
    _parametric_plan,
    _restricted,
    _trial_rng,
)
from test_graph import small_graphs


def test_rs_unit_vectors_on_k5():
    ones = (1,) * 5
    res = construct_rs(complete(5), ones, ones, seed=9, max_trials=5)
    assert res.weight <= 5
    assert verify_function(complete(5), DominationSpec.rs(ones, ones), res.witness).valid


def test_rs_brace2_c4_seed_sweep():
    c4 = cycle(4)
    vec = (2,) * 4
    spec = DominationSpec.rs(vec, vec)
    weights = []
    for seed in range(100):
        res = construct_rs(c4, vec, vec, seed=seed, max_trials=1)
        rep = verify_function(c4, spec, res.witness)
        assert rep.valid
        weights.append(res.weight)
    assert min(weights) == 3  # the exact brace-2 number of C4


def test_total_rs_on_c4():
    c4 = cycle(4)
    ones = (1,) * 4
    res = construct_total_rs(c4, ones, ones, seed=4, max_trials=20)
    assert res.weight >= 2  # gamma_t(C4) = 2
    assert verify_function(c4, DominationSpec.total_rs(ones, ones), res.witness).valid


def test_total_rs_k2_on_k5():
    ones, twos = (1,) * 5, (2,) * 5
    res = construct_total_rs(complete(5), ones, twos, seed=1, max_trials=10)
    assert verify_function(complete(5), DominationSpec.total_rs(ones, twos), res.witness).valid


def test_total_rs_rejects_isolated_vertices():
    g = Graph(2, [])  # delta = 0
    with pytest.raises(InfeasibleSpecError):
        construct_total_rs(g, (1, 1), (1, 1), seed=0)


def test_parametric_small_graphs():
    best = min(
        construct_parametric(path(3), 1, 1, seed=s, max_trials=1).weight
        for s in range(50)
    )
    assert best == 1  # gamma(P3) = 1

    res = construct_parametric(cycle(4), 2, 2, seed=3, max_trials=30)
    assert res.weight >= 3  # gamma_x2(C4) = 3
    assert verify_set(cycle(4), DominationSpec.parametric(2, 2), res.witness).valid

    res = construct_parametric(cycle(5), 2, 1, seed=3, max_trials=30)
    assert res.weight >= 3  # gamma_2(C5) = 3


def test_parametric_precondition():
    # delta = 1 < k, so the patching does not apply; the 1-core, all of P4,
    # is returned against the trivial bound n
    res = construct_parametric(path(4), 2, 2, seed=0)
    assert verify_set(path(4), DominationSpec.parametric(2, 2), res.witness).valid
    assert res.witness == (0, 1, 2, 3) and res.target == 4.0 and res.met_target
    assert any("min degree >= max(k, l-1) = 2, got 1" in note for note in res.notes)


def test_capped_preconditions_fall_back_to_all_caps():
    # C6 with caps 1 and demands 3 derives r = 2 > tau = 1; the open variant
    # on an isolated vertex of demand 0 has delta = 0
    for construct, g, caps, demands, why in (
        (construct_rs, cycle(6), [1] * 6, [3] * 6, "r=2 exceeds min cap tau=1"),
        (construct_total_rs, Graph(3, [(0, 1)]), [1, 2, 1], [1, 1, 0], "needs delta >= 1"),
    ):
        res = construct(g, caps, demands, seed=1)
        spec = (DominationSpec.rs if construct is construct_rs else DominationSpec.total_rs)(
            caps, demands)
        assert verify_function(g, spec, res.witness).valid
        assert res.witness.values == tuple(caps) and res.met_target
        assert res.target == float(sum(caps)) and res.trials == 1
        assert any(why in note for note in res.notes)


@given(st.integers(1, 9), st.sampled_from([0.2, 0.4, 0.6, 0.8]), st.integers(0, 999), st.data())
@settings(max_examples=40, deadline=None)
def test_every_feasible_spec_constructs(n, p, seed, data):
    # no feasible spec is reported infeasible: each construction returns a
    # verified witness no lighter than the exact value
    g = gnp(n, p, seed)
    k = data.draw(st.integers(1, 3))
    l = data.draw(st.integers(1, k + 3))
    caps = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    demands = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    S = DominationSpec
    for spec in (S.classical(), S.k_dominating(k), S.k_tuple(k), S.total_k(k),
                 S.parametric(k, l), S.brace_k(k), S.rs(caps, demands),
                 S.total_rs(caps, demands)):
        if not spec.feasibility(g)[0]:
            continue
        if spec.is_set_variant:
            res = construct_parametric(g, *spec.requirements(), seed=seed, max_trials=3)
            assert verify_set(g, spec, res.witness).valid
            exact = exact_set_number(g, spec).value
        else:
            construct = construct_total_rs if spec.uses_open_neighborhoods else construct_rs
            res = construct(g, *spec.vectors(n), seed=seed, max_trials=3)
            assert verify_function(g, spec, res.witness).valid
            exact = exact_function_number(g, spec).value
        assert res.weight >= exact, spec.label()


def test_determinism():
    g = gnp(30, 0.3, seed=5)
    a = construct_parametric(g, 2, 2, seed=11, max_trials=25, collect_trace=True)
    b = construct_parametric(g, 2, 2, seed=11, max_trials=25, collect_trace=True)
    assert a.to_dict() == b.to_dict()

    vec = (2,) * 30
    x = construct_rs(g, vec, vec, seed=7, max_trials=25, collect_trace=True)
    y = construct_rs(g, vec, vec, seed=7, max_trials=25, collect_trace=True)
    assert x.to_dict() == y.to_dict()


def test_trace_and_met_target_semantics():
    g = gnp(20, 0.4, seed=2)
    vec = (2,) * 20
    res = construct_rs(g, vec, vec, seed=0, max_trials=40, collect_trace=True)
    assert len(res.weight_trace) == res.trials
    assert res.weight == min(res.weight_trace)
    if res.met_target:
        assert res.weight <= math.ceil(res.target)
        assert res.trial_index == res.trials - 1
        assert all(w > math.ceil(res.target) for w in res.weight_trace[:-1])


def test_repair_accounting_invariant():
    # |c_m| <= (s - m) |C_m| on every trial
    g = gnp(25, 0.3, seed=8)
    from multidom.bounds import RSParams

    params = RSParams.derive(2, 2, g.min_degree)
    restricted = _restricted(g)
    for seed in range(30):
        debug: dict = {}
        _capped_trial(restricted, True, params.r, params.s, params.p, _trial_rng(seed, 0), debug)
        for m, wt in debug["repair_weights"].items():
            assert wt <= (params.s - m) * debug["class_sizes"][m]


def _trial_outcome(trial, *args):
    """(labels, debug) of one trial, or the message of the MultidomError it raised."""
    debug: dict = {}
    try:
        return trial(*args, debug).tolist(), debug
    except MultidomError as err:
        return str(err)


@given(st.integers(2, 40), st.floats(0.05, 1), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=400, deadline=None)
def test_capped_trial_matches_the_rowwise_reference(n, q, graph_seed, data):
    # the repair over the short vertices alone places every unit where the
    # row-by-row repair over all n vertices did, and fails where it failed
    g = gnp(n, q, graph_seed)
    assume(g.min_degree >= 1)
    closed = data.draw(st.booleans())
    r = data.draw(st.integers(1, 3))
    s = data.draw(st.integers(1, r * (g.min_degree + 1)))
    p = data.draw(st.floats(0, 1))
    seed, index = data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(0, 50))
    want = _trial_outcome(helpers.rowwise_capped_trial, helpers._restricted(g, closed),
                          r, s, p, _trial_rng(seed, index))
    got = _trial_outcome(_capped_trial, _restricted(g), closed, r, s, p, _trial_rng(seed, index))
    assert got == want


@pytest.mark.parametrize("seed,index", [(0, 0), (5, 3), (2**31 - 1, 19), (12345, 10**6), (2**40, 7)])
def test_trial_rng_is_the_seed_sequence_stream(seed, index):
    # seeding with the tuple gives the stream SeedSequence((seed, index)) gives
    want = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))
    got = _trial_rng(seed, index)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(5).tolist() == want.random(5).tolist()


def test_patch_accounting_invariant():
    # |A'_m| <= (l-m-1)|A_m| and |B'_m| <= (k-m)|B_m| on every trial
    g = gnp(25, 0.35, seed=4)
    k, l = 2, 3
    if g.min_degree < max(k, l - 1):
        pytest.skip("graph too sparse for the construction")
    restricted = _restricted(g)
    debug: list = []
    rows, _ = _parametric_block(g, restricted, k, l, 0.4,
                                [_trial_rng(seed, 0) for seed in range(30)], debug)
    assert len(debug) == len(rows) == 30
    for row, accounting in zip(rows, debug):
        assert verify_set(g, DominationSpec.parametric(k, l), np.flatnonzero(row)).valid
        for m, size in accounting["a_patch_sizes"].items():
            assert size <= (l - m - 1) * accounting["a_class_sizes"][m]
        for m, size in accounting["b_patch_sizes"].items():
            assert size <= (k - m) * accounting["b_class_sizes"][m]


def test_degenerate_probability_clamps_to_zero():
    # two isolated vertices: the raw p formula lands at 0 and repair does
    # all the work
    g = Graph(2, [])
    res = construct_rs(g, (2, 2), (1, 1), seed=0, max_trials=3)
    assert res.params["p"] == 0.0 and res.params["p_clamped"]
    assert any("clamped" in note for note in res.notes)
    assert res.weight == 2  # one unit at each isolated vertex


def test_member_demand_above_nonmember_plus_one_is_completed():
    # with l >= k+2 the literal patching can leave pulled-in members short;
    # the completion pass must still deliver a valid witness
    for seed in range(40):
        res = construct_parametric(cycle(5), 1, 3, seed=seed, max_trials=1)
        assert verify_set(cycle(5), DominationSpec.parametric(1, 3), res.witness).valid


def test_zero_demand_short_circuit():
    g = cycle(4)
    res = construct_rs(g, (1,) * 4, (0,) * 4, seed=0)
    assert res.weight == 0 and res.met_target


def test_seed_validation():
    with pytest.raises(ValueError):
        construct_rs(cycle(4), (1,) * 4, (1,) * 4, seed=-1)
    with pytest.raises(ValueError):
        construct_rs(cycle(4), (1,) * 4, (1,) * 4, seed=0, max_trials=0)


def test_mean_weight_tracks_bound_on_small_gnp():
    # the expectation argument: over many seeds the mean weight stays within
    # 5% of the strong bound
    g = gnp(60, 0.3, seed=12)
    vec = (2,) * 60
    target = bound_rs(2, 2, 2 * g.n, g.min_degree, g.n).absolute
    weights = [construct_rs(g, vec, vec, seed=s, max_trials=1).weight for s in range(200)]
    assert np.mean(weights) <= target * 1.05


def _no_row_valid(g, model, rows):
    return np.zeros(len(rows), dtype=bool)


def test_invalid_trial_witness_raises_multidom_error(monkeypatch):
    monkeypatch.setattr(multidom.construct, "_rows_valid", _no_row_valid)
    with pytest.raises(MultidomError, match="failed verification"):
        construct_parametric(cycle(5), 1, 1, seed=0, max_trials=1)
    with pytest.raises(MultidomError, match="failed verification"):
        construct_rs(cycle(5), (1,) * 5, (1,) * 5, seed=0, max_trials=1)


def _invalid_row(bad_block: int, bad_row: int):
    """A block check that passes the real one's verdict except on one row
    of one block (blocks counted from 0)."""
    calls = []
    real = multidom.construct._rows_valid

    def check(g, model, rows):
        valid = real(g, model, rows)
        if len(calls) == bad_block:
            valid[bad_row] = False
        calls.append(len(rows))
        return valid

    return check


def test_deficient_row_before_the_stop_names_its_trial(monkeypatch):
    # kdom:2 misses its target in all 20 trials here; the blocks hold trials
    # 0, 1, 2-3, 4-7, ..., so the second row of the fourth block is trial 5
    g = random_regular(200, 4, 2)
    monkeypatch.setattr(multidom.construct, "_rows_valid", _invalid_row(3, 1))
    with pytest.raises(MultidomError, match=r"internal: trial 5 failed verification"):
        construct_parametric(g, 2, 1, seed=8, max_trials=20)


def test_deficient_row_after_the_stop_is_discarded(monkeypatch):
    # kdom:2 meets its target in trial 2 here, the first row of the block
    # of trials 2-3; trial 3 was never a trial of the one-at-a-time loop
    g = gnp(30, 0.3, 5)
    want = construct_parametric(g, 2, 1, seed=3, max_trials=20, collect_trace=True)
    assert want.trials == 3 and want.met_target
    monkeypatch.setattr(multidom.construct, "_rows_valid", _invalid_row(2, 1))
    got = construct_parametric(g, 2, 1, seed=3, max_trials=20, collect_trace=True)
    assert got.to_dict() == want.to_dict()


def test_invalid_trial_witness_is_caught_under_python_O():
    # python -O strips assert statements; the witness check must survive it
    # and the CLI must exit 1 with a message, not a traceback
    script = (
        "import sys, numpy, multidom.construct\n"
        "from multidom.cli import main\n"
        "multidom.construct._rows_valid = lambda g, model, rows: numpy.zeros(len(rows), bool)\n"
        "sys.exit(main(['construct', '--family', 'cycle', '--n', '5', '--spec', 'classical']))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(multidom.__file__)))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1, done.stderr
    assert "failed verification" in done.stderr
    assert "Traceback" not in done.stderr


def test_feasibility_checked_once_per_construction(monkeypatch):
    # one existence check per construct_* call, however many trials run,
    # and none inside verify_*
    calls = []
    feasibility = DominationSpec.feasibility

    def counted(self, g):
        calls.append(self.label())
        return feasibility(self, g)

    monkeypatch.setattr(DominationSpec, "feasibility", counted)
    g = random_regular(200, 4, 2)
    res = construct_parametric(g, 2, 1, seed=8, max_trials=20)  # kdom:2, all 20 trials
    assert res.trials == 20 and not res.met_target
    assert len(calls) <= 1
    vec = (3,) * g.n
    for construct in (construct_rs, construct_total_rs):
        calls.clear()
        res = construct(g, vec, vec, seed=0, max_trials=20)
        assert len(calls) <= 1
    calls.clear()
    assert verify_set(g, DominationSpec.k_dominating(2), range(g.n)).valid
    assert verify_function(g, DominationSpec.brace_k(3), VertexFunction(vec)).valid
    assert calls == []


# -- trial blocks against the one-at-a-time loop -------------------------------


def _outcome(construct, g, spec, seed, max_trials):
    """to_dict() with the weight trace, or the message of the infeasibility
    error a construction raises."""
    try:
        return construct(g, spec, seed, max_trials, True).to_dict()
    except InfeasibleSpecError as exc:
        return str(exc)


def _assert_as_reference(g, spec, seed, max_trials):
    want = _outcome(reference_construct, g, spec, seed, max_trials)
    assert _outcome(_construct, g, spec, seed, max_trials) == want, (spec.label(), seed)
    return want


@given(small_graphs(), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 5, 20]), st.data())
@settings(max_examples=60, deadline=None)
def test_blocks_match_the_single_trial_loop(g, seed, max_trials, data):
    k = data.draw(st.integers(1, 3))
    l = data.draw(st.integers(1, k + 3))
    caps = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    demands = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    S = DominationSpec
    for spec in (S.classical(), S.k_dominating(k), S.k_tuple(k), S.total_k(k),
                 S.parametric(k, l), S.brace_k(k), S.rs(caps, demands),
                 S.total_rs(caps, demands)):
        _assert_as_reference(g, spec, seed, max_trials)


def test_blocks_match_on_member_completion():
    # l >= k+2: the completion rounds run row by row and their notes stay
    # with their row; trial 0 of seed 9 is completed and wins
    g = random_regular(40, 6, 1)
    res = _assert_as_reference(g, DominationSpec.parametric(2, 5), 9, 20)
    assert res["notes"] == ["member coverage completion ran 1 round(s)"]
    g = random_regular(30, 4, 1)
    restricted = _restricted(g)
    p = _parametric_plan(g, DominationSpec.parametric(1, 3))[0]["p"]
    pairs = [(s, i) for s in range(20) for i in range(20)]
    rows, notes = _parametric_block(g, restricted, 1, 3, p, [_trial_rng(*si) for si in pairs])
    completed = 0
    for (s, i), row, row_notes in zip(pairs, rows, notes):
        witness, want_notes = helpers._parametric_trial(g, restricted, 1, 3, p, _trial_rng(s, i))
        assert tuple(np.flatnonzero(row).tolist()) == witness and row_notes == want_notes
        completed += bool(row_notes)
    assert completed > 0


@pytest.mark.parametrize("g,spec", [
    # p clamped to 0 on two isolated vertices
    (Graph(2, []), DominationSpec.rs((2, 2), (1, 1))),
    # all demands zero
    (cycle(4), DominationSpec.rs((1,) * 4, (0,) * 4)),
    # the three witness-plan fallbacks: delta < max(k, l-1), r > tau, and
    # an open construction on a graph with delta = 0
    (path(4), DominationSpec.parametric(2, 2)),
    (cycle(6), DominationSpec.rs((1,) * 6, (3,) * 6)),
    (Graph(3, [(0, 1)]), DominationSpec.total_rs((1, 2, 1), (1, 1, 0))),
])
def test_blocks_match_on_degenerate_plans(g, spec):
    for max_trials in (1, 2, 20):
        for seed in (0, 5):
            res = _assert_as_reference(g, spec, seed, max_trials)
            assert res["trials"] == 1 and res["met_target"]


def test_blocks_match_when_the_cell_cap_splits_a_run(monkeypatch):
    # kdom:2 runs all 20 trials on this graph, in blocks that double up to
    # the cap: 1 + 1 + 2 + 4 + 8 + 4 without it, 1 + 1 + 2 + 3 + ... + 3 + 1
    # with room for three trials, one at a time with room for none
    g = random_regular(200, 4, 2)
    sizes = []
    real = multidom.construct._rows_valid

    def recorded(g, model, rows):
        sizes.append(len(rows))
        return real(g, model, rows)

    monkeypatch.setattr(multidom.construct, "_rows_valid", recorded)
    for cells, want in ((multidom.construct.TRIAL_BLOCK_CELLS, [1, 1, 2, 4, 8, 4]),
                        (3 * (g.n + 2 * g.m), [1, 1, 2, 3, 3, 3, 3, 3, 1]),
                        (1, [1] * 20)):
        monkeypatch.setattr(multidom.construct, "TRIAL_BLOCK_CELLS", cells)
        sizes.clear()
        res = _assert_as_reference(g, DominationSpec.k_dominating(2), 8, 20)
        assert res["trials"] == 20 and sizes == want
        for spec in (DominationSpec.k_tuple(2), DominationSpec.brace_k(3),
                     DominationSpec.total_rs((3,) * g.n, (4,) * g.n)):
            _assert_as_reference(g, spec, 8, 20)


def test_plan_p_is_the_parametric_params_p():
    # bit for bit, for k, l <= 4 and delta <= 30, against the formula the
    # plan kept before it read ParametricParams
    for delta in range(31):
        g = complete(delta + 1)
        for k in range(1, 5):
            for l in range(1, 5):
                spec = DominationSpec.parametric(k, l)
                if delta < max(k, l - 1):
                    continue  # the witness plan, which draws nothing
                want = helpers._parametric_plan(g, spec)[0]["p"]
                got = _parametric_plan(g, spec)[0]["p"]
                assert got.hex() == want.hex() == ParametricParams.derive(k, l, delta).p_phi.hex()


def test_rs_params_p_matches_the_clamped_formula():
    # bit for bit, for tau <= 3, s <= 5 and delta <= 30, closed and open,
    # against the formula the capped plan kept before it read RSParams
    for delta in range(31):
        for tau in range(1, 4):
            for s in range(1, 6):
                for closed in (True, False):
                    if not closed and delta < 1:
                        continue
                    params = RSParams.derive(tau, s, delta, closed)
                    log_inner = math.log(params.r) - math.log1p(params.theta) - params.log_b
                    want, clamped = helpers._clamped_p(log_inner, params.theta)
                    assert params.p.hex() == want.hex() and (params.p == 0.0) == clamped


def test_large_demands_on_a_cycle():
    # C10 with caps = demands: the trial repairs only the classes that
    # occur and draws its r x n uniforms in chunks, so neither its time nor
    # its memory grows with s through an (s, n) array
    g = cycle(10)
    big = (30_000,) * g.n
    want = reference_construct(g, DominationSpec.rs(big, big), 3, 1, False)
    assert construct_rs(g, big, big, seed=3, max_trials=1).to_dict() == want.to_dict()
    big = (3_000_000,) * g.n
    tracemalloc.start()
    try:
        res = construct_rs(g, big, big, seed=3, max_trials=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verify_function(g, DominationSpec.rs(big, big), res.witness).valid
    assert peak < 16 * 2**20


def test_parametric_params_p_minimises_each_strong_bound():
    # p + b (1-p)^(d+1) at the selection p is the bound's coefficient
    for delta in range(1, 31):
        for k in range(1, 5):
            for l in range(1, 5):
                params = ParametricParams.derive(k, l, delta)
                for p, d, log_b, bound in (
                    (params.p_phi, params.delta_bar, params.log_b_phi, bound_parametric),
                    (params.p_alt, params.delta_hat, params.log_b_pair, bound_parametric_alt),
                ):
                    if d < 0:
                        assert p is None
                        continue
                    if d == 0:  # the zero-margin limit
                        assert p == (1.0 - math.exp(-1.0) if log_b == 0.0 else 1.0)
                        continue
                    value = p + math.exp(log_b) * (1.0 - p) ** (d + 1)
                    assert math.isclose(value, bound(k, l, delta, 100).coefficient, rel_tol=1e-12)


def test_strong_targets_are_the_bound_reports():
    # the plans take their targets from the derived params; the bound
    # reports must give the same value and the same applicability
    for delta in range(31):
        for n in (1, 7, 100):
            for k in range(1, 5):
                for l in range(1, 5):
                    reports = [r for r in (bound_parametric(k, l, delta, n),
                                           bound_parametric_alt(k, l, delta, n)) if r.applicable]
                    want = min(r.absolute for r in reports) if reports else None
                    assert ParametricParams.derive(k, l, delta).strong_target(n) == want
            for tau in range(1, 4):
                for s in range(6):
                    for closed, bound in ((True, bound_rs), (False, bound_total_rs)):
                        if not closed and delta < 1:
                            continue
                        report = bound(tau, s, tau * n, delta, n)
                        want = report.absolute if report.applicable else None
                        assert RSParams.derive(tau, s, delta, closed).strong_target(n) == want


def test_short_patch_candidates_raise():
    # the block check reads the full N[v], so a patch that N'(v) cannot
    # fill is caught where it is picked: here N' keeps 2 of 5 neighbours
    # and every vertex of the empty set A needs k = 3
    g = complete(6)
    restricted = _restricted(g)[:, :2]
    with pytest.raises(MultidomError, match=r"not enough patch candidates in N'\(0\) - A"):
        _parametric_block(g, restricted, 3, 1, 0.0, [np.random.default_rng(0)])
