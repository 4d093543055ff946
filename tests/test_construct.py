import math
import os
import subprocess
import sys

import numpy as np
import pytest

import multidom
import multidom.construct
from multidom import (
    DominationSpec,
    Graph,
    InfeasibleSpecError,
    MultidomError,
    VerifyReport,
    VertexFunction,
    bound_rs,
    complete,
    construct_parametric,
    construct_rs,
    construct_total_rs,
    cycle,
    gnp,
    path,
    random_regular,
    verify_function,
    verify_set,
)
from multidom.construct import _capped_trial, _parametric_trial, _restricted, _trial_rng


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
    with pytest.raises(InfeasibleSpecError):
        construct_parametric(path(4), 2, 2, seed=0)  # delta = 1 < k


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
    restricted = _restricted(g, closed=True)
    p = 1.0 - math.exp(
        (math.log(params.r) - math.log1p(params.theta) - params.log_b) / params.theta
    )
    for seed in range(30):
        debug: dict = {}
        _capped_trial(restricted, g.n, params.r, params.s, params.theta,
                      p, _trial_rng(seed, 0), debug)
        for m, wt in debug["repair_weights"].items():
            assert wt <= (params.s - m) * debug["class_sizes"][m]


def test_patch_accounting_invariant():
    # |A'_m| <= (l-m-1)|A_m| and |B'_m| <= (k-m)|B_m| on every trial
    g = gnp(25, 0.35, seed=4)
    k, l = 2, 3
    if g.min_degree < max(k, l - 1):
        pytest.skip("graph too sparse for the construction")
    restricted = _restricted(g, closed=False)
    for seed in range(30):
        debug: dict = {}
        d, _ = _parametric_trial(g, restricted, k, l, 0.4, _trial_rng(seed, 0), debug)
        assert verify_set(g, DominationSpec.parametric(k, l), d).valid
        for m, size in debug["a_patch_sizes"].items():
            assert size <= (l - m - 1) * debug["a_class_sizes"][m]
        for m, size in debug["b_patch_sizes"].items():
            assert size <= (k - m) * debug["b_class_sizes"][m]


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


def _invalid_report(*args):
    return VerifyReport(False, 0, ((0, 1, 0),))


def test_invalid_trial_witness_raises_multidom_error(monkeypatch):
    monkeypatch.setattr(multidom.construct, "verify_set", _invalid_report)
    with pytest.raises(MultidomError, match="failed verification"):
        construct_parametric(cycle(5), 1, 1, seed=0, max_trials=1)
    monkeypatch.setattr(multidom.construct, "verify_function", _invalid_report)
    with pytest.raises(MultidomError, match="failed verification"):
        construct_rs(cycle(5), (1,) * 5, (1,) * 5, seed=0, max_trials=1)


def test_invalid_trial_witness_is_caught_under_python_O():
    # python -O strips assert statements; the witness check must survive it
    # and the CLI must exit 1 with a message, not a traceback
    script = (
        "import sys, multidom.construct\n"
        "from multidom.cli import main\n"
        "from multidom.verify import VerifyReport\n"
        "multidom.construct.verify_set = lambda *a: VerifyReport(False, 0, ((0, 1, 0),))\n"
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
