"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import acceptance_graphs, small_graphs
from multidom import (
    DominationSpec,
    applicability_caro_yuster,
    bound_caro_roditty,
    bound_classical,
    bound_parametric,
    bound_parametric_alt,
    bound_parametric_alt_log,
    bound_parametric_log,
    bound_rs,
    bound_rs_log,
    bound_rs_log_optimized,
    bound_rv,
    bound_threshold_ktuple,
    bound_total_rs,
    bound_total_rs_log,
    bounds_for_spec,
    compare_bounds,
    construct_parametric,
    construct_rs,
    construct_total_rs,
    exact_function_number,
    exact_set_number,
    gnp,
    solve_cubic,
    tune_c,
    verify_function,
    verify_set,
)

REL = 1e-12


def _line(idx: int, name: str, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {idx} [{status}] {name}: {detail} "
          f"({elapsed:.2f}s of {budget:.0f}s budget)")


def test_criterion_1_worked_example():
    t0 = time.perf_counter()
    cub = solve_cubic(5, 1000)
    b, c, d = cub.monic
    coeffs_ok = (round(b, 2), round(c, 2), round(d, 2)) == (-5.13, 1.0, 0.4)
    root = max(cub.roots)
    root_ok = abs(root - 4.910) <= 1e-3
    tuned = bound_threshold_ktuple(5, 1000, 1, tune_c(5, 1000)).coefficient
    rv = bound_rv(5, 1000, 1).coefficient
    elapsed = time.perf_counter() - t0
    ok = coeffs_ok and root_ok and tuned < 0.027 and rv < 0.035 and elapsed < 1.0
    _line(1, "worked example k=5 delta=1000", ok, elapsed, 1.0,
          f"monic=({b:.2f},{c:.2f},{d:.2f}) root={root:.4f} "
          f"tuned={tuned:.4f} rv={rv:.4f}")
    assert coeffs_ok and root_ok
    assert tuned < 0.027 and rv < 0.035
    assert elapsed < 1.0


def test_criterion_2_applicability_table():
    t0 = time.perf_counter()
    rep = compare_bounds(1, 1000, 1)
    beats = {r.k for r in rep.rows
             if r.rv is not None and r.c3 is not None and r.c3 < r.rv}
    elapsed = time.perf_counter() - t0
    ok = (rep.rv_cutoff == 72 and rep.c3_cutoff == 333
          and abs(rep.crossover_value - 8.3) <= 0.05
          and beats == set(range(9, 73)) and elapsed < 1.0)
    _line(2, "applicability table delta=1000", ok, elapsed, 1.0,
          f"rv_cutoff={rep.rv_cutoff} c3_cutoff={rep.c3_cutoff} "
          f"crossover={rep.crossover_value:.2f} beats=[{min(beats)}..{max(beats)}]")
    assert rep.rv_cutoff == 72 and rep.c3_cutoff == 333
    assert rep.crossover_value == pytest.approx(8.3, abs=0.05)
    assert beats == set(range(9, 73))
    assert rep.crossover_k == 9
    assert elapsed < 1.0


def test_criterion_3_specialization_identities():
    t0 = time.perf_counter()
    n = 17
    checks = 0
    for delta in range(1, 101):
        # (a) unit-vector log form equals the classical bound
        got = bound_rs_log(1, 1, n, delta, n).coefficient
        want = bound_classical(delta, n).coefficient
        assert got == pytest.approx(want, rel=REL)
        checks += 1
        # (e) the (1,1) strong form is the Caro-Roditty expression at delta-1
        if delta >= 2:
            got = bound_parametric(1, 1, delta, n).coefficient
            want = bound_caro_roditty(delta - 1, n).coefficient
            assert got == pytest.approx(want, rel=REL)
            checks += 1
        for k in range(1, min(delta, 10) + 1):
            # (b) capped-function strong form at r=1, s=k is the k-tuple form
            rs_rep = bound_rs(1, k, n, delta, n)
            alt_rep = bound_parametric_alt(k, k, delta, n)
            if rs_rep.applicable and alt_rep.applicable:
                assert rs_rep.coefficient == pytest.approx(alt_rep.coefficient, rel=REL)
                checks += 1
            # (c) total capped-function form at r=1, s=k is the (k, k+1) form
            if k < delta:
                tot = bound_total_rs(1, k, n, delta, n)
                par = bound_parametric(k, k + 1, delta, n)
                assert tot.applicable and par.applicable
                assert tot.coefficient == pytest.approx(par.coefficient, rel=REL)
                totl = bound_total_rs_log(1, k, n, delta, n)
                parl = bound_parametric_log(k, k + 1, delta, n)
                assert totl.coefficient == pytest.approx(parl.coefficient, rel=REL)
                checks += 1
            # (d) l=1 reduces to the known k-domination bounds
            if delta >= k:
                dh = delta - k + 1
                bk = math.comb(delta, k - 1)
                want_strong = 1 - dh / ((1 + dh) ** (1 + 1 / dh) * bk ** (1 / dh))
                want_log = (math.log(delta - k + 2) + math.log(bk) + 1) / (delta - k + 2)
                srep = bound_parametric_alt(k, 1, delta, n)
                lrep = bound_parametric_alt_log(k, 1, delta, n)
                if srep.applicable:
                    assert srep.coefficient == pytest.approx(want_strong, rel=1e-11)
                assert lrep.coefficient == pytest.approx(want_log, rel=REL)
                checks += 1
    # applicability predicates of the asymptotic results (excluded at desk scale)
    assert applicability_caro_yuster(2, 1000) and not applicability_caro_yuster(3, 1000)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    _line(3, "specialization identities", ok, elapsed, 5.0,
          f"{checks} identity evaluations at rel tol 1e-12")
    assert elapsed < 5.0


SANDWICH_SPECS = [
    DominationSpec.classical(),
    DominationSpec.k_dominating(2),
    DominationSpec.k_tuple(2),
    DominationSpec.k_tuple(3),
    DominationSpec.total_k(1),
    DominationSpec.total_k(2),
    DominationSpec.brace_k(2),
    DominationSpec.parametric(2, 3),
]


def test_criterion_4_oracle_vs_bound_sandwich():
    t0 = time.perf_counter()
    graphs = acceptance_graphs()
    assert len(graphs) == 50
    violations = []
    checked = 0
    for name, g in graphs:
        for spec in SANDWICH_SPECS:
            ok, _ = spec.feasibility(g)
            if not ok:
                continue
            if spec.is_set_variant:
                exact = exact_set_number(g, spec).value
            else:
                exact = exact_function_number(g, spec, limit_n=14).value
            for rep in bounds_for_spec(spec, g.min_degree, g.n):
                if not rep.applicable or rep.absolute is None:
                    continue
                checked += 1
                if exact > rep.absolute + 1e-9:
                    violations.append((name, spec.label(), rep.name,
                                       exact, rep.absolute))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 120.0
    _line(4, "oracle-vs-bound sandwich", ok, elapsed, 120.0,
          f"{checked} exact-vs-bound comparisons on 50 graphs, "
          f"{len(violations)} violations")
    assert violations == []
    assert elapsed < 120.0


def test_criterion_5_oracle_equivalences():
    t0 = time.perf_counter()
    pairs = [
        (DominationSpec.parametric(2, 1), DominationSpec.k_dominating(2)),
        (DominationSpec.parametric(3, 1), DominationSpec.k_dominating(3)),
        (DominationSpec.parametric(2, 2), DominationSpec.k_tuple(2)),
        (DominationSpec.parametric(3, 3), DominationSpec.k_tuple(3)),
        (DominationSpec.parametric(1, 2), DominationSpec.total_k(1)),
        (DominationSpec.parametric(2, 3), DominationSpec.total_k(2)),
        (DominationSpec.parametric(1, 1), DominationSpec.classical()),
    ]
    violations = []
    checked = 0
    graphs = small_graphs(8)
    for name, g in graphs:
        for spec_a, spec_b in pairs:
            if not (spec_a.feasibility(g)[0] and spec_b.feasibility(g)[0]):
                continue
            a = exact_set_number(g, spec_a).value
            b = exact_set_number(g, spec_b).value
            checked += 1
            if a != b:
                violations.append((name, spec_a.label(), spec_b.label(), a, b))
        # gamma_{1} equals the domination number
        a = exact_function_number(g, DominationSpec.brace_k(1), limit_n=8).value
        b = exact_set_number(g, DominationSpec.classical()).value
        checked += 1
        if a != b:
            violations.append((name, "bracek:1", "classical", a, b))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60.0
    _line(5, "oracle equivalences", ok, elapsed, 60.0,
          f"{checked} identities on {len(graphs)} graphs with n<=8, "
          f"{len(violations)} violations")
    assert violations == []
    assert elapsed < 60.0


def test_criterion_6_construction_validity_and_mean_weight():
    t0 = time.perf_counter()
    g = gnp(40, 0.3, seed=7)
    delta, n = g.min_degree, g.n
    assert delta >= 2
    seeds = range(200)
    details = []

    vec2 = (2,) * n
    spec = DominationSpec.rs(vec2, vec2)
    weights = []
    for s in seeds:
        res = construct_rs(g, vec2, vec2, seed=s, max_trials=1)
        assert verify_function(g, spec, res.witness).valid
        weights.append(res.weight)
    bound = bound_rs(2, 2, 2 * n, delta, n).absolute
    details.append(("rs", float(np.mean(weights)), bound))
    assert np.mean(weights) <= bound * 1.05

    spec = DominationSpec.parametric(2, 2)
    weights = []
    for s in seeds:
        res = construct_parametric(g, 2, 2, seed=s, max_trials=1)
        assert verify_set(g, spec, res.witness).valid
        weights.append(res.weight)
    bound = min(bound_parametric(2, 2, delta, n).absolute,
                bound_parametric_alt(2, 2, delta, n).absolute)
    details.append(("parametric", float(np.mean(weights)), bound))
    assert np.mean(weights) <= bound * 1.05

    ones = (1,) * n
    spec = DominationSpec.total_rs(ones, ones)
    weights = []
    for s in seeds:
        res = construct_total_rs(g, ones, ones, seed=s, max_trials=1)
        assert verify_function(g, spec, res.witness).valid
        weights.append(res.weight)
    bound = bound_total_rs(1, 1, n, delta, n).absolute
    details.append(("total_rs", float(np.mean(weights)), bound))
    assert np.mean(weights) <= bound * 1.05

    elapsed = time.perf_counter() - t0
    detail = " ".join(f"{k}: mean={m:.2f} bound={b:.2f}" for k, m, b in details)
    ok = elapsed < 60.0
    _line(6, "construction validity and mean weight", ok, elapsed, 60.0,
          f"600 verified trials; {detail}")
    assert elapsed < 60.0


def test_criterion_7_dominance_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240515)
    n = 12
    rs_checked = par_checked = alt_checked = opt_checked = 0
    violations = 0
    while min(rs_checked, par_checked, alt_checked, opt_checked) < 500:
        delta = int(rng.integers(1, 200))
        tau = int(rng.integers(1, 6))
        s = int(rng.integers(1, 12))
        k = int(rng.integers(1, 9))
        l = int(rng.integers(1, 12))
        strong, log = bound_rs(tau, s, tau * n, delta, n), bound_rs_log(tau, s, tau * n, delta, n)
        if strong.applicable and log.applicable:
            rs_checked += 1
            if strong.coefficient > log.coefficient + 1e-12:
                violations += 1
            opt = bound_rs_log_optimized(tau, s, tau * n, delta, n)
            opt_checked += 1
            if opt.coefficient > log.coefficient + 1e-12:
                violations += 1
        sp, lp = bound_parametric(k, l, delta, n), bound_parametric_log(k, l, delta, n)
        if sp.applicable and lp.applicable:
            par_checked += 1
            if sp.coefficient > lp.coefficient + 1e-12:
                violations += 1
        sa, la = bound_parametric_alt(k, l, delta, n), bound_parametric_alt_log(k, l, delta, n)
        if sa.applicable and la.applicable:
            alt_checked += 1
            if sa.coefficient > la.coefficient + 1e-12:
                violations += 1
    elapsed = time.perf_counter() - t0
    total = rs_checked + par_checked + alt_checked + opt_checked
    ok = violations == 0
    _line(7, "dominance properties", ok, elapsed, 60.0,
          f"{total} feasible tuples (>=500 per family), {violations} violations")
    assert violations == 0


def _run_cli(args: list[str]) -> bytes:
    out = subprocess.run(
        [sys.executable, "-m", "multidom.cli", *args],
        capture_output=True, check=True,
    )
    return out.stdout


def test_criterion_8_byte_identical_outputs():
    t0 = time.perf_counter()
    gen_args = ["gen", "--family", "gnp", "--n", "24", "--p", "0.4", "--seed", "42"]
    gen1, gen2 = _run_cli(gen_args), _run_cli(gen_args)
    con_args = ["construct", "--family", "gnp", "--n", "24", "--p", "0.4",
                "--seed", "42", "--spec", "ktuple:2", "--trials", "12",
                "--trace", "--no-timestamp"]
    con1, con2 = _run_cli(con_args), _run_cli(con_args)
    elapsed = time.perf_counter() - t0
    ok = gen1 == gen2 and con1 == con2
    _line(8, "determinism of gen and construct", ok, elapsed, 60.0,
          f"gen {len(gen1)} bytes, construct {len(con1)} bytes, both identical")
    assert gen1 == gen2
    assert con1 == con2
    # sanity: the construct output parses and the witness is a set
    payload = json.loads(con1)
    assert "set" in payload["witness"]
