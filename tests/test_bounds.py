import json
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidom import (
    applicability_caro_yuster,
    bound_caro_roditty,
    bound_classical,
    bound_ln_threshold_ktuple,
    bound_ln_threshold_parametric,
    bound_ln_threshold_rs,
    bound_parametric,
    bound_parametric_alt,
    bound_parametric_alt_log,
    bound_parametric_log,
    bound_rs,
    bound_rs_log,
    bound_rs_log_optimized,
    bound_rv,
    bound_threshold_ktuple,
    bound_threshold_parametric,
    bound_threshold_rs,
    bound_total_rs,
    bound_total_rs_log,
    bounds_for_spec,
    log_binomial,
)
from multidom import bounds
from multidom.bounds import ParametricParams, RSParams
from multidom.verify import DominationSpec

# -- log binomial --------------------------------------------------------------


def test_log_binomial_basics():
    assert log_binomial(6, 1) == pytest.approx(math.log(6), rel=1e-14)
    assert log_binomial(6, 0) == 0.0
    assert log_binomial(6, 6) == 0.0
    assert log_binomial(6, -1) == float("-inf")
    assert log_binomial(6, 7) == float("-inf")


def test_log_binomial_rejects_a_negative_top():
    with pytest.raises(ValueError, match="top >= 0"):
        log_binomial(-1, 0)


def test_log_binomial_against_big_integers():
    for top, t in [(1001, 4), (1001, 100), (64, 32), (2002, 7), (10, 5)]:
        exact = math.comb(top, t)
        assert log_binomial(top, t) == pytest.approx(math.log(exact), rel=1e-10)


@given(st.integers(0, 200), st.integers(-2, 210))
@settings(max_examples=200, deadline=None)
def test_log_binomial_matches_comb(top, t):
    got = log_binomial(top, t)
    if t < 0 or t > top:
        assert got == float("-inf")
    else:
        assert got == pytest.approx(math.log(math.comb(top, t)), rel=1e-12, abs=1e-12)


def _plain_log_binomial(top: int, t: int) -> float:
    """log_binomial's sum without the stored prefixes."""
    if t < 0 or t > top:
        return float("-inf")
    acc = 0.0
    for i in range(min(t, top - t)):
        acc += math.log(top - i) - math.log(i + 1)
    return acc


def test_log_binomial_prefixes_are_bit_identical():
    """Stored prefixes, evicted tops and sums past the stored terms all give
    the plain loop's float, whatever order the calls come in."""
    rnd = random.Random(3)
    cap = bounds.LOG_BINOMIAL_TERMS
    calls = [(1000, t) for t in range(-1, 1003)] + [(10_000, t) for t in (cap - 1, cap, cap + 1, 5000)]
    calls += [(rnd.randrange(12_000), rnd.randrange(6_000)) for _ in range(400)]
    for order in (calls, calls[::-1], rnd.sample(calls, len(calls))):
        for top, t in order:
            assert log_binomial(top, t).hex() == _plain_log_binomial(top, t).hex(), (top, t)
    assert len(bounds._log_binomial_prefixes) <= bounds.LOG_BINOMIAL_TOPS
    assert all(len(p) <= cap + 1 for p in bounds._log_binomial_prefixes.values())


def test_log_binomial_prefixes_survive_threads():
    """Threads extending and evicting the same prefix lists still get the
    plain loop's floats."""
    calls = [(top, t) for top in (900, 901, 902, 903, 904, 905) for t in range(0, 450, 7)]
    expected = {call: _plain_log_binomial(*call).hex() for call in calls}
    wrong = []

    def work(seed):
        for top, t in random.Random(seed).sample(calls, len(calls)):
            if log_binomial(top, t).hex() != expected[top, t]:
                wrong.append((top, t))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


def test_log_binomial_memory_is_bounded():
    """A sum of 10**5 terms stores at most LOG_BINOMIAL_TERMS of them (about
    130 KB); storing every term would take about 3 MiB."""
    tracemalloc.start()
    try:
        log_binomial(2 * 10**5, 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pascal_identity_exact():
    # b_{k-1} + b_{k-2} = C(delta+1, k-1), with b_{-1} = 0
    for delta in range(1, 60):
        for k in range(1, delta + 1):
            b_k2 = math.comb(delta, k - 2) if k >= 2 else 0
            assert math.comb(delta, k - 1) + b_k2 == math.comb(delta + 1, k - 1)


# -- classical bounds ------------------------------------------------------------


def test_classical_values():
    assert bound_classical(0, 10).coefficient == pytest.approx(1.0, abs=1e-15)
    assert bound_classical(0, 10).absolute == pytest.approx(10.0)
    # frozen from a 40-digit evaluation of (ln(1001)+1)/1001
    assert bound_classical(1000, 1000).coefficient == pytest.approx(
        0.0079008539253898308, rel=1e-12)
    assert bound_classical(1, 4).absolute == pytest.approx(3.3862943611198906, rel=1e-12)


def test_caro_roditty_values():
    assert bound_caro_roditty(1, 2).absolute == pytest.approx(1.5, rel=1e-14)
    # frozen from a 40-digit evaluation of 8*(1 - 3/4^(4/3))
    assert bound_caro_roditty(3, 8).absolute == pytest.approx(4.2202368503153805, rel=1e-12)
    assert bound_caro_roditty(10, 1).coefficient == pytest.approx(
        0.28473323436657070, rel=1e-12)
    rep = bound_caro_roditty(0, 5)
    assert not rep.applicable and rep.coefficient is None


def test_caro_roditty_stronger_than_classical_for_small_delta():
    for delta in range(1, 11):
        assert (bound_caro_roditty(delta, 1).coefficient
                < bound_classical(delta, 1).coefficient)


# -- capped-function bounds -------------------------------------------------------


def test_rs_log_unit_vectors_equal_classical():
    for delta in range(1, 101):
        n = 50
        got = bound_rs_log(1, 1, n, delta, n).coefficient
        want = bound_classical(delta, n).coefficient
        assert got == pytest.approx(want, rel=1e-12)


def test_rs_strong_unit_vectors_equal_caro_roditty():
    # with r=s=1: r=1, theta=delta, B_0=1, and the strong form collapses to
    # 1 - delta/(1+delta)^(1+1/delta)
    for delta in range(1, 60):
        got = bound_rs(1, 1, 8, delta, 8).coefficient
        want = bound_caro_roditty(delta, 8).coefficient
        assert got == pytest.approx(want, rel=1e-12)


def test_rs_strong_example_r1_s2_d5():
    rep = bound_rs(1, 2, 6, 5, 6)
    assert rep.applicable
    assert rep.params["theta"] == 4 and rep.params["r"] == 1
    # frozen: 1 - (1/4)^(1/4) / ((5/4)^(5/4) * 6^(1/4))
    assert rep.coefficient == pytest.approx(0.65817039488301275, rel=1e-12)


def test_rs_ktuple_specialization_matches_alt_parametric():
    n = 12
    for delta in range(2, 40):
        for k in range(1, min(delta, 8) + 1):
            strong_rs = bound_rs(1, k, n, delta, n)
            strong_alt = bound_parametric_alt(k, k, delta, n)
            if strong_rs.applicable and strong_alt.applicable:
                assert strong_rs.coefficient == pytest.approx(
                    strong_alt.coefficient, rel=1e-12)
            log_rs = bound_rs_log(1, k, n, delta, n)
            if log_rs.applicable:
                # literal k-tuple log form with btilde = C(delta+1, k-1)
                bt = math.log(math.comb(delta + 1, k - 1))
                want = (math.log(delta - k + 2) + bt + 1) / (delta - k + 2)
                assert log_rs.coefficient == pytest.approx(want, rel=1e-12)


def test_rs_not_applicable_when_r_exceeds_tau():
    rep = bound_rs(1, 7, 5, 2, 5)  # r = floor(7/3)+1 = 3 > tau = 1
    assert not rep.applicable and "tau" in rep.reason
    forced = bound_rs(1, 7, 5, 2, 5, force=True)
    assert forced.forced and forced.coefficient is not None


def test_rs_log_optimized():
    n = 6
    # tau = 1 leaves a single candidate, so optimized == plain log form
    assert (bound_rs_log_optimized(1, 2, n, 5, n).coefficient
            == pytest.approx(bound_rs_log(1, 2, n, 5, n).coefficient, rel=1e-14))
    # brace_k with k=3, delta=2: candidates r in {1, 2, 3}
    rep = bound_rs_log_optimized(3, 3, 3 * n, 2, n)
    vals = []
    for r in (1, 2, 3):
        theta = 3 * r - 3
        vals.append((math.log(theta + 1) + math.log(math.comb(3 * r, 2))
                     - math.log(r) + 1) / (theta + 1) * r)
    assert rep.coefficient == pytest.approx(min(vals), rel=1e-12)
    assert rep.params["argmin_r"] == 1 + int(np.argmin(vals))


@given(st.integers(1, 60), st.integers(1, 6), st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_rs_optimized_never_worse_than_default(delta, tau, s):
    n = 10
    default = bound_rs_log(tau, s, tau * n, delta, n)
    opt = bound_rs_log_optimized(tau, s, tau * n, delta, n)
    if default.applicable:
        assert opt.applicable
        assert opt.coefficient <= default.coefficient + 1e-12


# -- total variant ------------------------------------------------------------------


def test_total_rs_specializations():
    n = 10
    for delta in range(2, 30):
        for k in range(1, delta):  # r~=1 needs k < delta
            strong = bound_total_rs(1, k, n, delta, n)
            want = bound_parametric(k, k + 1, delta, n)
            assert strong.applicable and want.applicable
            assert strong.coefficient == pytest.approx(want.coefficient, rel=1e-12)
            log = bound_total_rs_log(1, k, n, delta, n)
            wantl = bound_parametric_log(k, k + 1, delta, n)
            assert log.coefficient == pytest.approx(wantl.coefficient, rel=1e-12)
    # total domination: (ln(delta) + 1)/delta
    for delta in range(2, 40):
        got = bound_total_rs_log(1, 1, 8, delta, 8).coefficient
        assert got == pytest.approx((math.log(delta) + 1) / delta, rel=1e-12)


def test_a_negative_delta_is_rejected():
    with pytest.raises(ValueError, match="^delta must be >= 0$"):
        bound_classical(-1, 10)


def test_total_rs_rejects_delta_zero():
    g_rep = bound_total_rs(1, 1, 3, 0, 3)
    assert not g_rep.applicable and "delta" in g_rep.reason
    with pytest.raises(ValueError, match="delta >= 1"):
        RSParams.derive(1, 1, 0, closed=False)


def test_a_bound_needs_at_least_one_vertex():
    with pytest.raises(ValueError, match="n must be >= 1"):
        bound_classical(3, 0)


_KL_BOUNDS = [bound_parametric, bound_parametric_log, bound_parametric_alt,
              bound_parametric_alt_log]


@pytest.mark.parametrize("k, l, message", [(0, 1, "^k must"), (1, 0, "^l must"),
                                           (0, 0, "^k must"), (-2, 3, "^k must")])
def test_the_kl_bounds_reject_k_or_l_below_1(k, l, message):
    for bound in _KL_BOUNDS:
        with pytest.raises(ValueError, match=message):
            bound(k, l, 10, 5)
    with pytest.raises(ValueError, match=message):
        ParametricParams.derive(k, l, 10)
    with pytest.raises(ValueError, match=message):
        bound_threshold_parametric(k, l, 10, 5, 2.0)
    with pytest.raises(ValueError, match=message):
        bound_ln_threshold_parametric(k, l, 10, 5, 0.5)


@pytest.mark.parametrize("k", [0, -1])
def test_the_k_bounds_reject_k_below_1(k):
    for call in (lambda: bound_rv(k, 10, 5), lambda: bound_threshold_ktuple(k, 10, 5, 2.0),
                 lambda: bound_ln_threshold_ktuple(k, 10, 5, 0.5)):
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            call()


def test_every_applicable_kl_bound_has_a_finite_coefficient():
    for k in range(1, 7):
        for delta in range(0, 31):
            reports = [bound_rv(k, delta, 7), bound_threshold_ktuple(k, delta, 7, 3.0),
                       bound_ln_threshold_ktuple(k, delta, 7, 0.2)]
            for l in range(1, 7):
                reports += [bound(k, l, delta, 7) for bound in _KL_BOUNDS]
                reports += [bound_threshold_parametric(k, l, delta, 7, 3.0),
                            bound_ln_threshold_parametric(k, l, delta, 7, 0.2)]
            for rep in reports:
                if rep.applicable:
                    assert math.isfinite(rep.coefficient), (rep.name, k, delta, rep.params)


# -- (k,l) bounds ---------------------------------------------------------------------


def test_parametric_11_is_caro_roditty_shifted():
    # with k=l=1 the strong form is exactly the Caro-Roditty expression
    # evaluated at delta_bar = delta - 1 (open neighborhoods lose one slot)
    for delta in range(2, 101):
        got = bound_parametric(1, 1, delta, 9).coefficient
        want = bound_caro_roditty(delta - 1, 9).coefficient
        assert got == pytest.approx(want, rel=1e-12)


def test_parametric_total_domination_log():
    for delta in range(1, 40):
        got = bound_parametric_log(1, 2, delta, 7).coefficient
        assert got == pytest.approx((math.log(delta) + 1) / delta, rel=1e-12)
    assert bound_parametric_log(1, 2, 7, 7).coefficient == pytest.approx(
        0.42084430700790190, rel=1e-12)  # frozen 40-digit (ln 7 + 1)/7


def test_parametric_alt_gagarin_forms():
    n = 11
    for delta in range(2, 40):
        for k in range(1, delta + 1):
            dh = delta - k + 1
            lb = math.log(math.comb(delta, k - 1))
            strong = bound_parametric_alt(k, 1, delta, n)
            want = 1 - dh / ((1 + dh) ** (1 + 1 / dh) * math.comb(delta, k - 1) ** (1 / dh))
            if strong.applicable:
                assert strong.coefficient == pytest.approx(want, rel=1e-11)
            log = bound_parametric_alt_log(k, 1, delta, n)
            wantl = (math.log(delta - k + 2) + lb + 1) / (delta - k + 2)
            assert log.applicable
            assert log.coefficient == pytest.approx(wantl, rel=1e-12)


def test_parametric_alt_hand_example():
    # k=2, l=1, delta=3: 1 - 2/(3^(3/2) * 3^(1/2)) = 1 - 2/9
    rep = bound_parametric_alt(2, 1, 3, 5)
    assert rep.coefficient == pytest.approx(1 - 2 / 9, rel=1e-12)


def test_parametric_alt_11_is_caro_roditty():
    # k=l=1: b_0 + b_{-1} = 1 and delta_hat = delta
    for delta in range(1, 50):
        got = bound_parametric_alt(1, 1, delta, 6).coefficient
        assert got == pytest.approx(bound_caro_roditty(delta, 6).coefficient, rel=1e-12)


def test_parametric_inapplicable_below_phi():
    rep = bound_parametric(2, 3, 2, 4)  # delta_bar = 0
    assert not rep.applicable
    log = bound_parametric_log(2, 3, 2, 4)  # delta == phi still fine
    assert log.applicable
    assert not bound_parametric_log(3, 1, 2, 4).applicable  # delta < phi = 3


# -- threshold bounds --------------------------------------------------------------------


def test_rv_values():
    rep = bound_rv(5, 1000, 1)
    assert rep.applicable
    # frozen 40-digit evaluation
    assert rep.coefficient == pytest.approx(0.034551223840732535, rel=1e-12)
    assert rep.coefficient < 0.035
    # applicability cutoff at delta=1000 is k = 72
    assert bound_rv(72, 1000, 1).applicable
    assert not bound_rv(73, 1000, 1).applicable
    # k=1 coincides with the classical bound
    assert bound_rv(1, 10, 1).coefficient == pytest.approx(
        bound_classical(10, 1).coefficient, rel=1e-14)


def test_rv_matches_the_full_factorial_sum():
    """Skipping the terms too small to change the sum leaves every float
    as the sum of all k terms makes it."""
    from helpers import reference_rv_coefficient

    rnd = random.Random(5)
    pairs = [(k, delta) for k in range(1, 40) for delta in range(0, 40)]
    pairs += [(k, 1000) for k in range(1, 80)] + [(k, 10**4) for k in range(1, 600, 7)]
    pairs += [(rnd.randint(1, 300), rnd.randint(0, 10**6)) for _ in range(300)]
    for k, delta in pairs:
        got = bound_rv(k, delta, 1, force=True).coefficient
        assert got.hex() == reference_rv_coefficient(k, delta).hex(), (k, delta)


def test_rv_skips_terms_below_the_sums_precision(monkeypatch):
    """At delta = 10**4 every term of k = 300 lies below ulp(sum)/2000, so no
    factorial is taken; summing every term takes 300."""
    calls = []
    factorial = math.factorial
    monkeypatch.setattr(math, "factorial", lambda i: calls.append(i) or factorial(i))
    rep = bound_rv(300, 10**4, 1)
    assert rep.applicable and rep.coefficient is not None
    assert len(calls) < 30
    calls.clear()
    bound_rv(5, 1000, 1)
    assert calls == [0, 1, 2, 3, 4]  # every term counts here


def test_threshold_ktuple_values():
    rep = bound_threshold_ktuple(5, 1000, 1, 3.0)
    assert rep.applicable
    assert rep.coefficient == pytest.approx(0.19335498172127697, rel=1e-12)
    tuned = bound_threshold_ktuple(5, 1000, 1, 4.910)
    assert tuned.coefficient < 0.027
    # c=3 applicability cutoff at delta=1000 is k = 333
    assert bound_threshold_ktuple(333, 1000, 1, 3.0).applicable
    assert not bound_threshold_ktuple(334, 1000, 1, 3.0).applicable
    assert not bound_threshold_ktuple(5, 1000, 1, 1.0).applicable  # needs c > 1
    forced = bound_threshold_ktuple(334, 1000, 1, 3.0, force=True)
    assert forced.forced and forced.coefficient is not None


@pytest.mark.parametrize("c", [math.nan, 1.0, 0.5])
def test_threshold_gates_refuse_a_nan_or_small_c(c):
    for rep in (bound_threshold_ktuple(2, 100, 10, c),
                bound_threshold_parametric(2, 3, 100, 10, c),
                bound_threshold_rs(1, 2, 10, 100, 10, c)):
        assert not rep.applicable and rep.coefficient is None
        assert rep.reason == f"needs c > 1, got c={c}"


def test_zero_demand_and_min_cap_gates():
    # the c-form checks c, then zero demand, then degree; the ln-form checks tau first
    zero = "max demand is 0; the zero function already dominates"
    assert bound_rs_log_optimized(3, 0, 30, 5, 10).reason == zero
    assert bound_threshold_rs(3, 0, 30, 5, 10, 2.0).reason == zero
    assert bound_threshold_rs(3, 0, 30, 5, 10, 0.5).reason == "needs c > 1, got c=0.5"
    forced = bound_threshold_rs(3, 0, 30, 5, 10, 2.0, force=True)
    assert forced.coefficient is None and not forced.forced
    rep = bound_ln_threshold_rs(0, 1, 0, 50, 10, 0.5)
    assert not rep.applicable and rep.reason == "needs min cap tau >= 1"
    assert bound_ln_threshold_rs(0, 1, 0, 50, 10, 2.0).reason == "needs min cap tau >= 1"
    forced = bound_ln_threshold_rs(0, 1, 0, 50, 10, 0.5, force=True)
    assert forced.forced and forced.coefficient == pytest.approx(0.6899438969570715, rel=1e-12)


def test_threshold_parametric_and_rs_identities():
    # l <= k gives mu = k and the same value as the k-tuple form
    for k, l, delta, c in [(3, 2, 30, 2.5), (4, 4, 50, 3.0), (5, 1, 40, 2.0)]:
        a = bound_threshold_parametric(k, l, delta, 1, c)
        b = bound_threshold_ktuple(k, delta, 1, c)
        assert a.applicable == b.applicable
        assert a.coefficient == pytest.approx(b.coefficient, rel=1e-14)
    # tau=1, s=k matches the k-tuple form, including the gate
    n = 9
    for k, delta, c in [(2, 10, 2.0), (3, 17, 3.0), (4, 11, 3.0)]:
        a = bound_threshold_rs(1, k, n, delta, n, c)
        b = bound_threshold_ktuple(k, delta, n, c)
        assert a.applicable == b.applicable
        if a.applicable:
            assert a.coefficient == pytest.approx(b.coefficient, rel=1e-14)
    rep = bound_threshold_parametric(2, 4, 20, 1, 3.0)
    assert rep.coefficient == pytest.approx(0.84936237631977757, rel=1e-12)


def test_ln_threshold_values():
    rep = bound_ln_threshold_ktuple(1, 55, 1, 0.5)
    assert rep.applicable  # (1-c) ln 55 = 2.0 >= 1
    assert rep.coefficient == pytest.approx(0.67753446040687679, rel=1e-12)
    # mu = k reduction
    a = bound_ln_threshold_parametric(3, 2, 4000, 1, 0.4)
    b = bound_ln_threshold_ktuple(3, 4000, 1, 0.4)
    assert a.applicable == b.applicable
    assert a.coefficient == pytest.approx(b.coefficient, rel=1e-14)
    assert not bound_ln_threshold_ktuple(1, 55, 1, 1.2).applicable  # needs c < 1
    assert not bound_ln_threshold_ktuple(9, 55, 1, 0.5).applicable  # k too large


@given(st.integers(1, 5), st.floats(0.05, 0.95), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_ln_threshold_rs_gate_implies_existence(s, c, tau):
    # s <= (1-c) ln delta forces (delta+1) tau >= s automatically
    n = 6
    for delta in (3, 8, 55, 400):
        rep = bound_ln_threshold_rs(tau, s, tau * n, delta, n, c)
        if rep.applicable:
            assert (delta + 1) * tau >= s


def test_caro_yuster_predicate():
    assert applicability_caro_yuster(2, 1000)
    assert not applicability_caro_yuster(3, 1000)
    assert applicability_caro_yuster(1, 3)
    assert not applicability_caro_yuster(1, 1)
    assert not applicability_caro_yuster(1, 0)


# -- dominance and vacuity ----------------------------------------------------------------


def test_strong_forms_never_beat_log_forms():
    rng = np.random.default_rng(12345)
    n = 10
    checked = 0
    while checked < 200:
        delta = int(rng.integers(1, 120))
        tau = int(rng.integers(1, 5))
        s = int(rng.integers(1, 10))
        strong = bound_rs(tau, s, tau * n, delta, n)
        log = bound_rs_log(tau, s, tau * n, delta, n)
        if strong.applicable:
            assert strong.coefficient <= log.coefficient + 1e-12
            checked += 1
        k = int(rng.integers(1, 8))
        l = int(rng.integers(1, 10))
        sp, lp = bound_parametric(k, l, delta, n), bound_parametric_log(k, l, delta, n)
        if sp.applicable:
            assert sp.coefficient <= lp.coefficient + 1e-12
        sa, la = bound_parametric_alt(k, l, delta, n), bound_parametric_alt_log(k, l, delta, n)
        if sa.applicable:
            assert sa.coefficient <= la.coefficient + 1e-12


def test_vacuity_flagging():
    # a log-form bound can exceed the trivial bound; it is reported, flagged
    rep = bound_parametric_log(2, 3, 2, 4)  # (ln 1 + ln 2 + 1)/1 = 1.69... > 1
    assert rep.applicable and rep.coefficient > 1.0 and rep.vacuous
    # the strong capped-function form never exceeds r*n <= sum of caps
    for delta in range(1, 30):
        rep = bound_rs(2, 2, 12, delta, 6)
        assert rep.applicable and not rep.vacuous


def test_bounds_for_spec_catalogue():
    c4_delta, n = 2, 4
    rows = bounds_for_spec(DominationSpec.classical(), c4_delta, n)
    names = {r.name for r in rows}
    assert {"classical", "caro_roditty", "rs_strong", "rs_log"} <= names
    by = {r.name: r for r in rows}
    assert by["caro_roditty"].coefficient < by["classical"].coefficient

    rows = bounds_for_spec(DominationSpec.k_tuple(3), 9, 10, c=3.0)
    names = {r.name for r in rows}
    assert {"rs_strong", "parametric_alt_strong", "rv", "ktuple_threshold",
            "ktuple_ln_threshold", "rs_log_optimized"} <= names

    rows = bounds_for_spec(DominationSpec.total_k(2), 5, 8)
    names = {r.name for r in rows}
    assert {"total_rs_strong", "parametric_strong", "caro_yuster"} <= names

    rows = bounds_for_spec(DominationSpec.brace_k(2), 5, 8)
    assert {"rs_strong", "rs_log", "rs_log_optimized"} <= {r.name for r in rows}


# -- forced evaluation outside a formula's domain ------------------------------------


GRID_C = [0, -1e-300, -0.001, -1, 0.5, 1, 1.5, 3, 1000, 1e300, math.inf, -math.inf, math.nan]


def _forced_grid(n=10):
    """Every public bound, forced, over small and degenerate parameters."""
    for delta in (0, 1, 2, 5, 50):
        yield bound_classical(delta, n)
        yield bound_caro_roditty(delta, n, force=True)
        for k in (1, 2, 5):
            yield bound_rv(k, delta, n, force=True)
            for c in GRID_C:
                yield bound_threshold_ktuple(k, delta, n, c, force=True)
                yield bound_ln_threshold_ktuple(k, delta, n, c, force=True)
            for l in (1, 2, 3, 6):
                for fn in (bound_parametric, bound_parametric_log,
                           bound_parametric_alt, bound_parametric_alt_log):
                    yield fn(k, l, delta, n, force=True)
                for c in GRID_C:
                    yield bound_threshold_parametric(k, l, delta, n, c, force=True)
                    yield bound_ln_threshold_parametric(k, l, delta, n, c, force=True)
        for tau in (0, 1, 3):
            for s in (0, 1, 4, 100):
                caps = (tau, s, tau * n, delta, n)
                for fn in (bound_rs, bound_rs_log, bound_rs_log_optimized,
                           bound_total_rs, bound_total_rs_log):
                    yield fn(*caps, force=True)
                for c in GRID_C:
                    yield bound_threshold_rs(*caps, c, force=True)
                    yield bound_ln_threshold_rs(*caps, c, force=True)


def test_forced_bounds_never_raise_and_report_strict_json():
    names, forced = set(), 0
    for rep in _forced_grid():
        json.dumps(rep.to_dict(), allow_nan=False)
        assert rep.forced == (not rep.applicable and rep.coefficient is not None)
        names.add(rep.name)
        forced += rep.forced
    assert len(names) == 18 and forced > 0


@pytest.mark.parametrize("call", [
    lambda: bound_threshold_ktuple(2, 3, 10, 0, force=True),  # 1/c divides by zero
    lambda: bound_threshold_ktuple(2, 3, 10, -0.001, force=True),  # e^2005 overflows
    lambda: bound_threshold_parametric(2, 3, 3, 10, math.nan, force=True),  # not finite
    lambda: bound_ln_threshold_ktuple(2, 3, 10, 1000, force=True),  # 3^500000 overflows
    lambda: bound_ln_threshold_rs(1, 1, 10, 0, 10, 0.5, force=True),  # ln 0
])
def test_a_forced_formula_outside_its_domain_has_no_coefficient(call):
    rep = call()
    assert not rep.applicable and not rep.forced
    assert rep.coefficient is None and rep.absolute is None and rep.vacuous is None
    json.dumps(rep.to_dict(), allow_nan=False)


def test_non_finite_params_are_none():
    # b_{phi-1} = C(2, 4) = 0, so ln b is -inf
    rep = bound_parametric(5, 1, 2, 6)
    assert rep.params["log_b_phi1"] is None and rep.params["phi"] == 5
    assert bound_threshold_ktuple(2, 100, 10, math.inf).params["c"] is None


def test_an_applicable_formula_that_raises_still_raises():
    def broken():
        raise ZeroDivisionError("formula")

    assert bounds._report("x", 3, 3.0, {}, False, "no", broken, force=True).coefficient is None
    with pytest.raises(ZeroDivisionError):
        bounds._report("x", 3, 3.0, {}, True, "", broken)
