import random
import tracemalloc

import numpy as np
import pytest

from multidom import (
    NotApplicableError,
    bound_rv,
    bound_threshold_ktuple,
    compare_bounds,
    solve_cubic,
    tune_c,
    tune_details,
)
from multidom.bounds import _threshold_coeff
from multidom.tuner import _grid_minimum

from helpers import reference_real_roots_monic


def _proof_grid() -> list[tuple[int, int]]:
    """(k, delta) pairs: every small pair, then k up to 5 000 and delta up
    to 10**7 on a log-spaced lattice with random pairs between."""
    rnd = random.Random(20)
    cases = [(k, delta) for k in range(1, 13) for delta in range(1, 61)]
    ks = sorted({round(10 ** (e / 4)) for e in range(0, 15)} | {4999, 5000})
    deltas = sorted({round(10 ** (e / 2)) for e in range(0, 15)} | {10**7 - 1})
    cases += [(k, delta) for k in ks for delta in deltas]
    cases += [(rnd.randint(1, 5000), rnd.randint(1, 10**7)) for _ in range(200)]
    return cases


def test_worked_example_cubic():
    cub = solve_cubic(5, 1000)
    b, c, d = cub.monic
    assert round(b, 2) == -5.13
    assert round(c, 2) == 1.0
    assert round(d, 2) == 0.4
    assert max(cub.roots) == pytest.approx(4.910, abs=1e-3)
    assert all(abs(r) <= 1e-9 for r in cub.residuals)


def test_worked_example_tuned_bound():
    c = tune_c(5, 1000)
    assert c == pytest.approx(4.910, abs=1e-3)
    assert bound_threshold_ktuple(5, 1000, 1, c).coefficient < 0.027
    assert bound_rv(5, 1000, 1).coefficient < 0.035


def test_roots_satisfy_polynomial():
    rng = np.random.default_rng(9)
    for _ in range(50):
        k = int(rng.integers(1, 20))
        delta = int(rng.integers(2, 5000))
        cub = solve_cubic(k, delta)
        assert len(cub.roots) >= 1
        b, c, d = cub.monic
        for r in cub.roots:
            assert abs(((r + b) * r + c) * r + d) <= 1e-9


def test_tune_c_feasible_and_near_grid_optimal():
    for k, delta in [(1, 10), (2, 25), (3, 100), (5, 1000), (8, 500), (12, 300)]:
        c = tune_c(k, delta)
        assert c > 1.0 and delta >= c * k - 1
        grid_c, grid_val = _grid_minimum(k, delta)
        assert _threshold_coeff(k, delta, c) <= grid_val + 1e-4


def test_grid_minimum_matches_the_dense_grid():
    """The grid scanned in chunks gives the (c, value) of the one np.arange
    grid, bit for bit: across chunk edges, with no grid point left below
    hi, and with hi at a grid point."""
    from helpers import reference_grid_minimum

    rnd = random.Random(11)
    cases = [(k, delta) for k in range(1, 10) for delta in range(k, 40)]
    cases += [(1000, 1000), (999, 999), (1999, 2000), (2000, 2001), (1, 300)]
    # 2**16 - 1 to 2**17 + 1 grid points, around the chunk edges
    cases += [(43, 2860), (28, 1862), (41, 2727), (14, 1848), (69, 9112), (41, 5414)]
    cases += [(k, rnd.randint(k, 150 * k)) for k in rnd.sample(range(1, 400), 40)]
    for k, delta in cases:
        got, want = _grid_minimum(k, delta), reference_grid_minimum(k, delta)
        assert [x.hex() for x in got] == [x.hex() for x in want], (k, delta)


def test_grid_minimum_memory_is_flat():
    """The dense grid at (1, 2*10**4) holds four arrays of 2*10**7 doubles,
    about 610 MiB; the chunked scan needs a few MiB."""
    tracemalloc.start()
    try:
        tune_details(1, 2 * 10**4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_tuned_no_worse_than_fixed_constants():
    for k, delta in [(2, 30), (5, 1000), (4, 120)]:
        if delta >= 3 * k - 1:
            assert (_threshold_coeff(k, delta, tune_c(k, delta))
                    <= _threshold_coeff(k, delta, 3.0) + 1e-12)
    c1 = tune_c(1, 10)
    assert _threshold_coeff(1, 10, c1) <= _threshold_coeff(1, 10, 2.0) + 1e-12


def test_tune_c_infeasible():
    with pytest.raises(NotApplicableError):
        tune_c(12, 11)  # (delta+1)/k = 1


def test_one_real_root_and_the_grid_fallback():
    # k = delta = 1: the cubic c^3 - 2c^2 + c + 2 has one real root, a negative one
    cub = solve_cubic(1, 1)
    assert len(cub.roots) == 1
    assert cub.roots[0] == pytest.approx(-0.6956207695598621, rel=1e-12)
    assert abs(cub.residuals[0]) < 1e-12
    assert tune_c(1, 1) == 1.001
    assert tune_details(1, 1)["source"] == "grid"


def test_an_empty_grid_falls_back_to_its_upper_end():
    # hi = (delta + 1)/k = 3001/3000 lies below the first grid point, 1.001
    det = tune_details(3000, 3000)
    assert det["source"] == "grid" and det["feasible_roots"] == []
    assert det["grid_c"] == det["c"] == 3001 / 3000


def test_compare_leaves_tuned_c_none_where_no_constant_applies():
    rep = compare_bounds(3, 2, 1)  # at k = 3, (delta + 1)/k = 1 admits no c > 1
    assert [r.tuned_c for r in rep.rows] == [1.001, 1.001, None]
    assert rep.rows[2].tuned_value is None


def test_tune_details_reports_grid_truth():
    det = tune_details(5, 1000)
    assert det["source"] == "cubic"
    assert det["c"] == pytest.approx(4.910, abs=1e-3)
    assert det["grid_value"] <= det["value"] + 1e-9


def test_compare_bounds_delta_1000():
    rep = compare_bounds(5, 1000, 1)
    assert rep.rv_cutoff == 72
    assert rep.c3_cutoff == 333
    assert rep.crossover_value == pytest.approx(8.3, abs=0.05)
    assert rep.crossover_k == 9
    # rv rows stop exactly at the cutoff
    assert [r.k for r in rep.rows] == list(range(1, len(rep.rows) + 1))
    assert rep.rows[72 - 1].rv is not None and rep.rows[73 - 1].rv is None
    assert rep.rows[333 - 1].c3 is not None
    # c=3 beats rv exactly on 9..72
    beats = {r.k for r in rep.rows if r.rv is not None and r.c3 is not None and r.c3 < r.rv}
    assert beats == set(range(9, 73))
    for r in rep.rows:
        if r.k <= 8:
            assert r.rv < r.c3
    # self-consistency: the reported crossover is the first tabulated win
    firsts = [r.k for r in rep.rows if r.rv is not None and r.c3 is not None and r.c3 < r.rv]
    assert rep.crossover_k == min(firsts)


def test_compare_row_for_worked_example():
    rep = compare_bounds(5, 1000, 1)
    row = rep.rows[5 - 1]
    assert row.k == 5
    assert row.rv < 0.035
    assert row.tuned_value < 0.027
    assert row.best == "tuned"
    assert row.ktuple_log is not None


def test_compare_csv_shape():
    rep = compare_bounds(2, 40, 10)
    text = rep.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "k,rv,c3,tuned_c,tuned_value,best"
    assert len(lines) == 1 + len(rep.rows)
    assert all(line.count(",") == 5 for line in lines)


def test_compare_small_delta_has_no_crossover_value():
    rep = compare_bounds(1, 10, 5)  # ln(11) < 3
    assert rep.crossover_value is None


def test_tuned_consistent_with_rows():
    rep = compare_bounds(3, 200, 1)
    for r in rep.rows:
        if r.tuned_c is not None:
            assert r.tuned_c > 1 and 200 >= r.tuned_c * r.k - 1
            assert r.tuned_value == pytest.approx(
                _threshold_coeff(r.k, 200, r.tuned_c), rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        solve_cubic(0, 100)
    with pytest.raises(ValueError):
        compare_bounds(1, 0, 5)
    with pytest.raises(ValueError, match="integers"):
        compare_bounds(2, 10.0, 5)


def test_roots_are_those_of_the_general_solver():
    """The solver fitted to the tuning cubic gives the roots, bit for bit,
    of the general solver with its p = 0, zero-discriminant, P' = 0 and
    merge branches; and tune_c picks the same root from them."""
    for k, delta in _proof_grid():
        cub = solve_cubic(k, delta)
        want = reference_real_roots_monic(*cub.monic)
        assert [r.hex() for r in cub.roots] == [r.hex() for r in want], (k, delta)
        feasible = [r for r in want if r > 1.0 and delta >= r * k - 1.0]
        if feasible and (delta + 1) / k > 1.0:
            assert tune_c(k, delta).hex() == max(feasible).hex(), (k, delta)


def test_the_proof_of_the_root_structure():
    """The facts the module docstring proves: p < 0 everywhere; from
    k(delta+1) >= 6 on, a negative discriminant and three roots, one
    negative, one in (0, 1) and one above 1; and the chosen c has the
    least coefficient among the feasible roots."""
    for k, delta in _proof_grid():
        cub = solve_cubic(k, delta)
        b, c, d = cub.monic
        p = c - b * b / 3.0
        q = d - b * c / 3.0 + 2.0 * b ** 3 / 27.0
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
        assert p < 0.0, (k, delta)
        if k * (delta + 1) >= 6:
            assert disc < 0.0, (k, delta)
            lo, mid, hi = cub.roots
            assert lo < 0.0 < mid < 1.0 < hi, (k, delta)
        feasible = [r for r in cub.roots if r > 1.0 and delta >= r * k - 1.0]
        if feasible and (delta + 1) / k > 1.0:
            best = min(feasible, key=lambda r: _threshold_coeff(k, delta, r))
            assert tune_c(k, delta) == best, (k, delta)


def test_the_five_small_pairs():
    # (1, 1) and (1, 2): one real root, a negative one
    for delta in (1, 2):
        (root,) = solve_cubic(1, delta).roots
        assert root < 0.0
        assert tune_details(1, delta)["source"] == "grid"
    # (1, 3) and (1, 4): two feasible roots, and the larger has the smaller coefficient
    for delta, (small, large) in ((3, (1.2185, 2.7621)), (4, (1.0452, 3.3573))):
        cub = solve_cubic(1, delta)
        assert len(cub.roots) == 3 and cub.roots[0] < 0.0
        assert cub.roots[1:] == pytest.approx((small, large), abs=1e-4)
        det = tune_details(1, delta)
        assert det["feasible_roots"] == list(cub.roots[1:])
        assert det["c"] == cub.roots[2]
        assert _threshold_coeff(1, delta, cub.roots[2]) < _threshold_coeff(1, delta, cub.roots[1])
    # (2, 1): three simple roots, but (delta+1)/k = 1 admits no c > 1
    assert len(solve_cubic(2, 1).roots) == 3
    with pytest.raises(NotApplicableError):
        tune_c(2, 1)


@pytest.mark.parametrize("k, delta", [(2.0, 10), (True, 10), (5, 1000.0), (5, False), (5, "10")])
def test_the_tuner_takes_integers_only(k, delta):
    for call in (solve_cubic, tune_c, tune_details):
        with pytest.raises(ValueError, match="integers"):
            call(k, delta)


def test_numpy_integers_tune_like_ints():
    assert tune_c(np.int64(5), np.int32(1000)) == tune_c(5, 1000)
    assert solve_cubic(np.int64(5), 1000) == solve_cubic(5, 1000)


@pytest.mark.parametrize("k, delta", [(0, 5), (1, 0), (-3, 10)])
def test_tune_c_needs_k_and_delta_at_least_1(k, delta):
    with pytest.raises(ValueError, match=">= 1"):
        tune_c(k, delta)


def test_reports_serialise_every_field_with_tuples_as_lists():
    cubic = solve_cubic(2, 10)
    assert cubic.to_dict() == {"k": 2, "delta": 10, "coefficients": list(cubic.coefficients),
                               "monic": list(cubic.monic), "roots": list(cubic.roots),
                               "residuals": list(cubic.residuals)}
    report = compare_bounds(3, 100, 10)
    doc = report.to_dict()
    assert type(doc["rows"]) is list and len(doc["rows"]) == len(report.rows)
    assert doc["rows"][2] == {"k": 3, "rv": report.rows[2].rv, "c3": report.rows[2].c3,
                              "tuned_c": report.rows[2].tuned_c,
                              "tuned_value": report.rows[2].tuned_value,
                              "ktuple_log": report.rows[2].ktuple_log, "best": report.rows[2].best}
    assert {name: doc[name] for name in doc if name != "rows"} == {
        "delta": 100, "n": 10, "highlight_k": 3, "rv_cutoff": report.rv_cutoff,
        "c3_cutoff": report.c3_cutoff, "crossover_value": report.crossover_value,
        "crossover_k": report.crossover_k}
