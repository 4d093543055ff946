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
    assert rep.row(72).rv is not None and rep.row(73).rv is None
    assert rep.row(333).c3 is not None
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
    row = rep.row(5)
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
