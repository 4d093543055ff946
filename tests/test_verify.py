from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_set_number, coverage
from multidom import (
    CapViolationError,
    DominationSpec,
    Graph,
    InfeasibleSpecError,
    VertexFunction,
    complete,
    cycle,
    exact_set_number,
    gnp,
    path,
    verify_function,
    verify_set,
    weight,
)
from multidom.construct import _restricted


def test_verify_set_examples():
    c4 = cycle(4)
    rep = verify_set(c4, DominationSpec.classical(), [0, 2])
    assert rep.valid and rep.weight == 2

    rep = verify_set(c4, DominationSpec.k_tuple(2), [0, 1])
    assert not rep.valid
    assert (2, 2, 1) in rep.deficiencies  # vertex 2 achieves 1 < 2
    # no 2-subset of C4 is 2-tuple dominating (independent brute force)
    for pair in combinations(range(4), 2):
        xs = set(pair)
        assert any(coverage(c4, xs, v) < 2 for v in range(4))

    rep = verify_set(c4, DominationSpec.parametric(1, 2), [0, 1])
    assert rep.valid  # this is total domination


def test_deficiency_reports_are_exhaustive():
    c4 = cycle(4)
    rep = verify_set(c4, DominationSpec.k_tuple(2), [0, 1])
    assert rep.deficiencies == ((2, 2, 1), (3, 2, 1))


def test_verify_function_examples():
    c4 = cycle(4)
    brace2 = DominationSpec.brace_k(2)
    f = VertexFunction((1, 1, 1, 0))
    rep = verify_function(c4, brace2, f)
    assert rep.valid and rep.weight == 3

    bad = VertexFunction((2, 0, 0, 0))
    rep = verify_function(c4, brace2, bad)
    assert not rep.valid
    assert (2, 2, 0) in rep.deficiencies  # vertex 2 not adjacent to 0

    # characteristic function of a dominating set is a valid r=s=1 witness
    ones = (1,) * 4
    chi = VertexFunction.characteristic([0, 2], 4)
    assert verify_function(c4, DominationSpec.rs(ones, ones), chi).valid


def test_brace2_c4_minimum_is_three():
    # exhaustive independent check over all labelings with values <= 2
    from helpers import brute_function_number

    c4 = cycle(4)
    assert brute_function_number(c4, (2,) * 4, (2,) * 4) == 3


def test_weight():
    assert weight(VertexFunction((0,) * 5)) == 0
    assert weight(VertexFunction((1, 2, 0))) == 3
    chi = VertexFunction.characteristic([1, 3, 4], 6)
    assert weight(chi) == 3


def test_cap_violation_distinct_from_domination_failure():
    c4 = cycle(4)
    f = VertexFunction((3, 0, 0, 0))
    with pytest.raises(CapViolationError):
        verify_function(c4, DominationSpec.brace_k(2), f)


def test_infeasible_spec_errors():
    # check_feasible raises; verify_* report the same specs as data: on an
    # infeasible spec even the largest witness is deficient
    c4 = cycle(4)
    cases = [
        (c4, DominationSpec.total_k(3), [0, 1, 2, 3]),
        (c4, DominationSpec.k_tuple(4), [0, 1, 2, 3]),
        # the 2-core of P3 is empty, and every vertex needs a neighbour in it
        (path(3), DominationSpec.parametric(1, 3), [0, 1, 2]),
    ]
    for g, spec, members in cases:
        with pytest.raises(InfeasibleSpecError):
            spec.check_feasible(g)
        rep = verify_set(g, spec, members)
        assert not rep.valid and rep.deficiencies
    # demand exceeds closed-neighborhood caps at every vertex
    spec = DominationSpec.rs((1,) * 4, (4,) * 4)
    with pytest.raises(InfeasibleSpecError):
        spec.check_feasible(c4)
    rep = verify_function(c4, spec, VertexFunction((1,) * 4))
    assert not rep.valid and rep.deficiencies == tuple((v, 4, 3) for v in range(4))


def _k4_with_pendant():
    # K4 on {0, 1, 2, 3} plus vertex 4 hanging off 0
    return Graph(5, [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(0, 4)])


def test_parametric_feasible_below_min_degree_l_minus_1():
    # l >= k+2: delta = 1 < l-1 = 2, yet the 2-core {0, 1, 2, 3} dominates
    # the pendant vertex, and {0, 1, 2} is a (1,3)-dominating set
    g = _k4_with_pendant()
    spec = DominationSpec.parametric(1, 3)
    assert spec.feasibility(g) == (True, "")
    assert verify_set(g, spec, [0, 1, 2]).valid
    assert exact_set_number(g, spec).value == brute_set_number(g, 1, 3) == 3
    # the pendant vertex has one neighbour in the 3-core, and (2, 4) needs two
    ok, why = DominationSpec.parametric(2, 4).feasibility(g)
    assert not ok and why == "vertex 4: neighbours in the 3-core number 1 < demand 2"


@given(st.integers(2, 8), st.floats(0.0, 1.0), st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_set_feasibility_matches_brute_force(n, p, seed, k):
    g = gnp(n, p, seed)
    specs = [DominationSpec.classical(), DominationSpec.k_dominating(k),
             DominationSpec.k_tuple(k), DominationSpec.total_k(k)]
    for spec in specs + [DominationSpec.parametric(k, l) for l in range(1, k + 4)]:
        ok, why = spec.feasibility(g)
        exists = brute_set_number(g, *spec.requirements()) is not None
        assert ok == exists, (spec.label(), g.edges())
        assert ok == (why == "")


BRIDGE_GRAPHS = [cycle(4), cycle(5), complete(4), path(4), gnp(6, 0.5, seed=2)]


def _equivalent_on_all_subsets(g, spec_a, spec_b):
    for t in range(g.n + 1):
        for xs in combinations(range(g.n), t):
            ra = verify_set(g, spec_a, xs)
            rb = verify_set(g, spec_b, xs)
            assert ra.valid == rb.valid, (spec_a.label(), spec_b.label(), xs)


@pytest.mark.parametrize("k", [1, 2])
def test_bridge_parametric_k1_is_k_domination(k):
    for g in BRIDGE_GRAPHS:
        _equivalent_on_all_subsets(g, DominationSpec.parametric(k, 1),
                                   DominationSpec.k_dominating(k))


@pytest.mark.parametrize("k", [1, 2])
def test_bridge_parametric_kk_is_k_tuple(k):
    for g in BRIDGE_GRAPHS:
        if g.min_degree >= k - 1:
            _equivalent_on_all_subsets(g, DominationSpec.parametric(k, k),
                                       DominationSpec.k_tuple(k))


@pytest.mark.parametrize("k", [1, 2])
def test_bridge_parametric_k_kplus1_is_total_k(k):
    for g in BRIDGE_GRAPHS:
        if g.min_degree >= k:
            _equivalent_on_all_subsets(g, DominationSpec.parametric(k, k + 1),
                                       DominationSpec.total_k(k))


def test_bridge_parametric_11_is_classical():
    for g in BRIDGE_GRAPHS:
        _equivalent_on_all_subsets(g, DominationSpec.parametric(1, 1),
                                   DominationSpec.classical())


def test_bridge_unit_rs_function_is_classical_set():
    ones4 = (1,) * 4
    g = cycle(4)
    spec = DominationSpec.rs(ones4, ones4)
    for t in range(5):
        for xs in combinations(range(4), t):
            chi = VertexFunction.characteristic(xs, 4)
            assert (verify_function(g, spec, chi).valid
                    == verify_set(g, DominationSpec.classical(), xs).valid)


def test_whole_vertex_set_passes_parametric():
    for g in BRIDGE_GRAPHS:
        d = g.min_degree
        for k in range(1, d + 1):
            for l in range(1, d + 2):
                if d >= max(k, l - 1):
                    assert verify_set(g, DominationSpec.parametric(k, l),
                                      range(g.n)).valid


@given(st.integers(5, 10), st.integers(0, 50), st.data())
@settings(max_examples=40, deadline=None)
def test_monotone_adding_vertices(n, seed, data):
    # for variants with member demand at most non-member demand + 1,
    # growing a valid set keeps it valid
    g = gnp(n, 0.5, seed)
    specs = [DominationSpec.classical(), DominationSpec.k_dominating(2)]
    if g.min_degree >= 1:
        specs.append(DominationSpec.k_tuple(2))
    if g.min_degree >= 1:
        specs.append(DominationSpec.total_k(1))
    spec = data.draw(st.sampled_from(specs))
    xs = set(data.draw(st.sets(st.integers(0, n - 1))))
    if not verify_set(g, spec, xs).valid:
        xs = set(range(n))  # V(G) is always valid for these variants
        assert verify_set(g, spec, xs).valid
    extra = data.draw(st.integers(0, n - 1))
    assert verify_set(g, spec, xs | {extra}).valid


@given(st.integers(4, 9), st.integers(0, 50), st.data())
@settings(max_examples=40, deadline=None)
def test_monotone_raising_function_within_caps(n, seed, data):
    g = gnp(n, 0.5, seed)
    caps = tuple(data.draw(st.integers(1, 3)) for _ in range(n))
    demands = tuple(
        min(data.draw(st.integers(0, 3)),
            sum(caps[u] for u in g.closed_neighborhood(v)))
        for v in range(n)
    )
    spec = DominationSpec.rs(caps, demands)
    f = VertexFunction(caps)  # all-caps labeling is valid
    assert verify_function(g, spec, f).valid
    lowered = list(caps)
    v = data.draw(st.integers(0, n - 1))
    if lowered[v] > 0:
        lowered[v] -= 1
    low = VertexFunction(tuple(lowered))
    if verify_function(g, spec, low).valid:
        # raising back within caps keeps validity
        assert verify_function(g, spec, f).valid


@given(st.integers(4, 9), st.integers(0, 30), st.data())
@settings(max_examples=30, deadline=None)
def test_restricted_domination_implies_full(n, seed, data):
    # a function whose restricted sums meet the demands also meets the
    # full-neighborhood sums: N'(v) is a subset of N(v) and f >= 0
    g = gnp(n, 0.4, seed)
    vals = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
    s = data.draw(st.integers(1, 3))
    restricted_ok = all(
        sum(vals[u] for u in row) >= s for row in _restricted(g, closed=True).tolist()
    )
    if restricted_ok:
        spec = DominationSpec.rs((2,) * n, (s,) * n)
        ok, _ = spec.feasibility(g)
        if ok:
            assert verify_function(g, spec, VertexFunction(vals)).valid


def test_spec_labels_and_dicts():
    assert DominationSpec.parametric(2, 3).label() == "param:2,3"
    assert DominationSpec.k_tuple(2).label() == "ktuple:2"
    d = DominationSpec.rs((1, 1), (2, 2)).to_dict()
    assert d["variant"] == "rs" and d["r"] == [1, 1] and d["s"] == [2, 2]


def test_spec_validation():
    with pytest.raises(ValueError):
        DominationSpec.k_tuple(0)
    with pytest.raises(ValueError):
        DominationSpec.rs((1, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        DominationSpec("nope")
    with pytest.raises(ValueError):
        verify_set(cycle(4), DominationSpec.classical(), [7])
    # labels too large for int64 neighbourhood sums
    with pytest.raises(ValueError):
        DominationSpec.rs((2**62, 1), (1, 1))
    with pytest.raises(ValueError):
        DominationSpec.brace_k(2**62)
    with pytest.raises(ValueError):
        VertexFunction((2**62, 0))
