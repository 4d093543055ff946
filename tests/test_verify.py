import copy
import json
import pickle
from itertools import combinations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import _restricted, brute_set_number, coverage
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
)
from multidom.bounds import bounds_for_spec
from multidom.verify import (
    FUNCTION_VARIANTS,
    LABEL_LIMIT,
    SET_VARIANTS,
    _guaranteed_witness,
    _rows_valid,
    _sums,
)


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


def test_verify_set_takes_any_collection_of_ids():
    g = gnp(12, 0.3, 4)
    spec = DominationSpec.k_tuple(2)
    want = verify_set(g, spec, (0, 3, 5, 9))
    assert want.deficiencies  # a failing set, so the reports carry content
    for members in ([9, 5, 3, 0], {0, 3, 5, 9, 3, 0}, [0, 3, 3, 5, 9, 9], np.array([0, 3, 5, 9])):
        assert verify_set(g, spec, members) == want
    with pytest.raises(ValueError, match="witness vertex 12 out of range for n=12"):
        verify_set(g, spec, np.array([0, 12]))


def test_verify_function_rejects_a_function_of_the_wrong_length():
    with pytest.raises(ValueError, match="^function has 3 values, graph has n=4$"):
        verify_function(cycle(4), DominationSpec.brace_k(1), VertexFunction((1, 1, 1)))


@pytest.mark.parametrize("bad", [0.9, 2.5, 2.0, "3", True, np.float64(1.0), np.bool_(False), None])
def test_non_integer_ids_and_labels_are_rejected(bad):
    # nothing is cast: 0.9 is not vertex 0, "3" is not label 3
    c5 = cycle(5)
    with pytest.raises(ValueError, match="must be integers"):
        verify_set(c5, DominationSpec.classical(), [bad, 2])
    with pytest.raises(ValueError, match="must be integers"):
        VertexFunction([bad, 2])
    with pytest.raises(ValueError, match="must be integers"):
        VertexFunction.characteristic([bad, 2], 5)
    with pytest.raises(ValueError, match="must be integers"):
        DominationSpec.rs([1, bad], [1, 1])


def test_numpy_integer_ids_and_labels_are_accepted():
    c5 = cycle(5)
    ids = [np.int32(0), np.uint8(2), 3]
    assert verify_set(c5, DominationSpec.classical(), ids) == verify_set(
        c5, DominationSpec.classical(), [0, 2, 3])
    f = VertexFunction(np.array([1, 0, 2], dtype=np.int16))
    assert f.values == (1, 0, 2) and all(type(v) is int for v in f.values)


@pytest.mark.parametrize("ids,bad,n", [
    ([3, 12, -1], 12, 12), ([-1, 12], -1, 12),
    ([10**30], 10**30, 12),  # past int64: out of range, not an OverflowError
    ([-1], -1, 3), ([5], 5, 3),  # characteristic() marked vertex 2, then raised IndexError
])
def test_witness_ids_out_of_range_name_the_first_bad_one(ids, bad, n):
    for check in (lambda: verify_set(cycle(n), DominationSpec.classical(), ids),
                  lambda: VertexFunction.characteristic(ids, n)):
        with pytest.raises(ValueError, match=f"^witness vertex {bad} out of range for n={n}$"):
            check()


@pytest.mark.parametrize("spec", [DominationSpec.rs([1, 2, 2], [1, 1, 2]),
                                  DominationSpec.total_rs([2, 2, 2], [1, 0, 1])])
def test_copies_of_a_spec_keep_read_only_vectors(spec):
    for twin in (copy.deepcopy(spec), copy.copy(spec), pickle.loads(pickle.dumps(spec))):
        assert twin == spec and twin.label() == spec.label()
        caps, demands = twin.vectors(3)
        assert not caps.flags.writeable and not demands.flags.writeable
        assert caps.tolist() == list(spec.r) and demands.tolist() == list(spec.s)


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
    assert VertexFunction((0,) * 5).weight == 0
    assert VertexFunction((1, 2, 0)).weight == 3
    chi = VertexFunction.characteristic([1, 3, 4], 6)
    assert chi.weight == 3
    # the exact sum as a Python int, past 2**31 too
    big = VertexFunction([LABEL_LIMIT - 1] * 3000)
    assert type(big.weight) is int and big.weight == (LABEL_LIMIT - 1) * 3000
    assert type(VertexFunction(()).weight) is int and VertexFunction(()).weight == 0


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


def test_set_and_function_specs_refuse_each_others_calls():
    c4 = cycle(4)
    with pytest.raises(ValueError, match="not a set variant"):
        DominationSpec.brace_k(2).requirements()
    with pytest.raises(ValueError, match="not a function variant"):
        DominationSpec.k_tuple(2).vectors(3)
    with pytest.raises(ValueError, match="verify_set needs a set variant"):
        verify_set(c4, DominationSpec.brace_k(1), [0, 2])
    with pytest.raises(ValueError, match="verify_function needs a function variant"):
        verify_function(c4, DominationSpec.classical(), VertexFunction((1, 0, 1, 0)))


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


@pytest.mark.parametrize("variant,params", [
    ("classical", {"k": 1}),
    ("k_dominating", {}),
    ("k_tuple", {}),
    ("total_k", {"k": 2, "l": 2}),
    ("brace_k", {"r": (1,), "s": (1,)}),
    ("parametric", {"k": 2}),
    ("parametric", {"l": 2}),
    ("rs", {"r": (1, 1)}),
    ("total_rs", {"k": 1, "r": (1,), "s": (1,)}),
    ("k_tuple", {"k": True}),
    ("k_tuple", {"k": 2.0}),
    ("brace_k", {"k": "2"}),
    ("parametric", {"k": 2, "l": 1.5}),
    ("parametric", {"k": 2, "l": 0}),
    ("total_k", {"k": 2**31}),
])
def test_every_constructor_checks_its_parameters(variant, params):
    with pytest.raises(ValueError):
        DominationSpec(variant, **params)


def test_direct_construction_matches_the_classmethods():
    assert DominationSpec("parametric", k=2, l=3) == DominationSpec.parametric(2, 3)
    spec = DominationSpec.k_tuple(np.int64(2))
    assert type(spec.k) is int and spec.label() == "ktuple:2"
    spec = DominationSpec("rs", r=[1, 2], s=np.array([1, 0]))
    assert spec == DominationSpec.rs((1, 2), (1, 0))
    assert hash(spec) == hash(DominationSpec.rs((1, 2), (1, 0)))
    assert spec.r == (1, 2) and spec.s == (1, 0)
    assert spec.to_dict() == {"variant": "rs", "r": [1, 2], "s": [1, 0]}


@pytest.mark.parametrize("variant", ["rs", "total_rs"])
@pytest.mark.parametrize("r,s", [((-1, 2), (1, 1)), ((1, 2), (True, 1)),
                                 ((1, 2**31), (1, 1)), ((1, 1), (1, 2**31))])
def test_direct_construction_checks_vectors_like_the_classmethod(variant, r, s):
    with pytest.raises(ValueError) as by_classmethod:
        getattr(DominationSpec, variant)(r, s)
    with pytest.raises(ValueError) as direct:
        DominationSpec(variant, r=r, s=s)
    assert str(direct.value) == str(by_classmethod.value)


@pytest.mark.parametrize("spec", [DominationSpec.rs((1, 2, 3), (1, 1, 2)),
                                  DominationSpec.total_rs((1, 2, 3), (1, 1, 2)),
                                  DominationSpec.brace_k(2)], ids=lambda s: s.variant)
def test_vectors_are_read_only_int64_arrays(spec):
    caps, demands = spec.vectors(3)
    for vector in (caps, demands):
        assert vector.dtype == np.int64 and vector.shape == (3,)
        assert not vector.flags.writeable
        with pytest.raises(ValueError):
            vector[0] = 5
    if spec.variant == "brace_k":
        assert caps.tolist() == demands.tolist() == [2, 2, 2]
    else:
        again = spec.vectors(3)
        assert again[0] is caps and again[1] is demands
        assert (caps.tolist(), demands.tolist()) == ([1, 2, 3], [1, 1, 2])
        assert (spec.r, spec.s) == ((1, 2, 3), (1, 1, 2))
        with pytest.raises(ValueError):
            spec.vectors(4)


@pytest.mark.parametrize("make", [DominationSpec.rs, DominationSpec.total_rs])
def test_cap_summary_gives_ints_that_reach_json(make):
    spec = make((2, 3, 2, 3, 2), (1, 2, 1, 1, 2))
    summary = spec.cap_summary(5)
    assert summary == (2, 2, 12) and all(type(x) is int for x in summary)
    for force in (False, True):
        json.dumps([r.to_dict() for r in bounds_for_spec(spec, 2, 5, c=1.5, force=force)])


@pytest.mark.parametrize("entries,message", [
    ([1, True], "must be integers, got True"),
    ([1, np.bool_(False)], "must be integers, got np.False_"),
    ([1, 2.0], "must be integers, got 2.0"),
    ([1, -1], "must be nonnegative"),
    ([1, LABEL_LIMIT], f"must be below {LABEL_LIMIT}"),
    ([1, 2**63], f"must be below {LABEL_LIMIT}"),
    ([1, -2**63 - 1], "must be nonnegative"),
    (np.array([1, -3], dtype=np.int32), "must be nonnegative"),
    # 2**63 wraps to a negative int64: the check reads the value, not a cast
    (np.array([1, 2**63], dtype=np.uint64), f"must be below {LABEL_LIMIT}"),
], ids=["bool", "np_bool", "float", "negative", "limit", "past_int64", "below_int64",
        "int32_array", "uint64_array"])
def test_vector_checks_keep_their_messages(entries, message):
    ones = [1] * len(entries)
    for make, what in ((VertexFunction, "values"),
                       (lambda v: DominationSpec.rs(v, ones), "r"),
                       (lambda v: DominationSpec.total_rs(ones, v), "s")):
        with pytest.raises(ValueError) as err:
            make(entries)
        assert str(err.value) == f"{what} entries {message}"
    with pytest.raises(ValueError) as err:
        DominationSpec.rs([1, 2], [1])
    assert str(err.value) == "r and s vectors must have equal length"


@pytest.mark.parametrize("entries", [[], np.array([], dtype=np.int64), [3, 0, 2],
                                     np.array([3, 0, 2], dtype=np.int32),
                                     [np.uint8(3), 0, np.int64(2)]])
def test_vectors_stay_tuples_of_python_ints(entries):
    f = VertexFunction(entries)
    spec = DominationSpec.rs(entries, entries)
    want = tuple(int(v) for v in entries)
    for vector in (f.values, spec.r, spec.s):
        assert type(vector) is tuple and vector == want
        assert all(type(v) is int for v in vector)
    assert f == VertexFunction(want) and hash(f) == hash(VertexFunction(want))
    assert spec == DominationSpec.rs(want, want) and hash(spec) == hash(DominationSpec.rs(want, want))
    assert repr(f) == f"VertexFunction(values={want!r})"
    assert repr(spec) == f"DominationSpec(variant='rs', k=None, l=None, r={want!r}, s={want!r})"
    for twin in (copy.deepcopy(f), copy.copy(f), pickle.loads(pickle.dumps(f))):
        assert twin == f and hash(twin) == hash(f) and repr(twin) == repr(f)
        assert twin._array.dtype == np.int64 and not twin._array.flags.writeable
        assert twin._array.tolist() == list(want)


def _full_feasibility(g, spec):
    """Feasibility from the guaranteed witness alone, the (l-1)-core of a
    set variant or the all-caps function, with no shortcut."""
    if spec.is_set_variant:
        what = f"neighbours in the {spec.requirements()[1] - 1}-core number"
    else:
        what = f"{'open' if spec.uses_open_neighborhoods else 'closed'} neighborhood caps sum to"
    have, need = _sums(g, spec.model(g.n), _guaranteed_witness(g, spec))
    short = np.flatnonzero(have < need)
    if short.size:
        i = short[0]
        return False, f"vertex {i}: {what} {have[i]} < demand {need[i]}"
    return True, ""


@given(st.integers(1, 14), st.floats(0, 1), st.integers(0, 2**16), st.data())
@settings(max_examples=200, deadline=None)
def test_feasibility_matches_the_full_check(n, p, seed, data):
    # the tau (delta + closed + shift) >= max s shortcut never changes a verdict or reason
    g = gnp(n, p, seed)
    variant = data.draw(st.sampled_from(["rs", "total_rs", "brace_k", "parametric"]))
    if variant == "brace_k":
        spec = DominationSpec.brace_k(data.draw(st.integers(1, 4)))
    elif variant == "parametric":
        k = data.draw(st.integers(1, 3))
        spec = DominationSpec.parametric(k, data.draw(st.integers(1, k + 3)))
        event(f"shortcut: {g.min_degree >= spec.l - 1}")
    else:
        caps = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        slots = g.min_degree + (variant == "rs")  # caps each neighbourhood holds at least
        # demands up to past the largest neighbourhood, so both sides of the shortcut occur
        top = data.draw(st.integers(0, 3 * (g.max_degree + 2)))
        demands = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
        spec = getattr(DominationSpec, variant)(caps, demands)
        event(f"shortcut: {min(caps) * slots >= max(demands)}")
    assert spec.feasibility(g) == _full_feasibility(g, spec)


def _variant_sums(g, spec, x):
    """(achieved, required) in each variant's own terms, vertex by vertex:
    a set's closed sums against l at members and k elsewhere, a function's
    closed (open for total_rs) sums against its demands."""
    closed = spec.is_set_variant or not spec.uses_open_neighborhoods
    achieved = np.array([sum(x[u] for u in g.neighbors(v)) + closed * x[v] for v in range(g.n)])
    if spec.is_set_variant:
        k, l = spec.requirements()
        return achieved, np.where(x == 1, l, k)
    return achieved, spec.vectors(g.n)[1]


@given(st.integers(1, 12), st.floats(0, 1), st.integers(0, 2**16), st.data())
@settings(max_examples=400, deadline=None)
def test_the_model_agrees_with_the_verifiers(n, p, seed, data):
    g = gnp(n, p, seed)
    variant = data.draw(st.sampled_from(SET_VARIANTS + FUNCTION_VARIANTS))
    k = data.draw(st.integers(1, 4))
    if variant == "classical":
        spec = DominationSpec.classical()
    elif variant == "parametric":
        # l < k, l = k, l = k + 1 and l >= k + 2
        spec = DominationSpec.parametric(k, data.draw(st.integers(1, k + 4)))
        event(f"l - k: {min(spec.l - spec.k, 2)}")
    elif variant in ("rs", "total_rs"):
        caps = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        top = 3 * (g.max_degree + 1)
        demands = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
        spec = getattr(DominationSpec, variant)(caps, demands)
    else:
        spec = getattr(DominationSpec, variant)(k)
    caps = [1] * n if spec.is_set_variant else spec.vectors(n)[0].tolist()
    if data.draw(st.booleans()):
        x = np.array([data.draw(st.integers(0, cap + 1)) for cap in caps], dtype=np.int64)
    else:  # the all-caps row with up to two labels moved, near the boundary of validity
        x = np.array(caps, dtype=np.int64)
        for v in data.draw(st.lists(st.integers(0, n - 1), max_size=2)):
            x[v] = data.draw(st.integers(0, caps[v] + 1))
    if spec.is_set_variant:
        # a row with a label above 1 is no set
        valid = x.max() <= 1 and verify_set(g, spec, np.flatnonzero(x).tolist()).valid
    else:
        try:
            valid = verify_function(g, spec, VertexFunction(x)).valid
        except CapViolationError:
            valid = False
    event(f"valid: {valid}")
    model = spec.model(n)
    assert _rows_valid(g, model, x[None]).tolist() == [valid]
    if spec.is_function_variant or x.max() <= 1:
        for got, want in zip(_sums(g, model, x), _variant_sums(g, spec, x)):
            assert np.broadcast_to(got, n).tolist() == np.broadcast_to(want, n).tolist()


def test_set_models_are_plain_ints():
    # the feasibility shortcut reads them on every construction and search
    for spec, want in ((DominationSpec.classical(), (True, 0, 1, 1)),
                       (DominationSpec.k_dominating(3), (True, 2, 1, 3)),
                       (DominationSpec.k_tuple(2), (True, 0, 1, 2)),
                       (DominationSpec.total_k(2), (True, -1, 1, 2)),
                       (DominationSpec.parametric(1, 4), (True, -3, 1, 1))):
        assert spec.model(7) == want and all(type(v) in (bool, int) for v in spec.model(7))
        assert spec.cap_summary(7) == (1, want[3], 7)


def test_a_set_row_above_its_cap_is_not_a_witness():
    # [2, 0, 0, 1, 0] meets every closed demand of domination on C5, but a
    # set holds a vertex once
    model = DominationSpec.classical().model(5)
    assert _rows_valid(cycle(5), model, np.array([[2, 0, 0, 1, 0]])).tolist() == [False]
    assert _rows_valid(cycle(5), model, np.array([[1, 0, 0, 1, 0]])).tolist() == [True]
