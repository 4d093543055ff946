"""One integer domain at every public entry of multidom.

Each public callable is called with arguments drawn per parameter name:
ints in and out of range, bools, floats, numpy ints and uints, huge and
negative ints. A call either returns or raises ValueError or a
MultidomError, never TypeError, OverflowError or anything else; and a
result that echoes an integer argument echoes it as a Python int.
"""

import inspect
import math
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multidom
from multidom import DominationSpec, Graph, MultidomError, VertexFunction, cycle, path, petersen

PUBLIC = {name: obj for name, obj in vars(multidom).items()
          if not name.startswith("_") and callable(obj) and not isinstance(obj, ModuleType)}
# results the library builds and returns; no caller hands them integers
RECORDS = {"BoundReport", "ComparisonReport", "ConstructionResult", "CubicSpec", "ExactResult",
           "VerifyReport"}
ENTRIES = sorted(name for name, obj in PUBLIC.items() if name not in RECORDS
                 and not (isinstance(obj, type) and issubclass(obj, Exception)))


def integers(lo: int, hi: int, past: int | None = None) -> st.SearchStrategy:
    """Integer-like arguments around [lo, hi], where the valid values of a
    parameter lie: plain and numpy ints, bools, floats, None, and ints past
    int64 either way; past, when given, is the first value above the
    parameter's own limit. Valid values stay small, so that no call's work
    grows large with them."""
    huge = st.integers(2**63, 2**80) | st.just(10**400) | st.integers(-2**80, -2**63 - 1)
    if past is not None:
        huge |= st.integers(past, 2**63 - 1)
    return st.one_of(
        st.integers(lo, hi),
        st.integers(lo, hi).map(np.int64),
        st.integers(max(lo, 0), hi).map(np.uint64),
        st.integers(max(lo, -128), min(hi, 127)).map(np.int8),
        st.just(np.uint64(2**64 - 1)),
        huge,
        st.booleans(),
        st.just(np.bool_(True)),
        st.integers(lo, hi).map(float),
        st.floats(allow_nan=True, allow_infinity=True),
        st.none(),
    )


def vectors(lo: int, hi: int, size: int = 5) -> st.SearchStrategy:
    """Label, cap, demand or id vectors: mostly of the graphs' size 5, as
    lists, tuples or numpy arrays of assorted dtypes, with stray entries."""
    entry = integers(lo, hi)
    return st.one_of(
        st.lists(st.integers(max(lo, 0), hi), min_size=size, max_size=size),
        st.lists(entry, max_size=size + 1),
        st.lists(entry, max_size=size + 1).map(tuple),
        st.lists(st.integers(max(lo, 0), hi), max_size=size + 1).map(np.array),
        st.lists(st.integers(max(lo, 0), hi), min_size=size, max_size=size).map(
            lambda v: np.array(v, dtype=np.uint64)),
        st.just(np.array([2**63, 0, 0, 0, 0], dtype=np.uint64)),
        st.just(np.array([1.0, 0.0, 1.0, 0.0, 1.0])),
        st.just(np.ones(size, dtype=bool)),
        st.just(np.ones((2, size), dtype=np.int64)),
        integers(lo, hi),
    )


LABEL_PAST = 2**31  # caps, demands, k and l lie below it
GRAPHS = [cycle(5), path(5), Graph(5, [(0, 1), (1, 2)]), Graph(5, []), petersen()]
SPECS = [DominationSpec.classical(), DominationSpec.k_dominating(2), DominationSpec.k_tuple(2),
         DominationSpec.total_k(1), DominationSpec.parametric(1, 3), DominationSpec.brace_k(2),
         DominationSpec.rs([1, 2, 2, 1, 3], [1, 2, 1, 1, 2]),
         DominationSpec.total_rs([2] * 5, [1, 0, 2, 1, 1]), DominationSpec.rs([1, 1], [1, 1])]
TEXTS = ["# n=5\n0 1\n1 2\n", "p edge 4 2\ne 1 2\ne 3 4\n", "0 1\n1 0\n", "0 0\n",
         "p edge 3 1\ne 1 4\n", "", "# n=0\n", "0 x\n", f"0 {2**63}\n", "c only\n"]

STRATEGIES = {
    # integers of the paper: minimum degree, vertex count, demands, caps
    "delta": integers(-2, 40),
    "n": integers(-2, 12),
    "n1": integers(-2, 6),
    "n2": integers(-2, 6),
    "d": integers(-2, 5),
    "k": integers(-2, 8, LABEL_PAST),
    "l": integers(-2, 8, LABEL_PAST),
    "tau": integers(-2, 8, LABEL_PAST),
    "s": integers(-2, 8, LABEL_PAST) | vectors(-1, 3),  # a max demand, or a spec's demands
    "cap_sum": integers(-2, 60),
    "top": integers(-3, 40),
    "t": integers(-3, 40),
    # run limits and seeds
    "seed": integers(-2, 2**16),
    "max_trials": integers(-2, 6),
    "limit_n": integers(-2, 25),
    "node_budget": integers(-2, 2000),
    # vectors
    "r": vectors(-1, 3) | st.none(),
    "r_vec": vectors(-1, 3),
    "s_vec": vectors(-1, 3),
    "values": vectors(-1, 3),
    "members": vectors(-1, 6),
    "x": vectors(-1, 3),
    "edges": st.one_of(
        st.lists(st.tuples(integers(-1, 5), integers(-1, 5)), max_size=4),
        st.lists(st.integers(0, 4), min_size=2, max_size=8).map(
            lambda v: np.array(v[: len(v) // 2 * 2]).reshape(-1, 2)),
        st.sampled_from([np.array([[0.5, 1.7]]), np.array([[True, False]]),
                         np.array([[0, 2**63]], dtype=np.uint64), np.array([[0, 1]], dtype=np.uint8),
                         [(0, 1, 2)], [], np.zeros((0, 3), dtype=np.int64), [(0, 2**70)]]),
    ),
    # everything else
    "p": st.floats(-0.5, 1.5) | st.just(math.nan),
    "c": st.floats(allow_nan=True, allow_infinity=True) | st.integers(-2, 5),
    "force": st.booleans(),
    "closed": st.booleans(),
    "collect_trace": st.booleans(),
    "g": st.sampled_from(GRAPHS),
    "spec": st.sampled_from(SPECS),
    "f": st.lists(st.integers(0, 3), min_size=4, max_size=6).map(VertexFunction),
    "variant": st.sampled_from(["classical", "k_tuple", "parametric", "rs", "brace_k", "bogus", 3]),
    "fmt": st.sampled_from([None, "edge_list", "dimacs", "graphml"]),
    "text": st.sampled_from(TEXTS),
    "path": st.sampled_from(["a.txt", "b.txt"]),  # file names in the test's own directory
}


def _echoes(result) -> dict:
    """The integers a result reports back, by name: its fields and, where
    it has them, its params."""
    if isinstance(result, Graph):
        return {"n": result.n}
    if isinstance(result, DominationSpec):
        return {"k": result.k, "l": result.l}
    out = result.to_dict() if hasattr(result, "to_dict") else result
    if not isinstance(out, dict):
        return {}
    echoed = dict(out, **out.get("params") or {})
    if "highlight_k" in echoed:
        echoed["k"] = echoed["highlight_k"]
    return echoed


def _no_numpy_scalars(value) -> bool:
    if isinstance(value, dict):
        return all(map(_no_numpy_scalars, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_no_numpy_scalars, value))
    return not isinstance(value, np.generic)


def test_every_parameter_of_every_entry_has_a_strategy():
    assert RECORDS <= PUBLIC.keys() and len(ENTRIES) > 40
    missing = [f"{name}({param})" for name in ENTRIES
               for param in inspect.signature(PUBLIC[name]).parameters if param not in STRATEGIES]
    assert missing == []


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    where = tmp_path_factory.mktemp("contract")
    (where / "a.txt").write_text(TEXTS[0])
    (where / "b.txt").write_text(TEXTS[1])
    return where


@pytest.mark.parametrize("name", ENTRIES)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_every_entry_takes_one_integer_domain(name, workdir, data):
    call = PUBLIC[name]
    args = {param: data.draw(STRATEGIES[param], label=param)
            for param in inspect.signature(call).parameters}
    if "path" in args:
        args["path"] = str(workdir / args["path"])
    try:
        result = call(**args)
    except (ValueError, MultidomError):
        return
    if isinstance(result, list):  # bounds_for_spec
        echoes = [_echoes(r) for r in result]
    else:
        echoes = [_echoes(result)]
    for echoed in echoes:
        assert _no_numpy_scalars(echoed)
        for param, value in args.items():
            if param in echoed and isinstance(value, (int, np.integer)):
                assert type(echoed[param]) is int and echoed[param] == value, (param, echoed)


# Calls each entry used to accept, cast or fail on with another error.
@pytest.mark.parametrize("call", [
    lambda: multidom.bound_classical(2.7, 10),
    lambda: multidom.bound_classical(3, 10.5),
    lambda: multidom.bound_classical(3, True),
    lambda: multidom.bound_parametric(True, 1, 10, 5),
    lambda: multidom.bound_rs(2.5, 3, 30, 4, 10),
    lambda: multidom.bounds_for_spec(DominationSpec.k_dominating(2), 3.5, 10),
    lambda: multidom.gnp(True, 0.5, 1),
    lambda: multidom.gnp(10, 0.5, 1.5),
    lambda: multidom.random_regular(10, 3.0, 1),
    lambda: multidom.cycle(5.0),
    lambda: multidom.construct_parametric(cycle(6), 1, 1, 1, max_trials=2.5),
    lambda: multidom.construct_parametric(cycle(6), 1, 1, seed=1.5),
    lambda: multidom.exact_set_number(cycle(6), DominationSpec.classical(), limit_n=20.5),
    lambda: multidom.compare_bounds(1.5, 10, 1),
    lambda: multidom.solve_cubic(2.0, 10),
    lambda: multidom.log_binomial(6.0, 2),
    lambda: cycle(5).degree(True),
    lambda: VertexFunction.characteristic([0], 5.0),
], ids=lambda call: inspect.getsource(call).strip().removeprefix("lambda: ").rstrip(","))
def test_calls_once_accepted_or_mistyped_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_numpy_integers_are_echoed_as_python_ints():
    rep = multidom.bound_parametric(np.int64(2), np.uint8(2), np.int32(9), np.uint64(12))
    assert rep.params["k"] == 2 and type(rep.params["k"]) is int
    assert all(type(rep.params[key]) is int for key in ("delta", "k", "l", "phi", "delta_bar"))
    assert multidom.gnp(np.int16(7), 0.5, np.uint32(3)) == multidom.gnp(7, 0.5, 3)
    assert type(multidom.cycle(np.int64(5)).n) is int
    assert multidom.compare_bounds(np.int64(2), np.int64(9), np.int64(4)).to_dict() == \
        multidom.compare_bounds(2, 9, 4).to_dict()


@pytest.mark.parametrize("call, message", [
    (lambda: multidom.bound_classical(3, 2**63), "^n must be <= 9223372036854775807$"),
    (lambda: multidom.bound_threshold_ktuple(2**31, 10, 5, 2.0), "^k must be <= 2147483647$"),
    (lambda: multidom.bound_rs(1, 2**31, 5, 3, 5), "^s must be <= 2147483647$"),
    (lambda: multidom.bound_rs(-1, 1, 5, 3, 5), "^tau must be >= 0$"),
    (lambda: multidom.bound_rs(1, 1, -5, 3, 5), "^cap_sum must be >= 0$"),
    (lambda: multidom.Graph(10**7 + 1, []), "^graph needs n <= 10000000$"),
    (lambda: multidom.random_regular(5, 5, 1), "^random regular needs d <= 4$"),
    (lambda: multidom.bound_classical(np.float64(3.0), 5), "^delta takes integers only, got "),
    (lambda: cycle(5).has_edge(0, 2.0), "^vertex id takes integers only, got 2.0$"),
])
def test_range_and_type_messages(call, message):
    with pytest.raises(ValueError, match=message):
        call()
