import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multidom.oracle
from helpers import brute_function_number, brute_set_number, small_graphs
from multidom import (
    DominationSpec,
    Graph,
    InfeasibleSpecError,
    MultidomError,
    ResourceLimitError,
    VerifyReport,
    VertexFunction,
    coverage,
    cycle,
    exact_function_number,
    exact_set_number,
    gnp,
    path,
    petersen,
    verify_function,
    verify_set,
)
from test_graph import small_graphs as uneven_graphs


def test_known_set_numbers():
    c4 = cycle(4)
    assert exact_set_number(c4, DominationSpec.classical()).value == 2
    assert exact_set_number(c4, DominationSpec.k_tuple(2)).value == 3
    assert exact_set_number(c4, DominationSpec.total_k(1)).value == 2
    assert exact_set_number(c4, DominationSpec.parametric(1, 2)).value == 2
    assert exact_set_number(petersen(), DominationSpec.classical()).value == 3
    assert exact_set_number(cycle(5), DominationSpec.k_dominating(2)).value == 3
    assert exact_set_number(path(3), DominationSpec.classical()).value == 1


def test_known_function_numbers():
    c4 = cycle(4)
    assert exact_function_number(c4, DominationSpec.brace_k(2)).value == 3
    # rs with r=1, s=2 is exactly 2-tuple domination
    r = exact_function_number(c4, DominationSpec.rs((1,) * 4, (2,) * 4))
    assert r.value == 3
    # total r=s=1 is total domination
    r = exact_function_number(c4, DominationSpec.total_rs((1,) * 4, (1,) * 4))
    assert r.value == 2


def test_witness_contract():
    c4 = cycle(4)
    res = exact_set_number(c4, DominationSpec.k_tuple(2))
    rep = verify_set(c4, DominationSpec.k_tuple(2), res.witness)
    assert rep.valid and rep.weight == res.value
    fres = exact_function_number(c4, DominationSpec.brace_k(2))
    frep = verify_function(c4, DominationSpec.brace_k(2), fres.witness)
    assert frep.valid and frep.weight == fres.value
    assert fres.nodes_explored > 0


SET_SPECS = [
    DominationSpec.classical(),
    DominationSpec.k_dominating(2),
    DominationSpec.k_tuple(2),
    DominationSpec.total_k(1),
    DominationSpec.parametric(2, 3),
]


@pytest.mark.parametrize("seed", range(8))
def test_set_oracle_matches_brute_force(seed):
    g = gnp(7, 0.45, seed=seed)
    for spec in SET_SPECS:
        ok, _ = spec.feasibility(g)
        if not ok:
            continue
        k_req, l_req = spec.requirements()
        want = brute_set_number(g, k_req, l_req)
        got = exact_set_number(g, spec).value
        assert got == want, (spec.label(), seed)


@pytest.mark.parametrize("seed", range(5))
def test_function_oracle_matches_brute_force(seed):
    g = gnp(6, 0.5, seed=seed)
    for caps, demands, open_nb in [
        ((2,) * 6, (2,) * 6, False),
        ((1,) * 6, (1,) * 6, False),
        ((2,) * 6, (1, 2, 1, 2, 1, 2), False),
        ((1,) * 6, (1,) * 6, True),
    ]:
        spec = (DominationSpec.total_rs(caps, demands) if open_nb
                else DominationSpec.rs(caps, demands))
        ok, _ = spec.feasibility(g)
        if not ok:
            continue
        want = brute_function_number(g, caps, demands, open_nb)
        got = exact_function_number(g, spec).value
        assert got == want


LABELS = st.lists(st.integers(0, 2), min_size=8, max_size=8)


@given(uneven_graphs(max_n=8), st.integers(1, 2), st.integers(1, 2), LABELS, LABELS)
@example(Graph(6, [(0, 1), (1, 2), (2, 3), (1, 4)]), 1, 2, [2] * 8, [1] * 8)  # pendants, isolated 5
@example(Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]), 2, 1, [1, 2] * 4, [2, 1] * 4)
@settings(max_examples=150, deadline=None)
def test_oracle_matches_brute_force_on_uneven_graphs(g, k, l, caps, demands):
    """Every variant, on graphs whose empty and short rows the seeded ones lack."""
    caps, demands = caps[: g.n], demands[: g.n]
    specs = [
        DominationSpec.classical(),
        DominationSpec.k_dominating(k),
        DominationSpec.k_tuple(k),
        DominationSpec.total_k(k),
        DominationSpec.parametric(k, l),
        DominationSpec.brace_k(k),
        DominationSpec.rs(caps, demands),
        DominationSpec.total_rs(caps, demands),
    ]
    for spec in specs:
        if not spec.feasibility(g)[0]:
            continue
        if spec.is_set_variant:
            want = brute_set_number(g, *spec.requirements())
            assert exact_set_number(g, spec).value == want, spec.label()
        else:
            want = brute_function_number(g, *spec.vectors(g.n), spec.uses_open_neighborhoods)
            assert exact_function_number(g, spec, limit_n=8).value == want, spec.label()


def test_brace_one_equals_classical_domination():
    for name, g in small_graphs(8)[:12]:
        a = exact_function_number(g, DominationSpec.brace_k(1), limit_n=8).value
        b = exact_set_number(g, DominationSpec.classical()).value
        assert a == b, name


def test_brace_chain_bounds():
    # gamma <= gamma_{k} <= k * gamma
    for name, g in small_graphs(7)[:8]:
        gam = exact_set_number(g, DominationSpec.classical()).value
        g2 = exact_function_number(g, DominationSpec.brace_k(2), limit_n=8).value
        assert gam <= g2 <= 2 * gam, name


def test_resource_guards():
    big = gnp(25, 0.3, seed=1)
    with pytest.raises(ResourceLimitError):
        exact_set_number(big, DominationSpec.classical())  # default limit_n=20
    g = gnp(14, 0.3, seed=1)
    with pytest.raises(ResourceLimitError):
        exact_function_number(g, DominationSpec.brace_k(2))  # default limit_n=12
    with pytest.raises(ResourceLimitError) as exc:
        exact_set_number(g, DominationSpec.classical(), node_budget=3)
    assert exc.value.partial is not None
    t = exc.value.partial["size_reached"]
    assert exc.value.partial["lower_bound"] == t
    assert str(exc.value).endswith(f"; the domination number is at least {t}")
    assert exact_set_number(g, DominationSpec.classical()).value >= t


@pytest.mark.parametrize("budget", [0, -5])
def test_node_budget_must_be_positive(budget):
    g = petersen()
    with pytest.raises(ValueError, match="node_budget must be >= 1"):
        exact_set_number(g, DominationSpec.k_tuple(2), node_budget=budget)
    with pytest.raises(ValueError, match="node_budget must be >= 1"):
        exact_function_number(g, DominationSpec.brace_k(2), node_budget=budget)


def test_function_search_budget_stop_reports_its_partial():
    with pytest.raises(ResourceLimitError, match="^node budget 5 exhausted$") as exc:
        exact_function_number(petersen(), DominationSpec.brace_k(2), node_budget=5)
    # lower bound max(max s, ceil(sum s / (Δ+1))) = max(2, ceil(20 / 4)); the
    # incumbent is still the all-caps function
    assert exc.value.partial == {"best_weight_so_far": 20, "nodes": 6, "lower_bound": 5,
                                 "upper_bound": 20, "witness": VertexFunction((2,) * 10)}


def _bracket_spec(label, g, data):
    """One of the eight variants. rs and totalrs draw their vectors, and a
    demand never exceeds its neighbourhood's caps, so they are feasible."""
    if label in ("rs", "totalrs"):
        caps = [2 + v % 2 for v in range(g.n)]
        demands = [1 + v % 3 for v in range(g.n)]
        if data is not None:
            caps = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
            demands = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
        room = coverage(g, caps, closed=label == "rs").tolist()
        make = DominationSpec.rs if label == "rs" else DominationSpec.total_rs
        return make(caps, [min(d, r) for d, r in zip(demands, room)])
    return {
        "classical": DominationSpec.classical(),
        "kdom:2": DominationSpec.k_dominating(2),
        "ktuple:2": DominationSpec.k_tuple(2),
        "totalk:1": DominationSpec.total_k(1),
        "param:1,2": DominationSpec.parametric(1, 2),
        "bracek:2": DominationSpec.brace_k(2),
    }[label]


@given(uneven_graphs(max_n=9), st.sampled_from(
    ["classical", "kdom:2", "ktuple:2", "totalk:1", "param:1,2", "bracek:2", "rs", "totalrs"]),
    st.data())
@example(petersen(), "bracek:2", None)
@example(petersen(), "totalrs", None)
@example(gnp(9, 0.5, 2), "ktuple:2", None)
@settings(max_examples=80, deadline=None)
def test_budget_stop_brackets_the_optimum(g, label, data):
    """A search stops on its budget iff the budget is below its full node
    count; then lower_bound <= optimum <= upper_bound, and a function search's
    incumbent is a valid witness of weight upper_bound."""
    spec = _bracket_spec(label, g, data)
    if not spec.feasibility(g)[0]:
        return
    search = exact_set_number if spec.is_set_variant else exact_function_number
    full = search(g, spec, limit_n=g.n)
    budgets = [1, 2, full.nodes_explored - 1, full.nodes_explored]
    if data is not None:
        budgets.append(data.draw(st.integers(1, full.nodes_explored + 1)))
    for budget in [b for b in budgets if b >= 1]:
        try:
            res = search(g, spec, limit_n=g.n, node_budget=budget)
        except ResourceLimitError as exc:
            partial = exc.partial
            assert budget < full.nodes_explored
            assert partial["lower_bound"] <= full.value <= partial["upper_bound"]
            if spec.is_function_variant:
                report = verify_function(g, spec, partial["witness"])
                assert report.valid and report.weight == partial["upper_bound"]
        else:
            assert budget >= full.nodes_explored and res == full


@pytest.mark.parametrize("limit", [0, -1])
def test_limit_n_must_be_positive(limit):
    g = petersen()
    with pytest.raises(ValueError, match="limit_n must be >= 1"):
        exact_set_number(g, DominationSpec.k_tuple(2), limit_n=limit)
    with pytest.raises(ValueError, match="limit_n must be >= 1"):
        exact_function_number(g, DominationSpec.brace_k(2), limit_n=limit)


def test_exact_value_never_exceeds_construction_weight():
    from multidom import construct_parametric, construct_rs

    for seed in range(4):
        g = gnp(9, 0.4, seed=seed)
        spec = DominationSpec.parametric(2, 2)
        if spec.feasibility(g)[0] and g.min_degree >= 2:
            exact = exact_set_number(g, spec).value
            for s in range(5):
                res = construct_parametric(g, 2, 2, seed=s, max_trials=1)
                assert exact <= res.weight
        vec = (2,) * g.n
        exact = exact_function_number(g, DominationSpec.rs(vec, vec), limit_n=9).value
        for s in range(5):
            res = construct_rs(g, vec, vec, seed=s, max_trials=1)
            assert exact <= res.weight


def test_infeasible_spec_refused():
    c4 = cycle(4)
    with pytest.raises(InfeasibleSpecError):
        exact_set_number(c4, DominationSpec.total_k(3))
    with pytest.raises(InfeasibleSpecError):
        exact_function_number(c4, DominationSpec.rs((1,) * 4, (5,) * 4))


def test_wrong_variant_type():
    c4 = cycle(4)
    with pytest.raises(ValueError):
        exact_set_number(c4, DominationSpec.brace_k(2))
    with pytest.raises(ValueError):
        exact_function_number(c4, DominationSpec.classical())


def test_to_dict_shapes():
    c4 = cycle(4)
    d = exact_set_number(c4, DominationSpec.classical()).to_dict()
    assert set(d["witness"].keys()) == {"set"}
    d = exact_function_number(c4, DominationSpec.brace_k(2)).to_dict()
    assert set(d["witness"].keys()) == {"values"}


def test_invalid_search_witness_raises_multidom_error(monkeypatch):
    def invalid(*args):
        return VerifyReport(False, 0, ((0, 1, 0),))

    monkeypatch.setattr(multidom.oracle, "verify_set", invalid)
    monkeypatch.setattr(multidom.oracle, "verify_function", invalid)
    with pytest.raises(MultidomError, match="invalid witness"):
        exact_set_number(cycle(5), DominationSpec.classical())
    with pytest.raises(MultidomError, match="invalid witness"):
        exact_function_number(cycle(5), DominationSpec.brace_k(2))
