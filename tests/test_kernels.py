"""The exact-search kernels: suffix table, pinned search order, budget stop."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multidom
from helpers import reference_function_search, reference_set_search
from multidom import DominationSpec, cycle, exact_function_number, exact_set_number, gnp, petersen
from multidom._kernels import (
    function_search_min_weight,
    prune_tables,
    set_search_fixed_size,
    suffix_counts,
)
from multidom.verify import LABEL_LIMIT
from test_graph import small_graphs

# (value, witness, nodes_explored) of every variant on seven seeded graphs.
# The node counts pin the DFS itself: candidate order, prune predicate and
# budget accounting. Graphs five and six hold the two kernel instances
# that perfbench's exact-small also runs (ktuple:2 on gnp(16, .35, 3),
# bracek:2 on gnp(13, .3, 5)). The first six have minimum degree >= 2, so
# every variant is feasible on them; they were recorded with the
# numpy-array kernels that the list kernels replaced. The seventh,
# gnp(11, .3, 2), has three pendant vertices (4, 5 and 10), so its short
# rows are pinned too; totalk:2 is infeasible there and left out.
PINNED = {
    (10, 0.4, 3): [
        ("classical", 3, (0, 1, 6), 60),
        ("kdom:2", 4, (1, 4, 7, 8), 242),
        ("ktuple:2", 5, (1, 2, 3, 5, 6), 215),
        ("totalk:2", 7, (0, 1, 2, 4, 5, 6, 8), 384),
        ("param:1,3", 4, (0, 1, 2, 5), 94),
        ("bracek:2", 5, (0, 1, 1, 0, 0, 1, 1, 0, 1, 0), 462),
        ("rs", 4, (0, 2, 1, 0, 0, 0, 1, 0, 0, 0), 195),
        ("totalrs", 5, (0, 2, 2, 0, 0, 1, 0, 0, 0, 0), 522),
    ],
    (11, 0.4, 5): [
        ("classical", 2, (3, 9), 37),
        ("kdom:2", 4, (0, 1, 2, 9), 101),
        ("ktuple:2", 4, (2, 3, 8, 9), 152),
        ("totalk:2", 5, (2, 3, 5, 8, 9), 288),
        ("param:1,3", 3, (5, 8, 9), 109),
        ("bracek:2", 4, (0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0), 186),
        ("rs", 3, (0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0), 76),
        ("totalrs", 4, (0, 0, 0, 1, 0, 0, 0, 0, 2, 1, 0), 212),
    ],
    (12, 0.35, 3): [
        ("classical", 3, (0, 3, 6), 93),
        ("kdom:2", 5, (1, 2, 3, 6, 8), 530),
        ("ktuple:2", 6, (0, 1, 3, 4, 6, 8), 497),
        ("totalk:2", 7, (0, 2, 5, 6, 7, 8, 11), 714),
        ("param:1,3", 6, (0, 1, 6, 7, 8, 9), 733),
        ("bracek:2", 5, (1, 0, 0, 0, 0, 0, 2, 0, 1, 0, 1, 0), 399),
        ("rs", 4, (0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1), 154),
        ("totalrs", 5, (0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 2), 526),
    ],
    (14, 0.3, 1): [
        ("classical", 3, (5, 7, 10), 396),
        ("kdom:2", 6, (0, 1, 4, 5, 7, 9), 1365),
        ("ktuple:2", 6, (1, 3, 5, 7, 9, 10), 1072),
        ("totalk:2", 8, (0, 1, 2, 3, 5, 7, 9, 10), 1523),
        ("param:1,3", 4, (1, 5, 10, 11), 288),
        ("bracek:2", 6, (0, 0, 0, 0, 0, 2, 0, 2, 0, 0, 2, 0, 0, 0), 3981),
        ("rs", 5, (0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0), 1797),
        ("totalrs", 7, (0, 0, 0, 0, 1, 2, 0, 1, 0, 0, 2, 1, 0, 0), 13728),
    ],
    (16, 0.35, 3): [
        ("classical", 4, (0, 1, 6, 11), 765),
        ("kdom:2", 6, (0, 1, 6, 11, 12, 13), 3908),
        ("ktuple:2", 6, (0, 1, 6, 11, 13, 14), 1802),
        ("totalk:2", 8, (1, 2, 3, 8, 10, 11, 14, 15), 11926),
        ("param:1,3", 5, (1, 4, 6, 10, 12), 2193),
        ("bracek:2", 6, (0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1), 5970),
        ("rs", 5, (0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 1), 1619),
        ("totalrs", 5, (0, 2, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0), 1729),
    ],
    (13, 0.3, 5): [
        ("classical", 4, (0, 2, 4, 9), 369),
        ("kdom:2", 6, (0, 1, 2, 6, 9, 10), 958),
        ("ktuple:2", 7, (0, 1, 2, 4, 6, 8, 9), 1002),
        ("totalk:2", 9, (0, 2, 4, 5, 6, 8, 9, 10, 11), 2238),
        ("param:1,3", 5, (0, 2, 4, 9, 11), 469),
        ("bracek:2", 7, (1, 0, 1, 0, 1, 0, 1, 0, 0, 2, 1, 0, 0), 4290),
        ("rs", 5, (1, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0), 810),
        ("totalrs", 6, (2, 0, 0, 0, 1, 2, 0, 0, 0, 1, 0, 0, 0), 1975),
    ],
    (11, 0.3, 2): [
        ("classical", 3, (0, 3, 6), 68),
        ("kdom:2", 7, (0, 3, 4, 5, 6, 7, 10), 532),
        ("ktuple:2", 7, (0, 3, 4, 5, 6, 7, 10), 231),
        ("param:1,3", 5, (0, 1, 3, 6, 9), 139),
        ("bracek:2", 6, (2, 0, 0, 2, 0, 0, 2, 0, 0, 0, 0), 1056),
        ("rs", 4, (2, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0), 193),
        ("totalrs", 5, (1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0), 507),
    ],
}


def _spec(label, n):
    caps = tuple(2 + i % 2 for i in range(n))
    demands = tuple(2 if i % 3 == 0 else 1 for i in range(n))
    head, _, arg = label.partition(":")
    if head == "classical":
        return DominationSpec.classical()
    if head == "param":
        return DominationSpec.parametric(*(int(x) for x in arg.split(",")))
    if head == "rs":
        return DominationSpec.rs(caps, demands)
    if head == "totalrs":
        return DominationSpec.total_rs(caps, demands)
    make = {
        "kdom": DominationSpec.k_dominating,
        "ktuple": DominationSpec.k_tuple,
        "totalk": DominationSpec.total_k,
        "bracek": DominationSpec.brace_k,
    }[head]
    return make(int(arg))


def _pinned(set_variants):
    for (n, p, seed), rows in PINNED.items():
        g = gnp(n, p, seed)
        for label, value, witness, nodes in rows:
            spec = _spec(label, n)
            if spec.is_set_variant == set_variants:
                yield g, spec, (label, value, witness, nodes)


def test_set_search_pinned():
    for g, spec, want in _pinned(set_variants=True):
        res = exact_set_number(g, spec, limit_n=g.n)
        assert (want[0], res.value, res.witness, res.nodes_explored) == want


def test_function_search_pinned():
    for g, spec, want in _pinned(set_variants=False):
        res = exact_function_number(g, spec, limit_n=g.n)
        assert (want[0], res.value, res.witness.values, res.nodes_explored) == want


def _setup(n=10, p=0.4, seed=3):
    g = gnp(n, p, seed)
    return g, suffix_counts(g)


def test_suffix_counts():
    g, suffix = _setup(6, 0.5, 1)
    for v in range(6):
        closed = set(g.closed_neighborhood(v))
        for x in range(7):
            assert suffix[v, x] == sum(1 for u in closed if u >= x)


def test_budget_exhaustion_status():
    g, suffix = _setup(12, 0.3, 2)
    status, _, nodes = set_search_fixed_size(*prune_tables(g, 2, 2), 6, 2, 3)
    assert status == -1 and nodes == 4  # stopped right after crossing the budget


def _budget_ladder(full, top):
    """Budgets around the node count ``full`` of a search run with budget
    ``top``, and top itself."""
    return sorted({1, 2, 3, full // 3, full - 1, full, full + 1, top})


def _set_search_matches_reference(g, k_req, l_req):
    nbrs = [list(g.closed_neighborhood(v)) for v in range(g.n)]
    suf = suffix_counts(g).T.tolist()
    tables = prune_tables(g, k_req, l_req)
    for t in range(g.n + 1):
        full = reference_set_search(nbrs, suf, t, k_req, l_req, 10**9)[2]
        for budget in _budget_ladder(full, 10**9):
            want = reference_set_search(nbrs, suf, t, k_req, l_req, budget)
            got = set_search_fixed_size(*tables, t, k_req, budget)
            assert got == want, (k_req, l_req, t, budget)
    return tables


@given(small_graphs(max_n=12))
@example(gnp(12, 0.7, 0))  # dense: long pruned sibling runs and deep searches
@example(gnp(12, 0.7, 1))
@example(gnp(12, 0.7, 2))
@settings(max_examples=60, deadline=None)
def test_set_search_matches_reference(g):
    """Same (status, membership, nodes) as the loop before the prune tables for
    every demand pair, size and a ladder of budgets around the unbudgeted count."""
    for k_req in range(4):
        for l_req in range(5):
            _set_search_matches_reference(g, k_req, l_req)


# (k_req, l_req, field bits): the smallest width whose bias exceeds
# 2n + 1 + 2(k_req + l_req) on each graph below, of 5 to 10 vertices
WIDTHS = [(3, 1, 8), (2, 60, 16), (100, 1, 16), (40_000, 2, 32),
          (LABEL_LIMIT - 1, 1, 64), (1, LABEL_LIMIT - 1, 64), (LABEL_LIMIT - 1, LABEL_LIMIT, 64)]


@pytest.mark.parametrize("k_req, l_req, bits", WIDTHS)
def test_set_search_matches_reference_at_every_field_width(k_req, l_req, bits):
    for g in (gnp(9, 0.5, 1), gnp(8, 0.3, 2), cycle(5), petersen()):
        assert _set_search_matches_reference(g, k_req, l_req)[0] == bits


def test_largest_k_dominating_takes_every_vertex():
    # k = 2**31 - 1 needs 64-bit fields; no vertex outside D can be covered
    # that often, so D is all of V
    for g in (gnp(9, 0.5, 1), cycle(6), petersen()):
        res = exact_set_number(g, DominationSpec.k_dominating(LABEL_LIMIT - 1))
        assert (res.value, res.witness) == (g.n, tuple(range(g.n)))


def _function_search_matches_reference(nbrs, caps, demands, top):
    """Same (status, best_weight, best_values, nodes) as the list loop, for a
    ladder of budgets around its count capped at top; cap_un is not changed."""
    cap_un = [sum(caps[w] for w in row) for row in nbrs]
    args = (nbrs, caps, demands)
    full = reference_function_search(*args, list(cap_un), top, sum(caps))[3]
    for budget in _budget_ladder(full, top):
        want = reference_function_search(*args, list(cap_un), budget, sum(caps))
        got = function_search_min_weight(*args, cap_un, budget, sum(caps))
        assert got == want, budget
        assert cap_un == [sum(caps[w] for w in row) for row in nbrs]


# mostly small labels, so that searches finish; now and then one near 2**31,
# which only a budget stops
LABELS = st.integers(0, 3) | st.sampled_from([LABEL_LIMIT - 2, LABEL_LIMIT - 1])


@given(small_graphs(max_n=9), st.data())
@example(petersen(), None)
@example(gnp(9, 0.5, 1), None)
@settings(max_examples=60, deadline=None)
def test_function_search_matches_reference(g, data):
    """Closed and open rows, caps and demands up to LABEL_LIMIT - 1, and a
    ladder of budgets around the full count."""
    if data is None:
        caps = [2 + v % 2 for v in range(g.n)]
        demands = [1 + v % 3 for v in range(g.n)]
    else:
        caps = data.draw(st.lists(LABELS, min_size=g.n, max_size=g.n))
        demands = data.draw(st.lists(LABELS, min_size=g.n, max_size=g.n))
    for rows in (g.closed_neighborhood, g.neighbors):
        nbrs = [list(rows(v)) for v in range(g.n)]
        _function_search_matches_reference(nbrs, caps, demands, 4_000)


@pytest.mark.parametrize("budget", [1, 7, 300])
def test_function_search_matches_reference_with_caps_near_the_label_limit(budget):
    g = gnp(8, 0.5, 3)
    caps = [LABEL_LIMIT - 1 - v for v in range(g.n)]
    for demands in ([LABEL_LIMIT - 1] * g.n, [1] * g.n):
        for rows in (g.closed_neighborhood, g.neighbors):
            nbrs = [list(rows(v)) for v in range(g.n)]
            _function_search_matches_reference(nbrs, caps, demands, budget)


def test_numba_flag_is_exposed():
    assert multidom.USING_NUMBA is False
