import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multidom.graph
from helpers import _restricted, acceptance_graphs, brute_function_number, dense_gnp
from helpers import coverage as brute_coverage
from multidom import (
    Graph,
    GraphFormatError,
    complete,
    complete_bipartite,
    coverage,
    cycle,
    gnp,
    path,
    petersen,
    random_regular,
    read_graph,
    write_graph,
)
from multidom.construct import _restricted as open_restricted
from multidom.graph import MAX_VERTICES


def test_basic_invariants():
    g = cycle(4)
    assert g.n == 4 and g.m == 4
    assert [g.neighbors(v) for v in range(4)] == [(1, 3), (0, 2), (1, 3), (0, 2)]
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert g.min_degree == g.max_degree == 2
    assert int(g.degrees.sum()) == 2 * g.m


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError, match="pairs"):
        Graph(3, [(0, 1, 2)])
    # the same three faults given as numpy edge arrays
    for edges in ([[1, 1]], [[0, 2], [2, 0]], [[1, 3]]):
        with pytest.raises(ValueError):
            Graph(3, np.array(edges))


@pytest.mark.parametrize("edges", [[(0.5, 1.7)], np.array([[0.9, 2.2]]), np.array([[True, False]]),
                                   [(False, True)], [(0, 2**70)], [("0", "1")]])
def test_non_integer_edges_are_refused_not_truncated(edges):
    with pytest.raises(ValueError, match="^edges must be integer pairs, got "):
        Graph(3, edges)


@pytest.mark.parametrize("call", [
    lambda: Graph(3, [(True, 2)]),
    lambda: Graph(3, [(0, 1), (np.True_, 2)]),
    lambda: Graph(3, iter([(0, 1), (1, False)])),
    lambda: coverage(cycle(3), [True, 2, 0], closed=True),
    lambda: coverage(cycle(3), [[1, 2, 0], (0, False, 1)], closed=False),
])
def test_a_bool_among_ints_in_a_list_is_refused(call):
    # numpy infers int64 for such a list, which would read the bool as 0 or 1
    bad = r"^(edges|labels) must be integers, got (True|False|np\.True_)$"
    with pytest.raises(ValueError, match=bad):
        call()


def test_numpy_integers_in_a_list_are_still_read():
    assert Graph(3, [(np.int64(0), 2), (np.uint8(1), 2)]).edges() == [(0, 2), (1, 2)]
    assert coverage(cycle(3), [np.int32(1), 2, 0], closed=True).tolist() == [3, 3, 3]


def test_array_inputs_and_the_generators_skip_the_list_scan(monkeypatch):
    def scanned(*args):
        raise AssertionError("a list scan ran")

    monkeypatch.setattr(multidom.graph, "_integers", scanned)
    for g in (path(4), cycle(5), complete(4), complete_bipartite(2, 3), petersen(),
              gnp(30, 0.2, 1), random_regular(10, 3, 2), Graph(3, np.array([[0, 2]])),
              read_graph("0 1\n1 2\n"), read_graph("p edge 3 1\ne 1 3\n")):
        coverage(g, np.ones(g.n, dtype=np.int64), closed=True)


def test_integer_edge_arrays_of_any_dtype_are_read_in_their_own_dtype():
    want = Graph(3, [(0, 2)])
    for dtype in (np.int8, np.uint8, np.int32, np.uint64):
        assert Graph(3, np.array([[0, 2]], dtype=dtype)) == want
    # 2**63 would wrap to a negative int64; the range check reads the value
    with pytest.raises(ValueError, match=f"^edge \\(0,{2**63}\\) out of range for n=3$"):
        Graph(3, np.array([[0, 2**63]], dtype=np.uint64))


def test_immutable():
    g = path(3)
    with pytest.raises(AttributeError):
        g.n = 5
    with pytest.raises(AttributeError):
        g.min_degree = 0
    with pytest.raises(ValueError):
        g.degrees[0] = 3  # computed once, read-only like the CSR arrays
    assert g.degrees.tolist() == [1, 2, 1] and (g.min_degree, g.max_degree) == (1, 2)


def test_closed_neighborhood_examples():
    assert cycle(4).closed_neighborhood(0) == (0, 1, 3)
    assert complete(5).closed_neighborhood(2) == (0, 1, 2, 3, 4)
    assert path(3).closed_neighborhood(1) == (0, 1, 2)
    with pytest.raises(ValueError):
        path(3).closed_neighborhood(3)


def _restricted_row(g, v, closed):
    return tuple(_restricted(g, closed)[v].tolist())


def test_restricted_neighborhood_examples():
    star = complete_bipartite(1, 3)  # center 0, min degree 1
    assert star.min_degree == 1
    assert _restricted_row(star, 0, closed=True) == (0, 1)
    c4 = cycle(4)
    assert _restricted_row(c4, 1, closed=True) == (0, 1, 2)
    assert _restricted_row(c4, 1, closed=False) == (0, 2)


@given(st.integers(5, 16), st.integers(0, 10))
@settings(max_examples=30, deadline=None)
def test_restricted_is_neighborhood_subset(n, seed):
    g = gnp(n, 0.4, seed)
    d = g.min_degree
    # the constructions' rows are the open rows of the reference copy
    assert np.array_equal(open_restricted(g), _restricted(g, closed=False))
    for v in range(g.n):
        open_r = _restricted_row(g, v, closed=False)
        closed_r = _restricted_row(g, v, closed=True)
        assert len(open_r) == d
        assert len(closed_r) == d + 1
        assert set(open_r) <= set(g.neighbors(v))
        assert set(closed_r) <= set(g.closed_neighborhood(v))
        assert v in closed_r and v not in open_r


def test_generators():
    c5 = cycle(5)
    assert all(c5.degree(v) == 2 for v in range(5))
    k6 = complete(6)
    assert k6.m == 15
    p = petersen()
    assert p.n == 10 and p.m == 15
    assert all(p.degree(v) == 3 for v in range(10))
    kb = complete_bipartite(2, 3)
    assert kb.m == 6 and kb.min_degree == 2


@pytest.mark.parametrize("make", [lambda: path(0), lambda: cycle(2), lambda: complete(0),
                                  lambda: complete_bipartite(0, 1), lambda: gnp(0, 0.5, 1)])
def test_generators_reject_too_few_vertices(make):
    with pytest.raises(ValueError, match="needs"):
        make()


def test_gnp_determinism_and_handshake():
    g1, g2 = gnp(20, 0.5, 42), gnp(20, 0.5, 42)
    assert g1 == g2
    assert int(g1.degrees.sum()) == 2 * g1.m
    g3 = gnp(20, 0.5, 43)
    assert g3 != g1  # different seed, different edges (overwhelmingly)


def test_random_regular():
    with pytest.raises(ValueError):
        random_regular(5, 3, seed=0)  # odd n*d
    with pytest.raises(ValueError):
        random_regular(4, 4, seed=0)  # d >= n
    g = random_regular(10, 3, seed=1)
    assert all(g.degree(v) == 3 for v in range(10))
    assert g == random_regular(10, 3, seed=1)


def test_gnp_validates_p():
    with pytest.raises(ValueError):
        gnp(5, 1.5, seed=0)


@pytest.mark.parametrize("block", [1, 7, 2**20])
def test_gnp_row_blocks_match_dense_draws(block, monkeypatch):
    # blocks of 1 and 7 pairs split the small cases into several blocks;
    # n = 1500 has 1 124 250 pairs, so 2**20 splits it in two
    monkeypatch.setattr(multidom.graph, "GNP_BLOCK_PAIRS", block)
    cases = [(1, 0.5, 0), (2, 1.0, 1), (3, 0.0, 2), (3, 1.0, 3), (6, 0.5, 4),
             (9, 0.3, 5), (40, 0.2, 6), (1500, 0.01, 7)]
    for n, p, seed in cases:
        if block == 1 and n > 40:
            continue
        assert gnp(n, p, seed) == dense_gnp(n, p, seed), (n, p, seed)


def test_gnp_memory_is_not_quadratic():
    tracemalloc.start()
    try:
        gnp(4000, 0.001, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20  # all 8 M draws at once take about 200 MiB


def test_edge_list_round_trip():
    g = gnp(12, 0.3, seed=5)
    assert read_graph(write_graph(g, "edge_list"), "edge_list") == g


def test_edge_list_handles_isolated_vertices():
    g = Graph(4, [(0, 1)])  # vertices 2 and 3 isolated
    text = write_graph(g, "edge_list")
    assert "# n=4" in text
    assert read_graph(text) == g


def test_edge_list_simple_parse():
    g = read_graph("0 1\n1 2\n", "edge_list")
    assert g == path(3)


def test_dimacs_round_trip_and_indexing():
    g = read_graph("p edge 3 2\ne 1 2\ne 2 3\n", "dimacs")
    assert g == path(3)
    g2 = gnp(9, 0.4, seed=3)
    assert read_graph(write_graph(g2, "dimacs"), "dimacs") == g2


def test_format_sniffing():
    g = cycle(5)
    assert read_graph(write_graph(g, "dimacs")) == g
    assert read_graph(write_graph(g, "edge_list")) == g


def test_equal_graphs_hash_equal():
    built = Graph(5, [(3, 4), (0, 4), (1, 2), (0, 1), (2, 3)])
    assert built == cycle(5) and hash(built) == hash(cycle(5))


@pytest.mark.parametrize("call", [lambda: read_graph("0 1\n", "graphml"),
                                  lambda: write_graph(cycle(3), "graphml")])
def test_an_unknown_format_is_a_value_error(call):
    with pytest.raises(ValueError, match="^unknown graph format 'graphml'$"):
        call()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as exc:
        read_graph("0 x\n", "edge_list")
    assert exc.value.line == 1
    with pytest.raises(GraphFormatError):
        read_graph("0 0\n", "edge_list")  # self-loop
    with pytest.raises(GraphFormatError):
        read_graph("0 1\n1 0\n", "edge_list")  # duplicate
    with pytest.raises(GraphFormatError):
        read_graph("p edge 3 2\ne 1 4\n", "dimacs")  # out of range
    with pytest.raises(GraphFormatError):
        read_graph("p edge 3 2\ne 1 2\n", "dimacs")  # edge count mismatch
    with pytest.raises(GraphFormatError):
        read_graph("e 1 2\n", "dimacs")  # edge before header


def test_csr_views():
    g = cycle(4)
    indptr, indices = g.csr()
    assert indptr.tolist() == [0, 2, 4, 6, 8]
    assert indices.tolist() == [1, 3, 0, 2, 1, 3, 0, 2]


@st.composite
def small_graphs(draw, max_n: int = 7):
    """Graphs on 1..max_n vertices from any subset of the possible edges,
    so isolated vertices (empty CSR rows) come up often."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, chosen)


@given(small_graphs(), st.sets(st.integers(0, 6)))
@example(Graph(4, [(0, 1)]), {0, 2})  # trailing empty rows
@example(Graph(3, [(1, 2)]), {1})  # leading empty row
@settings(max_examples=80, deadline=None)
def test_coverage_of_sets_matches_brute_force(g, raw):
    members = {v for v in raw if v < g.n}
    x = [1 if v in members else 0 for v in range(g.n)]
    for closed in (True, False):
        expected = [brute_coverage(g, members, v, closed) for v in range(g.n)]
        assert coverage(g, x, closed).tolist() == expected


@given(small_graphs(), st.data())
@example(Graph(4, [(0, 1)]), None)  # trailing empty rows
@example(Graph(3, [(1, 2)]), None)  # leading empty row
@example(cycle(5), None)  # no empty row
@settings(max_examples=60, deadline=None)
def test_coverage_of_a_block_is_row_by_row(g, data):
    rows = [[(3 * t + 5 * v) % 4 for v in range(g.n)] for t in range(3)]
    if data is not None:
        rows = data.draw(st.lists(
            st.lists(st.integers(0, 9), min_size=g.n, max_size=g.n), min_size=1, max_size=4))
    block = np.array(rows, dtype=np.int64)
    # the same block in every memory layout and integer dtype a caller may pass
    layouts = {
        "list": rows,
        "C-ordered": block,
        "Fortran-ordered": np.asfortranarray(block),
        ".T of (n, T)": np.ascontiguousarray(block.T).T,
        "reversed-column view": np.ascontiguousarray(block[:, ::-1])[:, ::-1],
        "int32": block.astype(np.int32),
        "uint16": block.astype(np.uint16),
    }
    for closed in (True, False):
        expected = [coverage(g, r, closed).tolist() for r in rows]
        for name, x in layouts.items():
            sums = coverage(g, x, closed)
            assert sums.tolist() == expected, name
            assert sums.dtype == np.int64 and sums.flags.c_contiguous, name


def test_coverage_rejects_wrong_length():
    with pytest.raises(ValueError):
        coverage(cycle(4), [1, 1, 1], closed=False)
    with pytest.raises(ValueError):
        coverage(cycle(4), [[[1, 1, 1, 1]]], closed=False)
    # a float label would truncate and a bool would add as 1
    with pytest.raises(ValueError, match="integers"):
        coverage(cycle(6), [0.7] * 6, closed=True)
    with pytest.raises(ValueError, match="integers"):
        coverage(cycle(6), np.ones(6, dtype=bool), closed=False)
    with pytest.raises(ValueError, match="integers"):
        coverage(cycle(6), [True] * 6, closed=True)


def test_coverage_refuses_unsigned_labels_past_int64():
    c3 = cycle(3)
    assert coverage(c3, np.array([2**62, 0, 0], dtype=np.uint64), closed=True).tolist() == [2**62] * 3
    for labels in (np.array([2**63, 0, 0], dtype=np.uint64), [2**63, 0, 0], [2**64, 0, 0]):
        with pytest.raises(ValueError):
            coverage(c3, labels, closed=True)


@given(small_graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_coverage_of_integer_vectors(g, data):
    x = data.draw(st.lists(st.integers(0, 9), min_size=g.n, max_size=g.n))
    for closed in (True, False):
        expected = [
            sum(x[u] for u in g.neighbors(v)) + (x[v] if closed else 0) for v in range(g.n)
        ]
        assert coverage(g, x, closed).tolist() == expected


@given(small_graphs(max_n=5), st.data())
@settings(max_examples=40, deadline=None)
def test_coverage_minimum_weight_matches_brute_force(g, data):
    caps = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    demands = np.array(data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n)))
    for closed in (True, False):
        weights = [
            sum(vals) for vals in product(*(range(c + 1) for c in caps))
            if (coverage(g, vals, closed) >= demands).all()
        ]
        expected = brute_function_number(g, caps, demands.tolist(), open_nbhd=not closed)
        assert (min(weights) if weights else None) == expected


def test_has_edge_agrees_with_neighbors():
    for name, g in acceptance_graphs():
        for u in range(g.n):
            row = set(g.neighbors(u))
            assert [g.has_edge(u, v) for v in range(g.n)] == [v in row for v in range(g.n)], name


@pytest.mark.parametrize("u,v", [(-1, 0), (0, -1), (5, 0), (0, 5)])
def test_has_edge_rejects_an_out_of_range_vertex(u, v):
    with pytest.raises(ValueError, match="out of range for n=5"):
        cycle(5).has_edge(u, v)


@pytest.mark.parametrize("text", ["# n=1000000000\n", "0 1000000000\n",
                                  "p edge 1000000000 0\n", f"0 {MAX_VERTICES}\n",
                                  f"c header\np edge {MAX_VERTICES + 1} 0\n"])
def test_vertex_count_is_bounded_before_allocating(text):
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError, match="exceeds the limit"):
            read_graph(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("text,line,n", [("# n=0\n", 1, 0), ("# n=0\n0 1\n", 1, 0),
                                         ("# x\n# n=-2\n0 1\n", 2, -2), ("p edge 0 0\n", 1, 0),
                                         ("c x\np edge -5 1\ne 1 2\n", 2, -5)])
def test_a_declared_vertex_count_below_one_is_an_error_on_its_header(text, line, n):
    with pytest.raises(GraphFormatError, match=f"^line {line}: vertex count {n} is below 1$") as exc:
        read_graph(text)
    assert exc.value.line == line
