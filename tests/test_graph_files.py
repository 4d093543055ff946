"""The graph readers against the line-by-line reference readers.

On every file both must return an equal Graph, or raise the same exception
type with the same message and line number. A valid file must be read by
the vectorised pass alone, without the line loop.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multidom.graph
from helpers import reference_random_regular, reference_read_dimacs, reference_read_edge_list
from multidom import (
    Graph,
    GraphFormatError,
    ResourceLimitError,
    gnp,
    load_graph,
    path,
    random_regular,
    read_graph,
    save_graph,
    write_graph,
)
from multidom.graph import MAX_VERTICES
from test_golden import DIMACS_FILE, EDGE_LIST_FILE

BIG = [str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), str(2**64 + 1),
       str(10**30), str(MAX_VERTICES), str(MAX_VERTICES + 1), "9" * 19, "0" * 20 + "5"]
ODD = ["+3", "-1", "-0", "-2", "007", "1_0", "_1", "٣", "１２", "x", "1.5", "",
       "e", "p", "c", "#", "|", "-", "n=3", "edge"]
TOKENS = st.sampled_from([str(i) for i in range(7)] * 6 + ODD + BIG)
SPACES = st.sampled_from([" "] * 6 + ["\t", "  ", "\x1f", "\xa0", "\u3000"])
BREAKS = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
PREFIXES = st.sampled_from(["", "", "", "#", "# ", "#n=", "# n=", "c ", "c", "e ", "p ", "x ",
                            "p edge ", "comment "])


@st.composite
def lines(draw):
    shape = draw(st.sampled_from(["pair", "pair", "pair", "edge", "edge", "edge", "problem",
                                  "tokens", "blank"]))
    sep = draw(SPACES)
    if shape == "pair":
        line = draw(TOKENS) + sep + draw(TOKENS)
    elif shape == "edge":
        line = "e" + sep + draw(TOKENS) + sep + draw(TOKENS)
    elif shape == "problem":
        n = draw(st.sampled_from(["3", "5", "6", "0", "-2", "x", str(MAX_VERTICES + 1), str(10**30)]))
        line = f"p edge {n} {draw(st.sampled_from(['0', '1', '2', '3', '4', 'y', '-1']))}"
    elif shape == "tokens":
        line = draw(PREFIXES) + sep.join(draw(st.lists(TOKENS, max_size=4)))
    else:
        line = ""
    return draw(st.sampled_from(["", "", "", " ", "\t"])) + line + draw(st.sampled_from(["", "", " "]))


@st.composite
def graph_files(draw):
    """Files written by write_graph with a few lines replaced or inserted,
    or files made only of drawn lines."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        g = gnp(n, draw(st.sampled_from([0.3, 0.6, 1.0])), draw(st.integers(0, 9)))
        body = write_graph(g, draw(st.sampled_from(["edge_list", "dimacs"]))).splitlines()
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(body)))
            body[at:at + draw(st.integers(0, 1))] = [draw(lines())]
    else:
        body = draw(st.lists(lines(), max_size=8))
    breaks = draw(st.lists(BREAKS, min_size=len(body), max_size=len(body)))
    return "".join(line + brk for line, brk in zip(body, breaks))[:None if draw(st.booleans()) else -1]


def outcome(read, text):
    try:
        return read(text)
    except ValueError as exc:  # GraphFormatError, or Graph's own check of n
        return type(exc), str(exc), getattr(exc, "line", None)


@given(graph_files())
@example("# n=2\n0 1\n")
@example("0 1\n99999999999999999999 99999999999999999999\n")  # self-loop beyond int64
@example("5000000000 1\n1 5000000000\n")  # duplicate above 2**31
@example(f"{10**30} 1\n1 {10**30}\n")  # duplicate beyond int64
@example(f"0 {2**63}\n")  # vertex count beyond int64
@example(f"# n=3\n0 {2**64}\n")  # vertex id beyond int64 and declared n
@example("1 -1 2\n")  # a "-1" token inside a line
@example("0 1\r\n\x0c# n=4\u20282 3")
@example("# n=x\n0 0\n")  # the earlier of two failing lines
@example("0 0\n# n=x\n")
@example("0 1\r\n2\r3\n")  # a lone "\r" breaks the line
@example("0\t1\n1\t\t2\n")
@example("007 8\n")
@example("0 1\n1 2")  # no "\n" after the last line
@example("0 1\n# n=5\n")  # the header after the data lines
@example("# café\n0 1\n")
@example("# n=4 \x0c2 3\n0 1\n")  # a "\x0c" inside a comment breaks it
@example("# x\u20282 3\n0 1\n")
@example(f"{'0' * 17}1 2\n{'9' * 18} 0\n")  # 18-digit ids
@example(f"{'0' * 18}1 2\n0 {'9' * 19}\n")  # 19-digit ids
@example(f"0 {2**64 + 1}\n")  # an id that int64 arithmetic would wrap to 1
@example("# only\n# comments\n")
@settings(max_examples=600, deadline=None)
def test_edge_list_reader_matches_reference(text):
    assert outcome(lambda t: read_graph(t, "edge_list"), text) == outcome(reference_read_edge_list, text)


@given(graph_files())
@example("p edge 3 2\ne 1 2\ne 2 3\n")
@example("c x\n\np edge 3 1\r\ne 1 3")
@example("p edge 3 1\ne 1 2 e\n")  # the kind token again inside a line
@example("p edge 3 2\ne 1 2\ne 2 1\n")  # duplicate in the other orientation
@example(f"p edge 3 1\ne 1 {2**63}\n")  # vertex id beyond int64
@example("p edge 0 0\n")  # a vertex count below 1, on the problem line
@example(f"p edge {-10**30} 1\ne 1 2\n")
@example("p edge 3 1\np edge 3 1\n")
@example("e 1 2\np edge 3 1\n")
@example("p edge 3 1\ne 1\r2\n")  # a lone "\r" breaks the line
@example("p edge 3 1\nex 1 2\n")  # a kind token longer than "e"
@example("p edge 3 1\ne\t1\t\t2\n")
@example("p edge 8 1\ne 007 8\n")
@example("p edge 3 1\ne 1 2")  # no "\n" after the last line
@example("p edge 3 1\ne 1 2\np edge 3 1\n")  # a problem line after the data lines
@example("c café\np edge 3 1\ne 1 2\n")
@example("p edge 3 2\ne 1 2\nc x\x0ce 2 3\n")  # a "\x0c" inside a comment breaks it
@example("p edge 3 2\ne 1 2\nc x\u2028e 2 3\n")
@example(f"p edge 3 1\ne {'0' * 17}1 2\n")  # an 18-digit id
@example(f"p edge 3 1\ne {'0' * 18}1 2\n")  # a 19-digit id
@example("c only\nc comments\n")
@settings(max_examples=600, deadline=None)
def test_dimacs_reader_matches_reference(text):
    assert outcome(lambda t: read_graph(t, "dimacs"), text) == outcome(reference_read_dimacs, text)


# Each fault one step of the vectorised pass must catch: tokens that still
# pair up in the joined token list, a wrong kind token or problem line, a
# wrong edge count, and ids that only Graph() rejects.
@pytest.mark.parametrize("fmt,text", [
    ("edge_list", "0 1 2\n3\n"),
    ("edge_list", "# n=4\n0\n1 2 3\n"),
    ("edge_list", "0 1\n2\n3 1 2\n3\n"),
    ("dimacs", "p edge 4 2\ne 1\n2 e 3 4\n"),
    ("dimacs", "p edge 4 2\ne 1 2 e\n3 4\n"),
    ("dimacs", "p edge 3 2\ne 1 2\nx 2 3\n"),
    ("dimacs", "p edge 3 2\ne 1 2\np 2 3\n"),
    ("dimacs", "p edge 3 2\ne 1 2\n"),
    ("dimacs", "p edge 3 1\ne 1 2\ne 2 3\n"),
    ("dimacs", "x edge 3 1\ne 1 2\n"),
    ("dimacs", "e edge 3 1\ne 1 2\n"),
    ("dimacs", "p edges 3 1\ne 1 2\n"),
    ("dimacs", "p edge 3 1\ne 1 4\n"),
    ("dimacs", "p edge 3 1\ne 0 1\n"),
    ("edge_list", "0 1\n-1 2\n"),
    ("edge_list", "# n=3\n0 5\n"),
])
def test_faults_the_vectorised_pass_hands_to_the_loop(fmt, text):
    reference = {"edge_list": reference_read_edge_list, "dimacs": reference_read_dimacs}[fmt]
    expected = outcome(reference, text)
    assert expected[0] is GraphFormatError
    assert outcome(lambda t: read_graph(t, fmt), text) == expected


# a repeated pair and a self-loop pass every check before Graph()
FAULTS = [pytest.param(fmt, fault, id=fmt if fault == "bad token" else f"{fmt}-{fault}")
          for fault in ("bad token", "repeat", "self-loop") for fmt in ("edge_list", "dimacs")]


@pytest.mark.parametrize("fmt,fault", FAULTS)
def test_bad_token_on_the_last_of_many_lines(fmt, fault):
    g = gnp(2000, 0.06, 3)
    assert g.m >= 100_000
    lines = write_graph(g, fmt).splitlines()[:100_000]
    kind = "e " if fmt == "dimacs" else ""
    *_, u, v = lines[1].split()
    if fault == "bad token":
        lines[-1] = lines[-1][:-1] + "x"
        message = f"expected integer vertex id, got {lines[-1].split()[-1]!r}"
    elif fault == "repeat":
        lines[-1] = f"{kind}{v} {u}"
        message = f"duplicate edge ({v},{u})" if fmt == "dimacs" else f"duplicate edge ({u},{v})"
    else:
        lines[-1] = f"{kind}{u} {u}"
        message = f"self-loop at vertex {u}"
    if fmt == "dimacs":
        lines[0] = f"p edge {g.n} {len(lines) - 1}"
    with pytest.raises(GraphFormatError) as exc:
        read_graph("\n".join(lines) + "\n", fmt)
    assert exc.value.line == 100_000
    assert str(exc.value) == f"line 100000: {message}"


@pytest.mark.parametrize("fmt", ["edge_list", "dimacs"])
def test_valid_files_never_reach_the_line_loop(fmt, monkeypatch):
    def loop(lines):
        raise AssertionError("a valid file went to the line loop")

    monkeypatch.setattr(multidom.graph, "_edge_list_loop", loop)
    monkeypatch.setattr(multidom.graph, "_dimacs_loop", loop)
    # isolated trailing vertices (kept by "# n=") and a graph without edges
    for g in (gnp(3000, 20 / 2999, 1), Graph(5, [(0, 1)]), path(1)):
        assert read_graph(write_graph(g, fmt), fmt) == g
    # comments, blank lines, a tab and CRLF
    text, reference = {"edge_list": (EDGE_LIST_FILE, reference_read_edge_list),
                       "dimacs": (DIMACS_FILE, reference_read_dimacs)}[fmt]
    assert read_graph(text, fmt) == reference(text)


@pytest.mark.parametrize("fmt", ["edge_list", "dimacs"])
def test_save_then_load_round_trips(fmt, tmp_path):
    g = Graph(7, [(0, 1), (1, 4), (2, 4)])  # vertices 3, 5 and 6 isolated
    target = tmp_path / f"g.{fmt}"
    save_graph(g, str(target), fmt)
    assert target.read_text(encoding="utf-8") == write_graph(g, fmt)
    assert load_graph(str(target)) == load_graph(str(target), fmt) == g


def test_random_regular_gives_up_after_its_attempts(monkeypatch):
    monkeypatch.setattr(multidom.graph, "RANDOM_REGULAR_ATTEMPTS", 3)
    with pytest.raises(ResourceLimitError, match="8-regular graph on 200 vertices in 3 attempts$"):
        random_regular(200, 8, 1)


@pytest.mark.parametrize("n,d,seed", [(10, 3, 1), (200, 4, 2), (2000, 4, 7), (50, 5, 3), (12, 0, 1)])
def test_random_regular_matches_the_set_loop(n, d, seed):
    assert random_regular(n, d, seed) == reference_random_regular(n, d, seed)

