"""The vectorised graph readers against the line-by-line reference readers.

On every file both must return an equal Graph, or raise the same exception
type with the same message and line number.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_random_regular, reference_read_dimacs, reference_read_edge_list
from multidom import GraphFormatError, gnp, random_regular, read_graph, write_graph
from multidom.graph import MAX_VERTICES

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
@settings(max_examples=600, deadline=None)
def test_edge_list_reader_matches_reference(text):
    assert outcome(lambda t: read_graph(t, "edge_list"), text) == outcome(reference_read_edge_list, text)


@given(graph_files())
@example("p edge 3 2\ne 1 2\ne 2 3\n")
@example("c x\n\np edge 3 1\r\ne 1 3")
@example("p edge 3 1\ne 1 2 e\n")  # the kind token again inside a line
@example("p edge 3 2\ne 1 2\ne 2 1\n")  # duplicate in the other orientation
@example(f"p edge 3 1\ne 1 {2**63}\n")  # vertex id beyond int64
@example("p edge 0 0\n")  # Graph rejects n = 0
@example(f"p edge {-10**30} 1\ne 1 2\n")
@example("p edge 3 1\np edge 3 1\n")
@example("e 1 2\np edge 3 1\n")
@settings(max_examples=600, deadline=None)
def test_dimacs_reader_matches_reference(text):
    assert outcome(lambda t: read_graph(t, "dimacs"), text) == outcome(reference_read_dimacs, text)


@pytest.mark.parametrize("fmt", ["edge_list", "dimacs"])
def test_bad_token_on_the_last_of_many_lines(fmt):
    g = gnp(2000, 0.06, 3)
    assert g.m >= 100_000
    text = write_graph(g, fmt)
    lines = text.splitlines()[:100_000]
    lines[-1] = lines[-1][:-1] + "x"
    if fmt == "dimacs":
        lines[0] = f"p edge {g.n} {len(lines) - 1}"
    with pytest.raises(GraphFormatError) as exc:
        read_graph("\n".join(lines) + "\n", fmt)
    assert exc.value.line == 100_000
    assert str(exc.value).startswith("line 100000: expected integer vertex id, got ")


@pytest.mark.parametrize("n,d,seed", [(10, 3, 1), (200, 4, 2), (2000, 4, 7), (50, 5, 3), (12, 0, 1)])
def test_random_regular_matches_the_set_loop(n, d, seed):
    assert random_regular(n, d, seed) == reference_random_regular(n, d, seed)

