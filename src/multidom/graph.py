"""Immutable undirected simple graphs, seeded family generators and file I/O.

Vertices are 0-based everywhere inside the library; the DIMACS format is
1-based and gets converted at the parsing boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple

import numpy as np

from .errors import GraphFormatError, ResourceLimitError

FAMILIES = (
    "gnp",
    "random_regular",
    "path",
    "cycle",
    "complete",
    "complete_bipartite",
    "petersen",
)

# Largest vertex count a graph file may declare or imply. The readers reject
# more before anything of size n is allocated: a header alone must not make
# the library ask for memory. 10**7 vertices is 100x the largest graph the
# benchmark ladder plans for (10**5), and at that size the graph's own
# int64 arrays and the per-vertex arrays built from them already take
# hundreds of megabytes.
MAX_VERTICES = 10**7


class Graph:
    """Simple undirected graph held as sorted CSR arrays.

    ``indices[indptr[v]:indptr[v+1]]`` lists the neighbours of v in
    ascending order. Instances and both arrays are read-only after
    construction, so a Graph can be shared freely. ``degrees`` (read-only),
    ``min_degree`` and ``max_degree`` are computed once here.
    """

    __slots__ = ("n", "m", "indptr", "indices", "degrees", "min_degree", "max_degree")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        e = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        u, v = e[:, 0], e[:, 1]
        if e.size and (e.min() < 0 or e.max() >= n):
            i = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n))[0]
            raise ValueError(f"edge ({u[i]},{v[i]}) out of range for n={n}")
        if (u == v).any():
            raise ValueError(f"self-loop at vertex {u[u == v][0]}")
        # both orientations of every edge, sorted by (source, target)
        keys = np.sort(np.concatenate((u * n + v, v * n + u)))
        dup = keys[1:][keys[1:] == keys[:-1]]
        if dup.size:
            a, b = divmod(int(dup[0]), n)
            raise ValueError(f"duplicate edge ({min(a, b)},{max(a, b)})")
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        indices = keys % n
        degrees = np.diff(indptr)
        for a in (indptr, indices, degrees):
            a.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", len(e))
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "min_degree", int(degrees.min()))
        object.__setattr__(self, "max_degree", int(degrees.max()))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- basic accessors ---------------------------------------------------

    def _check_vertex(self, v: int) -> int:
        v = int(v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex id {v} out of range for n={self.n}")
        return v

    def _row(self, v: int) -> np.ndarray:
        v = self._check_vertex(v)
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return len(self._row(v))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self._row(v).tolist())

    def closed_neighborhood(self, v: int) -> tuple[int, ...]:
        """N[v] = N(v) ∪ {v}, sorted ascending."""
        return tuple(sorted(self.neighbors(v) + (int(v),)))

    def has_edge(self, u: int, v: int) -> bool:
        row = self._row(u)
        v = self._check_vertex(v)
        i = int(np.searchsorted(row, v))
        return i < len(row) and int(row[i]) == v

    def edges(self) -> list[tuple[int, int]]:
        """Every edge once as (u, v) with u < v, in ascending order."""
        u, v = self._upper()
        return list(zip(u.tolist(), v.tolist()))

    def _upper(self) -> tuple[np.ndarray, np.ndarray]:
        """The arrays u and v of edges(): the upper triangle of the CSR rows."""
        rows = np.repeat(np.arange(self.n), self.degrees)
        upper = rows < self.indices
        return rows[upper], self.indices[upper]

    # -- array views for kernels -------------------------------------------

    def csr(self, closed: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) arrays; ``closed`` includes each vertex itself."""
        if not closed:
            return self.indptr, self.indices
        vertices = np.arange(self.n)
        rows = np.repeat(vertices, self.degrees)
        # v goes after its neighbours below v, in sorted position
        below = np.bincount(rows[self.indices < rows], minlength=self.n)
        indices = np.insert(self.indices, self.indptr[:-1] + below, vertices)
        return self.indptr + np.arange(self.n + 1), indices

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):
        return hash((self.n, self.indptr.tobytes(), self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def coverage(g: Graph, x, closed: bool) -> np.ndarray:
    """Neighbourhood sums of the labels x: sum of x over N[v] when
    ``closed``, over N(v) otherwise, for every vertex v.

    Every domination condition compares these sums with a demand; the
    closed and open sums differ only by the vertex's own label.
    """
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (g.n,):
        raise ValueError(f"labels have shape {x.shape}, graph has n={g.n}")
    indptr, indices = g.csr()
    sums = np.zeros(g.n, dtype=np.int64)
    # reduceat would give an empty row its successor's first entry
    nonempty = indptr[1:] > indptr[:-1]
    if nonempty.any():
        sums[nonempty] = np.add.reduceat(x[indices], indptr[:-1][nonempty])
    return sums + x if closed else sums


# -- deterministic family generators ----------------------------------------


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(n1: int, n2: int) -> Graph:
    if n1 < 1 or n2 < 1:
        raise ValueError("complete bipartite needs both part sizes >= 1")
    return Graph(n1 + n2, [(i, n1 + j) for i in range(n1) for j in range(n2)])


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))        # outer cycle
        edges.append((i, i + 5))              # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return Graph(10, edges)


# gnp draws its n(n-1)/2 uniforms in blocks of whole rows holding about this
# many pairs (8 MB of doubles), so peak memory is O(block + m) rather than
# O(n^2). A Generator yields the same doubles drawn at once or in chunks, so
# the block size does not change any seeded graph.
GNP_BLOCK_PAIRS = 2**20


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p); identical (n, p, seed) gives an identical graph."""
    if n < 1:
        raise ValueError("gnp needs n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    # pair (i, j), i < j, takes draw number start[i] + j - i - 1 of one stream
    start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    blocks = [np.empty((0, 2), dtype=np.int64)]
    i = 0
    while i < n - 1:
        j = max(i + 1, int(np.searchsorted(start, start[i] + GNP_BLOCK_PAIRS, "right")) - 1)
        hits = np.flatnonzero(rng.random(start[j] - start[i]) < p) + start[i]
        rows = np.searchsorted(start, hits, "right") - 1
        blocks.append(np.column_stack((rows, hits - start[rows] + rows + 1)))
        i = j
    return Graph(n, np.concatenate(blocks))


def random_regular(n: int, d: int, seed: int, max_attempts: int = 100_000) -> Graph:
    """Random d-regular graph via the pairing model with rejection."""
    if not 0 <= d < n:
        raise ValueError("random regular needs 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("random regular needs n*d even")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(max_attempts):
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        keys = np.sort(lo * n + hi)
        if not (lo == hi).any() and not (keys[1:] == keys[:-1]).any():
            return Graph(n, pairs)
    raise ResourceLimitError(
        f"pairing model failed to produce a simple {d}-regular graph "
        f"on {n} vertices in {max_attempts} attempts"
    )


@dataclass(frozen=True)
class GraphFamilySpec:
    """Seeded recipe for a test graph; identical spec gives identical graph."""

    family: str
    n: int | None = None
    n2: int | None = None   # second part size (complete_bipartite only)
    p: float | None = None  # edge probability (gnp only)
    d: int | None = None    # degree (random_regular only)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")


def generate(spec: GraphFamilySpec) -> Graph:
    fam = spec.family
    if fam == "petersen":
        return petersen()
    if spec.n is None:
        raise ValueError(f"family {fam!r} needs n")
    if fam == "path":
        return path(spec.n)
    if fam == "cycle":
        return cycle(spec.n)
    if fam == "complete":
        return complete(spec.n)
    if fam == "complete_bipartite":
        if spec.n2 is None:
            raise ValueError("complete_bipartite needs n2")
        return complete_bipartite(spec.n, spec.n2)
    if fam == "gnp":
        if spec.p is None:
            raise ValueError("gnp needs p")
        return gnp(spec.n, spec.p, spec.seed)
    if fam == "random_regular":
        if spec.d is None:
            raise ValueError("random_regular needs d")
        return random_regular(spec.n, spec.d, spec.seed)
    raise ValueError(f"unknown family {fam!r}")


# -- file formats ------------------------------------------------------------
#
# edge_list: one "u v" pair per line, whitespace-separated, '#' comments.
#            The writer emits a "# n=<N>" comment so isolated trailing
#            vertices survive a round trip; the reader honors it.
# dimacs:    "p edge <n> <m>" header plus "e <u> <v>" lines, 1-based.
#
# Both readers split the text into lines once, split the joined data lines
# into tokens once, and let numpy convert all tokens by int()'s rules in one
# call. Each check then runs over all lines at once, and a line is looked up
# only when a check fails: a file reports its earliest bad line, and on that
# line the first check it fails in the order each reader lists them. Graph()
# rejects a repeated pair itself, so the line that repeats one is looked for
# only after some check or Graph() has failed.

GRAPH_FORMATS = ("edge_list", "dimacs")


def write_graph(g: Graph, fmt: str = "edge_list") -> str:
    if fmt == "edge_list":
        header, line, base = f"# n={g.n}\n", "%d %d\n", 0
    elif fmt == "dimacs":
        header, line, base = f"p edge {g.n} {g.m}\n", "e %d %d\n", 1
    else:
        raise ValueError(f"unknown graph format {fmt!r}")
    return header + line * g.m % tuple((np.column_stack(g._upper()) + base).ravel().tolist())


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"expected integer {what}, got {token!r}", lineno) from None


def _check_vertex_count(n: int, lineno: int | None = None) -> None:
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}", lineno)


def _data_lines(lines: list[str], comment: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The stripped data lines (neither blank nor starting with ``comment``),
    their 1-based line numbers and the 0-based indices of the other lines."""
    stripped = list(map(str.strip, lines))
    keep = [s[:1] not in comment for s in stripped]  # "" is in every string
    mask = np.array(keep, dtype=bool)
    return list(compress(stripped, keep)), np.flatnonzero(mask) + 1, np.flatnonzero(~mask)


def _integers(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tokens as integers, as int() reads them, and the mask of the first
    token int() rejects, if any. That token's line fails, so no later token
    can decide the error: they are not read and stand as 0.

    The values are int64 unless a token lies beyond it; then they are Python
    ints in an object array, so every check and message sees the file's number.
    """
    try:
        return np.array(tokens, dtype=np.int64), np.zeros(len(tokens), dtype=bool)
    except (ValueError, OverflowError):
        pass
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            break
    bad = np.zeros(len(tokens), dtype=bool)
    bad[len(values):len(values) + 1] = True
    values += [0] * (len(tokens) - len(values))
    try:
        return np.array(values, dtype=np.int64), bad
    except OverflowError:
        return np.array(values, dtype=object), bad


class _Table(NamedTuple):
    """Data lines of a graph file as arrays."""

    numbers: np.ndarray  # 1-based line number of each
    kinds: np.ndarray | None  # first token of each (DIMACS)
    counts: np.ndarray   # number of tokens on each
    u: np.ndarray        # the two vertex tokens as integers ...
    v: np.ndarray
    bad: np.ndarray      # ... and which of them int() rejects, (lines, 2)


def _table(data: list[str], numbers: np.ndarray, kind: str) -> _Table:
    """The data lines ``data`` with line numbers ``numbers``; each should
    read ``kind`` (if any) and then two vertex ids."""
    # each line's token list is dropped as soon as it is counted: a million
    # live small lists would make the garbage collector walk them over and over
    counts = np.fromiter(map(len, map(str.split, data)), dtype=np.int64, count=len(data))
    # the tokens line up, 2 or 3 to a line, up to the first line with another
    # count; that line fails before its tokens are read, and no later line
    # can decide the error, so numpy may fill the rows from there on as it likes
    tokens = np.resize(np.array(" ".join(data).split(), dtype=object), (len(data), 3 if kind else 2))
    values, bad = _integers(tokens[:, -2:].ravel())
    # the token texts are not kept: a message reads its token from its line
    return _Table(numbers, tokens[:, 0].copy() if kind else None, counts, values[0::2], values[1::2],
                  bad.reshape(-1, 2))


def _repeats(lo: np.ndarray, hi: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """True on each line in ``ok`` whose pair (lo, hi), 0 <= lo <= hi, equals
    that of an earlier line in ``ok``."""
    rows = np.flatnonzero(ok)
    lo, hi = lo[rows], hi[rows]
    if len(rows) and hi.max() >= 2**31:  # lo * 2**31 + hi would overflow
        ranks = np.unique(np.concatenate((lo, hi)), return_inverse=True)[1]
        lo, hi = ranks[:len(rows)], ranks[len(rows):]
    keys = lo * 2**31 + hi
    order = np.argsort(keys, kind="stable")  # equal keys keep file order
    ordered = keys[order]
    repeats = np.zeros(len(ok), dtype=bool)
    repeats[rows[order[1:]]] = ordered[1:] == ordered[:-1]
    return repeats


def _passing(checks) -> np.ndarray:
    return ~np.logical_or.reduce([failed for failed, _ in checks])


def _first_error(checks, numbers: np.ndarray) -> GraphFormatError | None:
    """The error of the earliest line that fails one of ``checks``, a list of
    (mask over the lines, message of line i), for the first check it fails."""
    failing = ~_passing(checks)
    if not failing.any():
        return None
    i = int(np.argmax(failing))
    message = next(message for failed, message in checks if failed[i])
    return GraphFormatError(message(i), int(numbers[i]))


def _vertex_checks(lines: list[str], t: _Table, what: str) -> list:
    """The checks every data line shares, in order: its token count and
    whether each vertex token is an integer."""
    width = len(what.split())

    def line(i: int) -> str:
        return lines[t.numbers[i] - 1]

    return [
        (t.counts != width, lambda i: f"expected '{what}', got {line(i)!r}"),
        (t.bad[:, 0], lambda i: f"expected integer vertex id, got {line(i).split()[width - 2]!r}"),
        (t.bad[:, 1], lambda i: f"expected integer vertex id, got {line(i).split()[width - 1]!r}"),
    ]


def _read_edge_list(lines: list[str]) -> Graph:
    data, numbers, comments = _data_lines(lines, "#")
    t = _table(data, numbers, "")
    try:
        return _edge_list_graph(lines, t, comments, find_repeats=False)
    except ValueError:  # a repeated pair may come before the reported line
        return _edge_list_graph(lines, t, comments, find_repeats=True)


def _edge_list_graph(lines: list[str], t: _Table, comments: np.ndarray, find_repeats: bool) -> Graph:
    u, v = t.u, t.v
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    checks = _vertex_checks(lines, t, "u v") + [
        ((u < 0) | (v < 0), lambda i: "vertex ids must be nonnegative"),
        (u == v, lambda i: f"self-loop at vertex {u[i]}"),
    ]
    if find_repeats:
        checks.append((_repeats(lo, hi, _passing(checks)), lambda i: f"duplicate edge ({lo[i]},{hi[i]})"))
    error = _first_error(checks, t.numbers)
    declared_n = None
    for i in comments:  # the first "# n=" comment declares n
        line = lines[i].strip()
        body = line[1:].strip()
        if line.startswith("#") and body.startswith("n="):
            if error is None or i + 1 < error.line:  # else the data line fails first
                declared_n = _parse_int(body[2:].strip(), int(i) + 1, "vertex count")
            break
    if error is not None:
        raise error
    max_seen = int(hi.max()) if len(hi) else -1
    n = declared_n if declared_n is not None else max_seen + 1
    if n < 1:
        raise GraphFormatError("empty edge list and no '# n=' header")
    _check_vertex_count(n)
    if max_seen >= n:
        raise GraphFormatError(f"vertex id {max_seen} exceeds declared n={n}")
    return Graph(n, np.column_stack((u, v)))


def _read_dimacs(lines: list[str]) -> Graph:
    data, numbers, _ = _data_lines(lines, "c")
    # every line before the first problem line fails, so it must come first
    if not data:
        raise GraphFormatError("missing problem line")
    head, line = data[0].split(), int(numbers[0])
    if head[0] != "p":
        message = "edge before problem line" if head[0] == "e" else f"unknown line type {head[0]!r}"
        raise GraphFormatError(message, line)
    if len(head) != 4 or head[1] != "edge":
        raise GraphFormatError(f"expected 'p edge n m', got {lines[line - 1]!r}", line)
    n = _parse_int(head[2], line, "vertex count")
    _check_vertex_count(n, line)
    m = _parse_int(head[3], line, "edge count")
    t = _table(data[1:], numbers[1:], "e")
    try:
        return _dimacs_graph(lines, t, n, m, find_repeats=False)
    except ValueError:  # a repeated pair may come before the reported line
        return _dimacs_graph(lines, t, n, m, find_repeats=True)


def _dimacs_graph(lines: list[str], t: _Table, n: int, m: int, find_repeats: bool) -> Graph:
    u, v, top = t.u, t.v, max(n, 0)
    checks = [
        (t.kinds == "p", lambda i: "duplicate problem line"),
        (t.kinds != "e", lambda i: f"unknown line type {t.kinds[i]!r}"),
    ] + _vertex_checks(lines, t, "e u v") + [
        ((u < 1) | (u > top) | (v < 1) | (v > top), lambda i: f"vertex id out of range 1..{n}"),
        (u == v, lambda i: f"self-loop at vertex {u[i]}"),
    ]
    if find_repeats:
        repeats = _repeats(np.minimum(u, v), np.maximum(u, v), _passing(checks))
        checks.append((repeats, lambda i: f"duplicate edge ({u[i]},{v[i]})"))
    error = _first_error(checks, t.numbers)
    if error is not None:
        raise error
    if m != len(u):
        raise GraphFormatError(f"header declares {m} edges, found {len(u)}")
    return Graph(n, np.column_stack((u, v)) - 1)


def read_graph(text: str, fmt: str | None = None) -> Graph:
    """Parse a graph; when fmt is None it is sniffed from the content."""
    lines = text.splitlines()
    if fmt is None:
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fmt = "dimacs" if line[0] in ("p", "c", "e") else "edge_list"
            break
        else:
            fmt = "edge_list"
    if fmt == "edge_list":
        return _read_edge_list(lines)
    if fmt == "dimacs":
        return _read_dimacs(lines)
    raise ValueError(f"unknown graph format {fmt!r}")


def load_graph(path: str, fmt: str | None = None) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return read_graph(fh.read(), fmt)


def save_graph(g: Graph, path: str, fmt: str = "edge_list") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_graph(g, fmt))
