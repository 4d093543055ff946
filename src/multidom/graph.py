"""Immutable undirected simple graphs, seeded family generators and file I/O.

Vertices are 0-based everywhere inside the library; the DIMACS format is
1-based and gets converted at the parsing boundary.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import GraphFormatError, ResourceLimitError, _integer, _integers

# Largest vertex count a graph file may declare or imply. The readers reject
# more before anything of size n is allocated: a header alone must not make
# the library ask for memory. 10**7 vertices is 100x the largest graph the
# benchmark ladder plans for (10**5), and at that size the graph's own
# int64 arrays and the per-vertex arrays built from them already take
# hundreds of megabytes.
MAX_VERTICES = 10**7


def _integer_array(values, what: str) -> np.ndarray:
    """np.array(values) for values that are not an ndarray. numpy reads a
    bool among ints as 0 or 1, so when it infers an integer dtype, each entry
    of a vector or of each row of a table must pass errors._integers."""
    a = np.array(values)
    if a.dtype.kind in "iu" and a.ndim in (1, 2):
        _integers(values if a.ndim == 1 else chain.from_iterable(values), what)
    return a


class Graph:
    """Simple undirected graph held as sorted CSR arrays.

    ``indices[indptr[v]:indptr[v+1]]`` lists the neighbours of v in
    ascending order. Instances and both arrays are read-only after
    construction, so a Graph can be shared freely. ``degrees`` (read-only),
    ``min_degree`` and ``max_degree`` are computed once here.
    """

    __slots__ = ("n", "m", "indptr", "indices", "degrees", "min_degree", "max_degree")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        n = _integer(n, "n", 1, MAX_VERTICES, owner="graph")
        e = edges if isinstance(edges, np.ndarray) else _integer_array(list(edges), "edges")
        if e.size == 0:
            e = np.zeros((0, 2), dtype=np.int64)
        elif e.dtype.kind not in "iu":  # a float would truncate, a bool would read as 0 or 1
            raise ValueError(f"edges must be integer pairs, got {e.dtype} entries")
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        u, v = e[:, 0], e[:, 1]
        if e.size and (e.min() < 0 or e.max() >= n):  # in e's own dtype, so a uint64 never wraps
            i = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n))[0]
            raise ValueError(f"edge ({u[i]},{v[i]}) out of range for n={n}")
        u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
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
        v = _integer(v, "vertex id")
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
        v = self._check_vertex(v)
        return tuple(sorted(self.neighbors(v) + (v,)))

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

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The (indptr, indices) arrays of the open neighbourhoods N(v)."""
        return self.indptr, self.indices

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

    x has shape (n,), or (T, n) for T labelings summed row by row in one
    pass, in any memory layout and any integer dtype; the sums come back as
    a C-contiguous int64 array of x's shape. Every domination condition
    compares these sums with a demand; the closed and open sums differ only
    by the vertex's own label.

    The labels are gathered along the last axis with ``take``, which
    always writes a C-contiguous block, so ``reduceat`` then reads each
    row's 2m gathered labels in order.
    """
    x = x if isinstance(x, np.ndarray) else _integer_array(x, "labels")
    if x.dtype.kind not in "iu":  # a float would truncate, a bool would add as 1
        raise ValueError(f"labels must be integers, got {x.dtype} entries")
    if x.dtype == np.uint64 and x.size and x.max() >= 2**63:  # would wrap to a negative int64
        raise ValueError(f"labels must be below 2**63, got {x.max()}")
    x = x.astype(np.int64, copy=False)
    if x.ndim not in (1, 2) or x.shape[-1] != g.n:
        raise ValueError(f"labels have shape {x.shape}, graph has n={g.n}")
    indptr, indices = g.csr()
    gathered = x.take(indices, axis=-1)
    if g.min_degree > 0:
        # no empty row, so the mask below is not needed; skipping it takes
        # a call from about 6.5 to 2.7 us at n = 12 and from 143 to 120 us
        # at n = 3 000 (timeit, 2-vCPU VM, numpy 2.4.6)
        sums = np.add.reduceat(gathered, indptr[:-1], axis=-1)
    else:
        # reduceat would give an empty row its successor's first entry
        sums = np.zeros(x.shape, dtype=np.int64)
        nonempty = indptr[1:] > indptr[:-1]
        if nonempty.any():
            sums[..., nonempty] = np.add.reduceat(gathered, indptr[:-1][nonempty], axis=-1)
    return sums + x if closed else sums


def _rows(g: Graph, closed: bool) -> list[list[int]]:
    """Each N(v) from the open CSR as a Python list, v appended when ``closed``."""
    indptr, indices = g.csr()
    ptr = indptr.tolist()
    idx = indices.tolist()
    rows = [idx[ptr[v] : ptr[v + 1]] for v in range(g.n)]
    if closed:
        for v, row in enumerate(rows):
            row.append(v)
    return rows


# -- deterministic family generators ----------------------------------------


def path(n: int) -> Graph:
    n = _integer(n, "n", 1, MAX_VERTICES, owner="path")
    v = np.arange(n - 1)
    return Graph(n, np.column_stack((v, v + 1)))


def cycle(n: int) -> Graph:
    n = _integer(n, "n", 3, MAX_VERTICES, owner="cycle")
    v = np.arange(n)
    return Graph(n, np.column_stack((v, (v + 1) % n)))


def complete(n: int) -> Graph:
    n = _integer(n, "n", 1, MAX_VERTICES, owner="complete graph")
    return Graph(n, np.column_stack(np.triu_indices(n, 1)))


def complete_bipartite(n1: int, n2: int) -> Graph:
    n1 = _integer(n1, "n1", 1, MAX_VERTICES, owner="complete bipartite")
    n2 = _integer(n2, "n2", 1, MAX_VERTICES, owner="complete bipartite")
    i, j = np.divmod(np.arange(n1 * n2), n2)
    return Graph(n1 + n2, np.column_stack((i, n1 + j)))


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))        # outer cycle
        edges.append((i, i + 5))              # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return Graph(10, np.array(edges))


# gnp draws its n(n-1)/2 uniforms in blocks of whole rows holding about this
# many pairs (8 MB of doubles), so peak memory is O(block + m) rather than
# O(n^2). A Generator yields the same doubles drawn at once or in chunks, so
# the block size does not change any seeded graph.
GNP_BLOCK_PAIRS = 2**20


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p); identical (n, p, seed) gives an identical graph."""
    n = _integer(n, "n", 1, MAX_VERTICES, owner="gnp")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(_integer(seed, "seed", 0))
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


# random_regular draws at most this many pairings before it gives up.
RANDOM_REGULAR_ATTEMPTS = 100_000


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via the pairing model with rejection."""
    n = _integer(n, "n", 1, MAX_VERTICES, owner="random regular")
    d = _integer(d, "d", 0, n - 1, owner="random regular")
    if (n * d) % 2 != 0:
        raise ValueError("random regular needs n*d even")
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    stubs = np.repeat(np.arange(n), d)
    for _ in range(RANDOM_REGULAR_ATTEMPTS):
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        keys = np.sort(lo * n + hi)
        if not (lo == hi).any() and not (keys[1:] == keys[:-1]).any():
            return Graph(n, pairs)
    raise ResourceLimitError(
        f"pairing model failed to produce a simple {d}-regular graph "
        f"on {n} vertices in {RANDOM_REGULAR_ATTEMPTS} attempts"
    )


# -- file formats ------------------------------------------------------------
#
# edge_list: one "u v" pair per line, whitespace-separated, '#' comments.
#            The writer emits a "# n=<N>" comment so isolated trailing
#            vertices survive a round trip; the reader honors it.
# dimacs:    "p edge <n> <m>" header plus "e <u> <v>" lines, 1-based.
#
# Each reader takes a valid file in one byte pass, _byte_pass: numpy finds
# the lines and tokens of the file's UTF-8 bytes and converts the vertex ids
# digit by digit. It takes only files on which it must agree with
# str.splitlines, str.split and int(): lines end in "\n" or "\r\n", ids are
# ASCII digits separated by spaces and tabs, and any other text stands in a
# comment line or the problem line, which Python reads. Graph() is then the
# only range, self-loop and duplicate check. Any other file, or one that
# fails a check, goes to a plain line loop that reads it again from the
# top; that loop alone decides every error message and line number, so a
# file reports its earliest bad line.

GRAPH_FORMATS = ("edge_list", "dimacs")

# The line breaks of str.splitlines besides "\n" and "\r\n". A file that
# holds one, or a lone "\r", goes to the line loop.
_OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_BREAKS = "\n\r" + _OTHER_BREAKS

# Ids of up to 18 digits fit int64; the line loop reads longer ones.
_DIGITS = 18


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


def _first_line(text: str, comment: str) -> re.Match:
    """The first line that is neither blank nor a comment, as str.splitlines
    and str.strip find it: group 1 holds it from its first non-blank
    character. re compiles the pattern on first use and caches it."""
    return re.match(rf"(?:\s*{comment}[^{_BREAKS}]*)*\s*([^{_BREAKS}]*)", text)


def _byte_pass(text: str, comment: str, kind: str = "") -> tuple[np.ndarray, list[str]] | None:
    """The vertex ids and comment lines of a file the byte pass takes.

    Each line of such a file is blank, a comment (its first token starts
    with ``comment``) or a data line: ``kind``, when given, then two ids of
    at most 18 ASCII digits. Returns the (m, 2) int64 ids and the comment
    lines as text, or None for any other file.
    """
    if any(c in text for c in _OTHER_BREAKS):
        return None
    # the trailing newlines end the last line and let a token's digit reads
    # run past it
    raw = text.encode("utf-8", "surrogatepass") + b"\n" * _DIGITS
    b = np.frombuffer(raw, dtype=np.uint8)
    if ((b[:-1] == 13) & (b[1:] != 10)).any():  # a lone "\r"
        return None
    solid = (b != 32) & (b != 9) & (b != 10) & (b != 13)  # every "\r" ends a line here
    starts, stops = np.flatnonzero(np.diff(solid, prepend=False)).reshape(-1, 2).T
    ends = np.flatnonzero(b == 10)
    first = np.searchsorted(starts, np.concatenate(([0], ends[:-1] + 1)))  # of each line
    count = np.diff(first, append=len(starts))
    first, count, ends = first[count > 0], count[count > 0], ends[count > 0]
    lead = b[starts[first]]
    remark = lead == ord(comment)
    comments = [raw[a:z].decode("utf-8", "surrogatepass")
                for a, z in zip(starts[first[remark]].tolist(), ends[remark].tolist())]
    first, count, lead = first[~remark], count[~remark], lead[~remark]
    if (count != len(kind) + 2).any():
        return None
    if kind and ((lead != ord(kind)) | (stops[first] - starts[first] != 1)).any():
        return None
    tokens = first[:, None] + np.arange(len(kind), len(kind) + 2)
    at, length = starts[tokens], stops[tokens] - starts[tokens]
    width = int(length.max(initial=0))
    if width > _DIGITS:
        return None
    ids = np.zeros(tokens.shape, dtype=np.int64)
    for d in range(width):
        live = length > d
        digit = b[at + d] - 48  # a byte below "0" wraps above 9
        if (live & (digit > 9)).any():
            return None
        ids = np.where(live, ids * 10 + digit, ids)
    return ids, comments


def _read_edge_list(text: str) -> Graph:
    read = _byte_pass(text, "#")
    try:
        if read is not None:
            e, comments = read
            headers = (s[1:].strip() for s in comments)
            declared = next((h[2:] for h in headers if h.startswith("n=")), None)
            n = int(declared) if declared is not None else int(e.max(initial=-1)) + 1
            if 1 <= n <= MAX_VERTICES:
                return Graph(n, e)
    except (ValueError, OverflowError):  # the line loop finds and reports the fault
        pass
    return _edge_list_loop(text.splitlines())


def _edge_list_loop(lines: list[str]) -> Graph:
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    declared_n: int | None = None
    max_seen = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n=") and declared_n is None:
                declared_n = _parse_int(body[2:].strip(), lineno, "vertex count")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'u v', got {raw!r}", lineno)
        u = _parse_int(parts[0], lineno, "vertex id")
        v = _parse_int(parts[1], lineno, "vertex id")
        if u < 0 or v < 0:
            raise GraphFormatError("vertex ids must be nonnegative", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(f"duplicate edge ({key[0]},{key[1]})", lineno)
        seen.add(key)
        edges.append(key)
        max_seen = max(max_seen, u, v)
    n = declared_n if declared_n is not None else max_seen + 1
    if n < 1:
        raise GraphFormatError("empty edge list and no '# n=' header")
    _check_vertex_count(n)
    if max_seen >= n:
        raise GraphFormatError(f"vertex id {max_seen} exceeds declared n={n}")
    return Graph(n, np.array(edges, dtype=np.int64))


def _read_dimacs(text: str) -> Graph:
    problem = _first_line(text, "c")
    try:
        p, edge, n, m = problem[1].split()
        n, m = int(n), int(m)
        if (p, edge) == ("p", "edge") and 1 <= n <= MAX_VERTICES:
            read = _byte_pass(text[problem.end():], "c", "e")
            if read is not None and len(read[0]) == m:
                return Graph(n, read[0] - 1)
    except (ValueError, OverflowError):  # the line loop finds and reports the fault
        pass
    return _dimacs_loop(text.splitlines())


def _dimacs_loop(lines: list[str]) -> Graph:
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError(f"expected 'p edge n m', got {raw!r}", lineno)
            n = _parse_int(parts[2], lineno, "vertex count")
            _check_vertex_count(n, lineno)
            m = _parse_int(parts[3], lineno, "edge count")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError("edge before problem line", lineno)
            if len(parts) != 3:
                raise GraphFormatError(f"expected 'e u v', got {raw!r}", lineno)
            u = _parse_int(parts[1], lineno, "vertex id")
            v = _parse_int(parts[2], lineno, "vertex id")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"vertex id out of range 1..{n}", lineno)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            key = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({u},{v})", lineno)
            seen.add(key)
            edges.append(key)
        else:
            raise GraphFormatError(f"unknown line type {parts[0]!r}", lineno)
    if n is None:
        raise GraphFormatError("missing problem line")
    if m != len(edges):
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)}")
    return Graph(n, np.array(edges, dtype=np.int64))


def read_graph(text: str, fmt: str | None = None) -> Graph:
    """Parse a graph; when fmt is None it is sniffed from the content."""
    if fmt is None:
        first = _first_line(text, "#")[1]
        fmt = "dimacs" if first[:1] in ("p", "c", "e") else "edge_list"
    if fmt == "edge_list":
        return _read_edge_list(text)
    if fmt == "dimacs":
        return _read_dimacs(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def load_graph(path: str, fmt: str | None = None) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return read_graph(fh.read(), fmt)


def save_graph(g: Graph, path: str, fmt: str = "edge_list") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_graph(g, fmt))
