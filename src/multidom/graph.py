"""Immutable undirected simple graphs, seeded family generators and file I/O.

Vertices are 0-based everywhere inside the library; the DIMACS format is
1-based and gets converted at the parsing boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
# Each reader takes a valid file in one vectorised pass: it drops comment and
# blank lines, checks the token count of every data line, splits the joined
# data lines once and converts all vertex ids in one np.array call, which
# reads each token as int() does. Graph() is then the only range, self-loop
# and duplicate check. When any step fails, the file goes to a plain line
# loop that reads it again from the top; that loop alone decides every error
# message and line number, so a file reports its earliest bad line.

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


def _read_edge_list(lines: list[str]) -> Graph:
    stripped = list(map(str.strip, lines))
    data = [s for s in stripped if s[:1] not in "#"]  # "" is in every string
    headers = (s[1:].strip() for s in stripped if s[:1] == "#")
    declared = next((h[2:] for h in headers if h.startswith("n=")), None)
    try:
        if set(map(len, map(str.split, data))) <= {2}:
            e = np.array(" ".join(data).split(), dtype=np.int64).reshape(-1, 2)
            n = int(declared) if declared is not None else int(e.max(initial=-1)) + 1
            if 1 <= n <= MAX_VERTICES:
                return Graph(n, e)
    except (ValueError, OverflowError):  # the line loop finds and reports the fault
        pass
    return _edge_list_loop(lines)


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
    return Graph(n, edges)


def _read_dimacs(lines: list[str]) -> Graph:
    data = [s for s in map(str.strip, lines) if s[:1] not in "c"]
    try:
        p, edge, n, m = data[0].split() if data else ()
        n, m, body = int(n), int(m), data[1:]
        header_ok = (p, edge) == ("p", "edge") and 1 <= n <= MAX_VERTICES
        if header_ok and set(map(len, map(str.split, body))) <= {3}:
            tokens = " ".join(body).split()
            if tokens[0::3].count("e") == len(body) == m:
                del tokens[0::3]
                return Graph(n, np.array(tokens, dtype=np.int64).reshape(-1, 2) - 1)
    except (ValueError, OverflowError):  # the line loop finds and reports the fault
        pass
    return _dimacs_loop(lines)


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
    return Graph(n, edges)


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
