"""Reference computations for the benchmark's output checks.

Nothing here imports multidom. Neighbourhoods come from raw edge arrays,
the domination conditions are written out from the variant table in the
README, and exact optima come from an integer program solved by scipy's
HiGHS-backed ``milp``. None of this is timed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix, identity


class CheckError(AssertionError):
    """A program output disagrees with the reference computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass(frozen=True)
class Rule:
    """One domination condition, as the README's variant table states it.

    Set variants: every vertex counts the members of its open or closed
    neighbourhood and needs ``need_out`` when outside the set, ``need_in``
    when inside. Function variants: labels lie in 0..caps[v] and the open or
    closed neighbourhood sum at v reaches demands[v].
    """

    closed: bool
    need_out: int = 0
    need_in: int = 0
    caps: tuple[int, ...] | None = None
    demands: tuple[int, ...] | None = None

    @property
    def is_set(self) -> bool:
        return self.caps is None


def rule_for(label: str, n: int, caps=None, demands=None) -> Rule:
    """Rule for a spec label such as ``ktuple:2``, ``param:1,3`` or ``rs``."""
    head, _, arg = label.partition(":")
    if head == "classical":
        return Rule(closed=True, need_out=1)
    if head == "kdom":
        return Rule(closed=False, need_out=int(arg))
    if head == "ktuple":
        return Rule(closed=True, need_out=int(arg), need_in=int(arg))
    if head == "totalk":
        return Rule(closed=False, need_out=int(arg), need_in=int(arg))
    if head == "param":
        k, l = (int(x) for x in arg.split(","))
        return Rule(closed=True, need_out=k, need_in=l)
    if head == "bracek":
        k = int(arg)
        return Rule(closed=True, caps=(k,) * n, demands=(k,) * n)
    if head in ("rs", "totalrs"):
        require(len(caps) == n and len(demands) == n, "vector length differs from n")
        return Rule(closed=head == "rs", caps=tuple(caps), demands=tuple(demands))
    raise ValueError(f"unknown spec label {label!r}")


class EdgeGraph:
    """A graph held as its raw edge array plus a sparse adjacency matrix."""

    def __init__(self, n: int, edges):
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        require(n >= 1, "graph has no vertices")
        require(bool(((e >= 0) & (e < n)).all()), "edge endpoint out of range")
        require(bool((e[:, 0] != e[:, 1]).all()), "self-loop in edge array")
        lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
        keys = np.unique(lo * n + hi)
        require(len(keys) == len(e), "duplicate edge in edge array")
        self.n = n
        self.keys = keys
        rows = np.concatenate([lo, hi])
        cols = np.concatenate([hi, lo])
        self.adj = csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n))
        self.degrees = np.diff(self.adj.indptr)

    @property
    def m(self) -> int:
        return len(self.keys)

    def summary(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "min_degree": int(self.degrees.min()),
            "max_degree": int(self.degrees.max()),
        }

    def counts(self, x: np.ndarray, closed: bool) -> np.ndarray:
        c = self.adj @ x
        return c + x if closed else c


def witness_weight(eg: EdgeGraph, rule: Rule, witness) -> int:
    """Check a witness against the full neighbourhoods; return its weight."""
    if rule.is_set:
        members = np.asarray(list(witness), dtype=np.int64)
        require(bool(((members >= 0) & (members < eg.n)).all()), "set member out of range")
        require(len(np.unique(members)) == len(members), "set lists a member twice")
        x = np.zeros(eg.n, dtype=np.int64)
        x[members] = 1
        need = np.where(x == 1, rule.need_in, rule.need_out)
        require(bool((eg.counts(x, rule.closed) >= need).all()), "set misses a coverage demand")
        return len(members)
    vals = np.asarray(list(witness), dtype=np.int64)
    require(len(vals) == eg.n, "function has the wrong length")
    require(bool(((vals >= 0) & (vals <= np.asarray(rule.caps))).all()), "label breaks its cap")
    require(
        bool((eg.counts(vals, rule.closed) >= np.asarray(rule.demands)).all()),
        "function misses a demand",
    )
    return int(vals.sum())


def optimum(eg: EdgeGraph, rule: Rule) -> int:
    """Minimum witness weight, by an integer program."""
    a = eg.adj + identity(eg.n, dtype=np.int64, format="csr") if rule.closed else eg.adj
    if rule.is_set:
        # count(v) >= need_out + (need_in - need_out) * x_v
        a = a - (rule.need_in - rule.need_out) * identity(eg.n, dtype=np.int64, format="csr")
        lower, upper, rhs = 0, 1, np.full(eg.n, rule.need_out)
    else:
        lower, upper, rhs = 0, np.asarray(rule.caps), np.asarray(rule.demands)
    res = milp(
        c=np.ones(eg.n),
        constraints=LinearConstraint(a.toarray(), lb=rhs, ub=np.inf),
        integrality=np.ones(eg.n),
        bounds=Bounds(lower, upper),
    )
    require(res.status == 0, f"reference integer program did not solve: {res.message}")
    return int(round(res.fun))


def min_applicable_bound(bounds) -> float | None:
    """Smallest absolute value over applicable bounds; bounds are dicts."""
    values = [b["absolute"] for b in bounds if b["applicable"] and b["absolute"] is not None]
    for v in values:
        require(math.isfinite(v) and v > 0, f"bound value {v} is not a positive number")
    return min(values) if values else None


# -- graph files, parsed without the library's reader ---------------------------


def parse_edge_list(text: str) -> EdgeGraph:
    n = None
    edges = []
    for line in text.splitlines():
        if line.startswith("# n="):
            n = int(line[4:])
        elif line and not line.startswith("#"):
            u, v = line.split()
            edges.append((int(u), int(v)))
    require(n is not None, "edge list has no '# n=' header")
    return EdgeGraph(n, edges)


def parse_dimacs(text: str) -> EdgeGraph:
    lines = text.splitlines()
    head = lines[0].split()
    require(head[:2] == ["p", "edge"], "DIMACS file does not start with 'p edge'")
    n, m = int(head[2]), int(head[3])
    edges = []
    for line in lines[1:]:
        tag, u, v = line.split()
        require(tag == "e", f"unexpected DIMACS line {line!r}")
        edges.append((int(u) - 1, int(v) - 1))
    require(len(edges) == m, "DIMACS header edge count differs from its edge lines")
    return EdgeGraph(n, edges)
