"""Domination specs, vertex functions, and verification of witnesses.

Verification always uses the true neighborhoods, never the restricted N'
sets: those are a device of the probabilistic constructions, and anything
dominating through N' sums a fortiori dominates through the full sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapViolationError, InfeasibleSpecError
from .graph import Graph, coverage

SET_VARIANTS = ("classical", "k_dominating", "k_tuple", "total_k", "parametric")
FUNCTION_VARIANTS = ("brace_k", "rs", "total_rs")


# Labels, caps, demands, k and l stay below this, so that every
# neighbourhood sum of them fits the int64 arrays coverage() adds in.
LABEL_LIMIT = 2**31


def _as_vector(values: Sequence[int], what: str) -> tuple[int, ...]:
    out = tuple(map(int, values))
    if out and min(out) < 0:
        raise ValueError(f"{what} entries must be nonnegative")
    if out and max(out) >= LABEL_LIMIT:
        raise ValueError(f"{what} entries must be below {LABEL_LIMIT}")
    return out


def _core(g: Graph, d: int) -> np.ndarray:
    """0/1 indicator of the d-core of g, peeled in O(n + m): vertices of
    degree below d are deleted until every remaining one has d neighbours
    among the remaining."""
    ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
    deg = g.degrees.tolist()
    stack = [v for v in range(g.n) if deg[v] < d]
    inside = [1] * g.n
    for v in stack:
        inside[v] = 0
    while stack:
        v = stack.pop()
        for u in nbrs[ptr[v]:ptr[v + 1]]:
            deg[u] -= 1
            if inside[u] and deg[u] < d:
                inside[u] = 0
                stack.append(u)
    return np.array(inside, dtype=np.int64)


@dataclass(frozen=True)
class DominationSpec:
    """Tagged domination variant with its parameters.

    Set variants use (k, l); function variants use per-vertex cap vector r
    and demand vector s. Use the classmethod constructors.
    """

    variant: str
    k: int | None = None
    l: int | None = None
    r: tuple[int, ...] | None = None
    s: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.variant not in SET_VARIANTS + FUNCTION_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.l is not None and self.l < 1:
            raise ValueError("l must be >= 1")
        if max(self.k or 0, self.l or 0) >= LABEL_LIMIT:
            raise ValueError(f"k and l must be below {LABEL_LIMIT}")
        if (self.r is None) != (self.s is None):
            raise ValueError("r and s vectors must be given together")
        if self.r is not None and len(self.r) != len(self.s):
            raise ValueError("r and s vectors must have equal length")

    # -- constructors --------------------------------------------------------

    @classmethod
    def classical(cls) -> "DominationSpec":
        return cls("classical")

    @classmethod
    def k_dominating(cls, k: int) -> "DominationSpec":
        return cls("k_dominating", k=k)

    @classmethod
    def k_tuple(cls, k: int) -> "DominationSpec":
        return cls("k_tuple", k=k)

    @classmethod
    def total_k(cls, k: int) -> "DominationSpec":
        return cls("total_k", k=k)

    @classmethod
    def brace_k(cls, k: int) -> "DominationSpec":
        return cls("brace_k", k=k)

    @classmethod
    def parametric(cls, k: int, l: int) -> "DominationSpec":
        return cls("parametric", k=k, l=l)

    @classmethod
    def rs(cls, r: Sequence[int], s: Sequence[int]) -> "DominationSpec":
        return cls("rs", r=_as_vector(r, "r"), s=_as_vector(s, "s"))

    @classmethod
    def total_rs(cls, r: Sequence[int], s: Sequence[int]) -> "DominationSpec":
        return cls("total_rs", r=_as_vector(r, "r"), s=_as_vector(s, "s"))

    # -- classification ------------------------------------------------------

    @property
    def is_set_variant(self) -> bool:
        return self.variant in SET_VARIANTS

    @property
    def is_function_variant(self) -> bool:
        return self.variant in FUNCTION_VARIANTS

    @property
    def uses_open_neighborhoods(self) -> bool:
        return self.variant in ("total_k", "total_rs")

    def requirements(self) -> tuple[int, int]:
        """(k_req, l_req): closed-neighborhood coverage demanded of
        non-members and members respectively. Set variants only.

        total_k maps to (k, k+1) because a member's own unit turns the open
        demand |N(v) ∩ X| >= k into the closed demand |N[v] ∩ X| >= k + 1.
        """
        if self.variant == "classical":
            return 1, 1
        if self.variant == "k_dominating":
            return self.k, 1
        if self.variant == "k_tuple":
            return self.k, self.k
        if self.variant == "total_k":
            return self.k, self.k + 1
        if self.variant == "parametric":
            return self.k, self.l
        raise ValueError(f"{self.variant} is not a set variant")

    def vectors(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(caps, demands) of length n. Function variants only."""
        if self.variant == "brace_k":
            return (self.k,) * n, (self.k,) * n
        if self.variant in ("rs", "total_rs"):
            if len(self.r) != n:
                raise ValueError(f"r/s vectors have length {len(self.r)}, graph has n={n}")
            return self.r, self.s
        raise ValueError(f"{self.variant} is not a function variant")

    def cap_summary(self, n: int) -> tuple[int, int, int]:
        """(tau, s, cap_sum): min cap, max demand and sum of the caps over n
        vertices, the three numbers the capped-function bounds read.
        Function variants only."""
        if self.variant == "brace_k":
            return self.k, self.k, self.k * n
        caps, demands = self.vectors(n)
        return min(caps), max(demands), sum(caps)

    # -- feasibility ----------------------------------------------------------

    def feasibility(self, g: Graph) -> tuple[bool, str]:
        """Whether a witness exists on g, with a reason when it does not.

        Set variants, with (k, l) = requirements(): every member needs l-1
        neighbours among the members, so every witness lies inside the
        (l-1)-core C of g. A witness therefore exists iff every vertex
        outside C has at least k neighbours in C, and C is then one.
        Function variants: the (closed or open) neighbourhood caps of every
        vertex must sum to at least its demand; the all-caps function is
        then a witness.
        """
        if self.is_set_variant:
            k, l = self.requirements()
            if g.min_degree >= l - 1:
                return True, ""  # C = V
            core = _core(g, l - 1)
            have = coverage(g, core, closed=False)
            need = np.where(core == 1, 0, k)
            what = f"neighbours in the {l - 1}-core number"
        else:
            caps, demands = self.vectors(g.n)
            closed = not self.uses_open_neighborhoods
            have = coverage(g, caps, closed)
            need = np.asarray(demands)
            what = f"{'closed' if closed else 'open'} neighborhood caps sum to"
        short = np.flatnonzero(have < need)
        if short.size:
            i = short[0]
            return False, f"vertex {i}: {what} {have[i]} < demand {need[i]}"
        return True, ""

    def check_feasible(self, g: Graph) -> None:
        ok, why = self.feasibility(g)
        if not ok:
            raise InfeasibleSpecError(why)

    # -- presentation ----------------------------------------------------------

    def label(self) -> str:
        v = self.variant
        if v == "classical":
            return "classical"
        if v == "k_dominating":
            return f"kdom:{self.k}"
        if v == "k_tuple":
            return f"ktuple:{self.k}"
        if v == "total_k":
            return f"totalk:{self.k}"
        if v == "brace_k":
            return f"bracek:{self.k}"
        if v == "parametric":
            return f"param:{self.k},{self.l}"
        return v

    def to_dict(self) -> dict:
        out: dict = {"variant": self.variant}
        if self.k is not None:
            out["k"] = self.k
        if self.l is not None:
            out["l"] = self.l
        if self.r is not None:
            out["r"] = list(self.r)
            out["s"] = list(self.s)
        return out


@dataclass(frozen=True)
class VertexFunction:
    """Integer label per vertex.

    The caps belong to the spec. Cap compliance is deliberately not
    enforced at construction; the verifier reports violations as
    CapViolationError so that broken witnesses can be represented and
    diagnosed.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _as_vector(self.values, "values"))

    @property
    def weight(self) -> int:
        return sum(self.values)

    @classmethod
    def characteristic(cls, members: Iterable[int], n: int) -> "VertexFunction":
        vals = [0] * n
        for v in members:
            vals[int(v)] = 1
        return cls(tuple(vals))

    def to_dict(self) -> dict:
        return {"values": list(self.values)}


def weight(f: VertexFunction) -> int:
    """|f| = sum of the labels."""
    return f.weight


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    weight: int
    deficiencies: tuple[tuple[int, int, int], ...]  # (vertex, required, achieved)

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "weight": self.weight,
            "deficiencies": [
                {"vertex": v, "required": req, "achieved": got}
                for v, req, got in self.deficiencies
            ],
        }


def _deficiencies(achieved: np.ndarray, required: np.ndarray) -> tuple[tuple[int, int, int], ...]:
    short = np.flatnonzero(achieved < required)
    return tuple(zip(short.tolist(), required[short].tolist(), achieved[short].tolist()))


def _indicator(g: Graph, members: Iterable[int]) -> np.ndarray:
    """0/1 membership vector of a witness set; repeated ids count once."""
    ids = np.fromiter((int(v) for v in members), dtype=np.int64)
    bad = ids[(ids < 0) | (ids >= g.n)]
    if bad.size:
        raise ValueError(f"witness vertex {bad[0]} out of range for n={g.n}")
    x = np.zeros(g.n, dtype=np.int64)
    x[ids] = 1
    return x


def verify_set(g: Graph, spec: DominationSpec, members: Iterable[int]) -> VerifyReport:
    """Check a vertex set against a set-type spec; deficiencies are exhaustive.

    The requirements are closed-neighborhood demands for every set variant
    (see ``DominationSpec.requirements``), so the sums are closed too. On a
    spec that is infeasible for g every witness is deficient, and the report
    says so; ``DominationSpec.check_feasible`` is the existence check.
    """
    if not spec.is_set_variant:
        raise ValueError(f"verify_set needs a set variant, got {spec.variant}")
    x = _indicator(g, members)
    k_req, l_req = spec.requirements()
    required = np.where(x == 1, l_req, k_req)
    deficiencies = _deficiencies(coverage(g, x, closed=True), required)
    return VerifyReport(not deficiencies, int(x.sum()), deficiencies)


def verify_function(g: Graph, spec: DominationSpec, f: VertexFunction) -> VerifyReport:
    """Check a vertex function against brace_k / rs / total_rs.

    Raises CapViolationError when f breaks the spec's caps (distinct from a
    domination failure, which is reported as data, as on an infeasible spec).
    """
    if not spec.is_function_variant:
        raise ValueError(f"verify_function needs a function variant, got {spec.variant}")
    caps, demands = spec.vectors(g.n)
    if len(f.values) != g.n:
        raise ValueError(f"function has {len(f.values)} values, graph has n={g.n}")
    values = np.asarray(f.values, dtype=np.int64)
    over = np.flatnonzero(values > np.asarray(caps))
    if over.size:
        v = over[0]
        raise CapViolationError(f"f({v}) = {values[v]} exceeds cap {caps[v]}")
    achieved = coverage(g, values, closed=not spec.uses_open_neighborhoods)
    deficiencies = _deficiencies(achieved, np.asarray(demands, dtype=np.int64))
    return VerifyReport(not deficiencies, f.weight, deficiencies)
