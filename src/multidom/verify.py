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
    out = tuple(int(x) for x in values)
    if out and min(out) < 0:
        raise ValueError(f"{what} entries must be nonnegative")
    if out and max(out) >= LABEL_LIMIT:
        raise ValueError(f"{what} entries must be below {LABEL_LIMIT}")
    return out


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

    # -- feasibility ----------------------------------------------------------

    def feasibility(self, g: Graph) -> tuple[bool, str]:
        """Whether a witness exists on g, with a reason when it does not.

        k_tuple needs delta >= k-1 and total_k needs delta >= k. A
        (k,l)-dominating set exists iff delta >= l-1 (V(G) then qualifies);
        k_dominating and classical sets always exist. Function variants use
        the capacity condition: the (closed or open) neighborhood caps of
        every vertex must sum to at least its demand.
        """
        d = g.min_degree
        v = self.variant
        if v in ("classical", "k_dominating"):
            return True, ""
        if v == "k_tuple":
            if d < self.k - 1:
                return False, f"k-tuple domination needs min degree >= {self.k - 1}, got {d}"
            return True, ""
        if v == "total_k":
            if d < self.k:
                return False, f"total {self.k}-domination needs min degree >= {self.k}, got {d}"
            return True, ""
        if v == "parametric":
            if d < self.l - 1:
                return False, f"({self.k},{self.l})-domination needs min degree >= {self.l - 1}, got {d}"
            return True, ""
        caps, demands = self.vectors(g.n)
        closed = not self.uses_open_neighborhoods
        have = coverage(g, caps, closed)
        short = np.flatnonzero(have < np.asarray(demands))
        if short.size:
            i = short[0]
            kind = "closed" if closed else "open"
            return False, (
                f"vertex {i}: {kind} neighborhood caps sum to {have[i]} < demand {demands[i]}"
            )
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
    """Integer label per vertex plus its per-vertex caps.

    Cap compliance is deliberately not enforced at construction; the
    verifier reports violations as CapViolationError so that broken
    witnesses can be represented and diagnosed.
    """

    values: tuple[int, ...]
    caps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _as_vector(self.values, "values"))
        object.__setattr__(self, "caps", _as_vector(self.caps, "caps"))
        if len(self.values) != len(self.caps):
            raise ValueError("values and caps must have equal length")

    @property
    def weight(self) -> int:
        return sum(self.values)

    @classmethod
    def characteristic(cls, members: Iterable[int], n: int, cap: int = 1) -> "VertexFunction":
        vals = [0] * n
        for v in members:
            vals[int(v)] = 1
        return cls(tuple(vals), (cap,) * n)

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
    (see ``DominationSpec.requirements``), so the sums are closed too.
    """
    if not spec.is_set_variant:
        raise ValueError(f"verify_set needs a set variant, got {spec.variant}")
    spec.check_feasible(g)
    x = _indicator(g, members)
    k_req, l_req = spec.requirements()
    required = np.where(x == 1, l_req, k_req)
    deficiencies = _deficiencies(coverage(g, x, closed=True), required)
    return VerifyReport(not deficiencies, int(x.sum()), deficiencies)


def verify_function(g: Graph, spec: DominationSpec, f: VertexFunction) -> VerifyReport:
    """Check a vertex function against brace_k / rs / total_rs.

    Raises CapViolationError when f breaks its caps (distinct from a
    domination failure, which is reported as data).
    """
    if not spec.is_function_variant:
        raise ValueError(f"verify_function needs a function variant, got {spec.variant}")
    spec.check_feasible(g)
    caps, demands = spec.vectors(g.n)
    if len(f.values) != g.n:
        raise ValueError(f"function has {len(f.values)} values, graph has n={g.n}")
    if f.caps != caps:
        raise ValueError(f"function caps {f.caps} do not match spec caps {caps}")
    values = np.asarray(f.values, dtype=np.int64)
    over = np.flatnonzero(values > np.asarray(caps))
    if over.size:
        v = over[0]
        raise CapViolationError(f"f({v}) = {values[v]} exceeds cap {caps[v]}")
    achieved = coverage(g, values, closed=not spec.uses_open_neighborhoods)
    deficiencies = _deficiencies(achieved, np.asarray(demands, dtype=np.int64))
    return VerifyReport(not deficiencies, f.weight, deficiencies)
