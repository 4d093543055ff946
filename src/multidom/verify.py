"""Domination specs, vertex functions, and verification of witnesses.

Verification always uses the true neighborhoods, never the restricted N'
sets: those are a device of the probabilistic constructions, and anything
dominating through N' sums a fortiori dominates through the full sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapViolationError, InfeasibleSpecError, _integer, _integers
from .graph import MAX_VERTICES, Graph, coverage

SET_VARIANTS = ("classical", "k_dominating", "k_tuple", "total_k", "parametric")
FUNCTION_VARIANTS = ("brace_k", "rs", "total_rs")


# Labels, caps, demands, k and l stay below this, so that every
# neighbourhood sum of them fits the int64 arrays coverage() adds in.
LABEL_LIMIT = 2**31


def _as_vector(values: Sequence[int], what: str) -> tuple[tuple[int, ...], np.ndarray]:
    """The entries of values as a tuple of Python ints and as a read-only
    int64 array, each checked to lie in [0, LABEL_LIMIT)."""
    ints = _integers(values, f"{what} entries")
    if isinstance(values, np.ndarray):
        arr = values  # integers by now; checked in its own dtype, so a uint64 never wraps
    else:
        try:
            arr = np.fromiter(ints, dtype=np.int64, count=len(ints))
        except OverflowError:  # an entry past int64, whose sign the message needs
            arr = np.array(ints, dtype=object)
    if arr.size and arr.min() < 0:
        raise ValueError(f"{what} entries must be nonnegative")
    if arr.size and arr.max() >= LABEL_LIMIT:
        raise ValueError(f"{what} entries must be below {LABEL_LIMIT}")
    arr = arr.astype(np.int64)  # a copy, so the caller's array stays its own
    arr.flags.writeable = False
    return tuple(ints), arr


def _core(g: Graph, d: int) -> np.ndarray:
    """0/1 indicator of the d-core of g, peeled in O(n + m): vertices of
    degree below d are deleted until every remaining one has d neighbours
    among the remaining."""
    deg = g.degrees.tolist()
    stack = [v for v in range(g.n) if deg[v] < d]
    inside = [1] * g.n
    for v in stack:
        inside[v] = 0
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            deg[u] -= 1
            if inside[u] and deg[u] < d:
                inside[u] = 0
                stack.append(u)
    return np.array(inside, dtype=np.int64)


def _guaranteed_witness(g: Graph, spec: DominationSpec) -> np.ndarray:
    """The witness that exists whenever any does: the 0/1 indicator of the
    (l-1)-core for a set variant, the all-caps function otherwise."""
    if spec.is_set_variant:
        return _core(g, spec.requirements()[1] - 1)
    return spec.vectors(g.n)[0]


@dataclass(frozen=True)
class DominationSpec:
    """Tagged domination variant with its parameters.

    Set variants use (k, l); function variants use per-vertex cap vector r
    and demand vector s. Every constructor checks these once, here; the
    classmethods are the usual way in.
    """

    variant: str
    k: int | None = None
    l: int | None = None
    r: tuple[int, ...] | None = None
    s: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.variant not in SET_VARIANTS + FUNCTION_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        wanted = {"classical": (), "parametric": ("k", "l"), "rs": ("r", "s"),
                  "total_rs": ("r", "s")}.get(self.variant, ("k",))
        given = tuple(name for name in "klrs" if getattr(self, name) is not None)
        if given != wanted:
            raise ValueError(f"{self.variant} takes {', '.join(wanted) or 'no parameters'}, "
                             f"got {', '.join(given) or 'none'}")
        for name in [name for name in given if name in ("k", "l")]:
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1, LABEL_LIMIT - 1))
        if self.r is not None:
            (r, caps), (s, demands) = _as_vector(self.r, "r"), _as_vector(self.s, "s")
            if len(r) != len(s):
                raise ValueError("r and s vectors must have equal length")
            object.__setattr__(self, "r", r)
            object.__setattr__(self, "s", s)
            # the read-only int64 copies that vectors() hands out; not fields,
            # so equality, hashing and repr still see only the tuples
            object.__setattr__(self, "_vectors", (caps, demands))

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which sets _vectors
        return type(self), (self.variant, self.k, self.l, self.r, self.s)

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
        return cls("rs", r=r, s=s)

    @classmethod
    def total_rs(cls, r: Sequence[int], s: Sequence[int]) -> "DominationSpec":
        return cls("total_rs", r=r, s=s)

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

    def vectors(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(caps, demands) of length n as read-only int64 arrays, the same
        objects on every call for rs and total_rs. Function variants only."""
        n = _integer(n, "n", 1, MAX_VERTICES)
        if self.variant == "brace_k":
            ks = np.full(n, self.k, dtype=np.int64)
            ks.flags.writeable = False
            return ks, ks
        if self.variant in ("rs", "total_rs"):
            if len(self.r) != n:
                raise ValueError(f"r/s vectors have length {len(self.r)}, graph has n={n}")
            return self._vectors
        raise ValueError(f"{self.variant} is not a function variant")

    def cap_summary(self, n: int) -> tuple[int, int, int]:
        """(tau, s, cap_sum): min cap, max demand and sum of the caps over n
        vertices, the three numbers the capped-function bounds read, as
        Python ints. A set variant is the <1,k> function: (1, k, n)."""
        if self.variant == "brace_k":
            return self.k, self.k, self.k * _integer(n, "n", 1)
        if self.is_set_variant:
            return 1, self.requirements()[0], _integer(n, "n", 1)
        caps, demands = self.vectors(n)
        return int(caps.min()), int(demands.max()), int(caps.sum())

    def model(self, n: int) -> tuple[bool, int, int | np.ndarray, int | np.ndarray]:
        """(closed, shift, caps, demands): the covering condition of the spec
        on n vertices. A witness is integer labels 0 <= x <= caps with
        coverage(g, x, closed) + shift * x >= demands.

        A set variant with (k, l) = requirements() is (True, k - l, 1, k):
        a non-member needs k closed coverage, a member k - (k - l) = l. Its
        caps and demands are ints that broadcast over n, so it allocates
        nothing. A function variant is (closed, 0, *vectors(n)), open for
        total_rs.
        """
        if self.is_set_variant:
            k, l = self.requirements()
            return True, k - l, 1, k
        return (not self.uses_open_neighborhoods, 0, *self.vectors(n))

    # -- feasibility ----------------------------------------------------------

    def feasibility(self, g: Graph) -> tuple[bool, str]:
        """Whether a witness exists on g, with a reason when it does not.

        Set variants, with (k, l) = requirements(): every member needs l-1
        neighbours among the members, so every witness lies inside the
        (l-1)-core C of g. A witness therefore exists iff every vertex
        outside C has at least k neighbours in C, and C is then one.
        Function variants: the (closed or open) neighbourhood caps of every
        vertex must sum to at least its demand; the all-caps function is
        then a witness. One shortcut settles both from scalars: with
        model() = (closed, shift, ...) and cap_summary() = (tau, s, _),
        labelling every vertex with its cap gives every vertex at least
        tau (delta + closed + shift), so tau (delta + closed + shift) >= s
        is enough; for sets it reads delta >= l - 1, where C = V.
        Otherwise the guaranteed witness is checked with the requirement
        check verification uses; core members always meet l, so a short
        vertex lies outside C.
        """
        closed, shift, _, _ = model = self.model(g.n)
        tau, s, _ = self.cap_summary(g.n)
        if tau * (g.min_degree + closed + shift) >= s:
            return True, ""
        have, need = _sums(g, model, _guaranteed_witness(g, self))
        short = np.flatnonzero(have < need)
        if short.size:
            i = short[0]
            what = (f"neighbours in the {self.requirements()[1] - 1}-core number"
                    if self.is_set_variant
                    else f"{'closed' if closed else 'open'} neighborhood caps sum to")
            return False, f"vertex {i}: {what} {have[i]} < demand {need[i]}"
        return True, ""

    def check_feasible(self, g: Graph) -> None:
        ok, why = self.feasibility(g)
        if not ok:
            raise InfeasibleSpecError(why)

    # -- presentation ----------------------------------------------------------

    # label heads ("kdom" in "kdom:2") of the variants with k alone; cli reads them back
    K_LABELS = {"k_dominating": "kdom", "k_tuple": "ktuple", "total_k": "totalk",
                "brace_k": "bracek"}

    def label(self) -> str:
        v = self.variant
        if v in self.K_LABELS:
            return f"{self.K_LABELS[v]}:{self.k}"
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
        values, array = _as_vector(self.values, "values")
        object.__setattr__(self, "values", values)
        # a read-only int64 copy for verification; not a field, as in DominationSpec
        object.__setattr__(self, "_array", array)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which sets _array
        return type(self), (self.values,)

    @property
    def weight(self) -> int:
        return int(self._array.sum())

    @classmethod
    def characteristic(cls, members: Iterable[int], n: int) -> "VertexFunction":
        return cls(_indicator(members, _integer(n, "n", 1, MAX_VERTICES)))

    def to_dict(self) -> dict:
        return {"values": list(self.values)}


def _witness_dict(witness: VertexFunction | tuple[int, ...]) -> dict:
    """JSON form of a witness: {"set": ids} for a set, {"values": labels}."""
    return {"set": list(witness)} if isinstance(witness, tuple) else witness.to_dict()


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


def _sums(g: Graph, model: tuple, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(achieved, required): the neighbourhood sums of the labels x, of
    shape (n,) or (T, n), and the demands they must meet under the spec's
    ``model()``, demands - shift * x; for a set, l at members and k
    elsewhere."""
    closed, shift, _, demands = model
    return coverage(g, x, closed), demands - shift * x


def _rows_valid(g: Graph, model: tuple, rows: np.ndarray) -> np.ndarray:
    """Whether each row of the (T, n) array is a witness under the spec's
    ``model()``: labels within the caps meeting every demand."""
    achieved, required = _sums(g, model, rows)
    return (achieved >= required).all(axis=1) & (rows <= model[2]).all(axis=1)


def _report(g: Graph, model: tuple, x: np.ndarray, weight: int) -> VerifyReport:
    """The report on the labels x, of the given weight, under model."""
    deficiencies = _deficiencies(*_sums(g, model, x))
    return VerifyReport(not deficiencies, weight, deficiencies)


def _indicator(members: Iterable[int], n: int) -> np.ndarray:
    """0/1 membership vector over n vertices of a witness set; repeated ids
    count once, and the first id outside [0, n), in the given order, raises."""
    ids = _integers(members, "witness vertex ids")
    try:
        at = np.array(ids, dtype=np.int64)
        inside = at.size == 0 or (at.min() >= 0 and at.max() < n)
    except OverflowError:  # an id past int64
        inside = False
    if not inside:
        bad = next(v for v in ids if not 0 <= v < n)
        raise ValueError(f"witness vertex {bad} out of range for n={n}")
    x = np.zeros(n, dtype=np.int64)
    x[at] = 1
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
    x = _indicator(members, g.n)
    return _report(g, spec.model(g.n), x, int(x.sum()))


def verify_function(g: Graph, spec: DominationSpec, f: VertexFunction) -> VerifyReport:
    """Check a vertex function against brace_k / rs / total_rs.

    Raises CapViolationError when f breaks the spec's caps (distinct from a
    domination failure, which is reported as data, as on an infeasible spec).
    """
    if not spec.is_function_variant:
        raise ValueError(f"verify_function needs a function variant, got {spec.variant}")
    _, _, caps, _ = model = spec.model(g.n)
    if len(f.values) != g.n:
        raise ValueError(f"function has {len(f.values)} values, graph has n={g.n}")
    values = f._array
    over = np.flatnonzero(values > caps)
    if over.size:
        v = over[0]
        raise CapViolationError(f"f({v}) = {values[v]} exceeds cap {caps[v]}")
    return _report(g, model, values, f.weight)
