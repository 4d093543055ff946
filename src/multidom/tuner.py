"""Optimization of the threshold constant c and bound comparison tables.

The threshold bound (c/(delta+1) + e^(-k(c+1/c-2)/2)) k n is minimized in c
by a stationarity equation whose ln(1 - 1/c^2) term is replaced by -1/c^2,
giving the cubic

    P(c) = k c^3 - 2 (k + L) c^2 + k c + 2 = 0,  L = ln(0.5 k (delta+1)).

Because of that substitution the cubic root is only near-optimal, so the
tuner also reports the direct grid minimum as ground truth.

The root solver serves this one cubic, at integers k, delta >= 1:
- L >= 0, as k(delta+1) >= 2, so the depressed cubic's p = 1 - (4/3)(1 + L/k)^2 < 0.
- If k(delta+1) >= 6, then L >= ln 3 > 1 and P(-inf) < 0 < P(0) = 2, P(1) = 2 - 2L < 0
  < P(+inf): three simple real roots, in (-inf, 0), (0, 1) and (1, inf). So the
  discriminant is negative, P' is not 0 at a root, no two roots meet, and at most
  one root exceeds 1, so at most one is feasible.
- Five pairs are left. (1, 1) and (1, 2) have one real root, a negative one;
  (1, 3), (1, 4) and (2, 1) have three simple roots. tune_c refuses (2, 1), where
  (delta+1)/k = 1; at (1, 3) and (1, 4) both roots above 1 are feasible, and the
  larger, which tune_c takes, gives the smaller coefficient.
So the largest feasible root is the feasible root of least coefficient;
tests/test_tuner.py checks each step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import _threshold_coeff, bound_parametric_alt_log, bound_rv, bound_threshold_ktuple
from .errors import NotApplicableError, _integer
from .verify import LABEL_LIMIT


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _real_roots_monic(b: float, c: float, d: float) -> list[float]:
    """Real roots of x^3 + b x^2 + c x + d, ascending, Newton-polished. Only
    for solve_cubic's cubic, whose p < 0, discriminant != 0 and simple roots
    (module docstring) leave no other case."""
    p = c - b * b / 3.0
    q = d - b * c / 3.0 + 2.0 * b ** 3 / 27.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        s = math.sqrt(disc)
        roots = [_cbrt(-q / 2.0 + s) + _cbrt(-q / 2.0 - s)]
    else:
        arg = (3.0 * q / (2.0 * p)) * math.sqrt(-3.0 / p)
        arg = max(-1.0, min(1.0, arg))
        t = 2.0 * math.sqrt(-p / 3.0)
        s = math.acos(arg) / 3.0
        u = 2.0 * math.pi / 3.0
        roots = [t * math.cos(s - u * i) for i in range(3)]
    out = []
    for r in roots:
        x = r - b / 3.0
        for _ in range(3):  # one polish pass is enough; extras cost nothing
            f = ((x + b) * x + c) * x + d
            step = f / ((3.0 * x + 2.0 * b) * x + c)
            x -= step
            if abs(step) <= 1e-15 * max(1.0, abs(x)):
                break
        out.append(x)
    return sorted(out)


def _listed(report) -> dict:
    """asdict(report), nested dataclasses included, with each tuple field as a list."""
    return {name: list(v) if isinstance(v, tuple) else v for name, v in asdict(report).items()}


@dataclass(frozen=True)
class CubicSpec:
    """The tuning cubic for given (k, delta), with its real roots."""

    k: int
    delta: int
    coefficients: tuple[float, float, float, float]  # (a, b, c, d), a = k
    monic: tuple[float, float, float]
    roots: tuple[float, ...]
    residuals: tuple[float, ...]

    def to_dict(self) -> dict:
        return _listed(self)


def solve_cubic(k: int, delta: int) -> CubicSpec:
    """Real roots of k c^3 - 2(k + ln(0.5 k (delta+1))) c^2 + k c + 2 = 0
    for integers k, delta >= 1; bools and floats are refused."""
    k, delta = _integer(k, "k", 1, LABEL_LIMIT - 1), _integer(delta, "delta", 1)
    a = float(k)
    b = -2.0 * (k + math.log(0.5 * k * (delta + 1)))
    c = float(k)
    d = 2.0
    mb, mc, md = b / a, c / a, d / a
    roots = tuple(_real_roots_monic(mb, mc, md))
    residuals = tuple(((x + mb) * x + mc) * x + md for x in roots)
    return CubicSpec(k, delta, (a, b, c, d), (mb, mc, md), roots, residuals)


def _grid_minimum(k: int, delta: int) -> tuple[float, float]:
    """(c, value) minimizing the threshold coefficient over feasible c: the
    first minimum over np.arange(1.001, hi + 0.0005, 0.001) cut at
    hi = (delta+1)/k, or hi itself when no point is left. The points are
    built the way np.arange fills them, 2**16 at a time, so memory stays
    flat however large hi is."""
    step = 1e-3
    hi = (delta + 1) / k

    def coeff(cs: np.ndarray) -> np.ndarray:
        return (cs / (delta + 1) + np.exp(-0.5 * k * (cs + 1.0 / cs - 2.0))) * k

    start = 1.0 + step
    gap = (start + step) - start  # np.arange fills start + i * gap
    size = max(0, math.ceil((hi + step / 2 - start) / step))
    best_c, best_value = hi, math.inf
    for lo in range(0, size, 1 << 16):
        cs = start + np.arange(lo, min(lo + (1 << 16), size)) * gap
        cs = cs[cs <= hi]
        if cs.size == 0:
            break
        vals = coeff(cs)
        i = int(np.argmin(vals))
        if vals[i] < best_value:  # strict, so the first minimum wins
            best_c, best_value = float(cs[i]), float(vals[i])
    if best_value == math.inf:
        best_value = float(coeff(np.array([hi]))[0])
    return best_c, best_value


def _select_root(k: int, delta: int) -> tuple[CubicSpec, list[float], float]:
    """The cubic, its feasible roots (c > 1 with delta >= ck - 1) and the
    chosen c: the largest feasible root, else the grid minimum."""
    cub = solve_cubic(k, delta)  # checks k and delta
    k, delta = cub.k, cub.delta
    if (delta + 1) / k <= 1.0:
        raise NotApplicableError(f"no feasible c > 1: (delta+1)/k = {(delta + 1) / k:.3f}")
    feasible = [r for r in cub.roots if r > 1.0 and delta >= r * k - 1.0]
    return cub, feasible, max(feasible) if feasible else _grid_minimum(k, delta)[0]


def tune_c(k: int, delta: int) -> float:
    """Threshold constant for (k, delta): the largest real cubic root c > 1
    with delta >= ck - 1, falling back to a grid search when none qualifies."""
    return _select_root(k, delta)[2]


def tune_details(k: int, delta: int) -> dict:
    """tune_c plus its cubic, feasible roots and the grid ground truth. The
    chosen root has the least coefficient of the feasible ones (module docstring)."""
    cub, feasible, chosen = _select_root(k, delta)
    k, delta = cub.k, cub.delta
    source = "cubic" if feasible else "grid"
    grid_c, grid_value = _grid_minimum(k, delta)
    value = _threshold_coeff(k, delta, chosen)
    return {
        "k": k,
        "delta": delta,
        "cubic": cub.to_dict(),
        "feasible_roots": feasible,
        "c": chosen,
        "source": source,
        "value": value,
        "grid_c": grid_c,
        "grid_value": grid_value,
    }


@dataclass(frozen=True)
class ComparisonRow:
    k: int
    rv: float | None
    c3: float | None
    tuned_c: float | None
    tuned_value: float | None
    ktuple_log: float | None
    best: str | None


@dataclass(frozen=True)
class ComparisonReport:
    """Coefficient table over k for the k-tuple threshold bounds.

    rows holds k = 1, 2, ... in order, so the row for k is rows[k - 1].
    rv_cutoff and c3_cutoff are the largest k where the respective bounds
    apply; crossover_k is the first k where the c=3 bound beats rv.
    """

    delta: int
    n: int
    highlight_k: int
    rows: tuple[ComparisonRow, ...]
    rv_cutoff: int
    c3_cutoff: int
    crossover_value: float | None
    crossover_k: int | None

    def to_dict(self) -> dict:
        return _listed(self)  # rows become a list of row dicts

    def to_csv(self) -> str:
        def fmt(x) -> str:
            return "" if x is None else repr(x)

        lines = ["k,rv,c3,tuned_c,tuned_value,best"]
        for r in self.rows:
            lines.append(
                f"{r.k},{fmt(r.rv)},{fmt(r.c3)},{fmt(r.tuned_c)},"
                f"{fmt(r.tuned_value)},{r.best or ''}"
            )
        return "\n".join(lines) + "\n"


def compare_bounds(k: int, delta: int, n: int) -> ComparisonReport:
    """Tabulate rv, the c=3 threshold bound, the tuned threshold bound and the
    k-tuple log bound over k = 1..floor((delta+1)/3), including the given k."""
    k, delta = _integer(k, "k", 1, LABEL_LIMIT - 1), _integer(delta, "delta", 1)
    n = _integer(n, "n", 1)
    log_d1 = math.log(delta + 1)
    rv_cutoff = int((delta + 1) / (2 * log_d1))
    c3_cutoff = int((delta + 1) / 3)
    crossover_value = (
        1.5 * log_d1 - 1.5 * math.log(log_d1 - 3) if log_d1 > 3 else None
    )
    rows = []
    crossover_k = None
    for kk in range(1, max(c3_cutoff, k) + 1):
        rv_rep = bound_rv(kk, delta, n)
        c3_rep = bound_threshold_ktuple(kk, delta, n, 3.0)
        rv = rv_rep.coefficient if rv_rep.applicable else None
        c3 = c3_rep.coefficient if c3_rep.applicable else None
        try:
            tuned_c = tune_c(kk, delta)
            tuned_value = _threshold_coeff(kk, delta, tuned_c)
        except NotApplicableError:
            tuned_c = tuned_value = None
        ktl_rep = bound_parametric_alt_log(kk, kk, delta, n)
        ktl = ktl_rep.coefficient if ktl_rep.applicable else None
        options = [(v, name) for name, v in
                   (("rv", rv), ("c3", c3), ("tuned", tuned_value)) if v is not None]
        best = min(options)[1] if options else None
        if crossover_k is None and rv is not None and c3 is not None and c3 < rv:
            crossover_k = kk
        rows.append(ComparisonRow(kk, rv, c3, tuned_c, tuned_value, ktl, best))
    return ComparisonReport(
        delta=delta,
        n=n,
        highlight_k=k,
        rows=tuple(rows),
        rv_cutoff=rv_cutoff,
        c3_cutoff=c3_cutoff,
        crossover_value=crossover_value,
        crossover_k=crossover_k,
    )
