"""Optimization of the threshold constant c and bound comparison tables.

The threshold bound (c/(delta+1) + e^(-k(c+1/c-2)/2)) k n is minimized in c
by a stationarity equation whose ln(1 - 1/c^2) term is replaced by -1/c^2,
giving the cubic

    k c^3 - 2 (k + ln(0.5 k (delta+1))) c^2 + k c + 2 = 0.

Because of that substitution the cubic root is only near-optimal, so the
tuner also reports the direct grid minimum as ground truth and flags any
disagreement about which feasible root is best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _threshold_coeff, bound_parametric_alt_log, bound_rv, bound_threshold_ktuple
from .errors import NotApplicableError


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _real_roots_monic(b: float, c: float, d: float) -> list[float]:
    """Real roots of x^3 + b x^2 + c x + d, ascending, Newton-polished."""
    p = c - b * b / 3.0
    q = d - b * c / 3.0 + 2.0 * b ** 3 / 27.0
    if p == 0.0:
        roots = [_cbrt(-q)]
    else:
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
        if disc > 0.0:
            s = math.sqrt(disc)
            roots = [_cbrt(-q / 2.0 + s) + _cbrt(-q / 2.0 - s)]
        elif disc == 0.0:
            r = 3.0 * q / p
            roots = [r, -r / 2.0]
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
            fp = (3.0 * x + 2.0 * b) * x + c
            if fp == 0.0:
                break
            step = f / fp
            x -= step
            if abs(step) <= 1e-15 * max(1.0, abs(x)):
                break
        out.append(x)
    out.sort()
    dedup: list[float] = []
    for x in out:
        if not dedup or abs(x - dedup[-1]) > 1e-9 * max(1.0, abs(x)):
            dedup.append(x)
    return dedup


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
        return {
            "k": self.k,
            "delta": self.delta,
            "coefficients": list(self.coefficients),
            "monic": list(self.monic),
            "roots": list(self.roots),
            "residuals": list(self.residuals),
        }


def solve_cubic(k: int, delta: int) -> CubicSpec:
    """Real roots of k c^3 - 2(k + ln(0.5 k (delta+1))) c^2 + k c + 2 = 0."""
    if k < 1 or delta < 1:
        raise ValueError("solve_cubic needs k >= 1 and delta >= 1")
    a = float(k)
    b = -2.0 * (k + math.log(0.5 * k * (delta + 1)))
    c = float(k)
    d = 2.0
    mb, mc, md = b / a, c / a, d / a
    roots = tuple(_real_roots_monic(mb, mc, md))
    residuals = tuple(((x + mb) * x + mc) * x + md for x in roots)
    return CubicSpec(k, delta, (a, b, c, d), (mb, mc, md), roots, residuals)


def _grid_minimum(k: int, delta: int) -> tuple[float, float]:
    """(c, value) minimizing the threshold coefficient over feasible c."""
    step = 1e-3
    hi = (delta + 1) / k
    cs = np.arange(1.0 + step, hi + step / 2, step)
    cs = cs[cs <= hi]
    if cs.size == 0:
        cs = np.array([hi])
    vals = (cs / (delta + 1) + np.exp(-0.5 * k * (cs + 1.0 / cs - 2.0))) * k
    i = int(np.argmin(vals))
    return float(cs[i]), float(vals[i])


def _select_root(k: int, delta: int) -> tuple[CubicSpec, list[float], float]:
    """The cubic, its feasible roots (c > 1 with delta >= ck - 1) and the
    chosen c: the largest feasible root, else the grid minimum."""
    if k < 1 or delta < 1:
        raise ValueError("tune_c needs k >= 1 and delta >= 1")
    if (delta + 1) / k <= 1.0:
        raise NotApplicableError(f"no feasible c > 1: (delta+1)/k = {(delta + 1) / k:.3f}")
    cub = solve_cubic(k, delta)
    feasible = [r for r in cub.roots if r > 1.0 and delta >= r * k - 1.0]
    return cub, feasible, max(feasible) if feasible else _grid_minimum(k, delta)[0]


def tune_c(k: int, delta: int) -> float:
    """Threshold constant for (k, delta): the largest real cubic root c > 1
    with delta >= ck - 1, falling back to a grid search when none qualifies."""
    return _select_root(k, delta)[2]


def tune_details(k: int, delta: int) -> dict:
    """tune_c plus the grid ground truth and any root-selection discrepancy."""
    cub, feasible, chosen = _select_root(k, delta)
    source = "cubic" if feasible else "grid"
    grid_c, grid_value = _grid_minimum(k, delta)
    value = _threshold_coeff(k, delta, chosen)
    out = {
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
    if feasible:
        by_value = min(feasible, key=lambda r: _threshold_coeff(k, delta, r))
        if by_value != chosen:
            out["discrepancy"] = (
                f"root {by_value:.6f} gives a smaller coefficient than the "
                f"largest root {chosen:.6f}; the largest-root rule is kept"
            )
    return out


@dataclass(frozen=True)
class ComparisonRow:
    k: int
    rv: float | None
    c3: float | None
    tuned_c: float | None
    tuned_value: float | None
    ktuple_log: float | None
    best: str | None

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "rv": self.rv,
            "c3": self.c3,
            "tuned_c": self.tuned_c,
            "tuned_value": self.tuned_value,
            "ktuple_log": self.ktuple_log,
            "best": self.best,
        }


@dataclass(frozen=True)
class ComparisonReport:
    """Coefficient table over k for the k-tuple threshold bounds.

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
        return {
            "delta": self.delta,
            "n": self.n,
            "highlight_k": self.highlight_k,
            "rv_cutoff": self.rv_cutoff,
            "c3_cutoff": self.c3_cutoff,
            "crossover_value": self.crossover_value,
            "crossover_k": self.crossover_k,
            "rows": [r.to_dict() for r in self.rows],
        }

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

    def row(self, k: int) -> ComparisonRow:
        for r in self.rows:
            if r.k == k:
                return r
        raise KeyError(f"no row for k={k}")


def compare_bounds(k: int, delta: int, n: int) -> ComparisonReport:
    """Tabulate rv, the c=3 threshold bound, the tuned threshold bound and the
    k-tuple log bound over k = 1..floor((delta+1)/3), including the given k."""
    if delta < 1 or n < 1 or k < 1:
        raise ValueError("compare_bounds needs k, delta, n >= 1")
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
