"""Closed-form upper bounds for multiple domination numbers.

Every bound is reported as a per-vertex coefficient (bound divided by n)
plus its absolute value, alongside the applicability predicate of the
underlying theorem. Binomials are consumed in log space so that the
formulas stay finite at large minimum degree and demand.

A bound whose absolute value reaches the trivial one (n for sets, sum of
caps for functions) is still reported but flagged vacuous.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import _integer
from .verify import FUNCTION_VARIANTS, LABEL_LIMIT, DominationSpec

NEG_INF = float("-inf")

# The bound catalogue reads only a few scalars, so it is memoised on exactly
# those. In one round of perfbench's exact-small, bounds_for_spec is called
# 753 times on 85 keys; construct-large's 18 calls hold 18 keys. An entry
# holds at most ten reports: 256 entries of the longest row take about 1.5 MB.
BOUNDS_CACHE_SIZE = 256


# log_binomial sums t terms, and compare_bounds asks for C(delta, t) at every
# t up to delta/3. So each top keeps its running prefix sums: prefix[t] is the
# sum after t terms, accumulated in the loop's order, and a call extends the
# list instead of repeating it. Memory stays bounded: only the last
# LOG_BINOMIAL_TOPS tops to be added are kept, each with at most
# LOG_BINOMIAL_TERMS terms; a longer sum carries on from the last stored one
# without storing. The lock keeps two threads from extending one list at
# once, and the same loop also runs that unstored tail under it; reading a
# stored sum needs no lock, because a list only ever grows.
LOG_BINOMIAL_TOPS = 4
LOG_BINOMIAL_TERMS = 4096
_log_binomial_prefixes: dict[int, list[float]] = {}
_log_binomial_lock = threading.Lock()


def log_binomial(top: int, t: int) -> float:
    """ln C(top, t); -inf when t < 0 or t > top (the binomial is 0)."""
    top, t = _integer(top, "top", 0, owner="binomial"), _integer(t, "t")
    if t < 0 or t > top:
        return NEG_INF
    t = min(t, top - t)
    prefix = _log_binomial_prefixes.get(top)
    if prefix is not None and t < len(prefix):
        return prefix[t]
    with _log_binomial_lock:
        prefix = _log_binomial_prefixes.get(top)
        if prefix is None:
            if len(_log_binomial_prefixes) >= LOG_BINOMIAL_TOPS:
                del _log_binomial_prefixes[next(iter(_log_binomial_prefixes))]  # the oldest
            prefix = _log_binomial_prefixes[top] = [0.0]
        if t < len(prefix):  # another thread extended it meanwhile
            return prefix[t]
        acc = prefix[-1]
        for i in range(len(prefix) - 1, t):
            acc += math.log(top - i) - math.log(i + 1)
            if i < LOG_BINOMIAL_TERMS:
                prefix.append(acc)
        return acc


def _plain(x):
    """A numpy scalar as its Python value (.item()), anything else as it is,
    so that a numpy c or force reports exactly as the Python one does."""
    return x.item() if isinstance(x, np.generic) else x


def _log_add(a: float, b: float) -> float:
    """ln(e^a + e^b), tolerant of -inf operands."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


# -- derived parameter bundles -------------------------------------------------


@dataclass(frozen=True)
class RSParams:
    """Parameters driving the capped-function bounds.

    A closed neighborhood has delta+1 slots and an open one delta. With
    that slot count: tau = min cap, s = max demand, r = floor(s/slots) + 1,
    theta = slots*r - s >= 1, B_t = C(slots*r, t) kept as a log. The open
    (total) parameters are the paper's r~ and theta~.
    """

    tau: int
    s: int
    r: int
    theta: int
    rho: float
    log_b: float  # ln B_{s-1}

    @classmethod
    def derive(cls, tau: int, s: int, delta: int, closed: bool = True) -> "RSParams":
        slots = delta + 1 if closed else delta
        if slots < 1:
            raise ValueError("total variant needs delta >= 1")
        r = s // slots + 1
        theta = slots * r - s
        return cls(tau, s, r, theta, 1.0 / theta, log_binomial(slots * r, s - 1))

    def strong_target(self, n: int) -> float | None:
        """The strong bound's absolute value on n vertices: bound_rs, or
        bound_total_rs for open slots; None where its gate fails."""
        return _rs_strong_coeff(self) * n if _rs_gate(self)[0] else None

    @property
    def p(self) -> float:
        """Selection probability 1 - (r/((1+theta) B_{s-1}))^(1/theta) of the
        capped construction, clamped into [0, 1]. It is 0 on tiny graphs, where
        the trial draws a = 0 and the repair step does all the work."""
        p = 1.0 - math.exp((math.log(self.r) - math.log1p(self.theta) - self.log_b) / self.theta)
        return max(0.0, min(p, 1.0))


@dataclass(frozen=True)
class ParametricParams:
    """Parameters for the (k,l) set bounds.

    phi = max(k, l-1), b_t = C(delta, t) with b_{-1} = 0,
    delta_bar = delta - phi, delta_hat = delta - max(k, l) + 1, and
    b_{k-1} + b_{l-2} = C(delta+1, k-1) when l = k (a Pascal identity).
    derive() checks k, l and delta, and keeps them as Python ints.
    """

    k: int
    l: int
    delta: int
    phi: int
    delta_bar: int
    delta_hat: int
    log_b_phi: float   # ln b_{phi-1}
    log_b_pair: float  # ln(b_{k-1} + b_{l-2})

    @classmethod
    def derive(cls, k: int, l: int, delta: int) -> "ParametricParams":
        k, l = _integer(k, "k", 1, LABEL_LIMIT - 1), _integer(l, "l", 1, LABEL_LIMIT - 1)
        delta = _integer(delta, "delta", 0)
        phi = max(k, l - 1)
        log_b_pair = _log_add(log_binomial(delta, k - 1), log_binomial(delta, l - 2))
        return cls(
            k, l, delta, phi, delta - phi, delta - max(k, l) + 1,
            log_binomial(delta, phi - 1), log_b_pair,
        )

    @property
    def p_phi(self) -> float | None:
        """Selection probability of the phi-based strong bound."""
        return _selection_p(self.delta_bar, self.log_b_phi)

    @property
    def p_alt(self) -> float | None:
        """Selection probability of the alternative strong bound."""
        return _selection_p(self.delta_hat, self.log_b_pair)

    @property
    def coeff_phi(self) -> float | None:
        """Coefficient of the phi-based strong bound; None unless delta_bar >= 1."""
        return _strong_coeff(self.delta_bar, self.log_b_phi)

    @property
    def coeff_alt(self) -> float | None:
        """Coefficient of the alternative strong bound; None unless delta_hat >= 1."""
        return _strong_coeff(self.delta_hat, self.log_b_pair)

    def strong_target(self, n: int) -> float | None:
        """The smaller of bound_parametric and bound_parametric_alt on n
        vertices where each applies; None where neither does."""
        candidates = [c * n for c in (self.coeff_phi, self.coeff_alt) if c is not None]
        return min(candidates) if candidates else None


def _selection_p(d: int, log_b: float) -> float | None:
    """The p that minimises a strong bound's expectation n(p + (1-p)^(d+1) b),
    1 - ((1+d) b)^(-1/d) with ln b = log_b. At d = 0 it is the formula's limit
    as the margin shrinks to zero: 1 - 1/e for b = 1 and 1 otherwise. None
    when d < 0 or b = 0."""
    if d < 0 or not math.isfinite(log_b):
        return None
    if d == 0:
        return 1.0 - math.exp(-1.0) if log_b == 0.0 else 1.0
    return 1.0 - math.exp(-(math.log1p(d) + log_b) / d)


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    name: str
    applicable: bool
    reason: str
    coefficient: float | None
    absolute: float | None
    vacuous: bool | None
    forced: bool
    params: Mapping

    def __post_init__(self):
        # bounds_for_spec hands one cached report to every caller, so params
        # is a read-only copy
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def __reduce__(self):
        # copy and pickle rebuild through the constructor; a mappingproxy
        # does not pickle
        return type(self), tuple(self.to_dict().values())

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"params": dict(self.params)}


def _report(
    name: str,
    n: int,
    cap_absolute: float | None,
    params: dict,
    applicable: bool,
    reason: str,
    coeff_fn: Callable[[], float | None],
    force: bool = False,
) -> BoundReport:
    """The one evaluation of a bound's formula, and the one check of n. A
    forced one that raises an ArithmeticError or ValueError, or any
    non-finite result, gives no coefficient; non-finite params become None,
    so to_dict() is strict JSON. cap_absolute is the trivial bound, n when None."""
    n, force = _integer(n, "n", 1), _plain(force)
    cap_absolute = n if cap_absolute is None else cap_absolute
    coefficient = absolute = None
    if applicable or force:
        try:
            coefficient = coeff_fn()
        except (ArithmeticError, ValueError):
            if applicable:
                raise
    if coefficient is not None:
        absolute = coefficient * n
        if not (math.isfinite(coefficient) and math.isfinite(absolute)):
            coefficient = absolute = None
    for key, value in params.items():  # each caller builds its params afresh
        if isinstance(value, float) and not math.isfinite(value):
            params[key] = None
    return BoundReport(
        name=name,
        applicable=applicable,
        reason=reason,
        coefficient=coefficient,
        absolute=absolute,
        vacuous=(absolute >= cap_absolute) if absolute is not None else None,
        forced=force and not applicable and coefficient is not None,
        params=params,
    )


def _gate(*checks: tuple[bool, str]) -> tuple[bool, str]:
    """(applicable, reason) from (holds, reason) checks taken in order: the
    reason of the first that fails, or (True, "") when all hold."""
    for holds, reason in checks:
        if not holds:
            return False, reason
    return True, ""


def _strong_coeff(d: int, log_b: float) -> float | None:
    """1 - d/((1+d)^(1+1/d) b^(1/d)) with ln b = log_b; None when d < 1 or b = 0."""
    if d < 1 or not math.isfinite(log_b):
        return None
    return 1.0 - math.exp(math.log(d) - (1.0 + 1.0 / d) * math.log1p(d) - log_b / d)


def _log_coeff(d1: int, log_b: float) -> float | None:
    """(ln d1 + ln b + 1)/d1 with ln b = log_b; None when d1 < 1 or b = 0."""
    if d1 < 1 or not math.isfinite(log_b):
        return None
    return (math.log(d1) + log_b + 1.0) / d1


# -- classical bounds ----------------------------------------------------------


def bound_classical(delta: int, n: int) -> BoundReport:
    """gamma(G) <= (ln(delta+1) + 1)/(delta+1) * n."""
    delta = _integer(delta, "delta", 0)
    return _report(
        "classical", n, None, {"delta": delta},
        True, "", lambda: _log_coeff(delta + 1, 0.0),
    )


def bound_caro_roditty(delta: int, n: int, force: bool = False) -> BoundReport:
    """gamma(G) <= (1 - delta/(1+delta)^(1+1/delta)) * n for delta >= 1."""
    delta = _integer(delta, "delta", 0)
    applicable, reason = _gate((delta >= 1, "needs delta >= 1"))
    return _report(
        "caro_roditty", n, None, {"delta": delta}, applicable, reason,
        lambda: _strong_coeff(delta, 0.0), force,
    )


# -- capped-function bounds (closed and open neighborhoods) ---------------------


def _rs_strong_coeff(p: RSParams) -> float:
    # (1 - (r*rho)^rho / ((1+rho)^(1+rho) * B_{s-1}^rho)) * r, assembled in logs
    x = math.exp(
        p.rho * math.log(p.r * p.rho)
        - (1.0 + p.rho) * math.log1p(p.rho)
        - p.rho * p.log_b
    )
    return (1.0 - x) * p.r


def _rs_log_coeff(theta: int, log_b: float, r: int) -> float:
    return (math.log(theta + 1) + log_b - math.log(r) + 1.0) / (theta + 1) * r


_ZERO_DEMAND = "max demand is 0; the zero function already dominates"


def _rs_gate(p: RSParams) -> tuple[bool, str]:
    return _gate((p.s >= 1, _ZERO_DEMAND),
                 (p.r <= p.tau, f"derived r={p.r} exceeds min cap tau={p.tau}"))


def _caps(tau: int, s: int, cap_sum: int) -> tuple[int, int, int]:
    """The three numbers a capped-function bound reads, as Python ints:
    tau and s in [0, LABEL_LIMIT), like every cap and demand."""
    return (_integer(tau, "tau", 0, LABEL_LIMIT - 1), _integer(s, "s", 0, LABEL_LIMIT - 1),
            _integer(cap_sum, "cap_sum", 0))


def _capped_report(
    name: str,
    coeff: Callable[[RSParams], float],
    tau: int,
    s: int,
    cap_sum: int,
    delta: int,
    n: int,
    force: bool,
    closed: bool,
) -> BoundReport:
    """A capped-function bound over closed (delta+1 slots) or open (delta
    slots) neighborhoods; the open parameters are reported as r~, theta~."""
    tau, s, cap_sum = _caps(tau, s, cap_sum)
    delta = _integer(delta, "delta", 0)
    params = {"delta": delta}
    p = None
    if not closed and delta < 1:
        applicable, reason = False, "total variant needs delta >= 1"
    else:
        p = RSParams.derive(tau, s, delta, closed)
        applicable, reason = _rs_gate(p)
        r_key, theta_key = ("r", "theta") if closed else ("r_tilde", "theta_tilde")
        params.update({"tau": p.tau, "s": p.s, r_key: p.r, theta_key: p.theta,
                       "log_B_s1": p.log_b})
    return _report(
        name, n, cap_sum, params, applicable, reason,
        lambda: coeff(p) if p is not None else None, force,
    )


def _rs_log_params_coeff(p: RSParams) -> float:
    return _rs_log_coeff(p.theta, p.log_b, p.r)


# The capped-function bounds read three numbers of the caps r_i and demands
# s_i: tau = min r_i, s = max s_i and cap_sum = sum r_i, the trivial bound.


def bound_rs(
    tau: int, s: int, cap_sum: int, delta: int, n: int, force: bool = False
) -> BoundReport:
    """Strong capped-function bound: (1 - (r rho)^rho / ((1+rho)^(1+rho) B_{s-1}^rho)) r n."""
    return _capped_report("rs_strong", _rs_strong_coeff, tau, s, cap_sum, delta, n, force, True)


def bound_rs_log(
    tau: int, s: int, cap_sum: int, delta: int, n: int, force: bool = False
) -> BoundReport:
    """Weaker log-form bound: (ln(theta+1) + ln B_{s-1} - ln r + 1)/(theta+1) * r n."""
    return _capped_report("rs_log", _rs_log_params_coeff, tau, s, cap_sum, delta, n, force, True)


def bound_rs_log_optimized(
    tau: int, s: int, cap_sum: int, delta: int, n: int, force: bool = False
) -> BoundReport:
    """Log-form bound minimized over every admissible integer r in [s/(delta+1), tau]."""
    tau, s, cap_sum = _caps(tau, s, cap_sum)
    delta = _integer(delta, "delta", 0)
    lo = max(1, -(-s // (delta + 1)))  # ceil(s/(delta+1))
    applicable, reason = _gate((s >= 1, _ZERO_DEMAND), (
        lo <= tau, f"no admissible integer r: ceil(s/(delta+1))={lo} exceeds tau={tau}"))
    best: tuple[float, int] | None = None
    if applicable:
        for r in range(lo, tau + 1):
            theta = (delta + 1) * r - s
            val = _rs_log_coeff(theta, log_binomial((delta + 1) * r, s - 1), r)
            if best is None or val < best[0]:
                best = (val, r)
    params = {"delta": delta, "tau": tau, "s": s,
              "argmin_r": best[1] if best else None}
    return _report(
        "rs_log_optimized", n, cap_sum, params, applicable, reason,
        lambda: best[0] if best else None, force,
    )


def bound_total_rs(
    tau: int, s: int, cap_sum: int, delta: int, n: int, force: bool = False
) -> BoundReport:
    """Strong bound for the open-neighborhood (total) variant: bound_rs with r~, theta~."""
    return _capped_report(
        "total_rs_strong", _rs_strong_coeff, tau, s, cap_sum, delta, n, force, False
    )


def bound_total_rs_log(
    tau: int, s: int, cap_sum: int, delta: int, n: int, force: bool = False
) -> BoundReport:
    """Log-form bound for the open-neighborhood (total) variant."""
    return _capped_report(
        "total_rs_log", _rs_log_params_coeff, tau, s, cap_sum, delta, n, force, False
    )


# -- (k,l) set bounds ------------------------------------------------------------


def _kl_report(name: str, k: int, l: int, delta: int, n: int, force: bool,
               alt: bool, strong: bool) -> BoundReport:
    """One of the four (k,l) set bounds, on b = b_{phi-1} with the margin
    d = delta_bar, or on b = b_{k-1} + b_{l-2} with d = delta_hat when alt;
    in the strong form when strong, else in the log form (ln(d+1) + ln b + 1)/(d+1).
    ParametricParams.derive checks k, l and delta."""
    p = ParametricParams.derive(k, l, delta)
    params = {"delta": p.delta, "k": p.k, "l": p.l}
    if alt:
        d, log_b, margin = p.delta_hat, p.log_b_pair, "max(k, l) + 1"
        params.update(delta_hat=d, log_b_pair=log_b)
    else:
        d, log_b, margin = p.delta_bar, p.log_b_phi, "max(k, l-1)"
        params["phi"] = p.phi
        if strong:
            params["delta_bar"] = d
        params["log_b_phi1"] = log_b
    if strong:
        gate = (d >= 1, f"needs delta - {margin} > 0, got {d}")
        coeff = p.coeff_alt if alt else p.coeff_phi
    else:
        gate = (p.delta >= p.phi, f"needs delta >= max(k, l-1) = {p.phi}")
        coeff = _log_coeff(d + 1, log_b)
    return _report(name, n, None, params, *_gate(gate), lambda: coeff, force)


def bound_parametric(k: int, l: int, delta: int, n: int, force: bool = False) -> BoundReport:
    """Strong (k,l) bound: (1 - dbar/((1+dbar)^(1+1/dbar) b_{phi-1}^(1/dbar))) n, dbar = delta - phi."""
    return _kl_report("parametric_strong", k, l, delta, n, force, alt=False, strong=True)


def bound_parametric_log(k: int, l: int, delta: int, n: int, force: bool = False) -> BoundReport:
    """Log-form (k,l) bound: (ln(delta-phi+1) + ln b_{phi-1} + 1)/(delta-phi+1) n."""
    return _kl_report("parametric_log", k, l, delta, n, force, alt=False, strong=False)


def bound_parametric_alt(k: int, l: int, delta: int, n: int, force: bool = False) -> BoundReport:
    """Alternative strong (k,l) bound built on b_{k-1} + b_{l-2}, b_{-1} = 0.

    Better than the phi-based strong form for small l; specializes to the
    known k-domination (l=1) and k-tuple (l=k) bounds.
    """
    return _kl_report("parametric_alt_strong", k, l, delta, n, force, alt=True, strong=True)


def bound_parametric_alt_log(k: int, l: int, delta: int, n: int, force: bool = False) -> BoundReport:
    """Log form of the alternative (k,l) bound: (ln(dhat+1) + ln(b_{k-1}+b_{l-2}) + 1)/(dhat+1) n."""
    return _kl_report("parametric_alt_log", k, l, delta, n, force, alt=True, strong=False)


# -- threshold-function bounds ----------------------------------------------------


def bound_rv(k: int, delta: int, n: int, force: bool = False) -> BoundReport:
    """k-tuple bound under delta >= 2k ln(delta+1) - 1, with exact factorial terms."""
    k, delta = _integer(k, "k", 1, LABEL_LIMIT - 1), _integer(delta, "delta", 0)
    need = 2 * k * math.log(delta + 1) - 1
    applicable, reason = _gate((delta >= need, f"needs delta >= 2k*ln(delta+1) - 1 = {need:.3f}"))

    def coeff() -> float:
        log_d1 = math.log(delta + 1)
        total = k * log_d1 / (delta + 1)
        # Term i is (k-i)/(i! (delta+1)^(k-i)), at most k/i!, and from i =
        # delta on each term is below the one before. Leading terms whose
        # logs lie 8 below ln ulp(total) are each under ulp/2000 and cannot
        # change the float sum: skip them unevaluated, sparing a factorial
        # and a power of delta+1 with up to k digits each. Once k/i! lies
        # that low too, so does every later term.
        floor, i = math.log(math.ulp(total)) - 8, 0
        while i < k and math.log(k - i) - math.lgamma(i + 1) - (k - i) * log_d1 < floor:
            i = k if math.log(k) - math.lgamma(i + 1) < floor else i + 1
        for i in range(i, k):
            term = (k - i) / (math.factorial(i) * (delta + 1) ** (k - i))
            if i >= delta and term < math.ulp(total) / 2:
                break  # it and every later, smaller term round back to total
            total += term
        return total

    return _report("rv", n, None, {"delta": delta, "k": k}, applicable, reason, coeff, force)


def _threshold_coeff(size: int, delta: int, c: float) -> float:
    return (c / (delta + 1) + math.exp(-0.5 * size * (c + 1.0 / c - 2.0))) * size


def _threshold(name: str, size: int, delta: int, n: int, c: float, cap: int | None,
               params: dict, force: bool, degree_gate: Callable[[int, float], tuple[bool, str]],
               extra_gate: tuple[bool, str] = (True, "")) -> BoundReport:
    """The c-form (c/(delta+1) + e^(-size(c+1/c-2)/2)) size n, gated on c > 1,
    then extra_gate, then degree_gate(delta, c); force does not pass a failed
    extra_gate. Checks delta, which leads the params, and echoes c after them."""
    delta, c = _integer(delta, "delta", 0), _plain(c)
    applicable, reason = _gate((c > 1, f"needs c > 1, got c={c}"), extra_gate, degree_gate(delta, c))
    return _report(name, n, cap, {"delta": delta, **params, "c": c}, applicable, reason,
                   lambda: _threshold_coeff(size, delta, c) if extra_gate[0] else None, force)


def bound_threshold_ktuple(k: int, delta: int, n: int, c: float, force: bool = False) -> BoundReport:
    """k-tuple bound (c/(delta+1) + e^(-k(c+1/c-2)/2)) k n under delta >= ck-1, c > 1."""
    k = _integer(k, "k", 1, LABEL_LIMIT - 1)
    return _threshold("ktuple_threshold", k, delta, n, c, None, {"k": k}, force,
                      lambda delta, c: (delta >= c * k - 1, f"needs delta >= ck-1 = {c * k - 1:.3f}"))


def bound_threshold_parametric(
    k: int, l: int, delta: int, n: int, c: float, force: bool = False
) -> BoundReport:
    """(k,l) threshold bound with mu = max(k, l) under delta >= c*mu - 1, c > 1."""
    k, l = _integer(k, "k", 1, LABEL_LIMIT - 1), _integer(l, "l", 1, LABEL_LIMIT - 1)
    mu = max(k, l)
    return _threshold(
        "parametric_threshold", mu, delta, n, c, None, {"k": k, "l": l, "mu": mu}, force,
        lambda delta, c: (delta >= c * mu - 1, f"needs delta >= c*mu-1 = {c * mu - 1:.3f}"))


def bound_threshold_rs(
    tau: int, s: int, cap_sum: int, delta: int, n: int, c: float, force: bool = False
) -> BoundReport:
    """Capped-function threshold bound with s = max demand under (delta+1)tau >= cs, c > 1."""
    tau, s, cap_sum = _caps(tau, s, cap_sum)
    return _threshold(
        "rs_threshold", s, delta, n, c, cap_sum, {"tau": tau, "s": s}, force,
        lambda delta, c: ((delta + 1) * tau >= c * s, f"needs (delta+1)*tau >= c*s = {c * s:.3f}"),
        (s >= 1, _ZERO_DEMAND))


def _ln_threshold(name: str, size: int, delta: int, n: int, c: float,
                  cap: int | None, params: dict, force: bool,
                  extra_gate: tuple[bool, str] = (True, "")) -> BoundReport:
    """The ln-form (ln(delta)/(delta+1) + size/delta^(c^2/2)) n, gated on
    extra_gate, then 0 < c < 1, then size <= (1-c) ln delta. Checks delta,
    which leads the params, and echoes c after them."""
    delta, c = _integer(delta, "delta", 0), _plain(c)
    log_delta = math.log(delta) if delta >= 1 else NEG_INF
    applicable, reason = _gate(
        extra_gate, (0.0 < c < 1.0, f"needs 0 < c < 1, got c={c}"),
        (size <= (1.0 - c) * log_delta,
         f"needs parameter <= (1-c)*ln(delta) = {(1 - c) * log_delta:.3f}"))
    return _report(name, n, cap, {"delta": delta, **params, "c": c}, applicable, reason,
                   lambda: log_delta / (delta + 1) + size / delta ** (0.5 * c * c), force)


def bound_ln_threshold_ktuple(k: int, delta: int, n: int, c: float, force: bool = False) -> BoundReport:
    """k-tuple bound (ln(delta)/(delta+1) + k/delta^(c^2/2)) n under k <= (1-c) ln delta."""
    k = _integer(k, "k", 1, LABEL_LIMIT - 1)
    return _ln_threshold("ktuple_ln_threshold", k, delta, n, c, None, {"k": k}, force)


def bound_ln_threshold_parametric(
    k: int, l: int, delta: int, n: int, c: float, force: bool = False
) -> BoundReport:
    """(k,l) version with mu = max(k, l) in place of k."""
    k, l = _integer(k, "k", 1, LABEL_LIMIT - 1), _integer(l, "l", 1, LABEL_LIMIT - 1)
    mu = max(k, l)
    return _ln_threshold("parametric_ln_threshold", mu, delta, n, c, None,
                         {"k": k, "l": l, "mu": mu}, force)


def bound_ln_threshold_rs(
    tau: int, s: int, cap_sum: int, delta: int, n: int, c: float, force: bool = False
) -> BoundReport:
    """Capped-function version with s = max demand; s <= (1-c) ln delta already
    implies the existence condition (delta+1)tau >= s when tau >= 1."""
    tau, s, cap_sum = _caps(tau, s, cap_sum)
    return _ln_threshold("rs_ln_threshold", s, delta, n, c, cap_sum,
                         {"tau": tau, "s": s}, force, (tau >= 1, "needs min cap tau >= 1"))


def applicability_caro_yuster(k: int, delta: int) -> bool:
    """Predicate k < sqrt(ln delta); the asymptotic bound itself is out of scope."""
    k, delta = _integer(k, "k", 1, LABEL_LIMIT - 1), _integer(delta, "delta", 0)
    return delta >= 1 and k < math.sqrt(math.log(delta))


# -- catalogue per spec ------------------------------------------------------------

# The form groups. Each group takes one argument tuple ahead of (delta, n):
# the caps summary (tau, s, cap_sum), (k, l) or (k,); a threshold pair takes
# c after n.
_RS_FORMS = (bound_rs, bound_rs_log, bound_rs_log_optimized)
_TOTAL_RS_FORMS = (bound_total_rs, bound_total_rs_log)
_KL_FORMS = (bound_parametric, bound_parametric_log, bound_parametric_alt, bound_parametric_alt_log)
_RS_THRESHOLDS = (bound_threshold_rs, bound_ln_threshold_rs)
_KL_THRESHOLDS = (bound_threshold_parametric, bound_ln_threshold_parametric)
_KTUPLE_THRESHOLDS = (bound_threshold_ktuple, bound_ln_threshold_ktuple)


def bounds_for_spec(
    spec: DominationSpec, delta: int, n: int, c: float | None = None, force: bool = False
) -> list[BoundReport]:
    """Every bound in the catalogue that speaks about the given variant.

    A set variant is the (k,l) instance given by its requirements(), so it
    gets the four (k,l) bounds. Classical and k-tuple sets are also <1,k>
    functions (caps 1, demand k, cap sum n), and total k-sets total <1,k>
    functions; these and the other specializations stand around the (k,l)
    bounds. A threshold pair is added only when c is given. Equal arguments
    share their (read-only) reports; the list is the caller's own.
    """
    delta, n = _integer(delta, "delta", 0), _integer(n, "n", 1)
    c, force = _plain(c), _plain(force)
    args = spec.cap_summary(n) if spec.is_function_variant else spec.requirements()
    return list(_catalogue(spec.variant, args, delta, n, c, force, _spelling(c), _spelling(force)))


def _spelling(x) -> tuple:
    """The type and repr of an argument, which tell apart equal arguments
    that report differently: 3 and 3.0 (params echo c), 0.0 and -0.0 (a
    reason prints c), 0 and False (forced echoes a falsy force)."""
    return type(x), repr(x)


@functools.lru_cache(maxsize=BOUNDS_CACHE_SIZE)
def _catalogue(variant: str, args: tuple[int, ...], delta: int, n: int, c: float | None,
               force: bool, *spelling) -> tuple[BoundReport, ...]:
    """bounds_for_spec on checked delta and n, with args the caps summary of
    a function variant or the (k, l) of a set variant; spelling only keys
    the cache."""

    def forms(group, args, *c_arg):
        return [bound(*args, delta, n, *c_arg, force) for bound in group]

    if variant == "total_rs":
        return tuple(forms(_TOTAL_RS_FORMS, args))
    if variant in FUNCTION_VARIANTS:
        out, thresholds, tail = forms(_RS_FORMS, args), (_RS_THRESHOLDS, args), []
    else:
        k = args[0]
        one_k = (1, k, n)  # the <1,k> embedding
        out, thresholds, tail = forms(_KL_FORMS, args), (_KL_THRESHOLDS, args), []
        if variant == "classical":
            return (bound_classical(delta, n), bound_caro_roditty(delta, n, force=force),
                    *forms(_RS_FORMS[:2], one_k), *out)
        if variant == "k_tuple":
            out = [*forms(_RS_FORMS, one_k), *out, bound_rv(k, delta, n, force=force)]
            thresholds = _KTUPLE_THRESHOLDS, (k,)
        elif variant == "total_k":
            out += forms(_TOTAL_RS_FORMS, one_k)
            tail = [_report("caro_yuster", n, None, {"delta": delta, "k": k},
                            applicability_caro_yuster(k, delta),
                            "predicate only; the asymptotic bound is out of scope",
                            lambda: None)]
    if c is not None:
        out += forms(*thresholds, c)
    return tuple(out + tail)
