"""Closed-form upper bounds for multiple domination numbers.

Every bound is reported as a per-vertex coefficient (bound divided by n)
plus its absolute value, alongside the applicability predicate of the
underlying theorem. Binomials are consumed in log space so that the
formulas stay finite at large minimum degree and demand; exact big-integer
binomials are available for cross-checking.

A bound whose absolute value reaches the trivial one (n for sets, sum of
caps for functions) is still reported but flagged vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .verify import DominationSpec

NEG_INF = float("-inf")


def log_binomial(top: int, t: int) -> float:
    """ln C(top, t); -inf when t < 0 or t > top (the binomial is 0)."""
    if top < 0:
        raise ValueError("binomial needs top >= 0")
    if t < 0 or t > top:
        return NEG_INF
    t = min(t, top - t)
    acc = 0.0
    for i in range(t):
        acc += math.log(top - i) - math.log(i + 1)
    return acc


def binomial_exact(top: int, t: int) -> int:
    """Exact integer C(top, t), 0 outside the valid range."""
    if t < 0 or t > top:
        return 0
    return math.comb(top, t)


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
    top: int
    log_b: float  # ln B_{s-1}

    @classmethod
    def derive(cls, tau: int, s: int, delta: int, closed: bool = True) -> "RSParams":
        slots = delta + 1 if closed else delta
        if slots < 1:
            raise ValueError("total variant needs delta >= 1")
        r = s // slots + 1
        theta = slots * r - s
        top = slots * r
        return cls(tau, s, r, theta, 1.0 / theta, top, log_binomial(top, s - 1))


@dataclass(frozen=True)
class ParametricParams:
    """Parameters for the (k,l) set bounds.

    phi = max(k, l-1), mu = max(k, l), b_t = C(delta, t) with b_{-1} = 0,
    delta_bar = delta - phi, delta_hat = delta - mu + 1, and
    b_{k-1} + b_{l-2} = C(delta+1, k-1) when l = k (a Pascal identity).
    """

    k: int
    l: int
    phi: int
    mu: int
    delta_bar: int
    delta_hat: int
    log_b_phi: float   # ln b_{phi-1}
    log_b_pair: float  # ln(b_{k-1} + b_{l-2})

    @classmethod
    def derive(cls, k: int, l: int, delta: int) -> "ParametricParams":
        phi = max(k, l - 1)
        mu = max(k, l)
        log_b_pair = _log_add(log_binomial(delta, k - 1), log_binomial(delta, l - 2))
        return cls(
            k, l, phi, mu, delta - phi, delta - mu + 1,
            log_binomial(delta, phi - 1), log_b_pair,
        )


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
    params: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "reason": self.reason,
            "coefficient": self.coefficient,
            "absolute": self.absolute,
            "vacuous": self.vacuous,
            "forced": self.forced,
            "params": self.params,
        }


def _report(
    name: str,
    n: int,
    cap_absolute: float,
    params: dict,
    applicable: bool,
    reason: str,
    coeff_fn: Callable[[], float | None],
    force: bool = False,
) -> BoundReport:
    if n < 1:
        raise ValueError("n must be >= 1")
    coefficient = None
    if applicable or force:
        coefficient = coeff_fn()
    absolute = coefficient * n if coefficient is not None else None
    vacuous = (absolute >= cap_absolute) if absolute is not None else None
    return BoundReport(
        name=name,
        applicable=applicable,
        reason=reason,
        coefficient=coefficient,
        absolute=absolute,
        vacuous=vacuous,
        forced=force and not applicable and coefficient is not None,
        params=params,
    )


def _check_delta(delta: int) -> int:
    delta = int(delta)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return delta


# -- classical bounds ----------------------------------------------------------


def bound_classical(delta: int, n: int) -> BoundReport:
    """gamma(G) <= (ln(delta+1) + 1)/(delta+1) * n."""
    delta = _check_delta(delta)
    coeff = (math.log(delta + 1) + 1.0) / (delta + 1)
    return _report(
        "classical", n, float(n), {"delta": delta},
        True, "", lambda: coeff,
    )


def bound_caro_roditty(delta: int, n: int, force: bool = False) -> BoundReport:
    """gamma(G) <= (1 - delta/(1+delta)^(1+1/delta)) * n for delta >= 1."""
    delta = _check_delta(delta)
    applicable = delta >= 1
    reason = "" if applicable else "needs delta >= 1"

    def coeff() -> float | None:
        if delta < 1:
            return None
        return 1.0 - math.exp(math.log(delta) - (1.0 + 1.0 / delta) * math.log1p(delta))

    return _report(
        "caro_roditty", n, float(n), {"delta": delta}, applicable, reason, coeff, force,
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


def _rs_gate(p: RSParams) -> tuple[bool, str]:
    if p.s < 1:
        return False, "max demand is 0; the zero function already dominates"
    if p.r > p.tau:
        return False, f"derived r={p.r} exceeds min cap tau={p.tau}"
    return True, ""


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
    delta = _check_delta(delta)
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
        name, n, float(cap_sum), params, applicable, reason,
        lambda: coeff(p) if p is not None and p.s >= 1 else None, force,
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
    delta = _check_delta(delta)
    lo = max(1, -(-s // (delta + 1)))  # ceil(s/(delta+1))
    applicable = s >= 1 and lo <= tau
    if s < 1:
        reason = "max demand is 0; the zero function already dominates"
    elif lo > tau:
        reason = f"no admissible integer r: ceil(s/(delta+1))={lo} exceeds tau={tau}"
    else:
        reason = ""
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
        "rs_log_optimized", n, float(cap_sum), params, applicable, reason,
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


def bound_parametric(k: int, l: int, delta: int, n: int, force: bool = False) -> BoundReport:
    """Strong (k,l) bound: (1 - dbar/((1+dbar)^(1+1/dbar) b_{phi-1}^(1/dbar))) n, dbar = delta - phi."""
    delta = _check_delta(delta)
    p = ParametricParams.derive(k, l, delta)
    applicable = p.delta_bar >= 1
    reason = "" if applicable else f"needs delta - max(k, l-1) > 0, got {p.delta_bar}"
    params = {"delta": delta, "k": k, "l": l, "phi": p.phi, "delta_bar": p.delta_bar,
              "log_b_phi1": p.log_b_phi}

    def coeff() -> float | None:
        d = p.delta_bar
        if d < 1 or not math.isfinite(p.log_b_phi):
            return None
        return 1.0 - math.exp(
            math.log(d) - (1.0 + 1.0 / d) * math.log1p(d) - p.log_b_phi / d
        )

    return _report("parametric_strong", n, float(n), params, applicable, reason, coeff, force)


def bound_parametric_log(k: int, l: int, delta: int, n: int, force: bool = False) -> BoundReport:
    """Log-form (k,l) bound: (ln(delta-phi+1) + ln b_{phi-1} + 1)/(delta-phi+1) n."""
    delta = _check_delta(delta)
    p = ParametricParams.derive(k, l, delta)
    applicable = delta >= p.phi
    reason = "" if applicable else f"needs delta >= max(k, l-1) = {p.phi}"
    params = {"delta": delta, "k": k, "l": l, "phi": p.phi,
              "log_b_phi1": p.log_b_phi}

    def coeff() -> float | None:
        if not math.isfinite(p.log_b_phi):
            return None
        d1 = delta - p.phi + 1
        if d1 < 1:
            return None
        return (math.log(d1) + p.log_b_phi + 1.0) / d1

    return _report("parametric_log", n, float(n), params, applicable, reason, coeff, force)


def bound_parametric_alt(k: int, l: int, delta: int, n: int, force: bool = False) -> BoundReport:
    """Alternative strong (k,l) bound built on b_{k-1} + b_{l-2}, b_{-1} = 0.

    Better than the phi-based strong form for small l; specializes to the
    known k-domination (l=1) and k-tuple (l=k) bounds.
    """
    delta = _check_delta(delta)
    p = ParametricParams.derive(k, l, delta)
    applicable = p.delta_hat >= 1
    reason = "" if applicable else f"needs delta - max(k, l) + 1 > 0, got {p.delta_hat}"
    params = {"delta": delta, "k": k, "l": l, "delta_hat": p.delta_hat,
              "log_b_pair": p.log_b_pair}

    def coeff() -> float | None:
        d = p.delta_hat
        if d < 1 or not math.isfinite(p.log_b_pair):
            return None
        return 1.0 - math.exp(
            math.log(d) - (1.0 + 1.0 / d) * math.log1p(d) - p.log_b_pair / d
        )

    return _report("parametric_alt_strong", n, float(n), params, applicable, reason, coeff, force)


def bound_parametric_alt_log(k: int, l: int, delta: int, n: int, force: bool = False) -> BoundReport:
    """Log form of the alternative (k,l) bound: (ln(dhat+1) + ln(b_{k-1}+b_{l-2}) + 1)/(dhat+1) n."""
    delta = _check_delta(delta)
    p = ParametricParams.derive(k, l, delta)
    applicable = delta >= p.phi
    reason = "" if applicable else f"needs delta >= max(k, l-1) = {p.phi}"
    params = {"delta": delta, "k": k, "l": l, "delta_hat": p.delta_hat,
              "log_b_pair": p.log_b_pair}

    def coeff() -> float | None:
        if not math.isfinite(p.log_b_pair):
            return None
        d1 = p.delta_hat + 1
        if d1 < 1:
            return None
        return (math.log(d1) + p.log_b_pair + 1.0) / d1

    return _report("parametric_alt_log", n, float(n), params, applicable, reason, coeff, force)


# -- threshold-function bounds ----------------------------------------------------


def bound_rv(k: int, delta: int, n: int, force: bool = False) -> BoundReport:
    """k-tuple bound under delta >= 2k ln(delta+1) - 1, with exact factorial terms."""
    delta = _check_delta(delta)
    applicable = delta >= 2 * k * math.log(delta + 1) - 1
    reason = "" if applicable else f"needs delta >= 2k*ln(delta+1) - 1 = {2 * k * math.log(delta + 1) - 1:.3f}"

    def coeff() -> float:
        total = k * math.log(delta + 1) / (delta + 1)
        for i in range(k):
            total += (k - i) / (math.factorial(i) * (delta + 1) ** (k - i))
        return total

    return _report("rv", n, float(n), {"delta": delta, "k": k}, applicable, reason, coeff, force)


def _threshold_coeff(size: int, delta: int, c: float) -> float:
    return (c / (delta + 1) + math.exp(-0.5 * size * (c + 1.0 / c - 2.0))) * size


def bound_threshold_ktuple(k: int, delta: int, n: int, c: float, force: bool = False) -> BoundReport:
    """k-tuple bound (c/(delta+1) + e^(-k(c+1/c-2)/2)) k n under delta >= ck-1, c > 1."""
    delta = _check_delta(delta)
    if c <= 1:
        applicable, reason = False, f"needs c > 1, got c={c}"
    elif delta < c * k - 1:
        applicable, reason = False, f"needs delta >= ck-1 = {c * k - 1:.3f}"
    else:
        applicable, reason = True, ""
    return _report(
        "ktuple_threshold", n, float(n), {"delta": delta, "k": k, "c": c},
        applicable, reason, lambda: _threshold_coeff(k, delta, c), force,
    )


def bound_threshold_parametric(
    k: int, l: int, delta: int, n: int, c: float, force: bool = False
) -> BoundReport:
    """(k,l) threshold bound with mu = max(k, l) under delta >= c*mu - 1, c > 1."""
    delta = _check_delta(delta)
    mu = max(k, l)
    if c <= 1:
        applicable, reason = False, f"needs c > 1, got c={c}"
    elif delta < c * mu - 1:
        applicable, reason = False, f"needs delta >= c*mu-1 = {c * mu - 1:.3f}"
    else:
        applicable, reason = True, ""
    return _report(
        "parametric_threshold", n, float(n), {"delta": delta, "k": k, "l": l, "mu": mu, "c": c},
        applicable, reason, lambda: _threshold_coeff(mu, delta, c), force,
    )


def bound_threshold_rs(
    tau: int, s: int, cap_sum: int, delta: int, n: int, c: float, force: bool = False
) -> BoundReport:
    """Capped-function threshold bound with s = max demand under (delta+1)tau >= cs, c > 1."""
    delta = _check_delta(delta)
    if c <= 1:
        applicable, reason = False, f"needs c > 1, got c={c}"
    elif s < 1:
        applicable, reason = False, "max demand is 0; the zero function already dominates"
    elif (delta + 1) * tau < c * s:
        applicable, reason = False, f"needs (delta+1)*tau >= c*s = {c * s:.3f}"
    else:
        applicable, reason = True, ""
    return _report(
        "rs_threshold", n, float(cap_sum), {"delta": delta, "tau": tau, "s": s, "c": c},
        applicable, reason,
        lambda: _threshold_coeff(s, delta, c) if s >= 1 else None, force,
    )


def _ln_threshold(name: str, size: int, delta: int, n: int, c: float,
                  cap: float, params: dict, force: bool,
                  extra_gate: tuple[bool, str] = (True, "")) -> BoundReport:
    ok, why = extra_gate
    if not ok:
        applicable, reason = False, why
    elif not 0.0 < c < 1.0:
        applicable, reason = False, f"needs 0 < c < 1, got c={c}"
    elif delta < 1 or size > (1.0 - c) * math.log(delta):
        applicable, reason = False, f"needs parameter <= (1-c)*ln(delta) = {(1 - c) * math.log(delta) if delta >= 1 else NEG_INF:.3f}"
    else:
        applicable, reason = True, ""

    def coeff() -> float | None:
        if delta < 1:
            return None
        return math.log(delta) / (delta + 1) + size / delta ** (0.5 * c * c)

    return _report(name, n, cap, params, applicable, reason, coeff, force)


def bound_ln_threshold_ktuple(k: int, delta: int, n: int, c: float, force: bool = False) -> BoundReport:
    """k-tuple bound (ln(delta)/(delta+1) + k/delta^(c^2/2)) n under k <= (1-c) ln delta."""
    delta = _check_delta(delta)
    return _ln_threshold("ktuple_ln_threshold", k, delta, n, c, float(n),
                         {"delta": delta, "k": k, "c": c}, force)


def bound_ln_threshold_parametric(
    k: int, l: int, delta: int, n: int, c: float, force: bool = False
) -> BoundReport:
    """(k,l) version with mu = max(k, l) in place of k."""
    delta = _check_delta(delta)
    mu = max(k, l)
    return _ln_threshold("parametric_ln_threshold", mu, delta, n, c, float(n),
                         {"delta": delta, "k": k, "l": l, "mu": mu, "c": c}, force)


def bound_ln_threshold_rs(
    tau: int, s: int, cap_sum: int, delta: int, n: int, c: float, force: bool = False
) -> BoundReport:
    """Capped-function version with s = max demand; s <= (1-c) ln delta already
    implies the existence condition (delta+1)tau >= s when tau >= 1."""
    delta = _check_delta(delta)
    gate = (tau >= 1, "needs min cap tau >= 1")
    return _ln_threshold("rs_ln_threshold", s, delta, n, c, float(cap_sum),
                         {"delta": delta, "tau": tau, "s": s, "c": c}, force, gate)


def applicability_caro_yuster(k: int, delta: int) -> bool:
    """Predicate k < sqrt(ln delta); the asymptotic bound itself is out of scope."""
    delta = _check_delta(delta)
    if delta < 1:
        return False
    return k < math.sqrt(math.log(delta))


# -- catalogue per spec ------------------------------------------------------------


def bounds_for_spec(
    spec: DominationSpec, delta: int, n: int, c: float | None = None, force: bool = False
) -> list[BoundReport]:
    """Every bound in the catalogue that speaks about the given variant.

    A set variant is the (k,l) instance given by its requirements(), so it
    gets the four (k,l) bounds; the classical, k-tuple and total variants
    add their own specializations around them.
    """
    v = spec.variant
    if spec.is_function_variant:
        caps = spec.cap_summary(n)
        if v == "total_rs":
            return [
                bound_total_rs(*caps, delta, n, force=force),
                bound_total_rs_log(*caps, delta, n, force=force),
            ]
        out = [
            bound_rs(*caps, delta, n, force=force),
            bound_rs_log(*caps, delta, n, force=force),
            bound_rs_log_optimized(*caps, delta, n, force=force),
        ]
        if c is not None:
            out += [
                bound_threshold_rs(*caps, delta, n, c, force=force),
                bound_ln_threshold_rs(*caps, delta, n, c, force=force),
            ]
        return out
    k, l = spec.requirements()
    out = [
        bound_parametric(k, l, delta, n, force=force),
        bound_parametric_log(k, l, delta, n, force=force),
        bound_parametric_alt(k, l, delta, n, force=force),
        bound_parametric_alt_log(k, l, delta, n, force=force),
    ]
    if v == "classical":
        return [
            bound_classical(delta, n),
            bound_caro_roditty(delta, n, force=force),
            bound_rs(1, 1, n, delta, n, force=force),
            bound_rs_log(1, 1, n, delta, n, force=force),
        ] + out
    if v == "k_tuple":
        out = [
            bound_rs(1, k, n, delta, n, force=force),
            bound_rs_log(1, k, n, delta, n, force=force),
            bound_rs_log_optimized(1, k, n, delta, n, force=force),
        ] + out + [bound_rv(k, delta, n, force=force)]
        if c is not None:
            out += [
                bound_threshold_ktuple(k, delta, n, c, force=force),
                bound_ln_threshold_ktuple(k, delta, n, c, force=force),
            ]
        return out
    if v == "total_k":
        out += [
            bound_total_rs(1, k, n, delta, n, force=force),
            bound_total_rs_log(1, k, n, delta, n, force=force),
        ]
    if c is not None:
        out += [
            bound_threshold_parametric(k, l, delta, n, c, force=force),
            bound_ln_threshold_parametric(k, l, delta, n, c, force=force),
        ]
    if v == "total_k":
        out.append(_report(
            "caro_yuster", n, float(n), {"delta": delta, "k": k},
            applicability_caro_yuster(k, delta),
            "predicate only; the asymptotic bound is out of scope",
            lambda: None,
        ))
    return out
