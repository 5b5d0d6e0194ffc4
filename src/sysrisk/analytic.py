"""Large-network limit theory.

Closed forms for the scalar clearing limit, the limiting per-group returns
and their mean gap (the averaging dynamics' driver), the probability q that a
risk-free agent's return weakly beats a risky one's, the imitation drift
rates beta and kappa = beta(1 - 2 delta) of the flow, and the three
thresholds of the risk-free fraction:

  eps_bar_1  below which nobody defaults,
  eps_bar_2  above which every risky agent defaults (the systemic regime),
  eps_bar    at which q jumps from 1-delta to 1.

Parameters with v <= w(1+d) are fully covered by the closed forms of three
regimes (no default, shock default, all default), whose boundaries `_x_bar`
alone forms.  For larger v the limit payments solve
x_i = clip(k_i - v + c_eps * x_bar, 0, y) per shock class i, with
x_bar = delta * x_u + (1 - delta) * x_d.  That makes x_bar the
greatest fixed point of one monotone, piecewise-linear scalar map, solved
exactly by the kernel the finite complete graph uses
(`clearing.class_fixed_point`); a class defaults by the finite network's rule
(`clearing.defaulted`), and the results are flagged `outside_theory`.

The result types are named tuples, as `model.DerivedQuantities` is: grids and
flow runs build them by the thousand, and a tuple builds in half the time.
"""
from __future__ import annotations

import enum
from typing import NamedTuple

from .clearing import class_fixed_point, defaulted, surpluses
from .model import DerivedQuantities, DynamicsParams, MarketParams, SolverError, derive


class DefaultRegime(enum.Enum):
    NO_DEFAULT = "NoDefault"
    SHOCK_DEFAULT = "ShockDefault"
    ALL_DEFAULT = "AllDefault"


class ClearingLimit(NamedTuple):
    """Limiting expected clearing payment and default probability."""

    x_bar: float
    p_d: float
    regime: DefaultRegime
    outside_theory: bool = False
    degenerate: bool = False  # eps=1: no risky agents, x_bar reported as y


class LimitReturns(NamedTuple):
    r1: float       # risk-free group's (deterministic) limit return
    r2_up: float    # risky return after an up-move
    r2_down: float  # risky return after a down-move, clamped at 0


class Thresholds(NamedTuple):
    eps_bar_1: float
    eps_bar_2: float
    eps_bar: float  # 1.0 encodes "no interior switch"
    outside_theory: bool = False


def _x_bar(params: MarketParams, der: DerivedQuantities) -> tuple[float, DefaultRegime | None]:
    """Limit clearing value at der.eps, with its regime where a closed form holds.

    Applies at eps = 1 too (bisections need that).  The shock-default test is
    in product form, so it holds whatever the sign of its bracket.  The regime
    is None when senior debt exceeds the down-move proceeds: x_bar is then the
    exactly solved fixed point and the caller reads the regime off it.
    """
    c, delta, y, w_low, w_high = der.c_eps, params.delta, der.y, der.w_low, der.w_high
    if w_low >= 0:  # down-move proceeds cover senior debt: closed forms hold
        if c >= (y - w_low) / y:
            return y, DefaultRegime.NO_DEFAULT
        if c * (y - (1 - delta) * (w_high - w_low)) >= y - w_high:
            # below y in exact arithmetic, but it can round an ulp above y as delta -> 1
            return (min((delta * y + (1 - delta) * w_low) / (1 - (1 - delta) * c), y),
                    DefaultRegime.SHOCK_DEFAULT)
        return (delta * w_high + (1 - delta) * w_low) / (1 - c), DefaultRegime.ALL_DEFAULT
    # no closed form: solve x_bar = sum_i P(i) * clip(k_i - v + c * x_bar, 0, y) exactly
    return class_fixed_point((delta, 1 - delta), (w_high, w_low), c, y), None


def _interior_limit(params: MarketParams, der: DerivedQuantities) -> ClearingLimit:
    """The limit formulas at der.eps, applied at eps = 1 too (bisections need that)."""
    x_bar, regime = _x_bar(params, der)
    delta = params.delta
    if regime is not None:
        p_d = (0.0 if regime is DefaultRegime.NO_DEFAULT else
               1 - delta if regime is DefaultRegime.SHOCK_DEFAULT else 1.0)
        return ClearingLimit(x_bar, p_d, regime)
    # a class defaults when its unclipped payment falls short, as its clipped one then does
    up_def, dn_def = (defaulted(b + der.c_eps * x_bar, der.y) for b in (der.w_high, der.w_low))
    p_d = delta * up_def + (1 - delta) * dn_def
    regime = (DefaultRegime.NO_DEFAULT if p_d == 0.0 else
              DefaultRegime.ALL_DEFAULT if up_def else DefaultRegime.SHOCK_DEFAULT)
    return ClearingLimit(x_bar, p_d, regime, outside_theory=True)


def clearing_limit(params: MarketParams, eps: float) -> ClearingLimit:
    """Limiting clearing value, default probability and regime at fraction eps."""
    der = derive(params, eps)
    if eps == 1.0:
        return ClearingLimit(der.y, 0.0, DefaultRegime.NO_DEFAULT, degenerate=True)
    return _interior_limit(params, der)


def _interior_returns(params: MarketParams, der: DerivedQuantities) -> LimitReturns:
    """The return formulas at der.eps, applied at eps = 1 too (bisections need that)."""
    x, _ = _x_bar(params, der)
    eps = der.eps
    claims_1 = (1 - params.alpha) * (1 - eps) / (params.alpha + eps) * x
    return LimitReturns._make(surpluses(params, eps, der.y, claims_1,
                                        (der.k_u, der.c_eps * x), (der.k_d, der.c_eps * x)))


def limit_returns(params: MarketParams, eps: float) -> LimitReturns:
    """Limiting returns per group; risky returns are split by shock outcome."""
    der = derive(params, eps)
    if eps == 1.0:
        return LimitReturns(surpluses(params, 1.0, der.y, 0.0)[0], 0.0, 0.0)
    return _interior_returns(params, der)


def mean_return_gap(params: MarketParams, eps: float) -> float:
    """Risk-free minus expected risky limit return at fraction eps.

    Its sign drives the averaging dynamics (`odeflow.avg_limit` reads its
    profile over eps) and their stability check.
    """
    lr = limit_returns(params, eps)
    return lr.r1 - (params.delta * lr.r2_up + (1.0 - params.delta) * lr.r2_down)


def _win_probability(params: MarketParams, lr: LimitReturns) -> float:
    return ((1 - params.delta) * (lr.r1 >= lr.r2_down)
            + params.delta * (lr.r1 >= lr.r2_up))


def q_eps(params: MarketParams, eps: float) -> float:
    """Probability that the risk-free return weakly beats the risky return.

    Ties count toward the risk-free side.  Under the covered parameter range
    the value is 1-delta below eps_bar and 1 at or above it.
    """
    return _win_probability(params, limit_returns(params, eps))


def _quad_roots(a: float, b: float, c: float) -> list[float]:
    'real roots of a*x^2 + b*x + c, ascending; handles the linear case'
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s = disc ** 0.5
    r1, r2 = (-b - s) / (2 * a), (-b + s) / (2 * a)
    return sorted((r1, r2))


_BISECT_TOL = 1e-12


def _bisect_step(fn, lo: float, hi: float) -> float:
    """Smallest point in [lo, hi] where the 0/1-valued fn first turns true."""
    if fn(lo):
        return lo
    if not fn(hi):
        return hi
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if fn(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _eps_bar_bisect(params: MarketParams, lo: float, hi: float) -> float:
    """Switch point of q found directly, using the interior formulas at eps=1."""
    q_hi = 1 - 1e-9  # q is a step between 1-delta and 1
    return _bisect_step(
        lambda e: _win_probability(params, _interior_returns(params, derive(params, e))) > q_hi,
        lo, hi)


def thresholds(params: MarketParams, check: bool = True) -> Thresholds:
    """The three fraction thresholds.

    For v <= w(1+d) these come from closed-form root-finding; `check=True`
    additionally locates eps_bar by direct bisection on q and raises if the
    two routes disagree beyond 1e-6 (SolverError).  For larger v everything is
    computed by bisection on the exactly solved limit quantities (assumed
    monotone in eps) and the result is flagged.
    """
    w, v, alpha, delta = params.w, params.v, params.alpha, params.delta
    u, d, r_s, r_b = params.u, params.d, params.r_s, params.r_b

    if not params.in_theory:
        def p_d_at(e: float) -> float:
            return _interior_limit(params, derive(params, e)).p_d

        e1 = _bisect_step(lambda e: p_d_at(e) > 0.0, 0.0, 1.0)
        if p_d_at(1.0) < 1.0:
            e2 = 1.0
        else:
            e2 = _bisect_step(lambda e: p_d_at(e) >= 1.0, e1, 1.0)
        ebar = _eps_bar_bisect(params, e1 if e1 < 1 else 0.0, 1.0)
        return Thresholds(e1, e2, ebar, outside_theory=True)

    wdv = w * (1 + d) - v  # >= 0 here
    eps1 = min(wdv / (w * (r_b - d)), 1.0)
    if eps1 >= 1.0:
        return Thresholds(1.0, 1.0, 1.0)

    # systemic threshold: first sign change of the concave-case quadratic
    f2 = w * ((u - d) * (1 - alpha * (1 - delta)) - (r_b - d))
    f1 = wdv - alpha * w * (r_b - d) + w * (u - d) * (2 * alpha * delta + 1 - alpha)
    f0 = alpha * (wdv + delta * w * (u - d))
    eps2 = 1.0
    if f2 + f1 + f0 < 0:  # ends negative, so a crossing exists in (eps1, 1)
        for root in _quad_roots(f2, f1, f0):
            if eps1 < root <= 1.0:
                eps2 = root
                break

    # q switch point: crossing of the comparison-margin quadratic
    m3 = w * (u - r_s) * (1 - alpha * (1 - delta)) - w * (1 - delta) * (r_b - d)
    b1 = (w * (u - r_b) * (1 - alpha * (1 - delta)) + w * alpha * delta * (u - r_s)
          + (1 - delta) * (wdv - w * (r_b - d) * (2 * alpha - 1)))
    b0 = w * alpha * delta * (u - r_b) + (2 * alpha - 1) * (1 - delta) * wdv
    hi = min(eps2, 1.0)
    ebar = None
    for root in _quad_roots(m3, b1, b0):
        if eps1 <= root <= hi:
            # take the root where the margin actually turns non-positive
            probe = min(root + 1e-9 * max(1.0, abs(root)), hi)
            if m3 * probe * probe + b1 * probe + b0 <= 0:
                ebar = root
                break
    if ebar is None:
        ebar = eps2 if eps2 < 1.0 else 1.0

    if check:
        direct = _eps_bar_bisect(params, eps1, 1.0)
        if abs(direct - ebar) > 1e-6:
            raise SolverError(
                f"threshold routes disagree: quadratic {ebar!r} vs bisection {direct!r}")

    return Thresholds(eps1, eps2, ebar)


def drift_rates(params: MarketParams, dyn: DynamicsParams) -> tuple[float, float]:
    """Net imitation drift rate beta and its value kappa below eps_bar.

    beta aggregates arrival and switching pressure; below eps_bar the return
    comparison favors the risky side only after a down-shock, which scales
    the drift by (1 - 2*delta).  At and above eps_bar the drift is beta.
    """
    beta = (2 * dyn.b_n - 1) * dyn.mean_N + (2 * dyn.b_s - 1) * dyn.mean_S
    return beta, beta * (1 - 2 * params.delta)
