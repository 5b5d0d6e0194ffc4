"""Mean-field flow of the population state.

The simulated population's (eps, psi) pair tracks a two-dimensional ODE,

    d eps/dt = [kappa(eps) * eps * (1 - eps) + eps * E_dep(eps)] / psi
    d psi/dt = (E[N] - E_dep(eps)) - psi

where kappa switches value at the comparison threshold eps_bar and the
departure mass E_dep equals E[L] wherever defaults occur (above eps_bar_1)
and vanishes at eps = 1.  Between thresholds the solution is an explicit
time-changed logistic with an exact inverse.  A flow is walked once into an
itinerary of legs whose threshold crossing times come from that inverse,
certified to the last ulp; the state at any t is then one closed-form step
inside its leg.  A classical fourth-order integrator of the same right-hand
side serves as an independent cross-check.

Flow time is measured on the round clock: round j of a run that started
from n0 agents advances it by 1/(j + n0).  `_clock_terms` is the one place
those terms are formed, and every clock time is their exactly rounded sum.
The module also houses the attractor classification, the finite-round
estimate used for table predictions, and the limit of the average-return
variant of the dynamics.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import (clearing_limit, drift_rates, mean_return_gap, return_gap_scan,
                       thresholds)
from .model import DynamicsParams, MarketParams, ParamError, SolverError
from .records import OdeState, Trajectory


class DegenerateFlowError(ParamError):
    """A flow interval's logistic midpoint mu_i is exactly zero."""


@dataclass(frozen=True)
class _Segment:
    lo: float
    hi: float
    kappa: float
    e_dep: float  # departure mass active strictly inside this segment
    a: float      # psi relaxation target, E[N] - e_dep

    def drift(self, eps: float) -> float:
        """Sign-carrying eps-velocity; psi > 0 never flips it."""
        return self.kappa * eps * (1.0 - eps) + eps * self.e_dep


@dataclass(frozen=True)
class _FlowTable:
    """Everything a flow run needs from the market, built once per run.

    `segs` partitions [0, 1] at the thresholds eps_bar_1 and eps_bar; `p0`
    is the limit default probability at eps = 0 when departures are on
    (else 0), which decides whether defaulters leave below eps_bar_1.
    """

    segs: tuple[_Segment, ...]
    eps_bar_1: float
    eps_bar: float
    p0: float
    mean_L: float

    def departures_at(self, eps: float) -> float:
        """Departure mass at eps: mean_L wherever defaults occur, else 0."""
        active = eps < 1.0 and (eps > self.eps_bar_1 or self.p0 > 0.0)
        return self.mean_L if active else 0.0


def _flow_table(params: MarketParams, dyn: DynamicsParams, mean_L: float) -> _FlowTable:
    if dyn.mean_N <= 0:
        raise ParamError("mean_N: the population flow needs a positive arrival mean")
    th = thresholds(params, check=False)
    beta, k1 = drift_rates(params, dyn)
    e1, eb = th.eps_bar_1, th.eps_bar
    edges = [0.0] + sorted(e for e in {e1, eb} if 0.0 < e < 1.0) + [1.0]
    segs = []
    for lo, hi in zip(edges, edges[1:]):
        kappa = k1 if hi <= eb else beta
        e_dep = mean_L if lo >= e1 else 0.0
        a = dyn.mean_N - e_dep
        if a <= 0:
            raise ParamError("mean_L: departures must stay below arrivals for the flow")
        if kappa != 0.0 and kappa + e_dep == 0.0:
            raise DegenerateFlowError(
                f"flow interval [{lo:g}, {hi:g}] has logistic midpoint mu = 0")
        segs.append(_Segment(lo, hi, kappa, e_dep, a))
    p0 = clearing_limit(params, 0.0).p_d if mean_L > 0 else 0.0
    return _FlowTable(tuple(segs), e1, eb, p0, mean_L)


def _psi_after(a: float, psi0: float, dt: float) -> float:
    return a + (psi0 - a) * math.exp(-dt)


_WARP_LOG = 700.0  # past this log-time e^-dt is below double rounding of the warp


def _log_warp(a: float, psi0: float, dt: float) -> float:
    """log of the time-substitution base (a*e^dt + psi0 - a) / psi0."""
    if dt > _WARP_LOG:  # expm1 would overflow; the base is e^dt * a/psi0 here
        return dt + math.log(a / psi0)
    return math.log1p(a * math.expm1(dt) / psi0)


def _warp_time(a: float, psi0: float, lw: float) -> float:
    """The dt at which `_log_warp(a, psi0, dt)` equals lw: its exact inverse."""
    if lw > _WARP_LOG:
        return lw + math.log(psi0 / a)
    return math.log1p(psi0 * math.expm1(lw) / a)


def _eps_after(seg: _Segment, eps0: float, psi0: float, dt: float) -> float:
    """Advance eps by dt inside one segment (exact up to rounding).

    Returns +inf past the algebraic pole, which is only reachable on upward
    flow repelled from a midpoint outside (eps0, 1); callers treat that as
    having crossed the segment's upper edge.
    """
    lw = _log_warp(seg.a, psi0, dt)
    if seg.kappa == 0.0:
        return eps0 * math.exp((seg.e_dep / seg.a) * lw)
    mu = 1.0 + seg.e_dep / seg.kappa
    if eps0 == mu:
        return eps0
    log_h = (seg.kappa + seg.e_dep) / seg.a * lw
    if mu > 0.0 and eps0 < mu:
        # logistic toward/away from mu, stable in both tails
        z = math.log(eps0 / (mu - eps0)) + log_h
        if z >= 0:
            return mu / (1.0 + math.exp(-z))
        ez = math.exp(z)
        return mu * ez / (1.0 + ez)
    h = math.exp(min(log_h, 709.0))
    den = mu - eps0 + eps0 * h
    if (den <= 0.0) if mu > 0.0 else (den >= 0.0):
        return math.inf
    return mu * eps0 * h / den


def _locate(segs: tuple[_Segment, ...], eps: float) -> tuple[_Segment, float] | None:
    """Segment owning an interior eps plus flow direction; None when pinned."""
    for s in segs:
        if s.lo < eps < s.hi:
            d = s.drift(eps)
            return s, math.copysign(1.0, d) if d != 0.0 else 0.0
    for below, above in zip(segs, segs[1:]):
        if eps == below.hi:
            if above.drift(eps) > 0.0:
                return above, 1.0
            if below.drift(eps) < 0.0:
                return below, -1.0
            return None
    raise AssertionError(f"eps {eps!r} not locatable")


def _cross_time(seg: _Segment, eps0: float, psi0: float, edge: float, up: bool) -> float:
    """In-segment time at which eps first reaches `edge`; inf if it never does.

    The closed form inverts `_eps_after` in each of its branches.  All of
    them reach the edge at one value of the time substitution h,

        h* = edge (mu - eps0) / (eps0 (mu - edge))   (kappa != 0: logistic or pole branch)
        h* = edge / eps0                             (kappa = 0: pure departures)

    (log h* taken through log1p(h* - 1) near 1), and log h* = rate * warp
    fixes the warp, whose inverse gives dt.  An edge the flow only
    approaches (0, a midpoint mu, anything past mu, or an edge so near 0
    that h* underflows) has h* <= 0 or a warp of the wrong sign: inf.
    Rounding can leave the closed form a few ulps off, so the result is
    certified against `_eps_after` itself: eps has crossed at the returned
    dt and not at the float below it, found by stepping from the closed form
    and bisecting down to adjacent floats.  SolverError if no float crosses.
    """
    def crossed(dt: float) -> bool:
        v = _eps_after(seg, eps0, psi0, dt)
        return (v >= edge or math.isinf(v)) if up else v <= edge

    if seg.kappa == 0.0:
        h, g = edge / eps0, (edge - eps0) / eps0
        rate = seg.e_dep / seg.a
    else:
        mu = 1.0 + seg.e_dep / seg.kappa
        if edge == mu:
            return math.inf
        den = eps0 * (mu - edge)
        h, g = edge * (mu - eps0) / den, mu * (edge - eps0) / den
        rate = (seg.kappa + seg.e_dep) / seg.a
    if not h > 0.0 or rate == 0.0:
        return math.inf
    lw = (math.log1p(g) if abs(g) < 0.5 else math.log(h)) / rate
    if not lw >= 0.0:  # the edge lies behind the flow
        return math.inf
    dt = _warp_time(seg.a, psi0, lw)
    if dt == math.inf:
        return dt

    lo = hi = dt
    step = math.ulp(dt)
    if crossed(dt):  # step down until eps has not crossed
        while True:
            if hi == 0.0:
                return hi
            lo = max(hi - step, 0.0)
            if not crossed(lo):
                break
            hi, step = lo, 2.0 * step
    else:  # step up until it has
        while True:
            hi = lo + step
            if hi == math.inf:
                raise SolverError(f"crossing of {edge!r} from {eps0!r} not certified")
            if crossed(hi):
                break
            lo, step = hi, 2.0 * step
    while (mid := 0.5 * (lo + hi)) != lo and mid != hi:  # down to adjacent floats
        if crossed(mid):
            hi = mid
        else:
            lo = mid
    return hi


_MAX_TRANSITIONS = 64


class _Leg(NamedTuple):
    """One stretch of a flow, from flow time `start` until the next leg's.

    A moving leg follows `seg`'s closed form from (eps, psi).  A held leg
    (`seg` None) keeps eps while psi relaxes toward `a`: absorbed at 0 or 1,
    balanced at a logistic midpoint, or `pinned` at an interior threshold.
    """

    start: float
    eps: float
    psi: float
    seg: _Segment | None
    a: float
    pinned: bool = False


def _itinerary(table: _FlowTable, mean_N: float, eps0: float,
               psi0: float) -> tuple[_Leg, ...]:
    """The legs of the flow from (eps0, psi0), each crossing time solved once.

    Crossing times do not depend on any horizon, so one walk serves every t;
    the last leg lasts forever.
    """
    legs = []
    eps, psi, now = eps0, psi0, 0.0
    for _ in range(_MAX_TRANSITIONS + 1):
        if eps <= 0.0 or eps >= 1.0:
            legs.append(_Leg(now, eps, psi, None, mean_N - table.departures_at(eps)))
            return tuple(legs)
        located = _locate(table.segs, eps)
        if located is None:
            legs.append(_Leg(now, eps, psi, None, mean_N - table.departures_at(eps),
                             pinned=True))
            return tuple(legs)
        seg, direction = located
        if direction == 0.0:  # balanced exactly at a midpoint: stays put
            legs.append(_Leg(now, eps, psi, None, seg.a))
            return tuple(legs)
        legs.append(_Leg(now, eps, psi, seg, seg.a))
        edge = seg.hi if direction > 0.0 else seg.lo
        dt = _cross_time(seg, eps, psi, edge, up=direction > 0.0)
        if dt == math.inf:
            return tuple(legs)
        psi = _psi_after(seg.a, psi, dt)
        eps = edge
        now += dt
    raise RuntimeError("flow failed to settle: too many segment transitions")


def _state_at(legs: tuple[_Leg, ...], t: float) -> OdeState:
    """The state at flow time t >= 0: one closed-form step inside t's leg."""
    i = len(legs) - 1
    while legs[i].start > t:
        i -= 1
    leg = legs[i]
    dt = t - leg.start
    if dt == 0.0:
        return OdeState(leg.eps, leg.psi, t, leg.pinned)
    eps = leg.eps if leg.seg is None else _eps_after(leg.seg, leg.eps, leg.psi, dt)
    return OdeState(eps, _psi_after(leg.a, leg.psi, dt), t, leg.pinned)


def _check_start(eps0: float, psi0: float) -> None:
    """A flow starts at a fraction in [0, 1] and a finite positive population rate."""
    if not 0.0 <= eps0 <= 1.0:
        raise ParamError(f"eps0: fraction {eps0!r} outside [0, 1]")
    if not (math.isfinite(psi0) and psi0 > 0.0):
        raise ParamError(f"psi0: population rate must be finite and positive, got {psi0!r}")


def _flow_legs(params: MarketParams, dyn: DynamicsParams, eps0: float, psi0: float,
               mean_L: float) -> tuple[_Leg, ...]:
    """Validated start, flow table and itinerary: everything t-independent."""
    _check_start(eps0, psi0)
    return _itinerary(_flow_table(params, dyn, mean_L), dyn.mean_N, eps0, psi0)


def _flow(params: MarketParams, dyn: DynamicsParams, eps0: float, psi0: float,
          t: float, mean_L: float) -> OdeState:
    if not (math.isfinite(t) and t >= 0.0):  # checked before any walk
        raise ParamError(f"t: flow time must be finite and non-negative, got {t!r}")
    return _state_at(_flow_legs(params, dyn, eps0, psi0, mean_L), t)


def ode_solution(params: MarketParams, dyn: DynamicsParams, eps0: float,
                 psi0: float, t: float) -> OdeState:
    """Closed-form flow state at time t, departures off."""
    return _flow(params, dyn, eps0, psi0, t, 0.0)


def ode_solution_departures(params: MarketParams, dyn: DynamicsParams, eps0: float,
                            psi0: float, t: float) -> OdeState:
    """Closed-form flow state at time t with defaulter departures active."""
    return _flow(params, dyn, eps0, psi0, t, dyn.mean_L)


def _clock_terms(n0: int, rounds: int) -> list[float]:
    """Clock advance of rounds 1..rounds: round j adds 1/(j + n0)."""
    return (1.0 / np.arange(n0 + 1, n0 + rounds + 1, dtype=float)).tolist()


def _clock_sums(terms: list[float], ends: range) -> list[float]:
    """`math.fsum(terms[:e])` for each e in the increasing `ends`, in one pass.

    The running sum is carried exactly as two floats, hi + lo, and each
    stretch of terms joins it through `math.fsum` (Shewchuk's exact
    partials), which rounds the exact total once: every hi is bit-identical
    to a fresh `fsum` of its prefix.  A third `fsum` certifies that hi + lo
    still holds the total exactly; SolverError if it does not, which would
    take a sum spanning more than 106 bits.
    """
    hi = lo = 0.0
    sums = []
    done = 0
    for end in ends:
        part = [hi, lo, *terms[done:end]]
        hi = math.fsum(part)
        part.append(-hi)
        lo = math.fsum(part)
        part.append(-lo)
        if math.fsum(part) != 0.0:
            raise SolverError(f"clock sum to round {end} not exact in two floats")
        sums.append(hi)
        done = end
    return sums


def round_clock(n0: int, rounds: int) -> float:
    """Flow time after `rounds` rounds of a run that started from n0 agents."""
    if not (isinstance(rounds, numbers.Integral) and rounds >= 0):
        raise ParamError(f"rounds: round count must be a non-negative integer, got {rounds!r}")
    return math.fsum(_clock_terms(n0, rounds))


def finite_round_estimate(params: MarketParams, dyn: DynamicsParams, eps0: float,
                          l: int, k: int) -> float:
    """Predicted risk-free fraction after rounds l+1..l+k, via the flow clock.

    The estimate is the departure-free closed form from a unit population
    rate, run for the clock time those k rounds add.
    """
    for name, rounds in (("l", l), ("k", k)):
        if not (isinstance(rounds, numbers.Integral) and rounds >= 0):
            raise ParamError(f"{name}: round count must be a non-negative integer, got {rounds!r}")
    terms = _clock_terms(dyn.n0, l + k)
    t_kl = math.fsum(terms) - math.fsum(terms[:l])
    return _state_at(_flow_legs(params, dyn, eps0, 1.0, 0.0), t_kl).eps


def ode_numeric(params: MarketParams, dyn: DynamicsParams, eps0: float, psi0: float,
                horizon: float, step: float) -> Trajectory:
    """Fixed-step RK4 integration of the flow, with threshold events located.

    Independent of the closed form: integrates the raw right-hand side and
    only uses the analytic layer for the switching thresholds and drift
    rates.  Records one `OdeState` per accepted step (plus one per event
    landing); once frozen at an interior threshold its rows are `pinned`.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ParamError(f"step: must be finite and positive, got {step!r}")
    if not (math.isfinite(horizon) and horizon >= 0.0):
        raise ParamError(f"horizon: flow time must be finite and non-negative, got {horizon!r}")
    _check_start(eps0, psi0)
    beta, k1 = drift_rates(params, dyn)
    table = _flow_table(params, dyn, dyn.mean_L)

    def rhs(eps: float, psi: float) -> tuple[float, float]:
        if psi <= 0.0:
            raise ParamError("step: population rate left (0, inf); reduce the step size")
        kappa = k1 if eps < table.eps_bar else beta
        dep = table.departures_at(eps)
        de = (kappa * eps * (1.0 - eps) + eps * dep) / psi
        return de, (dyn.mean_N - dep) - psi

    def rk4(eps: float, psi: float, h: float) -> tuple[float, float, bool]:
        a1, b1 = rhs(eps, psi)
        a2, b2 = rhs(eps + 0.5 * h * a1, psi + 0.5 * h * b1)
        a3, b3 = rhs(eps + 0.5 * h * a2, psi + 0.5 * h * b2)
        a4, b4 = rhs(eps + h * a3, psi + h * b3)
        return (eps + h / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4),
                psi + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4),
                a1 * a2 < 0.0 or a1 * a3 < 0.0 or a1 * a4 < 0.0)  # a stage's drift turned

    event_edges = [s.hi for s in table.segs]
    records = [OdeState(eps0, psi0, 0.0)]
    eps, psi, now = eps0, psi0, 0.0
    frozen, pinned = eps <= 0.0 or eps >= 1.0, False
    while now < horizon - 1e-15:
        h = min(step, horizon - now)
        if frozen:
            psi = _psi_after(dyn.mean_N - table.departures_at(eps), psi, h)
            now += h
            records.append(OdeState(eps, psi, now, pinned))
            continue
        e2, p2, turned = rk4(eps, psi, h)
        up = e2 > eps
        hits = [e for e in event_edges if eps < e <= e2 or e2 <= e < eps]
        if turned and not hits:  # a stage crossed the edge ahead: land on it if it pins the flow
            ahead_up = rhs(eps, psi)[0] > 0.0
            ahead = [e for e in event_edges if (eps < e) == ahead_up and e < 1.0]
            if ahead and _locate(table.segs, min(ahead) if ahead_up else max(ahead)) is None:
                hits, up = ahead, ahead_up
        if not hits:
            if e2 < -1e-9 or e2 > 1.0 + 1e-9:
                raise ParamError("step: state left [0, 1]; reduce the step size")
            eps, psi, now = min(max(e2, 0.0), 1.0), p2, now + h
            records.append(OdeState(eps, psi, now))
            continue
        target = min(hits) if up else max(hits)
        lo_t, hi_t = 0.0, h
        while hi_t - lo_t > 1e-12:
            mid = 0.5 * (lo_t + hi_t)
            em = rk4(eps, psi, mid)[0]
            if (em >= target) if up else (em <= target):
                hi_t = mid
            else:
                lo_t = mid
        psi = rk4(eps, psi, hi_t)[1]
        now += hi_t
        eps = target
        if target >= 1.0:
            frozen = True
        else:
            decision = _locate(table.segs, target)
            if decision is None:
                frozen = pinned = True
            else:  # step off the edge in the flow's direction
                eps = target + math.copysign(1e-13, decision[1])
        records.append(OdeState(min(eps, 1.0), psi, now, pinned))
    return Trajectory(records=records)


@dataclass(frozen=True)
class AttractorReport:
    """Attractors with their eps0 basins.

    `doa[i]` is the half-open basin [lo, hi) of `attractors[i]` (the last one
    closed at 1); a basin boundary point itself flows with the upper basin,
    matching the convention that the threshold value favors the risk-free
    side.  `conjecture` marks the interior mixed limit without departures,
    which the flow only circles rather than provably reaches.
    """

    attractors: tuple[tuple[float, float], ...]
    doa: tuple[tuple[float, float], ...]
    regime_label: str
    conjecture: bool = False


def _terminal(table: _FlowTable, eps: float,
              dyn: DynamicsParams) -> tuple[float, float, bool]:
    """(eps*, psi*, pinned) reached from eps under the sign flow."""
    for _ in range(2 * len(table.segs) + 4):
        if eps <= 0.0:
            return 0.0, dyn.mean_N - table.departures_at(0.0), False
        if eps >= 1.0:
            return 1.0, dyn.mean_N, False
        located = _locate(table.segs, eps)
        if located is None:
            return eps, dyn.mean_N - table.departures_at(eps), True
        seg, direction = located
        if direction == 0.0:
            return eps, seg.a, False
        eps = seg.hi if direction > 0 else seg.lo
    raise RuntimeError("attractor walk failed to settle")


def classify_attractors(params: MarketParams, dyn: DynamicsParams) -> AttractorReport:
    """Partition eps0 into basins and name each basin's limit point."""
    beta, kappa_below = drift_rates(params, dyn)
    if beta == 0.0:
        raise ParamError("beta: zero net drift admits no attractor classification")
    mean_L = dyn.mean_L
    table = _flow_table(params, dyn, mean_L)

    cuts = {s.lo for s in table.segs if 0.0 < s.lo < 1.0}
    for s in table.segs:
        if s.kappa < 0.0:
            mu = 1.0 + s.e_dep / s.kappa
            if s.lo < mu < s.hi:  # interior balance point: a repeller
                cuts.add(mu)
    bounds = [0.0] + sorted(cuts) + [1.0]

    merged: list[list] = []  # [lo, hi, (eps*, psi*, pinned)]
    for lo, hi in zip(bounds, bounds[1:]):
        term = _terminal(table, 0.5 * (lo + hi), dyn)
        if merged and abs(merged[-1][2][0] - term[0]) <= 1e-12 \
                and abs(merged[-1][2][1] - term[1]) <= 1e-12:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi, term])

    attractors = tuple((t[0], t[1]) for _, _, t in merged)
    doa = tuple((lo, hi) for lo, hi, _ in merged)
    conjecture = any(t[2] for _, _, t in merged) and mean_L == 0.0
    names = []
    for (lo, hi), (e_star, _, pinnedflag) in zip(doa, (m[2] for m in merged)):
        tag = f"mixed@{e_star:.6g}" if pinnedflag else f"eps*={e_star:g}"
        names.append(f"[{lo:.6g},{hi:.6g})->{tag}")
    label = (f"beta={beta:g}, kappa_below={kappa_below:g}"
             f"{', departures' if mean_L > 0 else ''}; " + " ".join(names))
    return AttractorReport(attractors=attractors, doa=doa,
                           regime_label=label, conjecture=conjecture)


@dataclass(frozen=True)
class AvgLimit:
    """Limit of the average-comparison flow.

    `applies` is False when the return-gap sign pattern fits none of the
    covered cases (all-negative, all-positive, or a single decreasing
    crossing); the reported limit is then best-effort.  For the interior
    case the delta->1 closed form (r_b - r̄)/(r̄ - r_s) rides along.
    """

    limit: float
    case: str
    applies: bool
    delta1_closed_form: float | None = None


def avg_limit(params: MarketParams) -> AvgLimit:
    r_bar = params.u * params.delta + params.d * (1 - params.delta)
    closed = None
    if r_bar > params.r_s:
        closed = (params.r_b - r_bar) / (r_bar - params.r_s)

    grid, diff = return_gap_scan(params)
    if all(x < 0 for x in diff):
        return AvgLimit(0.0, "all-risky", True, closed)
    if all(x > 0 for x in diff):
        return AvgLimit(1.0, "all-safe", True, closed)

    crossings = [i for i in range(len(diff) - 1)
                 if (diff[i] > 0 >= diff[i + 1]) or (diff[i] < 0 <= diff[i + 1])
                 or (diff[i] == 0 != diff[i + 1])]
    if len(crossings) == 1 and diff[crossings[0]] > 0:
        lo, hi = grid[crossings[0]], grid[crossings[0] + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mean_return_gap(params, mid) > 0:
                lo = mid
            else:
                hi = mid
        return AvgLimit(0.5 * (lo + hi), "interior", True, closed)

    best = grid[crossings[0]] if crossings else (1.0 if sum(diff) > 0 else 0.0)
    return AvgLimit(best, "unclassified", False, closed)
