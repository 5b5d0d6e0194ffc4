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
from n0 agents advances it by 1/(j + n0).  `_round_clocks` alone forms and
sums those terms, one lazy pass of exactly rounded sums that `round_clock`
and the samplers read: `flow_at_rounds` lazily, `flow_path` in full.  The
flow table (a named tuple) owns the departures rule and the psi target;
`_itinerary` alone walks its segments, and the attractor classification
reads each basin's limit off its last leg.  The module also houses the
finite-round walker and the averaging dynamics' limit.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .analytic import _bisect_step, clearing_limit, drift_rates, mean_return_gap, thresholds
from .model import DynamicsParams, MarketParams, ParamError, SolverError, require_count
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

    @property
    def mu(self) -> float:
        """Logistic midpoint 1 + e_dep/kappa, where the drift changes sign (kappa != 0)."""
        return 1.0 + self.e_dep / self.kappa

    def drift(self, eps: float) -> float:
        """Sign-carrying eps-velocity; psi > 0 never flips it."""
        return self.kappa * eps * (1.0 - eps) + eps * self.e_dep


class _FlowTable(NamedTuple):
    """Everything a flow run needs from the market, built once per run.

    `segs` partitions [0, 1] at the thresholds eps_bar_1 and eps_bar.  The
    table owns the flow's two rules: `departures_at` (defaulters leave above
    eps_bar_1, and below it too when `p0`, the limit default probability at
    eps = 0 with departures on, is positive) and `target_at`, the psi target
    mean_N minus departures.  Each segment's departure mass and target are
    these rules read at the segment's midpoint.
    """

    segs: tuple[_Segment, ...]
    eps_bar_1: float
    p0: float
    mean_L: float
    mean_N: float

    def departures_at(self, eps: float) -> float:
        """Departure mass at eps: mean_L wherever defaults occur, else 0."""
        active = eps < 1.0 and (eps > self.eps_bar_1 or self.p0 > 0.0)
        return self.mean_L if active else 0.0

    def target_at(self, eps: float) -> float:
        """The psi relaxation target at eps: arrivals minus departures."""
        return self.mean_N - self.departures_at(eps)


def _flow_table(params: MarketParams, dyn: DynamicsParams, mean_L: float) -> _FlowTable:
    if dyn.mean_N <= 0:
        raise ParamError("mean_N: the population flow needs a positive arrival mean")
    th = thresholds(params, check=False)
    beta, k1 = drift_rates(params, dyn)
    e1, eb = th.eps_bar_1, th.eps_bar
    p0 = clearing_limit(params, 0.0).p_d if mean_L > 0 else 0.0
    table = _FlowTable((), e1, p0, mean_L, dyn.mean_N)  # segs come from its rules
    edges = [0.0] + sorted(e for e in {e1, eb} if 0.0 < e < 1.0) + [1.0]
    segs = []
    for lo, hi in zip(edges, edges[1:]):
        kappa = k1 if hi <= eb else beta
        mid = 0.5 * (lo + hi)
        e_dep, a = table.departures_at(mid), table.target_at(mid)
        if a <= 0:
            raise ParamError("mean_L: departures must stay below arrivals for the flow")
        if kappa != 0.0 and kappa + e_dep == 0.0:
            raise DegenerateFlowError(
                f"flow interval [{lo:g}, {hi:g}] has logistic midpoint mu = 0")
        segs.append(_Segment(lo, hi, kappa, e_dep, a))
    return _FlowTable(tuple(segs), e1, p0, mean_L, dyn.mean_N)


def _psi_after(a: float, psi0: float, dt: float) -> float:
    if 1024.0 * psi0 < a:  # psi0 - a would round away psi0's low bits: take a cancel-free form
        return psi0 * math.exp(-dt) - a * math.expm1(-dt)
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
    mu = seg.mu
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
    """Segment owning eps plus flow direction; None when held at 0, at 1 or pinned."""
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
        mu = seg.mu
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


def _itinerary(table: _FlowTable, eps0: float, psi0: float) -> tuple[_Leg, ...]:
    """The legs of the flow from (eps0, psi0), each crossing time solved once.

    Crossing times do not depend on any horizon, so one walk serves every t;
    the last leg lasts forever: held, or moving toward an edge it never reaches.
    """
    legs = []
    eps, psi, now = eps0, psi0, 0.0
    for _ in range(_MAX_TRANSITIONS + 1):
        located = _locate(table.segs, eps)
        if located is None or located[1] == 0.0:  # absorbed, pinned or balanced
            pinned = located is None and 0.0 < eps < 1.0
            legs.append(_Leg(now, eps, psi, None, table.target_at(eps), pinned))
            return tuple(legs)
        seg, direction = located
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
    return _itinerary(_flow_table(params, dyn, mean_L), eps0, psi0)


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


def _round_clocks(n0: int, ends: Iterable[int]) -> Iterator[float]:
    """Exactly rounded clock after each of the non-decreasing `ends` rounds, lazily.

    Round j adds 1/(j + n0).  `math.fsum` (Shewchuk's exact partials) reads each stretch
    from a float64 buffer reaching at least twice the rounds summed before it; the rest
    of a total is carried, and certified exact by a third `fsum`, once a later end needs it.
    """
    hi = lo = 0.0
    done = base = top = 0  # rounds summed so far; buf[i] is the term of round base + i + 1
    for end in ends:
        if end > done:
            if done:  # carry the rest of hi, now that a later end needs it
                part = part or [*buf[:done]]  # the parts hi was summed from
                part.append(-hi)
                lo = math.fsum(part)
                part.append(-lo)
                if math.fsum(part) != 0.0:
                    raise SolverError(f"clock sum {hi!r} not exact in two floats")
            if end > top:
                base, top = done, max(end, 2 * done)
                buf = memoryview(1.0 / np.arange(n0 + base + 1, n0 + top + 1, dtype=float))
            part = [hi, lo, *buf[done - base:end - base]] if done else None  # None: buf[:end]
            hi = math.fsum(part or buf[:end])
            done = end
        elif end < done:
            raise ParamError(f"ends: round {end!r} comes before round {done}")
        yield hi


def round_clock(n0: int, rounds: int) -> float:
    """Flow time after `rounds` rounds of a run that started from n0 agents."""
    require_count("rounds", rounds)
    return next(_round_clocks(n0, (rounds,)))


def flow_at_rounds(params: MarketParams, dyn: DynamicsParams, eps0: float, psi0: float,
                   mean_L: float, first: int, ends: Iterable[int]) -> Iterator[OdeState]:
    """The closed flow from (eps0, psi0) at round `first`, at each round of `ends`.

    One itinerary and one clock pass give the state at clock(end) - clock(first)
    for each end, lazily; `ends` must not fall below `first` or decrease.
    """
    require_count("first", first)
    legs = _flow_legs(params, dyn, eps0, psi0, mean_L)
    clock = _round_clocks(dyn.n0, chain((first,), ends))
    start = next(clock)
    return (_state_at(legs, total - start) for total in clock)


def flow_path(params: MarketParams, dyn: DynamicsParams, eps0: float, psi0: float,
              mean_L: float, first: int, ends: Iterable[int]) -> list[OdeState]:
    """All of `flow_at_rounds`, bit for bit, in two loops, the clock and then the states:
    for a caller that reads every state (one that may stop early keeps the lazy pass)."""
    require_count("first", first)
    legs = _flow_legs(params, dyn, eps0, psi0, mean_L)
    start, *clock = _round_clocks(dyn.n0, chain((first,), ends))
    return [_state_at(legs, total - start) for total in clock]


def finite_round_estimate(params: MarketParams, dyn: DynamicsParams, eps0: float,
                          l: int, k: int) -> float:
    """Predicted risk-free fraction after rounds l+1..l+k, via the flow clock.

    The departure-free flow from a unit population rate: `flow_at_rounds` with one end.
    """
    require_count("l", l)
    require_count("k", k)
    return next(flow_at_rounds(params, dyn, eps0, 1.0, 0.0, l, (l + k,))).eps


# RK4's step cap: a hundred times criterion 3's 10 000 steps (step 1e-3 to flow time 10)
_MAX_RK4_STEPS = 10**6


def ode_numeric(params: MarketParams, dyn: DynamicsParams, eps0: float, psi0: float,
                horizon: float, step: float) -> Trajectory:
    """Fixed-step RK4 integration of the flow, one threshold segment per step.

    Independent of the closed form: it shares only the flow table, `_locate`
    and `_psi_after`.  Each step integrates the fixed field (kappa, departure
    mass and psi target) of the segment `_locate` names, so no step evaluates
    two segments' fields.  A step whose end reaches that segment's edge in
    the flow's direction is cut by bisection on its length and lands on the
    edge.  `_locate` then picks the next segment, or the flow is held there:
    pinned at an interior threshold, its rows then `pinned`, or absorbed at 0
    or 1.  A held flow's psi relaxes in closed form.  Records one `OdeState`
    per step.  A step that ends behind the flow, off its segment or at NaN,
    or whose population rate leaves (0, inf), raises a `step:` ParamError, as
    does a step that needs more than `_MAX_RK4_STEPS` steps to the horizon, before
    the first step.  Within that cap every step moves the flow time.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ParamError(f"step: must be finite and positive, got {step!r}")
    if not (math.isfinite(horizon) and horizon >= 0.0):
        raise ParamError(f"horizon: flow time must be finite and non-negative, got {horizon!r}")
    if horizon / step > _MAX_RK4_STEPS:
        raise ParamError(f"step: {step!r} needs more than {_MAX_RK4_STEPS} steps to flow time "
                         f"{horizon!r}")
    _check_start(eps0, psi0)
    table = _flow_table(params, dyn, dyn.mean_L)

    def rk4(seg: _Segment, eps: float, psi: float, h: float) -> tuple[float, float]:
        a = seg.a
        p2 = psi + 0.5 * h * (a - psi)
        p3 = psi + 0.5 * h * (a - p2)
        p4 = psi + h * (a - p3)
        p_end = psi + h / 6.0 * ((a - psi) + 2 * (a - p2) + 2 * (a - p3) + (a - p4))
        if not min(p2, p3, p4, p_end) > 0.0:
            raise ParamError("step: population rate left (0, inf); reduce the step size")
        a1 = seg.drift(eps) / psi
        a2 = seg.drift(eps + 0.5 * h * a1) / p2
        a3 = seg.drift(eps + 0.5 * h * a2) / p3
        a4 = seg.drift(eps + h * a3) / p4
        return eps + h / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4), p_end

    def settle(eps: float) -> tuple[tuple[_Segment, float] | None, bool, float]:
        """(segment, direction) the flow takes from eps, None if held there; pinned; target."""
        located = _locate(table.segs, eps)
        return located, located is None and 0.0 < eps < 1.0, table.target_at(eps)

    records = [OdeState(eps0, psi0, 0.0)]
    eps, psi, now = eps0, psi0, 0.0
    located, pinned, held_a = settle(eps)
    while now < horizon - 1e-15:
        h = min(step, horizon - now)
        if located is None:
            psi = _psi_after(held_a, psi, h)
        else:
            seg, direction = located
            up = direction > 0.0
            edge = seg.hi if up else seg.lo
            e2, p2 = rk4(seg, eps, psi, h)
            if (e2 >= edge) if up else (e2 <= edge):  # cut the step to land on the edge
                lo_t, hi_t = 0.0, h
                while hi_t - lo_t > 1e-12:
                    mid = 0.5 * (lo_t + hi_t)
                    em = rk4(seg, eps, psi, mid)[0]
                    if (em >= edge) if up else (em <= edge):
                        hi_t = mid
                    else:
                        lo_t = mid
                h, eps, psi = hi_t, edge, rk4(seg, eps, psi, hi_t)[1]
                located, pinned, held_a = settle(edge)
            elif seg.lo <= e2 <= seg.hi and ((e2 >= eps) if up else (e2 <= eps)):
                eps, psi = e2, p2
            else:
                raise ParamError("step: RK4 ended behind the flow or off its segment; "
                                 "reduce the step size")
        now += h
        records.append(OdeState(eps, psi, now, pinned))
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


def classify_attractors(params: MarketParams, dyn: DynamicsParams) -> AttractorReport:
    """Partition eps0 into basins and name each basin's limit point.

    Basins are cut at interior thresholds and repelling logistic midpoints; a
    basin's limit is read off the last leg of the itinerary from its midpoint.
    """
    beta, kappa_below = drift_rates(params, dyn)
    if beta == 0.0:
        raise ParamError("beta: zero net drift admits no attractor classification")
    mean_L = dyn.mean_L
    table = _flow_table(params, dyn, mean_L)

    cuts = {s.lo for s in table.segs if 0.0 < s.lo < 1.0}
    for s in table.segs:
        if s.kappa < 0.0 and s.lo < s.mu < s.hi:  # interior balance point: a repeller
            cuts.add(s.mu)
    bounds = [0.0] + sorted(cuts) + [1.0]

    merged: list[list] = []  # [lo, hi, (eps*, psi*, pinned)]
    for lo, hi in zip(bounds, bounds[1:]):
        last = _itinerary(table, 0.5 * (lo + hi), 1.0)[-1]
        if last.seg is None:  # held: its own limit
            term = (last.eps, last.a, last.pinned)
        else:  # still moving: it only tends to the edge ahead, at that edge's target
            edge = last.seg.hi if last.seg.drift(last.eps) > 0.0 else last.seg.lo
            term = (edge, table.target_at(edge), False)
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
    """`avg_limit`'s report, with the delta->1 closed form (r_b - r̄)/(r̄ - r_s)."""

    limit: float
    case: str
    applies: bool
    delta1_closed_form: float | None = None


def avg_limit(params: MarketParams) -> AvgLimit:
    """Limit of the averaging dynamics, from the sign profile of the return gap.

    This is the one reader of that profile: `mean_return_gap` (r1 - E[r2])
    at eps = i/400, i = 1..399.  The covered cases (`applies` True) are
    all-risky (negative everywhere, limit 0), all-safe (positive everywhere,
    limit 1) and interior (positive, then one sign change and never positive
    again; the limit is where the gap first turns <= 0, bisected between the
    scan points around the change).  A gap of exactly 0 means both groups earn
    the same limit return (where seen, all of them 0), so each fraction of a
    stretch of zeros is a rest point of the averaging dynamics and none
    attracts: such a stretch fits no case unless it follows an interior
    change.  Any other profile is `unclassified`, and its best-effort limit is
    the last scan point before the first sign change (0 if the gap is all 0).
    """
    r_bar = params.u * params.delta + params.d * (1 - params.delta)
    closed = (params.r_b - r_bar) / (r_bar - params.r_s) if r_bar > params.r_s else None

    grid = [i / 400.0 for i in range(1, 400)]
    signs = [(g > 0.0) - (g < 0.0) for g in (mean_return_gap(params, e) for e in grid)]
    if all(s < 0 for s in signs):
        return AvgLimit(0.0, "all-risky", True, closed)
    if all(s > 0 for s in signs):
        return AvgLimit(1.0, "all-safe", True, closed)
    changes = [i for i in range(len(signs) - 1) if signs[i] != signs[i + 1]]
    if len(changes) == 1 and signs[changes[0]] > 0:
        limit = _bisect_step(lambda e: mean_return_gap(params, e) <= 0.0,
                             grid[changes[0]], grid[changes[0] + 1])
        return AvgLimit(limit, "interior", True, closed)
    return AvgLimit(grid[changes[0]] if changes else 0.0, "unclassified", False, closed)
