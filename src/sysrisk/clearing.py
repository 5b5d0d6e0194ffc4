"""Clearing payments on a finite round network, and the realized returns.

Each risky borrower owes y in total; what it can actually pay depends on its
shock draw and on what it receives from other borrowers, giving the fixed point

    X_i = min( (K_i + claims_i(X) - v)+ , y ),   claims_i = sum_j X_j L_ji / y.

The map is monotone and piecewise linear; the clearing vector is its greatest
fixed point (Eisenberg & Noe 2001).  On the complete graph all up-shocked
agents stay interchangeable (likewise down-shocked) and see the same total
payment T, so each class pays a closed form of T, and T is the greatest fixed
point of one scalar piecewise-linear map (`class_fixed_point`, shared with the
large-network limit in `analytic`).  `class_clearing` sets it up from the
class sizes and certifies each class's own residual, not just T's; the
count-level Monte-Carlo round calls it directly, and `solve_clearing` spreads
its answer over the agents.

Sampled graphs sweep the map from full payment, X_0 = y, until no payment
moves by more than 1e-10 * y.  From above, each sweep keeps the invariant
X_k >= T(X_k) >= X* for every fixed point X* <= y, so the sweeps fall
monotonely onto the greatest one.  After every two sweeps a certified jump
(`_certified_jump`) moves X further down along the last step, by a lower
bound on the distance still to fall: on the rows where the map stays linear
each later step is at least r times the one before, r the least ratio of the
last two steps, so X - X* >= r / (1 - r) times the last step there, and the
jump keeps the invariant.  Rows with k < v may still clip at 0, so a jump
waits until those rows stop moving.  As only risky agents owe, each sweep
sums the payments over the peer edges alone (one `np.bincount` over the edge
list), and risk-free claims are summed once over the risk-free edges from the
final payments.  A borrower defaults when it pays less than y * (1 - 1e-9)
(`defaulted`); surpluses come from `surpluses`.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import MarketParams, SolverError
from .netgen import Edges, LiabilityGraph, ShockVector

_SLACK = 1e-12         # residual tolerance relative to y per unit weight; also the slope-1 cutoff
_ROUNDING = 4 * sys.float_info.epsilon  # a level this small, relative to its terms, is zero
_SPARSE_TOL = 1e-10    # sparse sweeps stop once no payment moves more, relative to y
_SPARSE_CAP = 100_000  # sparse sweeps allowed before giving up
_DEFAULT_TOL = 1e-9    # a borrower paying short of y by more than this share defaults


@dataclass(frozen=True)
class ClearingResult:
    X: np.ndarray        # (n2,) payments, each in [0, y]
    iterations: int      # map evaluations (sweeps; jumps are free) on a sampled graph;
                         # 1 on the complete graph (one exact solve)
    claims: np.ndarray   # (n,) received amounts per agent


@dataclass(frozen=True)
class ReturnsVector:
    r: np.ndarray         # (n,) surpluses, risk-free agents first, as agents are indexed
    n1: int
    defaults: np.ndarray  # local borrower indices paying short of y

    @property
    def r1(self) -> np.ndarray:
        """(n1,) risk-free surpluses."""
        return self.r[:self.n1]

    @property
    def r2(self) -> np.ndarray:
        """(n2,) risky surpluses."""
        return self.r[self.n1:]


class DefaultStats(NamedTuple):
    count: int
    fraction: float
    degenerate: bool = False


def class_fixed_point(weights: tuple[float, float], offsets: tuple[float, float],
                      slope: float, y: float, share: float = 0.0) -> float:
    """Greatest T with T = sum_c w_c * clip(a_c + slope * T, 0, y) over classes c = u, d.

    For w_c, slope >= 0 the map is monotone and piecewise linear, with kinks
    where a class starts or stops paying part of y.  Its pieces are scanned from
    T = y * (w_u + w_d) down; a piece offers its fixed point, clipped to it, or
    its top if its slope is 1, and the first offer the map reproduces to within
    1e-12 * y per unit weight is returned, else SolverError.  An offer must also
    keep share * |map(T) - T| within 1e-12 * y: with `share` the complete graph's
    sig2, that bounds each class member's own residual.  A residual cannot judge
    a slope-1 piece: where every class with weight pays, map(T) - T <= level,
    so a level below zero beyond rounding starts the scan where one stops.
    """
    (w_u, w_d), (a_u, a_d) = weights, offsets
    top = head = y * (w_u + w_d)
    level = w_u * a_u + w_d * a_d  # the map is T + level where both classes pay part of y
    if (abs(1.0 - (w_u * slope + w_d * slope)) <= _SLACK  # ... if its slope there is 1
            and level < -_ROUNDING * (w_u * abs(a_u) + w_d * abs(a_d))):
        low = min(a_u, a_d) if w_u > 0.0 < w_d else a_u if w_u > 0.0 else a_d
        head = min(top, -low / slope)  # above it every class with weight pays
    kinks = [t for t in (-a_u / slope, (y - a_u) / slope, -a_d / slope, (y - a_d) / slope)
             if 0.0 < t < head] if slope > 0.0 else []
    knots = [head, *sorted(kinks, reverse=True), 0.0]
    for hi, lo in zip(knots, knots[1:]):
        # a class pays y, 0 or part of y (so does a NaN, which then fails the check)
        mid = 0.5 * (lo + hi)
        pay_u, pay_d = a_u + slope * mid, a_d + slope * mid
        gain = ((0.0 if pay_u >= y or pay_u <= 0.0 else w_u * slope)  # the map's slope at mid
                + (0.0 if pay_d >= y or pay_d <= 0.0 else w_d * slope))
        if abs(1.0 - gain) <= _SLACK:  # all or none of the piece is fixed
            t = hi
        else:  # the piece is the line level + gain * T; clip its fixed point to it
            t = ((w_u * y if pay_u >= y else 0.0 if pay_u <= 0.0 else w_u * pay_u)
                 + (w_d * y if pay_d >= y else 0.0 if pay_d <= 0.0 else w_d * pay_d)
                 - gain * mid) / (1.0 - gain)
            t = lo if lo > t else hi if hi < t else t  # min(max(t, lo), hi), NaN kept
        pay_u, pay_d = a_u + slope * t, a_d + slope * t
        miss = abs((w_u * y if pay_u >= y else 0.0 if pay_u <= 0.0 else w_u * pay_u)
                   + (w_d * y if pay_d >= y else 0.0 if pay_d <= 0.0 else w_d * pay_d) - t)
        if miss <= _SLACK * top and share * miss <= _SLACK * y:
            return t
    raise SolverError(f"class clearing: no piece passes the residual check "
                      f"(weights={weights}, offsets={offsets}, slope={slope}, y={y})")


class ClassClearing(NamedTuple):
    """Complete-graph clearing by shock class: what each class pays and receives."""

    x_u: float           # payment of each up-shocked borrower
    x_d: float           # payment of each down-shocked borrower
    claims_safe: float   # received by each risk-free agent
    claims_u: float      # received by each up-shocked borrower
    claims_d: float      # received by each down-shocked borrower


def class_clearing(y: float, w_g1: float, w_g2: float, n_u: int, n_d: int,
                   b_u: float, b_d: float) -> ClassClearing:
    """Greatest clearing on the complete graph, from the two class sizes alone.

    The n_u up- and n_d down-shocked borrowers (net proceeds b_c = k_c - v) pay
    as two classes; each creditor gets the share w/y of every payment it is
    owed but its own.  Out of a total payment T, a class-c borrower pays
    x_c = clip(b_c + sig2 * (T - x_c), 0, y) = clip((b_c + sig2 * T) / (1 + sig2), 0, y).
    """
    sig2 = w_g2 / y
    slope = sig2 / (1.0 + sig2)
    a_u, a_d = b_u / (1.0 + sig2), b_d / (1.0 + sig2)
    t = class_fixed_point((n_u, n_d), (a_u, a_d), slope, y, sig2)
    x_u, x_d = min(max(a_u + slope * t, 0.0), y), min(max(a_d + slope * t, 0.0), y)
    total = n_u * x_u + n_d * x_d
    return ClassClearing(x_u, x_d, w_g1 / y * total, sig2 * (total - x_u), sig2 * (total - x_d))


def _sweep_from_above(peers: Edges, k: np.ndarray, v: float, sig2: float,
                      y: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Greatest fixed point of X = clip(k + sig2 * A X - v, 0, y) on a sampled graph.

    A is the peer edge list's (creditor, borrower) indicator and sig2 the share
    of a payment that each linked peer receives.  Sweeps run from X = y with a
    certified jump after every two (`_certified_jump`); returns the payments,
    what each borrower receives from its peers at them, and the number of map
    evaluations.
    """
    n2 = len(k)
    # the edges are sorted by borrower, so repeating each payment by its borrower's
    # out-degree lays it along the edges, more cheaply than the gather X[peers.borrower]
    out_degree = np.bincount(peers.borrower, minlength=n2)
    never_zero = k >= v  # rows whose pre-clip value stays >= 0 for every X >= 0
    X, new, pre, g, h = (np.full(n2, y), *(np.empty(n2) for _ in range(4)))
    linear, below_y = np.empty(n2, dtype=bool), np.empty(n2, dtype=bool)
    for iterations in range(1, _SPARSE_CAP + 1):
        owed_in = sig2 * np.bincount(peers.creditor, weights=np.repeat(X, out_degree),
                                     minlength=n2)
        np.add(k, owed_in, out=pre)
        pre -= v
        np.clip(pre, 0.0, y, out=new)
        np.subtract(X, new, out=h)
        if np.abs(h).max() <= _SPARSE_TOL * y:
            break  # keep X: its residual is the one just measured
        X, new = new, X
        np.less_equal(pre, y, out=below_y)
        if iterations % 2:  # the first sweep of a pair: keep its step
            g, h = h, g
            np.logical_and(never_zero, below_y, out=linear)
        else:
            linear &= below_y
            _certified_jump(X, g, h, linear, new)  # new holds the spent X
    else:
        raise SolverError(f"sparse clearing: no fixed point within {_SPARSE_CAP} sweeps")
    return X, owed_in, iterations


def _certified_jump(X: np.ndarray, g: np.ndarray, h: np.ndarray, linear: np.ndarray,
                    scratch: np.ndarray) -> None:
    """Move X = X_{k+2} down toward the greatest fixed point, never past it.

    g = X_k - X_{k+1} and h = X_{k+1} - X_{k+2} are two consecutive sweep
    steps from above, and on the rows R of `linear` (k >= v, pre-clip value
    <= y in both sweeps) the map stays linear, X -> b + N X with N >= 0, for
    every X below X_{k+1}.  If g vanishes off R, then N g = h on R; with r the
    least ratio h_i / g_i over the rows of R where g > 0, h >= r g gives
    N^m h >= r^m h (Collatz-Wielandt), so X_{k+2} - X* >= r / (1 - r) * h on R
    for every fixed point X* <= y.  Subtracting that keeps X above X* and its
    sweeps monotone.  `scratch` is overwritten: with no float temporaries the
    sampled rounds' peak memory stays at the plain sweeps' level.
    """
    if np.any(g, where=~linear):
        return
    moving = linear & (g > 0.0)
    np.divide(h, g, out=scratch, where=moving)
    r = float(scratch.min(where=moving, initial=np.inf))
    if not 0.0 < r < 1.0:
        return
    np.multiply(g, r, out=scratch)
    if np.any(h < scratch, where=linear):
        return
    np.multiply(h, r / (1.0 - r), out=scratch)
    np.subtract(X, scratch, out=X, where=linear)


def solve_clearing(graph: LiabilityGraph, shocks: ShockVector,
                   params: MarketParams) -> ClearingResult:
    """Greatest clearing vector: exact on the complete graph, iterated on sampled ones."""
    n1, n2, n, y = graph.n1, graph.n2, graph.n, graph.y
    if n2 == 0 or y <= 0.0:
        return ClearingResult(X=np.zeros(n2), iterations=0, claims=np.zeros(n))
    v = params.v

    if graph.peers is None:
        n_u = int(shocks.up.sum())
        cc = class_clearing(y, graph.w_g1, graph.w_g2, n_u, n2 - n_u,
                            shocks.k_u - v, shocks.k_d - v)
        X = np.where(shocks.up, cc.x_u, cc.x_d)
        safe_in = np.full(n1, cc.claims_safe)
        owed_in = np.where(shocks.up, cc.claims_u, cc.claims_d)
        iterations = 1
    else:
        X, owed_in, iterations = _sweep_from_above(graph.peers, shocks.k, v, graph.w_g2 / y, y)
        safe = graph.safe
        safe_in = graph.w_g1 / y * np.bincount(safe.creditor, weights=X[safe.borrower],
                                               minlength=n1)
    return ClearingResult(X=X, iterations=iterations, claims=np.concatenate([safe_in, owed_in]))


def defaulted(X, y: float):
    """Whether each payment (a scalar or an array) falls short of y: a default."""
    return X < y * (1.0 - _DEFAULT_TOL)


def surpluses(params: MarketParams, eps: float, y: float, claims_safe, *risky):
    """Risk-free and risky surpluses after clearing, clamped at limited liability.

    A risk-free agent earns its endowment's return plus its claims, a risky one
    its proceeds `k` plus its claims less its debt y; both pay v first.  Returns
    the risk-free surplus, then one per (k, claims) pair of `risky`.  Takes arrays,
    one entry per agent, or floats, one per class, which `max` clamps cheaply.
    """
    v = params.v
    clamp = np.maximum if isinstance(claims_safe, np.ndarray) else max
    return (clamp(params.w * eps * (1 + params.r_s) + claims_safe - v, 0.0),
            *[clamp(k + claims - v - y, 0.0) for k, claims in risky])


def compute_returns(graph: LiabilityGraph, clearing: ClearingResult,
                    shocks: ShockVector, params: MarketParams) -> ReturnsVector:
    """Per-agent surpluses after clearing, clamped at limited liability."""
    n1 = graph.n1
    r1, r2 = surpluses(params, graph.eps, graph.y, clearing.claims[:n1],
                       (shocks.k, clearing.claims[n1:]))
    defaults = np.flatnonzero(defaulted(clearing.X, graph.y))
    return ReturnsVector(r=np.concatenate([r1, r2]), n1=n1, defaults=defaults)


def default_stats(clearing: ClearingResult, y: float) -> DefaultStats:
    """Count and fraction of borrowers paying short, per risky agent."""
    n2 = len(clearing.X)
    if n2 == 0:
        return DefaultStats(count=0, fraction=0.0, degenerate=True)
    count = int(defaulted(clearing.X, y).sum())
    return DefaultStats(count=count, fraction=count / n2)
