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
count-level Monte-Carlo round calls it, and nothing clears that graph agent
by agent.

`solve_clearing` clears a sampled graph, agent by agent: it iterates
T(X) = clip(b + N X, 0, y), b = k - v, N = sig2 * A >= 0.  Where every b > 0,
T has one fixed point X* (Eisenberg & Noe 2001): for fixed points X1 >= X2,
u = X1 - X2 satisfies u <= N_SS u on S = {X1 > X2} and vanishes off it, while
X2 >= b > 0 pays part of y on S, so N_SS X2 <= X2 - b < X2 there; by
Collatz-Wielandt rho(N_SS) < 1, and u = 0.  With eps = 1e-10, a residual
|T(X) - X| <= eps * min(b, y) / (1 + eps) in every row makes (1 - eps) X a
subsolution of the monotone T and U = min((1 + eps) X, y) a supersolution, so
(1 - eps) X <= X* <= U <= (1 + eps) / (1 - eps) * X*: the solve returns U.  That
tolerance, less twice a bound on the float residual's rounding, must keep half
its size in every row (eps * b well above y's float spacing), or the round is
solved like one with some b <= 0.  Until the stop, each sweep also takes the
Sherman-Morrison step of N's rank-one mean part nu 11^T, nu = sig2 * links /
(n2 (n2 - 1)), on the partial payers D: X <- T(X) + nu * sum_D r / (1 - nu |D|)
there, r = T(X) - X, until one such step fails to shrink max |r|; plain sweeps
reach a unique fixed point from any start.  Every other round sweeps from
X_0 = y until no payment moves by more than 1e-10 * y; each sweep keeps
X_k >= T(X_k) >= X* for every fixed point X* <= y, so they fall monotonely onto
the greatest one.  Each sweep sums the payments over the peer edges alone (one
`np.bincount`), and risk-free claims are summed once from the final payments.
A borrower defaults when it pays less than y * (1 - 1e-9) (`defaulted`);
surpluses come from `surpluses`.
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
_SPARSE_TOL = 1e-10    # sparse stop: the enclosure's eps, or the last step relative to y
_SPARSE_CAP = 100_000  # sparse map evaluations allowed before giving up
_DEFAULT_TOL = 1e-9    # a borrower paying short of y by more than this share defaults


@dataclass(frozen=True)
class ClearingResult:
    X: np.ndarray        # (n2,) payments, each in [0, y]
    iterations: int      # map evaluations (peer sums); 0 when nobody borrows
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


def _sampled_clearing(peers: Edges, k: np.ndarray, v: float, sig2: float,
                      y: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Greatest fixed point of X = clip(k + sig2 * A X - v, 0, y) on a sampled graph.

    A is the peer edge list's (creditor, borrower) indicator and sig2 the share of
    a payment that each linked peer receives (the module docstring has both solves).
    Returns the payments, their peer claims per borrower, and the map evaluations.
    """
    n2 = len(k)
    # the edges are sorted by borrower, so repeating each payment by its borrower's
    # out-degree lays it along the edges, more cheaply than the gather X[peers.borrower]
    out_degree = np.bincount(peers.borrower, minlength=n2)

    def owed(X: np.ndarray) -> np.ndarray:
        return sig2 * np.bincount(peers.creditor, weights=np.repeat(X, out_degree), minlength=n2)

    X, new, pre, r, h = (np.full(n2, y), *(np.empty(n2) for _ in range(4)))
    owed_in = owed(X)  # at X = y: it bounds every later peer sum
    b = k - v
    # with d peer debtors a row's float residual errs by at most (d + 3) u (b + owed_in), d + 1
    # roundings in b + N X and two in the residual: leave twice that, and ask as much again
    debtors = owed_in / (sig2 * y) if sig2 > 0.0 else 0.0
    slack = (debtors + 3.0) * (sys.float_info.epsilon / 2) * (b + owed_in)
    room = np.minimum(b, y) * (_SPARSE_TOL / (1.0 + _SPARSE_TOL)) - 2.0 * slack
    certified = bool((b > 0.0).all() and (room >= 2.0 * slack).all())
    tol = room if certified else _SPARSE_TOL * y
    nu = sig2 * len(peers.borrower) / max(n2 * (n2 - 1), 1)  # the peer map's mean entry
    flags = np.empty(n2, dtype=bool)
    correct, last = certified, np.inf
    for iterations in range(1, _SPARSE_CAP + 1):
        np.add(b if certified else k, owed_in, out=pre)  # b first keeps a small b's digits
        if not certified:
            pre -= v  # the plain sweeps' order, (k + claims) - v
        np.clip(pre, 0.0, y, out=new)
        np.subtract(new, X, out=r)
        np.abs(r, out=h)
        if np.less_equal(h, tol, out=flags).all():
            break  # keep X: its residual is the one just measured
        if correct:  # go on while corrected steps shrink the residual and 1 - nu |D| > 0
            step = float(h.max())
            np.less(pre, y, out=flags)  # the partial payers D, where the map is linear
            scale = 1.0 - nu * np.count_nonzero(flags)
            correct, last = step < last and scale > 0.0, step
        X, new = new, X
        if correct:
            np.add(X, nu / scale * r.sum(where=flags), out=X, where=flags)
            np.clip(X, 0.0, y, out=X)  # the enclosure needs 0 <= X <= y
        owed_in = owed(X)
    else:
        raise SolverError(f"sparse clearing: no fixed point within {_SPARSE_CAP} map evaluations")
    if certified:  # the enclosure's top, and its claims
        np.minimum(X * (1.0 + _SPARSE_TOL), y, out=X)
        return X, owed(X), iterations + 1
    return X, owed_in, iterations


def solve_clearing(graph: LiabilityGraph, shocks: ShockVector,
                   params: MarketParams) -> ClearingResult:
    """Greatest clearing vector of a sampled graph, and each agent's claims."""
    n1, n2, y = graph.n1, graph.n2, graph.y
    if n2 == 0 or y <= 0.0:
        return ClearingResult(X=np.zeros(n2), iterations=0, claims=np.zeros(graph.n))
    X, owed_in, iterations = _sampled_clearing(graph.peers, shocks.k, params.v, graph.w_g2 / y, y)
    safe = graph.safe
    safe_in = graph.w_g1 / y * np.bincount(safe.creditor, weights=X[safe.borrower], minlength=n1)
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
