"""Clearing payments on a finite round network, and the realized returns.

Each risky borrower owes y in total; what it can actually pay depends on its
shock draw and on what it receives from other borrowers, giving the fixed point

    X_i = min( (K_i + claims_i(X) - v)+ , y ),   claims_i = sum_j X_j L_ji / y.

The map is monotone and piecewise linear; the clearing vector is its greatest
fixed point.  On the complete graph all up-shocked agents stay interchangeable
(likewise down-shocked), so there are two unknowns, solved exactly regime by
regime (Eisenberg & Noe 2001), as is the same two-class problem of the
large-network limit in `analytic`.  `class_clearing` builds that two-class
system from the class sizes alone and returns each class's payment and
claims: the count-level Monte-Carlo round on the complete graph calls it
directly, and `solve_clearing` spreads its answer over the agents.  Sampled
graphs iterate the map from full payment until no payment moves by more than
1e-10 * y; as only risky agents owe, each sweep sums the payments over the
peer edges alone (one `np.bincount` over the edge list), and risk-free
claims are summed once over the risk-free edges from the final payments.  A
borrower defaults when it pays less than y * (1 - 1e-9) (`defaulted`).  Both
engines take surpluses from one helper, `surpluses`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import MarketParams, SolverError
from .netgen import LiabilityGraph, ShockVector

_SLACK = 1e-12         # residual tolerance relative to y; also the singular-system cutoff
_SPARSE_TOL = 1e-10    # sparse sweeps stop once no payment moves more, relative to y
_SPARSE_CAP = 100_000  # sparse sweeps allowed before giving up
_DEFAULT_TOL = 1e-9    # a borrower paying short of y by more than this share defaults


@dataclass(frozen=True)
class ClearingResult:
    X: np.ndarray        # (n2,) payments, each in [0, y]
    iterations: int      # linear systems solved (complete graph) or sweeps (sampled)
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


def two_class_clearing(b: tuple[float, float],
                       m: tuple[tuple[float, float], tuple[float, float]],
                       y: float) -> tuple[float, float, int]:
    """Greatest (x_u, x_d) in [0, y]^2 with x_i = clip(b_i + sum_j m_ij x_j, 0, y).

    `m` is non-negative, so the map is monotone and has a greatest fixed point.
    Each class pays 0, y, or the part that solves its row of x = b + m x; the
    nine regime assignments are solved by Cramer's rule, and the greatest
    solution the map reproduces to within 1e-12 * y is returned with the count
    of systems solved.  Raises SolverError if no solution passes that check.
    """
    (m_uu, m_ud), (m_du, m_dd), (b_u, b_d) = *m, b
    slack, best, solves = _SLACK * y, None, 0
    # each class's equation (a . x = r) when it pays 0, part, or y
    eqs_u = ((1.0, 0.0, 0.0), (1.0 - m_uu, -m_ud, b_u), (1.0, 0.0, y))
    eqs_d = ((0.0, 1.0, 0.0), (-m_du, 1.0 - m_dd, b_d), (0.0, 1.0, y))
    for (a_uu, a_ud, r_u), (a_du, a_dd, r_d) in itertools.product(eqs_u, eqs_d):
        det = a_uu * a_dd - a_ud * a_du
        if abs(det) <= _SLACK:  # singular (c = 1 at eps = 0): no solution or a
            continue            # line of them, whose ends other regimes reach
        solves += 1
        x_u = min(max((r_u * a_dd - a_ud * r_d) / det, 0.0), y)
        x_d = min(max((a_uu * r_d - a_du * r_u) / det, 0.0), y)
        if (abs(min(max(b_u + m_uu * x_u + m_ud * x_d, 0.0), y) - x_u) <= slack
                and abs(min(max(b_d + m_du * x_u + m_dd * x_d, 0.0), y) - x_d) <= slack
                and (best is None or x_u + x_d > best[0] + best[1])):
            best = (x_u, x_d)
    if best is None:
        raise SolverError(f"two-class clearing: no regime passes the residual check "
                          f"(b={b}, m={m}, y={y})")
    return best[0], best[1], solves


class ClassClearing(NamedTuple):
    """Complete-graph clearing by shock class: what each class pays and receives."""

    x_u: float           # payment of each up-shocked borrower
    x_d: float           # payment of each down-shocked borrower
    claims_safe: float   # received by each risk-free agent
    claims_u: float      # received by each up-shocked borrower
    claims_d: float      # received by each down-shocked borrower
    solves: int          # linear systems solved


def class_clearing(graph: LiabilityGraph, n_u: int, k_u: float, k_d: float,
                   v: float) -> ClassClearing:
    """Greatest clearing on the complete graph, from the size of the up class alone.

    The n_u up-shocked and n2 - n_u down-shocked borrowers each pay as one
    class, and every creditor receives the same share of every payment it is
    owed, except its own.
    """
    y = graph.y
    if y <= 0.0:  # nothing is owed
        return ClassClearing(0.0, 0.0, 0.0, 0.0, 0.0, 0)
    sig2 = graph.w_g2 / y
    n_d = graph.n2 - n_u
    # an empty shock class is dropped: zero its row, and its column is zero already
    row_u = (sig2 * (n_u - 1), sig2 * n_d) if n_u else (0.0, 0.0)
    row_d = (sig2 * n_u, sig2 * (n_d - 1)) if n_d else (0.0, 0.0)
    x_u, x_d, solves = two_class_clearing((k_u - v, k_d - v), (row_u, row_d), y)
    total = n_u * x_u + n_d * x_d
    return ClassClearing(x_u=x_u, x_d=x_d, claims_safe=graph.w_g1 / y * total,
                         claims_u=sig2 * (total - x_u), claims_d=sig2 * (total - x_d),
                         solves=solves)


def solve_clearing(graph: LiabilityGraph, shocks: ShockVector,
                   params: MarketParams) -> ClearingResult:
    """Greatest clearing vector: exact on the complete graph, iterated on sampled ones."""
    n1, n2, n, y = graph.n1, graph.n2, graph.n, graph.y
    if n2 == 0 or y <= 0.0:
        return ClearingResult(X=np.zeros(n2), iterations=0, claims=np.zeros(n))
    v = params.v

    if graph.peers is None:
        cc = class_clearing(graph, int(shocks.up.sum()), shocks.k_u, shocks.k_d, v)
        X = np.where(shocks.up, cc.x_u, cc.x_d)
        claims = np.empty(n)
        claims[:n1] = cc.claims_safe
        claims[n1:] = np.where(shocks.up, cc.claims_u, cc.claims_d)
        iterations = cc.solves
    else:
        peers, safe = graph.peers, graph.safe
        sig2 = graph.w_g2 / y  # the share of a payment that each linked peer receives
        # the edges are sorted by borrower, so repeating each payment by its borrower's
        # out-degree lays it along the edges, more cheaply than the gather X[peers.borrower]
        out_degree = np.bincount(peers.borrower, minlength=n2)
        X = np.full(n2, y)
        for iterations in range(1, _SPARSE_CAP + 1):
            owed_in = sig2 * np.bincount(peers.creditor, weights=np.repeat(X, out_degree),
                                         minlength=n2)
            new = np.clip(shocks.k + owed_in - v, 0.0, y)
            if np.abs(new - X).max() <= _SPARSE_TOL * y:
                break  # keep X: its residual is the one just measured
            X = new
        else:
            raise SolverError(f"sparse clearing: no fixed point within {_SPARSE_CAP} sweeps")
        safe_in = np.bincount(safe.creditor, weights=X[safe.borrower], minlength=n1)
        claims = np.concatenate([graph.w_g1 / y * safe_in, owed_in])

    return ClearingResult(X=X, iterations=iterations, claims=claims)


def defaulted(X, y: float):
    """Whether each payment (a scalar or an array) falls short of y: a default."""
    return X < y * (1.0 - _DEFAULT_TOL)


def surpluses(graph: LiabilityGraph, params: MarketParams, claims_safe, k, claims_risky):
    """Risk-free and risky surpluses after clearing, clamped at limited liability.

    A risk-free agent earns its endowment's return plus its claims, a risky one
    its proceeds `k` plus its claims less its debt y; both pay v first.  Takes
    one scalar per class or one array entry per agent.
    """
    v = params.v
    return (np.maximum(params.w * graph.eps * (1 + params.r_s) + claims_safe - v, 0.0),
            np.maximum(k + claims_risky - v - graph.y, 0.0))


def compute_returns(graph: LiabilityGraph, clearing: ClearingResult,
                    shocks: ShockVector, params: MarketParams) -> ReturnsVector:
    """Per-agent surpluses after clearing, clamped at limited liability."""
    n1 = graph.n1
    r1, r2 = surpluses(graph, params, clearing.claims[:n1], shocks.k, clearing.claims[n1:])
    defaults = np.flatnonzero(defaulted(clearing.X, graph.y))
    return ReturnsVector(r=np.concatenate([r1, r2]), n1=n1, defaults=defaults)


def default_stats(clearing: ClearingResult, y: float) -> DefaultStats:
    """Count and fraction of borrowers paying short, per risky agent."""
    n2 = len(clearing.X)
    if n2 == 0:
        return DefaultStats(count=0, fraction=0.0, degenerate=True)
    count = int(defaulted(clearing.X, y).sum())
    return DefaultStats(count=count, fraction=count / n2)
