"""Clearing payments on a finite round network, and the realized returns.

Each risky borrower owes y in total; what it can actually pay depends on its
shock draw and on what it receives from other borrowers, giving the fixed point

    X_i = min( (K_i + claims_i(X) - v)+ , y ),   claims_i = sum_j X_j L_ji / y.

The map is monotone and piecewise linear; the clearing vector is its greatest
fixed point.  On the complete graph all up-shocked agents stay interchangeable
(likewise down-shocked), so there are two unknowns, solved exactly regime by
regime (Eisenberg & Noe 2001), as is the same two-class problem of the
large-network limit in `analytic`.  Sampled graphs iterate the map from full
payment until no payment moves by more than 1e-10 * y; as only risky agents
owe, each sweep multiplies by the risky-to-risky block alone, and risk-free
claims are formed once from the final payments.  A borrower defaults when it
pays less than y * (1 - 1e-9) (`_defaulted`).
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


def solve_clearing(graph: LiabilityGraph, shocks: ShockVector,
                   params: MarketParams) -> ClearingResult:
    """Greatest clearing vector: exact on the complete graph, iterated on sampled ones."""
    n1, n2, n, y = graph.n1, graph.n2, graph.n, graph.y
    if n2 == 0 or y <= 0.0:
        return ClearingResult(X=np.zeros(n2), iterations=0, claims=np.zeros(n))
    v = params.v

    if graph.indicator is None:
        sig2 = graph.w_g2 / y
        n_u = int(shocks.up.sum())
        n_d = n2 - n_u
        # an empty shock class is dropped: zero its row, and its column is zero already
        row_u = (sig2 * (n_u - 1), sig2 * n_d) if n_u else (0.0, 0.0)
        row_d = (sig2 * n_u, sig2 * (n_d - 1)) if n_d else (0.0, 0.0)
        x_u, x_d, iterations = two_class_clearing((shocks.k_u - v, shocks.k_d - v),
                                                  (row_u, row_d), y)
        X = np.where(shocks.up, x_u, x_d)
        total = n_u * x_u + n_d * x_d
        claims = np.empty(n)
        claims[:n1] = graph.w_g1 / y * total
        claims[n1:] = sig2 * (total - X)
    else:
        # B[j, i]: the share of borrower j's payment that risky agent i receives
        B = graph.indicator[:, n1:] * (graph.w_g2 / y)
        X = np.full(n2, y)
        for iterations in range(1, _SPARSE_CAP + 1):
            owed_in = X @ B
            new = np.clip(shocks.k + owed_in - v, 0.0, y)
            if np.abs(new - X).max() <= _SPARSE_TOL * y:
                break  # keep X: its residual is the one just measured
            X = new
        else:
            raise SolverError(f"sparse clearing: no fixed point within {_SPARSE_CAP} sweeps")
        del B  # the product below casts its own float block; holding both raises peak memory
        claims = np.concatenate([graph.w_g1 / y * (X @ graph.indicator[:, :n1]), owed_in])

    return ClearingResult(X=X, iterations=iterations, claims=claims)


def _defaulted(X: np.ndarray, y: float) -> np.ndarray:
    return X < y * (1.0 - _DEFAULT_TOL)


def compute_returns(graph: LiabilityGraph, clearing: ClearingResult,
                    shocks: ShockVector, params: MarketParams) -> ReturnsVector:
    """Per-agent surpluses after clearing, clamped at limited liability."""
    n1 = graph.n1
    r = np.empty(graph.n)
    np.maximum(params.w * graph.eps * (1 + params.r_s) + clearing.claims[:n1] - params.v,
               0.0, out=r[:n1])
    np.maximum(shocks.k + clearing.claims[n1:] - params.v - graph.y, 0.0, out=r[n1:])
    defaults = np.flatnonzero(_defaulted(clearing.X, graph.y))
    return ReturnsVector(r=r, n1=n1, defaults=defaults)


def default_stats(clearing: ClearingResult, y: float) -> DefaultStats:
    """Count and fraction of borrowers paying short, per risky agent."""
    n2 = len(clearing.X)
    if n2 == 0:
        return DefaultStats(count=0, fraction=0.0, degenerate=True)
    count = int(_defaulted(clearing.X, y).sum())
    return DefaultStats(count=count, fraction=count / n2)
