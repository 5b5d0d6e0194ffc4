"""Random liability networks and per-round shock draws.

A round's network has two groups: risk-free lenders (indices 0..n1-1) and
risky borrowers (indices n1..n-1).  Each round draws a fresh network, in
which every ordered (creditor, borrower) pair is linked independently with
probability p_ss; no link carries over to the next round.  A linked edge
carries one of exactly two weights -- one for risk-free creditors, one for
risky peers -- scaled so that a borrower's total liability concentrates on y
(principal plus borrowing interest) as n grows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MarketParams, ParamError, derive


@dataclass(frozen=True)
class LiabilityGraph:
    """Round network; `indicator` is None for the complete (p_ss = 1) graph.

    `indicator[j, i]` says whether borrower j (local index, global n1 + j)
    owes creditor i (global index); the self column is always False.  Edge
    weights depend only on the creditor's group: `w_g1` toward risk-free
    creditors, `w_g2` toward risky peers.
    """

    n1: int
    n2: int
    y: float
    eps: float
    w_g1: float
    w_g2: float
    indicator: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.n1 + self.n2


@dataclass(frozen=True)
class ShockVector:
    """Per-borrower proceeds: k_u with probability delta, else k_d."""

    k: np.ndarray
    up: np.ndarray
    k_u: float
    k_d: float


def sample_network(params: MarketParams, n1: int, n2: int,
                   rng_stream: np.random.Generator) -> LiabilityGraph:
    """Draw one round's liability network, independently of every other round."""
    if n1 < 0 or n2 < 0 or n1 + n2 < 2:
        raise ParamError("n1/n2: need at least two agents, neither group negative")
    n = n1 + n2
    eps = n1 / n
    der = derive(params, eps)
    scale = (1 + params.r_b) / (n * params.p_ss)
    w_g1 = params.w * scale
    if n2 == 0:
        return LiabilityGraph(n1=n1, n2=0, y=der.y, eps=eps, w_g1=w_g1, w_g2=0.0)
    w_g2 = params.alpha * params.w * (1 + eps) * scale / ((1 - params.alpha) * (1 - eps))
    # Spread the peer obligation over the n2-1 actual peers (no self-edges), so
    # a borrower's expected shares sum to exactly 1 at finite n.  Without this
    # the shortfall is O(1/n2) on the claims, which overwhelms the thin return
    # margins that drive imitation in moderate populations.
    w_g2 = w_g2 * n2 / (n2 - 1) if n2 >= 2 else 0.0

    indicator = None
    if params.p_ss < 1.0:
        indicator = rng_stream.random((n2, n)) < params.p_ss
        indicator[np.arange(n2), n1 + np.arange(n2)] = False
    return LiabilityGraph(n1=n1, n2=n2, y=der.y, eps=eps,
                          w_g1=w_g1, w_g2=w_g2, indicator=indicator)


def sample_shocks(params: MarketParams, n2: int, eps: float,
                  rng_stream: np.random.Generator) -> ShockVector:
    """i.i.d. up/down proceeds for the n2 risky agents at fraction eps."""
    if n2 < 0:
        raise ParamError("n2: negative group size")
    der = derive(params, eps)
    up = rng_stream.random(n2) < params.delta
    k = np.where(up, der.k_u, der.k_d)
    return ShockVector(k=k, up=up, k_u=der.k_u, k_d=der.k_d)
