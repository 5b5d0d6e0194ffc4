"""Random liability networks and per-round shock draws.

A round's network has two groups: risk-free lenders (indices 0..n1-1) and
risky borrowers (indices n1..n-1).  Only borrowers owe.  Each round draws a
fresh network, in which every ordered (borrower, creditor) pair of distinct
agents is linked independently with probability p_ss; no link carries over
to the next round.  A linked edge carries one of exactly two weights -- one
for risk-free creditors, one for risky peers -- scaled so that a borrower's
total liability concentrates on y (principal plus borrowing interest) as n
grows.

The complete graph (p_ss = 1) is never drawn: the engine clears it by shock
class from its weights (`edge_weights`) alone.  A sampled graph keeps its
links as two edge lists, borrower to risky peer and borrower to risk-free
creditor.  Each is drawn by geometric skipping (Batagelj & Brandes, Phys.
Rev. E 71, 036113, 2005): read row by row, the gaps between the linked cells
of a block are i.i.d. Geometric(p_ss), so a draw costs time in proportion to
the links, not to the n2 x n pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import MarketParams, ParamError, derive


class Edges(NamedTuple):
    """Linked pairs as two `intp` arrays, sorted by borrower (then creditor).

    `borrower` holds local borrower indices (global n1 + j); `creditor` holds
    local risky indices in the peer list and risk-free indices in the other.
    """

    borrower: np.ndarray
    creditor: np.ndarray


@dataclass(frozen=True)
class LiabilityGraph:
    """A sampled round network: its edge weights and its links.

    Edge weights depend only on the creditor's group: `w_g1` toward
    risk-free creditors, `w_g2` toward risky peers.  `peers` holds the
    borrower-to-risky-peer links (never a self-link) and `safe` the
    borrower-to-risk-free links; both are empty when n2 = 0.
    """

    n1: int
    n2: int
    y: float
    eps: float
    w_g1: float
    w_g2: float
    peers: Edges
    safe: Edges

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def indicator(self) -> np.ndarray:
        """Dense (n2, n) view of the links.

        Entry [j, i] says whether borrower j (local) owes agent i (global).
        Built afresh on every access; the engine never reads it.
        """
        out = np.zeros((self.n2, self.n), dtype=bool)
        out[self.safe.borrower, self.safe.creditor] = True
        out[self.peers.borrower, self.n1 + self.peers.creditor] = True
        return out


@dataclass(frozen=True)
class ShockVector:
    """Per-borrower proceeds: `derive`'s k_u with probability delta, else its k_d."""

    k: np.ndarray


def _chunk_size(size: int, p: float) -> int:
    """Gaps drawn at a time: the block's mean link count plus 8 sd and 16."""
    return int(size * p + 8.0 * math.sqrt(size * p * (1.0 - p)) + 16)


def _linked_cells(rng_stream: np.random.Generator, rows: int, cols: int,
                  p: float) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every linked cell of a rows x cols block, in row-major order.

    Each cell is linked independently with probability p < 1.  The gaps
    between linked positions are floor(E / -log1p(-p)) + 1 with E standard
    exponential, which is exactly Geometric(p); they are drawn in chunks
    large enough that one chunk nearly always passes the block's end.
    """
    size = rows * cols
    if size == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    rate = -math.log1p(-p)
    chunk = _chunk_size(size, p)
    pieces, last = [], -1
    while True:
        steps = rng_stream.standard_exponential(chunk)
        steps /= rate
        np.minimum(steps, size, out=steps)  # any gap past the end will do; keeps intp safe
        pos = steps.astype(np.intp)
        del steps
        pos += 1
        np.cumsum(pos, out=pos)
        pos += last
        cut = int(np.searchsorted(pos, size))
        pieces.append(pos[:cut])
        if cut < chunk:
            break
        last = int(pos[-1])
    pos = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
    row = pos // cols
    pos -= row * cols
    return row, pos


def edge_weights(params: MarketParams, n1: int, n2: int) -> tuple[float, float]:
    """The weights (w_g1, w_g2) of a linked edge toward a risk-free and a risky creditor."""
    n = n1 + n2
    scale = (1 + params.r_b) / (n * params.p_ss)
    w_g1 = params.w * scale
    if n2 < 2:  # no borrower has a peer
        return w_g1, 0.0
    eps = n1 / n
    w_g2 = params.alpha * params.w * (1 + eps) * scale / ((1 - params.alpha) * (1 - eps))
    # Spread the peer obligation over the n2-1 actual peers (no self-edges), so
    # a borrower's expected shares sum to exactly 1 at finite n.  Without this
    # the shortfall is O(1/n2) on the claims, which overwhelms the thin return
    # margins that drive imitation in moderate populations.
    return w_g1, w_g2 * n2 / (n2 - 1)


def sample_network(params: MarketParams, n1: int, n2: int,
                   rng_stream: np.random.Generator) -> LiabilityGraph:
    """Draw one round's sampled network (p_ss < 1), independently of every other round."""
    if n1 < 0 or n2 < 0 or n1 + n2 < 2:
        raise ParamError("n1/n2: need at least two agents, neither group negative")
    if params.p_ss == 1.0:
        raise ParamError("p_ss: the complete graph is cleared by class, never sampled")
    eps = n1 / (n1 + n2)
    y = derive(params, eps).y
    w_g1, w_g2 = edge_weights(params, n1, n2)
    # peer column c of borrower j is peer c + (c >= j): the diagonal is never drawn
    borrower, col = _linked_cells(rng_stream, n2, n2 - 1, params.p_ss)
    col += col >= borrower
    peers = Edges(borrower, col)
    safe = Edges(*_linked_cells(rng_stream, n2, n1, params.p_ss))
    return LiabilityGraph(n1=n1, n2=n2, y=y, eps=eps, w_g1=w_g1, w_g2=w_g2,
                          peers=peers, safe=safe)


def sample_shocks(params: MarketParams, n2: int, eps: float,
                  rng_stream: np.random.Generator) -> ShockVector:
    """i.i.d. up/down proceeds for the n2 risky agents at fraction eps."""
    if n2 < 0:
        raise ParamError("n2: negative group size")
    der = derive(params, eps)
    up = rng_stream.random(n2) < params.delta
    return ShockVector(k=np.where(up, der.k_u, der.k_d))
