"""Static economy parameters and the per-fraction derived quantities.

Everything downstream (limit theory, network sampling, clearing, the ODE
flows) consumes the two parameter dataclasses plus `derive`, which holds
only what a simulated round or a limit point reads; the limit's regime
boundaries are formed in `analytic` alone.  All functions here are pure and
O(1).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple


class ParamError(ValueError):
    """A parameter combination violates a model constraint."""


class SolverError(RuntimeError):
    """A numerical routine failed to produce an exact or certified answer."""


def _require(cond: bool, name: str, msg: str) -> None:
    if not cond:
        raise ParamError(f"{name}: {msg}")


def require_count(name: str, count: object) -> None:
    """ParamError unless `count` (an agent or round count) is a non-negative integer."""
    if not (isinstance(count, (int, numbers.Integral)) and count >= 0):  # int: fast path
        raise ParamError(f"{name}: count must be a non-negative integer, got {count!r}")


@dataclass(frozen=True)
class MarketParams:
    """Economy-wide constants.

    w       initial wealth per agent (> 0)
    v       senior obligations (taxes etc., >= 0)
    alpha   fraction of funds cycled through interbank lending, in (0, 1)
    delta   probability of an up-move on the risky venture, in (0, 1]
    u, d    up / down rates of the risky venture
    r_s     risk-free rate
    r_b     interbank borrowing rate
    p_ss    probability any ordered pair of agents is connected, in (0, 1]
    """

    w: float
    v: float
    alpha: float
    delta: float
    u: float
    d: float
    r_s: float
    r_b: float
    p_ss: float = 1.0

    def __post_init__(self) -> None:
        _require(self.w > 0, "w", "initial wealth must be positive")
        _require(self.v >= 0, "v", "senior obligations cannot be negative")
        _require(0 < self.alpha < 1, "alpha", "interbank fraction must lie in (0, 1)")
        _require(0 < self.delta <= 1, "delta", "up-move probability must lie in (0, 1]")
        _require(self.d < self.r_s, "d", "down rate must be below the risk-free rate")
        _require(self.r_s <= self.r_b, "r_s", "risk-free rate cannot exceed the borrowing rate")
        _require(self.u > self.r_b, "u", "up rate must exceed the borrowing rate")
        _require(self.v < self.w * (1 + self.u), "v",
                 "senior obligations exceed even the up-move proceeds")
        _require(0 < self.p_ss <= 1, "p_ss", "edge probability must lie in (0, 1]")

    @property
    def in_theory(self) -> bool:
        """True when the closed-form limit cases hold for every fraction."""
        return self.w * (1 + self.d) >= self.v


class DerivedQuantities(NamedTuple):
    """Per-fraction quantities below; `eps` is the risk-free share of agents.

    What a simulated round or a limit point reads at that fraction.  A named
    tuple rather than a frozen dataclass: it is built once per limit point and
    per simulated round, and a tuple builds in about half the time.
    """

    eps: float
    y: float        # total liability (with interest) of a risky agent
    c_eps: float    # interbank claim coefficient
    k_u: float      # risky proceeds after an up-move
    k_d: float      # risky proceeds after a down-move
    w_low: float    # k_d - v
    w_high: float   # k_u - v


def derive(params: MarketParams, eps: float) -> DerivedQuantities:
    """Compute all derived per-fraction quantities.

    Raises ParamError if eps is outside [0, 1].
    """
    if not 0.0 <= eps <= 1.0:
        raise ParamError(f"eps: fraction {eps!r} outside [0, 1]")
    w, v, alpha = params.w, params.v, params.alpha
    y = w * (alpha + eps) * (1 + params.r_b) / (1 - alpha)
    c_eps = alpha * (1 + eps) / (alpha + eps)
    k_u = w * (1 + eps) * (1 + params.u)
    k_d = w * (1 + eps) * (1 + params.d)
    return DerivedQuantities(eps, y, c_eps, k_u, k_d, k_d - v, k_u - v)


_MAX_DRAW_BOUND = 2**63 - 1  # the largest count `Generator.binomial` accepts


def count_bound(mean: float) -> int:
    """Almost-sure bound of the binomial count family with this mean: 2*ceil(mean)."""
    return 2 * math.ceil(mean)


@dataclass(frozen=True)
class DynamicsParams:
    """Evolution parameters: arrival/switch/departure counts and accuracies.

    mean_N / mean_S / mean_L are the per-round means of arrivals, switch
    attempts and the departure cap.  bound_N / bound_L are almost-sure bounds,
    by default `count_bound(mean)`.  b_n / b_s are the probabilities of
    observing a return comparison correctly.  n0 is the starting population,
    eps0 the starting risk-free fraction and rounds the horizon.  `chances`, not
    a field, holds each round's N, S and L draw arguments (bound, mean/bound):
    None, no draw, where the mean is <= 0 or the bound is 0.
    """

    mean_N: float
    mean_S: float
    mean_L: float = 0.0
    bound_N: int | None = None
    bound_L: int | None = None
    b_n: float = 1.0
    b_s: float = 1.0
    n0: int = 100
    eps0: float = 0.5
    rounds: int = 1000

    def __post_init__(self) -> None:
        _require(0 <= self.mean_N < math.inf, "mean_N", "arrival mean must be finite, >= 0")
        _require(0 <= self.mean_S < math.inf, "mean_S", "switch-attempt mean must be finite, >= 0")
        _require(0 <= self.mean_L < math.inf, "mean_L", "departure-cap mean must be finite, >= 0")
        if self.bound_N is None:
            object.__setattr__(self, "bound_N", count_bound(self.mean_N))
        if self.bound_L is None:
            object.__setattr__(self, "bound_L", count_bound(self.mean_L))
        _require(self.mean_N <= self.bound_N, "bound_N",
                 "almost-sure bound below the mean")
        _require(self.mean_L <= self.bound_L, "bound_L",
                 "almost-sure bound below the mean")
        if self.mean_L > 0:
            _require(self.mean_N > self.mean_L, "mean_L",
                     "departures require a strictly larger arrival mean")
        _require(0 <= self.b_n <= 1, "b_n", "probability outside [0, 1]")
        _require(0 <= self.b_s <= 1, "b_s", "probability outside [0, 1]")
        _require(self.n0 >= 2, "n0", "need at least two starting agents")
        _require(0 <= self.eps0 <= 1, "eps0", "fraction outside [0, 1]")
        _require(self.rounds >= 0, "rounds", "horizon cannot be negative")
        for name in ("bound_N", "bound_L", "n0", "rounds"):
            require_count(name, getattr(self, name))
        chances = []
        for name, mean, bound in (("bound_N", self.mean_N, self.bound_N),
                                  ("mean_S", self.mean_S, count_bound(self.mean_S)),
                                  ("bound_L", self.mean_L, self.bound_L)):
            _require(bound <= _MAX_DRAW_BOUND, name,  # numpy draws each count from a C long
                     f"count bound {bound} exceeds the largest drawable count 2**63 - 1")
            chances.append((bound, mean / bound) if mean > 0.0 and bound > 0 else None)
        object.__setattr__(self, "chances", tuple(chances))
