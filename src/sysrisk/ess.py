"""Evolutionary stability checks for strategy fractions.

A candidate fraction eps* is stable when a small mutant sub-population
playing any other fraction earns strictly less, in the appropriate utility,
inside the post-invasion mixture.  Two utilities are supported: the
switch-count utility of the sampling dynamics (driven by the win probability
q of the risk-free return) and the mean-return utility of the averaging
dynamics.  Both single-mutant checks run one verdict loop, each with its own
advantage function, over fixed grids: every mutant fraction i/100 other than
the candidate, at the shares in `_X_GRID`.  The multi-mutation check blends
fixed mutant profiles around the candidate.  `_switch_gap` is the one switch
utility gap formula; the mean-return gap's sign profile over eps is read by
`odeflow.avg_limit` alone.
"""
from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

from .analytic import drift_rates, mean_return_gap, q_eps
from .model import DynamicsParams, MarketParams, ParamError


class EssMode(enum.Enum):
    SWITCH_UTILITY = "switch-utility"
    AVG_RETURN = "avg-return"
    MULTI_MUTATION = "multi-mutation"


@dataclass(frozen=True)
class EssVerdict:
    """Outcome of a stability check.

    ``margin`` is the smallest incumbent advantage observed across the tested
    mutants (positive iff the candidate repelled every one of them), and
    ``x_bar_used`` the largest mutant share that worked uniformly across
    mutants (None when the verdict is negative).  ``predominant_switching``
    records whether the switch-utility ranking carries the sign of the full
    dynamics (it does when sign(beta) equals sign(2 b_s - 1)); None for modes
    where the gate is vacuous.  A verdict says nothing of the shape of the
    averaging dynamics' return gap over eps; `odeflow.avg_limit` reads that.
    """

    candidate: float
    is_ess: bool
    margin: float
    x_bar_used: float | None
    mode: EssMode
    predominant_switching: bool | None = None


_X_GRID = (1e-3, 1e-2, 0.05, 0.1)


def _default_mutants(candidate: float) -> tuple[float, ...]:
    return tuple(i * 0.01 for i in range(101) if abs(i * 0.01 - candidate) > 1e-9)


def _switch_gap(params: MarketParams, dyn: DynamicsParams,
                eps_mut: float, eps_cand: float, eps_x: float) -> float:
    return (eps_mut - eps_cand) * (2.0 * q_eps(params, eps_x) - 1.0) * (2.0 * dyn.b_s - 1.0)


def switch_utility_gap(params: MarketParams, dyn: DynamicsParams,
                       eps_mut: float, eps_cand: float, x: float) -> float:
    """Mutant-minus-incumbent switch utility in the invaded mixture.

    The mixture fraction is eps_x = x*eps_mut + (1-x)*eps_cand; the utility
    ranking reduces to the sign of (eps_mut - eps_cand)(2 q(eps_x) - 1)
    weighted by the observation accuracy 2 b_s - 1.
    """
    if not 0.0 < x < 1.0:
        raise ParamError("x: mutant share must lie strictly inside (0, 1)")
    if not (0.0 <= eps_mut <= 1.0 and 0.0 <= eps_cand <= 1.0):
        raise ParamError("eps: strategy fractions must lie in [0, 1]")
    return _switch_gap(params, dyn, eps_mut, eps_cand, x * eps_mut + (1.0 - x) * eps_cand)


def _beta_sign_gate(params: MarketParams, dyn: DynamicsParams) -> bool:
    beta, _ = drift_rates(params, dyn)
    bs = 2.0 * dyn.b_s - 1.0
    return beta * bs > 0.0 or (beta == 0.0 and bs == 0.0)


def _single_mutant_verdict(candidate: float, advantage: Callable[[float, float], float],
                           ) -> tuple[bool, float, float | None]:
    """Run `advantage(mutant, x)` over the grids: (is_ess, margin, x_bar_used).

    For each mutant the check looks for a share threshold x_bar in `_X_GRID`
    below which the incumbent's advantage stays strictly positive; the verdict
    is positive only if every mutant has one, and x_bar_used is then the
    smallest of them.
    """
    if not 0.0 <= candidate <= 1.0:
        raise ParamError("candidate: must lie in [0, 1]")
    worst = float("inf")
    best_uniform_x: float | None = None
    ok = True
    for mut in _default_mutants(candidate):
        adv = [advantage(mut, x) for x in _X_GRID]
        prefix = 0
        while prefix < len(_X_GRID) and adv[prefix] > 0.0:
            prefix += 1
        if prefix == 0:
            ok = False
            worst = min(worst, adv[0])
            best_uniform_x = None
            continue
        worst = min(worst, min(adv[:prefix]))
        if ok:
            x_bar = _X_GRID[prefix - 1]
            best_uniform_x = x_bar if best_uniform_x is None else min(best_uniform_x, x_bar)
    return ok, worst, best_uniform_x


def check_mixed_ess(params: MarketParams, dyn: DynamicsParams, candidate: float) -> EssVerdict:
    """Is `candidate` stable against every single mutant on the grid?

    The incumbent's advantage over a mutant is minus its switch utility gap.
    """
    ok, worst, x_bar = _single_mutant_verdict(
        candidate, lambda mut, x: -switch_utility_gap(params, dyn, mut, candidate, x))
    return EssVerdict(candidate=candidate, is_ess=ok, margin=worst, x_bar_used=x_bar,
                      mode=EssMode.SWITCH_UTILITY,
                      predominant_switching=_beta_sign_gate(params, dyn))


def check_multi_mutation(params: MarketParams, dyn: DynamicsParams,
                         candidate: float) -> EssVerdict:
    """Stability against several simultaneous mutations.

    Each profile is a tuple of (eps_i, x_i) pairs with small total share: the
    fractions candidate -/+ d (those inside [0, 1]) at share 0.01 each, for
    d = 0.05, 0.1 and 0.2, then 0.25 and 0.75 at share 0.02 each.  The
    candidate must strictly beat every mutant inside the blended mixture.  A
    profile with mutants on both sides of an interior candidate always breaks
    it, since the utility ordering is linear in the strategy fraction.
    """
    if not 0.0 <= candidate <= 1.0:
        raise ParamError("candidate: must lie in [0, 1]")
    profiles = [tuple((e, 0.01) for e in (candidate - d, candidate + d) if 0.0 <= e <= 1.0)
                for d in (0.05, 0.1, 0.2)]
    profiles.append(tuple((m, 0.02) for m in (0.25, 0.75) if abs(m - candidate) > 1e-9))

    worst = float("inf")
    max_share = 0.0
    ok = True
    for profile in profiles:
        total = sum(x for _, x in profile)
        max_share = max(max_share, total)
        eps_x = sum(e * x for e, x in profile) + (1.0 - total) * candidate
        for eps_i, _ in profile:
            margin_i = -_switch_gap(params, dyn, eps_i, candidate, eps_x)
            worst = min(worst, margin_i)
            if margin_i <= 0.0:
                ok = False
    return EssVerdict(candidate=candidate, is_ess=ok, margin=worst,
                      x_bar_used=max_share if ok else None,
                      mode=EssMode.MULTI_MUTATION,
                      predominant_switching=_beta_sign_gate(params, dyn))


def check_avg_ess(params: MarketParams, candidate: float) -> EssVerdict:
    """Stability under the averaging dynamics' mean-return utility.

    The observation noise only affects how often a finite sample mis-orders
    the groups, not the expected-utility ranking, so the verdict depends on
    the mean returns alone and the check takes no noise scale.  Where the gap
    is exactly 0 (rest points, see `odeflow.avg_limit`) the advantage is +0.0, not -0.0.
    """
    ok, worst, x_bar = _single_mutant_verdict(candidate, lambda mut, x: 0.0 + (
        (candidate - mut) * mean_return_gap(params, x * mut + (1.0 - x) * candidate)))
    return EssVerdict(candidate=candidate, is_ess=ok, margin=worst, x_bar_used=x_bar,
                      mode=EssMode.AVG_RETURN)
