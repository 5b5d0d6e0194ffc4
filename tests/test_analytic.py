"""Closed-form limit quantities against an independent fixed-point oracle."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from sysrisk import MarketParams
from sysrisk.analytic import (
    DefaultRegime,
    clearing_limit,
    drift_rates,
    limit_returns,
    q_eps,
    thresholds,
)
from sysrisk.model import DynamicsParams


def picard_limit(params: MarketParams, eps: float) -> float:
    # Recompute every input from raw parameters so this shares no code with
    # the module under test, then iterate the expected-payment map from above.
    w, v = params.w, params.v
    y = w * (params.alpha + eps) * (1 + params.r_b) / (1 - params.alpha)
    c = params.alpha * (1 + eps) / (params.alpha + eps)
    k_u = w * (1 + eps) * (1 + params.u)
    k_d = w * (1 + eps) * (1 + params.d)
    delta = params.delta

    def clip(z: float) -> float:
        return min(max(z, 0.0), y)

    x = y
    for _ in range(200_000):
        nxt = delta * clip(k_u - v + c * x) + (1 - delta) * clip(k_d - v + c * x)
        if abs(nxt - x) <= 1e-13 * y:
            return nxt
        x = nxt
    raise AssertionError("oracle iteration did not converge")


def test_clearing_limit_matches_picard_oracle(imitation_market, growth_market):
    for market in (imitation_market, growth_market):
        worst = 0.0
        for i in range(1, 100):
            eps = i / 100
            cl = clearing_limit(market, eps)
            ref = picard_limit(market, eps)
            scale = market.w * (market.alpha + eps) * (1 + market.r_b) / (1 - market.alpha)
            worst = max(worst, abs(cl.x_bar - ref) / scale)
        assert worst <= 1e-8


def test_thresholds_frozen(imitation_market, growth_market, growth_market_low_delta):
    th = thresholds(imitation_market)
    assert th.eps_bar_1 == pytest.approx(0.261569416498994, rel=1e-12)
    assert th.eps_bar == pytest.approx(0.45975590208980066, rel=1e-12)
    assert th.eps_bar_2 == 1.0
    assert not th.outside_theory

    th85 = thresholds(growth_market)
    assert th85.eps_bar_1 == pytest.approx(0.1609657947686117, rel=1e-12)
    assert th85.eps_bar == pytest.approx(0.8350071769340519, rel=1e-12)
    assert th85.eps_bar_2 == 1.0

    th45 = thresholds(growth_market_low_delta)
    assert th45.eps_bar_1 == pytest.approx(0.1609657947686117, rel=1e-12)
    assert th45.eps_bar == pytest.approx(0.22326534824434027, rel=1e-12)


def _bisect(pred, lo: float, hi: float, iters: int = 60) -> float:
    """Smallest point in (lo, hi] where pred flips to True, to ~2^-60."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("fixture", ["imitation_market", "growth_market",
                                     "growth_market_low_delta"])
def test_threshold_routes_agree(request, fixture):
    market = request.getfixturevalue(fixture)
    th = thresholds(market)

    # route 1: first fraction at which the clearing limit shows any default
    e1 = _bisect(lambda e: clearing_limit(market, e).p_d > 0.0, 0.0, 1.0)
    assert abs(e1 - th.eps_bar_1) <= 1e-6

    # route 2: sign change of the return gap between the two groups
    def risky_wins(e: float) -> bool:
        lr = limit_returns(market, e)
        return lr.r1 >= lr.r2_up

    ebar = _bisect(risky_wins, th.eps_bar_1, 1.0)
    assert abs(ebar - th.eps_bar) <= 1e-6

    # no all-default regime anywhere for these parameters
    assert all(clearing_limit(market, i / 20).regime is not DefaultRegime.ALL_DEFAULT
               for i in range(21))
    assert th.eps_bar_2 == 1.0


def test_limit_grid_frozen(imitation_market):
    rows = {
        0.0: (1476.2999999999988, 0.0, DefaultRegime.NO_DEFAULT,
              62.70000000000002, 64.09999999999991, 13.0),
        0.25: (1864.7999999999986, 0.0, DefaultRegime.NO_DEFAULT,
               62.525000000000006, 64.45000000000005, 0.5750000000000455),
        0.35: (2019.1049353138455, 0.19999999999999996, DefaultRegime.SHOCK_DEFAULT,
               62.42762338284619, 63.50967656923831, 0.0),
        0.5: (2250.350214592273, 0.19999999999999996, DefaultRegime.SHOCK_DEFAULT,
              62.29914163090129, 61.90107296137376, 0.0),
    }
    for eps, (x_bar, p_d, regime, r1, r2u, r2d) in rows.items():
        cl = clearing_limit(imitation_market, eps)
        lr = limit_returns(imitation_market, eps)
        assert cl.x_bar == pytest.approx(x_bar, rel=1e-12)
        assert cl.p_d == pytest.approx(p_d, abs=1e-12)
        assert cl.regime is regime
        assert not cl.degenerate
        assert lr.r1 == pytest.approx(r1, rel=1e-12)
        assert lr.r2_up == pytest.approx(r2u, rel=1e-12)
        assert lr.r2_down == pytest.approx(r2d, abs=1e-9)


def test_all_risky_endpoint_is_degenerate(imitation_market):
    cl = clearing_limit(imitation_market, 1.0)
    assert cl.degenerate
    assert cl.regime is DefaultRegime.NO_DEFAULT
    lr = limit_returns(imitation_market, 1.0)
    assert lr.r1 == pytest.approx(62.0)
    assert lr.r2_up == 0.0 and lr.r2_down == 0.0


def test_q_switch(imitation_market):
    # below eps_bar the risk-free side only wins on a down move
    assert q_eps(imitation_market, 0.25) == pytest.approx(0.2)
    assert q_eps(imitation_market, 0.35) == pytest.approx(0.2)
    # above it the risk-free side weakly wins regardless of the move
    assert q_eps(imitation_market, 0.5) == 1.0
    assert q_eps(imitation_market, 1.0) == 1.0


def test_beta_kappa(imitation_market, growth_market):
    gdyn = DynamicsParams(mean_N=1.0, mean_S=10.0, b_n=0.9, b_s=0.9,
                          n0=300, rounds=1000)
    assert drift_rates(growth_market, gdyn) == pytest.approx((8.8, -6.16))

    idyn = DynamicsParams(mean_N=7.0, mean_S=6.0, b_n=0.8, b_s=0.8,
                          n0=500, rounds=4000)
    beta, kappa_below = drift_rates(imitation_market, idyn)
    assert (beta, kappa_below) == pytest.approx((7.800000000000002, -4.6800000000000015))
    # the drift flips sign across eps_bar, where q jumps
    assert math.copysign(1, kappa_below) != math.copysign(1, beta)


def test_outside_theory_market():
    heavy = MarketParams(w=70.0, v=40.0, alpha=0.95, delta=0.8,
                         u=0.13, d=-0.6, r_s=0.1, r_b=0.11)
    assert not heavy.in_theory
    th = thresholds(heavy)
    assert th.outside_theory
    # senior debt exceeds the down-move proceeds from the start, so the
    # shock-default regime is entered immediately
    assert th.eps_bar_1 == 0.0
    assert th.eps_bar_2 == 1.0

    # the flag is pointwise: the closed forms regain coverage once the
    # down-move proceeds grow past v, but the direct solver must agree
    assert clearing_limit(heavy, 0.1).outside_theory
    assert not clearing_limit(heavy, 0.9).outside_theory
    for eps in (0.1, 0.5, 0.9):
        cl = clearing_limit(heavy, eps)
        assert cl.x_bar == pytest.approx(picard_limit(heavy, eps), rel=1e-8)
        assert cl.p_d == pytest.approx(0.2)


def _systemic_markets(n_draws: int = 3000) -> list[MarketParams]:
    """In-theory markets (v <= w(1 + d)) drawn at random; those with eps_bar_2 < 1."""
    rng = random.Random(1)
    found = []
    for _ in range(n_draws):
        r_s = rng.uniform(0.0, 0.1)
        r_b = r_s + rng.uniform(0.0, 0.05)
        d = rng.uniform(-0.9, r_s - 0.01)
        market = MarketParams(w=70.0, v=rng.uniform(0.0, 70.0 * (1 + d)),
                              alpha=rng.uniform(0.5, 0.99), delta=rng.uniform(0.05, 0.95),
                              u=r_b + rng.uniform(0.01, 0.3), d=d, r_s=r_s, r_b=r_b)
        if thresholds(market, check=False).eps_bar_2 < 1.0:
            found.append(market)
    return found


def test_systemic_closed_forms():
    # the eps_bar_2 quadratic root against a bisection of "every risky agent
    # defaults", and the all-default x_bar against the Picard oracle above it
    markets = _systemic_markets()
    assert len(markets) >= 100
    for market in markets:
        th = thresholds(market, check=False)
        assert not th.outside_theory and th.eps_bar_1 < th.eps_bar_2 < 1.0

        def systemic(eps: float) -> bool:
            return clearing_limit(market, eps).p_d >= 1.0

        lo, hi = th.eps_bar_1, math.nextafter(1.0, 0.0)
        assert not systemic(lo) and systemic(hi)
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (lo, mid) if systemic(mid) else (mid, hi)
        assert abs(hi - th.eps_bar_2) <= 1e-9

        eps = 0.5 * (th.eps_bar_2 + 1.0)
        cl = clearing_limit(market, eps)
        assert cl.regime is DefaultRegime.ALL_DEFAULT and cl.p_d == 1.0
        y = market.w * (market.alpha + eps) * (1 + market.r_b) / (1 - market.alpha)
        assert abs(cl.x_bar - picard_limit(market, eps)) <= 1e-8 * y


@st.composite
def in_theory_market(draw) -> MarketParams:
    """`test_model.market_and_eps`'s ranges, with senior debt covered by down-move proceeds."""
    w = draw(st.floats(1.0, 500.0))
    alpha = draw(st.floats(0.05, 0.99))
    delta = draw(st.floats(0.05, 1.0))
    d = draw(st.floats(-0.95, 0.0))
    r_s = draw(st.floats(0.01, 0.5))
    r_b = draw(st.floats(r_s, r_s + 0.5))
    u = draw(st.floats(r_b + 0.01, r_b + 2.0))
    v = draw(st.floats(0.0, w * (1 + d)))
    return MarketParams(w=w, v=v, alpha=alpha, delta=delta, u=u, d=d, r_s=r_s, r_b=r_b)


@settings(max_examples=200, deadline=None)
# at eps = 1 no risky agent is left and x_bar is y by convention, not a fixed point
@given(market=in_theory_market(), eps=st.floats(0.0, 1.0, exclude_max=True))
# y < (1 - delta)(k_u - k_d) here, which no preset market reaches: the shock-default
# test's bracket is negative
@example(market=MarketParams(w=70.0, v=6.0, alpha=0.1, delta=0.7, u=0.9, d=-0.9,
                             r_s=0.01, r_b=0.2), eps=0.1)
# delta one ulp below 1: the shock-default quotient rounded an ulp above y
@example(market=MarketParams(w=183.0, v=31.0, alpha=0.375, delta=0.9999999999999998,
                             u=1.0, d=-0.1875, r_s=0.5, r_b=0.5), eps=0.9375)
def test_closed_form_matches_picard_oracle(market, eps):
    y = market.w * (market.alpha + eps) * (1 + market.r_b) / (1 - market.alpha)
    x_bar = clearing_limit(market, eps).x_bar
    assert 0.0 <= x_bar <= y
    assert abs(x_bar - picard_limit(market, eps)) <= 1e-8 * y
    thresholds(market, check=True)  # raises SolverError if its two routes disagree
