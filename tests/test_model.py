"""Parameter validation and the derived per-fraction quantities."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from sysrisk import DynamicsParams, MarketParams, ParamError, derive


def test_market_invariants_reject_bad_values():
    ok = dict(w=70.0, v=20.0, alpha=0.95, delta=0.85, u=0.15, d=-0.6, r_s=0.1, r_b=0.11)
    MarketParams(**ok)
    for bad in (dict(w=0.0), dict(v=-1.0), dict(alpha=1.0), dict(alpha=0.0),
                dict(delta=0.0), dict(delta=1.2), dict(d=0.1),      # d >= r_s
                dict(r_s=0.12), dict(u=0.11), dict(v=90.0),         # v >= w(1+u)
                dict(p_ss=0.0), dict(p_ss=1.5)):
        with pytest.raises(ParamError):
            MarketParams(**{**ok, **bad})


def test_market_boundary_values_allowed():
    ok = dict(w=70.0, v=20.0, alpha=0.95, delta=0.85, u=0.15, d=-0.6, r_s=0.1, r_b=0.11)
    MarketParams(**{**ok, "delta": 1.0})
    MarketParams(**{**ok, "v": 0.0})
    MarketParams(**{**ok, "r_s": 0.11})  # r_s == r_b is fine


def test_in_theory_flag():
    base = dict(w=70.0, alpha=0.95, delta=0.85, u=0.15, d=-0.6, r_s=0.1, r_b=0.11)
    assert MarketParams(v=28.0, **base).in_theory       # w(1+d) = 28
    assert not MarketParams(v=28.1, **base).in_theory


def test_dynamics_invariants():
    DynamicsParams(mean_N=1.0, mean_S=10.0)
    with pytest.raises(ParamError):
        DynamicsParams(mean_N=-1.0, mean_S=0.0)
    with pytest.raises(ParamError):
        DynamicsParams(mean_N=1.0, mean_S=10.0, mean_L=2.0)  # departures > arrivals
    with pytest.raises(ParamError):
        DynamicsParams(mean_N=1.0, mean_S=10.0, b_s=1.1)
    with pytest.raises(ParamError):
        DynamicsParams(mean_N=5.0, mean_S=1.0, bound_N=4)
    # an infinite mean has no count bound to draw from
    for name in ("mean_N", "mean_S", "mean_L"):
        with pytest.raises(ParamError, match=f"^{name}: "):
            DynamicsParams(**{"mean_N": 7.0, "mean_S": 6.0, name: math.inf})


@pytest.mark.parametrize("name, count", [("rounds", 2.5), ("rounds", 1000.0), ("n0", 300.5),
                                         ("bound_N", 14.5), ("bound_L", 12.5)])
def test_dynamics_counts_are_integers(name, count):
    # a non-integer count would otherwise construct and fail deep in a run, or run silently
    with pytest.raises(ParamError, match=f"^{name}: count must be a non-negative integer"):
        DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=5.6, **{name: count})


def test_dynamics_default_bounds():
    dyn = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=5.6)
    assert dyn.bound_N == 14
    assert dyn.bound_L == 12
    assert DynamicsParams(mean_N=0.0, mean_S=1.0).bound_N == 0


def test_derive_matches_hand_computation(growth_market):
    q = derive(growth_market, 0.5)
    w, alpha = 70.0, 0.95
    assert q.y == pytest.approx(w * (alpha + 0.5) * 1.11 / (1 - alpha))
    assert q.c_eps == pytest.approx(alpha * 1.5 / (alpha + 0.5))
    assert q.k_u == pytest.approx(w * 1.5 * 1.15)
    assert q.k_d == pytest.approx(w * 1.5 * 0.4)
    assert q.w_low == pytest.approx(q.k_d - 20.0)


def test_derive_rejects_bad_fraction(growth_market):
    with pytest.raises(ParamError):
        derive(growth_market, -0.01)
    with pytest.raises(ParamError):
        derive(growth_market, 1.01)


@st.composite
def market_and_eps(draw):
    w = draw(st.floats(1.0, 500.0))
    alpha = draw(st.floats(0.05, 0.99))
    delta = draw(st.floats(0.05, 1.0))
    d = draw(st.floats(-0.95, 0.0))
    r_s = draw(st.floats(0.01, 0.5))
    r_b = draw(st.floats(r_s, r_s + 0.5))
    u = draw(st.floats(r_b + 0.01, r_b + 2.0))
    v = draw(st.floats(0.0, w * (1 + u) * 0.99))
    eps = draw(st.floats(0.0, 1.0))
    return MarketParams(w=w, v=v, alpha=alpha, delta=delta, u=u,
                        d=d, r_s=r_s, r_b=r_b), eps


@given(market_and_eps())
def test_derive_identities(case):
    params, eps = case
    q = derive(params, eps)
    assert q.y > 0
    assert 0 < q.c_eps <= 1 + 1e-12
    assert q.k_d <= q.k_u
    # c_eps is the claim share: y * c_eps equals the interbank inflow at par
    assert q.c_eps * q.y == pytest.approx(params.alpha * params.w * (1 + eps)
                                          * (1 + params.r_b) / (1 - params.alpha))


@given(market_and_eps())
def test_c_eps_monotone_decreasing(case):
    params, eps = case
    lo = derive(params, eps * 0.5).c_eps
    hi = derive(params, eps).c_eps
    assert hi <= lo + 1e-12
