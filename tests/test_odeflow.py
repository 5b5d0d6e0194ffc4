"""Continuous-time flow: closed forms, RK4 cross-check, attractor report."""
from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, strategies as st

from sysrisk import DynamicsParams, MarketParams, ParamError
from sysrisk.analytic import drift_rates
from sysrisk.harness import table2_spec
from sysrisk.odeflow import (
    DegenerateFlowError,
    _cross_time,
    _eps_after,
    _flow_table,
    _Segment,
    avg_limit,
    classify_attractors,
    finite_round_estimate,
    ode_numeric,
    ode_solution,
    ode_solution_departures,
    round_clock,
)


@pytest.fixture(scope="module")
def growth_dyn():
    return DynamicsParams(mean_N=1.0, mean_S=10.0, b_n=0.9, b_s=0.9,
                          n0=300, rounds=1000)


@pytest.fixture(scope="module")
def imit_dep_dynamics(imitation_dynamics):
    return replace(imitation_dynamics, mean_L=5.6, bound_L=None)


def test_growth_flow_is_logistic(growth_market, growth_dyn):
    # beta = 8.8 for these arrival/switch rates; the flow is a plain logistic
    state = ode_solution(growth_market, growth_dyn, 0.85, 1.0, 0.1)
    expected = 1 / (1 + math.exp(-(math.log(0.85 / 0.15) + 8.8 * 0.1)))
    assert state.eps == pytest.approx(expected, rel=1e-12)
    assert state.eps == pytest.approx(0.9317953875407714, rel=1e-12)
    assert state.psi == 1.0 and state.t == 0.1 and not state.pinned


def test_growth_flow_splits_at_threshold(growth_market, growth_dyn):
    up = ode_solution(growth_market, growth_dyn, 0.85, 1.0, 5.0)
    dn = ode_solution(growth_market, growth_dyn, 0.75, 1.0, 5.0)
    assert up.eps == pytest.approx(1.0, abs=1e-6)
    assert dn.eps == pytest.approx(0.0, abs=1e-6)


def test_start_state_at_zero_time(growth_market, growth_dyn):
    state = ode_solution(growth_market, growth_dyn, 0.6, 1.0, 0.0)
    assert (state.eps, state.psi, state.t) == (0.6, 1.0, 0.0)


def test_weak_switching_pins_at_threshold(growth_market):
    weak = DynamicsParams(mean_N=1.0, mean_S=10.0, b_n=0.4, b_s=0.4,
                          n0=300, rounds=1000)
    state = ode_solution(growth_market, weak, 0.8, 1.0, 30.0)
    assert state.pinned
    assert state.eps == pytest.approx(0.8350071769340519, rel=1e-12)


def test_imitation_flow_golden(imitation_market, imitation_dynamics):
    state = ode_solution(imitation_market, imitation_dynamics, 0.4, 1.0, 2.0)
    assert state.eps == pytest.approx(0.049212030575854146, rel=1e-10)
    assert state.psi == pytest.approx(6.187988300580324, rel=1e-10)


def test_departure_flow_golden(imitation_market, imit_dep_dynamics):
    state = ode_solution_departures(imitation_market, imit_dep_dynamics,
                                    0.4, 1.0, 2.0)
    assert state.eps == 1.0
    assert state.psi == pytest.approx(6.06388179730962, rel=1e-10)
    # the population rate settles on the net arrival mean
    late = ode_solution_departures(imitation_market, imit_dep_dynamics,
                                   0.4, 1.0, 50.0)
    assert late.psi == pytest.approx(7.0, rel=1e-9)


def test_rk4_matches_closed_form(imitation_market, imitation_dynamics,
                                 imit_dep_dynamics):
    traj = ode_numeric(imitation_market, imitation_dynamics, 0.4, 1.0, 10.0, 1e-3)
    # a flow row carries its flow time
    assert all(rec.t is not None for rec in traj.records)
    for rec in traj.records[::500]:
        ref = ode_solution(imitation_market, imitation_dynamics, 0.4, 1.0, rec.t)
        assert abs(rec.eps - ref.eps) <= 1e-6
        assert abs(rec.psi - ref.psi) <= 1e-6

    traj = ode_numeric(imitation_market, imit_dep_dynamics, 0.4, 1.0, 10.0, 1e-3)
    for rec in traj.records[::500]:
        ref = ode_solution_departures(imitation_market, imit_dep_dynamics,
                                      0.4, 1.0, rec.t)
        assert abs(rec.eps - ref.eps) <= 1e-5
        assert abs(rec.psi - ref.psi) <= 1e-5


def test_rk4_rows_pinned_as_the_closed_form():
    # table 2's b = 0.4, delta = 0.85, eps0 = 0.8 cell to its 1 000-round horizon: the
    # flow rises onto the threshold eps_bar and stays, pinned.  RK4's stages cross it a
    # step before the landing and turn back; that step lands on it instead of stepping
    # back down, and every row from there on is pinned, as the closed form's rows are
    config = table2_spec(n_seeds=1).rows[2].config
    dyn = config.dynamics
    traj = ode_numeric(config.market, dyn, dyn.eps0, 1.0, round_clock(dyn.n0, dyn.rounds), 1e-3)
    refs = [ode_solution_departures(config.market, dyn, dyn.eps0, 1.0, rec.t)
            for rec in traj.records]
    assert [rec.pinned for rec in traj.records] == [ref.pinned for ref in refs]
    assert 0 < sum(rec.pinned for rec in traj.records) < len(traj.records)
    assert max(abs(rec.eps - ref.eps) for rec, ref in zip(traj.records, refs)) <= 1e-12


@pytest.mark.parametrize("b, delta, eps0, expected", [
    (0.9, 0.85, 0.85, 0.9999995558455025),
    (0.9, 0.85, 0.75, 0.000361050350353936),
    (0.4, 0.85, 0.80, 0.8350071769340519),
    (0.9, 0.45, 0.60, 0.9999983220850798),
    (0.15, 0.45, 0.20, 0.07485570453450059),
])
def test_round_walker_goldens(b, delta, eps0, expected):
    market = MarketParams(w=70.0, v=20.0, alpha=0.95, delta=delta,
                          u=0.15, d=-0.6, r_s=0.1, r_b=0.11)
    dyn = DynamicsParams(mean_N=1.0, mean_S=10.0, b_n=b, b_s=b,
                         n0=300, rounds=1000)
    got = finite_round_estimate(market, dyn, eps0, 0, 1000)
    assert got == pytest.approx(expected, rel=1e-10)


def test_round_walker_edges(growth_market, growth_dyn):
    assert finite_round_estimate(growth_market, growth_dyn, 0.85, 0, 0) == 0.85
    with pytest.raises(ParamError):
        finite_round_estimate(growth_market, growth_dyn, 0.85, -1, 10)
    with pytest.raises(ParamError):
        finite_round_estimate(growth_market, growth_dyn, 0.85, 0, -1)
    # the round clock takes the same counts
    assert round_clock(300, 0) == 0.0
    for rounds in (-5, 2.5):
        with pytest.raises(ParamError, match="^rounds: "):
            round_clock(300, rounds)


def test_classifier_growth(growth_market, growth_dyn):
    report = classify_attractors(growth_market, growth_dyn)
    assert report.attractors == ((0.0, 1.0), (1.0, 1.0))
    assert report.doa == ((0.0, 0.8350071769340519), (0.8350071769340519, 1.0))
    assert report.regime_label == ("beta=8.8, kappa_below=-6.16; "
                                   "[0,0.835007)->eps*=0 [0.835007,1)->eps*=1")
    assert not report.conjecture


def test_classifier_departures_move_the_split(imitation_market,
                                              imitation_dynamics,
                                              imit_dep_dynamics):
    plain = classify_attractors(imitation_market, imitation_dynamics)
    assert plain.doa[0][1] == pytest.approx(0.45975590208980066, rel=1e-12)
    assert plain.attractors == ((0.0, 7.0), (1.0, 7.0))

    dep = classify_attractors(imitation_market, imit_dep_dynamics)
    assert dep.doa[0][1] == pytest.approx(0.261569416498994, rel=1e-12)
    assert "departures" in dep.regime_label
    # leavers shrink the basin of the all-safe state
    assert dep.doa[0][1] < plain.doa[0][1]


def test_piecewise_intervals(imitation_market, imit_dep_dynamics):
    segs = _flow_table(imitation_market, imit_dep_dynamics, imit_dep_dynamics.mean_L).segs
    assert [s.lo for s in segs] == pytest.approx([0.0, 0.261569416498994, 0.45975590208980066])
    assert [s.hi for s in segs] == pytest.approx([0.261569416498994, 0.45975590208980066, 1.0])
    # kappa switches from beta(1 - 2 delta) to beta at eps_bar
    assert [s.kappa for s in segs] == pytest.approx([-4.68, -4.68, 7.8])
    # logistic midpoints mu, exponents q and psi targets a; no mu lies inside
    # its own interval, so the closed form needs no further split
    mu = [1.0 + s.e_dep / s.kappa for s in segs]
    assert mu == pytest.approx([1.0, -0.1965811965811961, 1.7179487179487176])
    assert not any(s.lo < m < s.hi for s, m in zip(segs, mu))
    assert [(s.kappa + s.e_dep) / s.a for s in segs] == pytest.approx(
        [-0.6685714285714288, 0.6571428571428557, 9.571428571428571])
    assert [s.a for s in segs] == pytest.approx([7.0, 1.4000000000000004, 1.4000000000000004])


def test_degenerate_flow(imitation_market, imitation_dynamics):
    # departures exactly cancel the switching drift on the middle interval
    _, kappa = drift_rates(imitation_market, imitation_dynamics)
    bad = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=-kappa,
                         b_n=0.8, b_s=0.8, n0=500, rounds=4000)
    with pytest.raises(DegenerateFlowError):
        ode_solution_departures(imitation_market, bad, 0.4, 1.0, 1.0)
    assert issubclass(DegenerateFlowError, ParamError)


def test_flow_input_validation(growth_market, growth_dyn):
    with pytest.raises(ParamError):
        ode_solution(growth_market, growth_dyn, 1.2, 1.0, 1.0)
    with pytest.raises(ParamError):
        ode_solution(growth_market, growth_dyn, 0.5, 0.0, 1.0)
    with pytest.raises(ParamError):
        ode_solution(growth_market, growth_dyn, 0.5, 1.0, -1.0)
    with pytest.raises(ParamError):
        ode_numeric(growth_market, growth_dyn, 0.5, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("t", [math.inf, math.nan])
@pytest.mark.parametrize("solve", [ode_solution, ode_solution_departures])
def test_flow_rejects_non_finite_time(growth_market, growth_dyn, solve, t):
    with pytest.raises(ParamError, match="^t: "):
        solve(growth_market, growth_dyn, 0.5, 1.0, t)


@pytest.mark.parametrize("horizon", [math.inf, math.nan, -1.0])
def test_rk4_rejects_bad_horizon(growth_market, growth_dyn, horizon):
    # checked before the first step: an infinite horizon would never return
    with pytest.raises(ParamError, match="^horizon: "):
        ode_numeric(growth_market, growth_dyn, 0.5, 1.0, horizon, 1e-3)


@pytest.mark.parametrize("l, k", [(0, math.inf), (0, math.nan), (math.nan, 10), (0, 10.5)])
def test_round_walker_rejects_non_integer_rounds(growth_market, growth_dyn, l, k):
    with pytest.raises(ParamError):
        finite_round_estimate(growth_market, growth_dyn, 0.85, l, k)


def test_flow_past_the_warp_overflow(growth_market, growth_dyn):
    # e^t overflows a double beyond t ~ 709.8; the warp switches to its log form
    state = ode_solution(growth_market, growth_dyn, 0.85, 1.0, 1000.0)
    assert state.eps == 1.0 and state.psi == 1.0


def _crossed(seg, eps0, psi0, edge, up, dt):
    v = _eps_after(seg, eps0, psi0, dt)
    return (v >= edge or math.isinf(v)) if up else v <= edge


@given(kappa=st.one_of(st.just(0.0), st.floats(-10.0, -0.1), st.floats(0.1, 10.0)),
       e_dep=st.floats(0.0, 5.0), a=st.floats(0.2, 10.0), psi0=st.floats(0.2, 10.0),
       lo=st.one_of(st.just(0.0), st.floats(1e-6, 0.9)), width=st.floats(0.05, 1.0),
       frac=st.floats(0.02, 0.98))
def test_cross_time_is_the_first_crossing(kappa, e_dep, a, psi0, lo, width, frac):
    # logistic (0 < eps0 < mu), pole (eps0 > mu or mu < 0) and kappa = 0 branches
    hi = min(lo + width, 1.0)
    mu = 1.0 + e_dep / kappa if kappa else math.nan
    # degenerate (mu = 0) and motionless segments are rejected upstream
    assume(abs(mu) >= 1e-3 if kappa else e_dep >= 1e-3)
    seg = _Segment(lo, hi, kappa, e_dep, a)
    eps0 = lo + frac * (hi - lo)
    assume(eps0 > 0.0 and not abs(eps0 - mu) < 1e-3)
    up = seg.drift(eps0) > 0.0
    edge = hi if up else lo
    dt = _cross_time(seg, eps0, psi0, edge, up)
    # an edge at 0, or one with the midpoint mu between it and eps0, is never reached
    never = edge == 0.0 or min(eps0, edge) <= mu <= max(eps0, edge)
    assert math.isinf(dt) == never
    if not never:
        assert _crossed(seg, eps0, psi0, edge, up, dt)
        assert not _crossed(seg, eps0, psi0, edge, up, dt * (1.0 - 1e-12))


def test_cross_time_edge_cases():
    # downward logistic toward 0: the lower edge at 0 is never reached
    seg = _Segment(0.0, 0.5, -4.68, 0.0, 7.0)
    assert _cross_time(seg, 0.3, 1.0, 0.0, up=False) == math.inf
    # midpoint inside the segment: flow from below stalls at mu = 0.6 < hi
    seg = _Segment(0.2, 0.9, 5.0, -2.0, 3.0)
    assert _cross_time(seg, 0.4, 1.0, 0.9, up=True) == math.inf
    # a lower edge so far below eps0 that 1 + (h* - 1) cancels to 0: reached, late
    seg = _Segment(1e-30, 0.5, -1.0, 0.0, 1.0)
    dt = _cross_time(seg, 0.5, 1.0, 1e-30, up=False)
    assert math.isfinite(dt)
    assert _eps_after(seg, 0.5, 1.0, dt) <= 1e-30 < _eps_after(seg, 0.5, 1.0, dt * (1 - 1e-12))
    # repelled upward from mu = 0.3: the pole branch runs off to +inf, past hi
    seg = _Segment(0.2, 0.9, -5.0, 3.5, 3.0)
    dt = _cross_time(seg, 0.5, 1.0, 0.9, up=True)
    assert math.isfinite(dt)
    assert _eps_after(seg, 0.5, 1.0, dt) >= 0.9 > _eps_after(seg, 0.5, 1.0, dt * (1 - 1e-12))
    assert math.isinf(_eps_after(seg, 0.5, 1.0, 10 * dt))
    # and agrees with a plain bisection of the forward map
    lo_t, hi_t = 0.0, 10 * dt
    while hi_t - lo_t > 1e-14:
        mid = 0.5 * (lo_t + hi_t)
        lo_t, hi_t = (lo_t, mid) if _eps_after(seg, 0.5, 1.0, mid) >= 0.9 else (mid, hi_t)
    assert dt == pytest.approx(hi_t, abs=1e-13)


def test_avg_limit_all_safe(imitation_market):
    report = avg_limit(imitation_market)
    assert report.limit == 1.0
    assert report.case == "all-safe"
    assert report.applies
    assert report.delta1_closed_form is None


def test_avg_limit_all_risky():
    market = MarketParams(w=70.0, v=0.0, alpha=0.95, delta=0.99,
                          u=0.3, d=-0.1, r_s=0.01, r_b=0.02)
    report = avg_limit(market)
    assert report.limit == 0.0
    assert report.case == "all-risky"
    assert report.applies
    rbar = market.delta * market.u + (1 - market.delta) * market.d
    assert report.delta1_closed_form == pytest.approx(
        (market.r_b - rbar) / (rbar - market.r_s))

