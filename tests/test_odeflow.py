"""Continuous-time flow: closed forms, RK4 cross-check, attractor report."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sysrisk import DynamicsParams, MarketParams, ParamError, odeflow
from sysrisk.analytic import drift_rates, mean_return_gap
from sysrisk.harness import figure_configs, table2_spec, table3_spec, table4_spec
from sysrisk.odeflow import (
    DegenerateFlowError,
    _cross_time,
    _eps_after,
    _flow_legs,
    _flow_table,
    _psi_after,
    _Segment,
    _state_at,
    avg_limit,
    classify_attractors,
    finite_round_estimate,
    flow_at_rounds,
    flow_path,
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
    # flow rises onto the threshold eps_bar and stays, pinned.  The RK4 step whose end
    # would pass it is cut to land on it, and every row from there on is pinned, as the
    # closed form's rows are
    config = table2_spec(n_seeds=1).rows[2].config
    dyn = config.dynamics
    traj = ode_numeric(config.market, dyn, dyn.eps0, 1.0, round_clock(dyn.n0, dyn.rounds), 1e-3)
    refs = [ode_solution_departures(config.market, dyn, dyn.eps0, 1.0, rec.t)
            for rec in traj.records]
    assert [rec.pinned for rec in traj.records] == [ref.pinned for ref in refs]
    assert 0 < sum(rec.pinned for rec in traj.records) < len(traj.records)
    assert max(abs(rec.eps - ref.eps) for rec, ref in zip(traj.records, refs)) <= 1e-12


FLOWS = {f"{spec.name} row {i}": row.config
         for spec in (table2_spec(1), table3_spec(1), table4_spec(1))
         for i, row in enumerate(spec.rows)}
FLOWS.update((config.label, config) for config in figure_configs())


@pytest.mark.parametrize("name", list(FLOWS))
def test_rk4_meets_the_closed_flow(name):
    # every table and figure flow from its eps0 to its horizon: each RK4 row within
    # criterion 3's departures bound of the closed form at the same t.  Pinned flags
    # agree except on the row where RK4 lands on a pinning threshold: its landing time
    # differs from the certified crossing time by RK4's own error, so the closed form
    # may not quite have reached the threshold there
    config = FLOWS[name]
    dyn = config.dynamics
    traj = ode_numeric(config.market, dyn, dyn.eps0, 1.0, round_clock(dyn.n0, dyn.rounds), 1e-3)
    legs = _flow_legs(config.market, dyn, dyn.eps0, 1.0, dyn.mean_L)
    landings = 0
    for rec in traj.records:
        ref = _state_at(legs, rec.t)
        assert abs(rec.eps - ref.eps) <= 1e-5 and abs(rec.psi - ref.psi) <= 1e-5
        if rec.pinned != ref.pinned:
            landings += 1
            assert rec.pinned and abs(ref.eps - rec.eps) <= 1e-12
    assert landings <= 1


def test_rk4_large_steps_integrate_or_refuse():
    # no step returns a fraction outside [0, 1] or a non-positive rate; a step RK4
    # cannot take raises, and every step of 0.3 or less integrates every flow
    for config in FLOWS.values():
        for step in np.geomspace(0.05, 4.0, 25).tolist():
            for eps0 in (0.05, 0.3, 0.5, 0.7, 0.95):
                try:
                    traj = ode_numeric(config.market, config.dynamics, eps0, 1.0, 8.0, step)
                except ParamError as err:
                    assert str(err).startswith("step: ") and step > 0.3
                    continue
                assert all(0.0 <= rec.eps <= 1.0 and rec.psi > 0.0 for rec in traj.records)


@pytest.mark.parametrize("name, step, eps0", [("table2 row 0", 0.537, 0.95),
                                              ("table2 row 3", 0.644, 0.05),
                                              ("table3 row 0", 0.447, 0.95),
                                              ("table3 row 0", 0.537, 0.3)])
def test_rk4_refuses_a_step_that_leaves_its_segment(name, step, eps0):
    # each of these runs has a step that ends behind the flow or past its segment's
    # far side; integrated on from there, eps runs off to NaN or to -inf
    config = FLOWS[name]
    with pytest.raises(ParamError, match="^step: "):
        ode_numeric(config.market, config.dynamics, eps0, 1.0, 8.0, step)


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


def _clock(n0, rounds):
    """The round clock summed in plain Python: one fresh exact sum of its terms."""
    return math.fsum([1.0 / (j + n0) for j in range(1, rounds + 1)])


@pytest.mark.parametrize("n0, l, k", [(300, 200, 500), (300, 1000, 1), (2, 7, 40),
                                      (10**6, 5000, 300), (300, 450, 0)])
def test_round_walker_offset_is_the_flow_over_the_added_clock(growth_market, growth_dyn,
                                                              n0, l, k):
    # rounds l+1..l+k add the clock time of rounds 1..l+k minus that of rounds 1..l,
    # summed here in plain Python; the walker is the departure-free flow over it
    dyn = replace(growth_dyn, n0=n0)
    expected = ode_solution(growth_market, dyn, 0.85, 1.0, _clock(n0, l + k) - _clock(n0, l)).eps
    assert finite_round_estimate(growth_market, dyn, 0.85, l, k) == expected


def _bits(state):
    return state.eps.hex(), state.psi.hex(), state.t.hex(), state.pinned


@pytest.mark.parametrize("departures, n0, eps0, psi0, first, ends", [
    (False, 300, 0.85, 1.0, 0, range(0, 1001, 50)),             # first = 0, from the start
    (True, 500, 0.4, 1.0, 250, range(250, 4001, 250)),          # first > 0, thresholds crossed
    (True, 500, 0.3, 0.9, 10, (10, 10, 40, 40, 40, 41, 2000)),  # repeated ends
    (True, 500, 0.45, 1.1, 77, (77,)),                          # end == first: the start state
    (False, 10**6, 0.85, 1.0, 5000, (5000, 5300, 100000)),      # a large n0
])
def test_flow_at_rounds_is_the_flow_over_each_clock_difference(
        growth_market, growth_dyn, imitation_market, imit_dep_dynamics,
        departures, n0, eps0, psi0, first, ends):
    # each state is the closed flow at clock(end) - clock(first), bit for bit
    market, dyn = ((imitation_market, imit_dep_dynamics) if departures
                   else (growth_market, growth_dyn))
    dyn = replace(dyn, n0=n0)
    flow = ode_solution_departures if departures else ode_solution
    got = list(flow_at_rounds(market, dyn, eps0, psi0, dyn.mean_L, first, ends))
    assert len(got) == len(ends)
    # flow_path reads the same states in two loops, the clock first
    path = flow_path(market, dyn, eps0, psi0, dyn.mean_L, first, ends)
    assert [_bits(state) for state in path] == [_bits(state) for state in got]
    for end, state in zip(ends, got):
        t = _clock(n0, end) - _clock(n0, first)
        assert _bits(state) == _bits(flow(market, dyn, eps0, psi0, t))
    if ends[0] == first:
        assert got[0] == (eps0, psi0, 0.0, False)


@pytest.mark.parametrize("first, ends, name", [(-1, (5,), "first"),
                                               (10, (5, 9), "ends"),         # below first
                                               (10, (20, 30, 29), "ends")])  # decreasing
def test_flow_at_rounds_rejects_rounds_out_of_order(growth_market, growth_dyn,
                                                    first, ends, name):
    for sample in (lambda *args: list(flow_at_rounds(*args)), flow_path):
        with pytest.raises(ParamError, match=f"^{name}: ") as exc:
            sample(growth_market, growth_dyn, 0.85, 1.0, 0.0, first, ends)
        assert "\n" not in str(exc.value)


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
    mu = [s.mu for s in segs]
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


def test_balanced_flow_holds_eps(growth_market):
    # b_n = b_s = 1/2 and no departures: zero drift on every segment, so the flow
    # is balanced wherever it starts; eps stays put while psi relaxes toward mean_N
    dyn = DynamicsParams(mean_N=1.0, mean_S=10.0, b_n=0.5, b_s=0.5, n0=300, rounds=1000)
    eps0, psi0 = 0.3, 2.5
    states = list(flow_at_rounds(growth_market, dyn, eps0, psi0, 0.0, 0, (10, 100, 1000)))
    for state in states:
        assert state.eps == eps0 and not state.pinned
        assert state.psi == _psi_after(dyn.mean_N, psi0, state.t)
    assert states[-1].psi < states[0].psi
    traj = ode_numeric(growth_market, dyn, eps0, psi0, 2.0, 0.1)
    assert len(traj.records) == 21
    assert all(rec.eps == eps0 and not rec.pinned for rec in traj.records)
    with pytest.raises(ParamError, match="beta: zero net drift"):
        classify_attractors(growth_market, dyn)


def test_psi_after_keeps_a_tiny_start():
    # psi0 below the rounding of a: a + (psi0 - a) e^-dt would cancel to 0 here
    dt = 4.4e-21
    assert _psi_after(6.16, 1e-20, dt) == pytest.approx(1e-20 + 6.16 * dt, rel=1e-12)
    assert _psi_after(6.16, 5e-324, 0.0) == 5e-324


def test_flow_input_validation(growth_market, growth_dyn):
    with pytest.raises(ParamError):
        ode_solution(growth_market, growth_dyn, 1.2, 1.0, 1.0)
    with pytest.raises(ParamError):
        ode_solution(growth_market, growth_dyn, 0.5, 0.0, 1.0)
    with pytest.raises(ParamError):
        ode_solution(growth_market, growth_dyn, 0.5, 1.0, -1.0)
    with pytest.raises(ParamError):
        ode_numeric(growth_market, growth_dyn, 0.5, 1.0, 1.0, 0.0)
    # a departure mass passed to the flow directly must stay below arrivals
    with pytest.raises(ParamError, match="mean_L: departures must stay below arrivals"):
        list(flow_at_rounds(growth_market, growth_dyn, 0.5, 1.0, growth_dyn.mean_N, 0, (10,)))


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


def _no_flow_table(*args):
    raise AssertionError("ode_numeric went past its input checks")


@pytest.mark.parametrize("horizon, step", [(10.0, 1e-6), (1.0, 1e-25)])
def test_rk4_caps_its_step_count(growth_market, growth_dyn, monkeypatch, horizon, step):
    # checked before the first step: 10^7 steps would take minutes, and a step below
    # half the float spacing of the flow time would never end
    monkeypatch.setattr(odeflow, "_flow_table", _no_flow_table)
    with pytest.raises(ParamError, match="^step: .* more than 1000000 steps"):
        ode_numeric(growth_market, growth_dyn, 0.5, 1.0, horizon, step)


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


def test_avg_limit_interior_crossing():
    # the gap is positive below one crossing and negative above it
    market = MarketParams(w=70.0, v=15.0, alpha=0.95, delta=0.93,
                          u=0.16, d=-0.6, r_s=0.1, r_b=0.11)
    report = avg_limit(market)
    assert report.case == "interior"
    assert report.applies
    assert report.limit == pytest.approx(0.42415, abs=1e-5)
    assert mean_return_gap(market, report.limit - 1e-9) > 0.0
    assert mean_return_gap(market, report.limit + 1e-9) < 0.0


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

