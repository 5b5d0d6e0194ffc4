from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sysrisk import DynamicsParams, MarketParams, RoundRecord, Trajectory
from sysrisk.replicator import (
    PopulationState,
    _imitate,
    estimate_limit,
    initial_state,
    run_simulation,
)


@dataclass(frozen=True)
class Cfg:
    market: MarketParams
    dynamics: DynamicsParams
    departures: bool = True
    label: str = ""


@pytest.fixture(scope="module")
def short_cfg(imitation_market):
    dyn = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=5.6, b_n=0.8, b_s=0.8,
                         n0=500, eps0=0.4, rounds=120)
    return Cfg(market=imitation_market, dynamics=dyn)


def test_first_record_is_start_state(short_cfg):
    traj = run_simulation(short_cfg, seed=3)
    rec = traj.records[0]
    assert rec.eps == short_cfg.dynamics.eps0
    assert rec.psi == 1.0
    assert rec.round == 0
    assert rec.n == short_cfg.dynamics.n0
    assert rec.n1 == round(short_cfg.dynamics.eps0 * short_cfg.dynamics.n0)
    assert traj.kind == "mc" and traj.seed == 3
    assert len(traj.records) == short_cfg.dynamics.rounds


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_population_bookkeeping(short_cfg, seed):
    dyn = short_cfg.dynamics
    traj = run_simulation(replace_rounds(short_cfg, 40), seed=seed)
    for prev, cur in zip(traj.records, traj.records[1:]):
        # group-1 flows balance exactly
        assert cur.n1 == prev.n1 + prev.xi + prev.Xi1 - prev.Xi2
        # total arrivals minus departures account for the size change
        arrivals = cur.n - prev.n + prev.departures
        assert 0 <= arrivals <= dyn.bound_N
        assert 0 <= prev.xi <= arrivals
        assert 0 <= prev.departures <= dyn.bound_L
        # the population clock drives psi
        assert cur.psi == pytest.approx(cur.n / (cur.round + dyn.n0))
        assert cur.eps == pytest.approx(cur.n1 / cur.n)


def replace_rounds(cfg: Cfg, rounds: int) -> Cfg:
    return replace(cfg, dynamics=replace(cfg.dynamics, rounds=rounds))


def test_same_seed_same_path(short_cfg):
    a = run_simulation(short_cfg, seed=11)
    b = run_simulation(short_cfg, seed=11)
    assert a.records == b.records
    c = run_simulation(short_cfg, seed=12)
    assert a.records != c.records


def test_departures_flag(short_cfg):
    off = replace(short_cfg, departures=False)
    traj = run_simulation(off, seed=5)
    assert all(rec.departures == 0 for rec in traj.records)
    on = run_simulation(short_cfg, seed=5)
    assert any(rec.departures > 0 for rec in on.records)


def test_extreme_starts_are_absorbing(imitation_market):
    for eps0, expect in [(0.0, 0.0), (1.0, 1.0)]:
        dyn = DynamicsParams(mean_N=7.0, mean_S=6.0, b_n=0.8, b_s=0.8,
                             n0=500, eps0=eps0, rounds=60)
        traj = run_simulation(Cfg(market=imitation_market, dynamics=dyn), seed=2)
        assert all(rec.eps == expect for rec in traj.records)


def test_all_safe_population_skips_clearing(imitation_market):
    dyn = DynamicsParams(mean_N=7.0, mean_S=6.0, b_n=0.8, b_s=0.8,
                         n0=500, eps0=1.0, rounds=10)
    traj = run_simulation(Cfg(market=imitation_market, dynamics=dyn), seed=2)
    for rec in traj.records:
        assert rec.mean_r2 is None
        assert rec.default_frac == 0.0


def test_state_is_four_numbers(imitation_market):
    # the graph is drawn afresh each round, so the state holds counts, not agents
    assert [f.name for f in fields(PopulationState)] == ["round", "n1", "n2", "psi"]
    dyn = DynamicsParams(mean_N=7.0, mean_S=6.0, b_n=0.8, b_s=0.8, n0=100, eps0=0.4)
    state = initial_state(imitation_market, dyn, np.random.default_rng(17))
    assert state == PopulationState(round=0, n1=40, n2=60, psi=1.0)


def test_estimate_limit_tail_mean():
    records = tuple(RoundRecord(eps=e, psi=1.0, round=i)
                    for i, e in enumerate([0.1] * 30 + [0.5] * 10))
    traj = Trajectory(records=records, kind="mc")
    # the window is a tenth of the run
    assert estimate_limit(traj) == pytest.approx(0.5)


def _reference_switches(r, n1, attempters, contacts, flips):
    """Per-pair switching rule: (risky positions to risk-free, risk-free positions to risky)."""
    to_g1, to_g2 = [], []
    for a, c, flip in zip(attempters, contacts, flips):
        a_risky = a >= n1
        if a_risky == (c >= n1):
            continue
        if a_risky:
            if (r[c] >= r[a]) != flip:   # ties favour risk-free
                to_g1.append(a - n1)
        elif (r[c] > r[a]) != flip:
            to_g2.append(a)
    return to_g1, to_g2


def _reference_joins(r, n1, first, second, flips):
    """Per-pair arrival rule: does each entrant join the risk-free group?"""
    joins = []
    for f, s, flip in zip(first, second, flips):
        f_risky = f >= n1
        if f_risky == (s >= n1):
            joins.append(not f_risky)
        else:
            safe, risky = (s, f) if f_risky else (f, s)
            joins.append((r[safe] >= r[risky]) != flip)   # ties favour risk-free
    return joins


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_imitation_rule_matches_per_pair_reference(data):
    n1 = data.draw(st.integers(0, 6), label="n1")
    n2 = data.draw(st.integers(0 if n1 >= 2 else 2 - n1, 6), label="n2")
    n = n1 + n2
    # few distinct values, so that tied returns are common
    r = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=n, max_size=n)))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)),
                               min_size=1, max_size=12))
    i = np.array([a for a, _ in pairs])
    j = np.array([b + (b >= a) for a, b in pairs])   # a distinct partner, as drawn in a round
    flips = np.array(data.draw(st.lists(st.booleans(), min_size=i.size, max_size=i.size)))

    mixed, safe_ahead = _imitate(r, n1, i, j, flips)
    # switching: attempter i moves when the pair is mixed and the other side is seen ahead
    switchers = i[mixed & (safe_ahead == (i >= n1))]
    ref_g1, ref_g2 = _reference_switches(r, n1, i.tolist(), j.tolist(), flips.tolist())
    assert (switchers[switchers >= n1] - n1).tolist() == ref_g1
    assert switchers[switchers < n1].tolist() == ref_g2
    # arrivals: a mixed pair is compared, otherwise the entrant follows i's group
    joins = np.where(mixed, safe_ahead, i < n1)
    assert joins.tolist() == _reference_joins(r, n1, i.tolist(), j.tolist(), flips.tolist())
