from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sysrisk import DynamicsParams, MarketParams, RoundRecord, Trajectory, clearing, derive
from sysrisk.clearing import ReturnsVector, defaulted, surpluses
from sysrisk.model import borrower_debt, count_bound
from sysrisk.netgen import edge_weights, sample_shocks
from sysrisk.replicator import (
    PopulationState,
    _agent_flows,
    _count_round,
    _draw_counts,
    _imitate,
    estimate_limit,
    initial_state,
    run_simulation,
)


@dataclass(frozen=True)
class Cfg:
    market: MarketParams
    dynamics: DynamicsParams
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
    assert traj.seed == 3
    # every row of a run is a complete round record
    assert all(isinstance(rec, RoundRecord) for rec in traj.records)
    assert len(traj.records) == short_cfg.dynamics.rounds


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_population_bookkeeping(short_cfg, seed):
    _check_bookkeeping(short_cfg, seed)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sampled_graph_bookkeeping(short_cfg, seed):
    # p_ss < 1 plays the per-agent round
    _check_bookkeeping(replace(short_cfg, market=replace(short_cfg.market, p_ss=0.5)), seed)


def _check_bookkeeping(cfg, seed):
    dyn = cfg.dynamics
    traj = run_simulation(replace_rounds(cfg, 40), seed=seed)
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
    # departures are off exactly when the departure-cap mean is zero
    assert short_cfg.dynamics.mean_L > 0
    off = replace(short_cfg, dynamics=replace(short_cfg.dynamics, mean_L=0.0))
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
    records = tuple(RoundRecord(round=i, n=10, n1=round(10 * e), eps=e, psi=1.0,
                                default_frac=0.0, xi=0, Xi1=0, Xi2=0, departures=0,
                                mean_r1=None, mean_r2=None)
                    for i, e in enumerate([0.1] * 30 + [0.5] * 10))
    traj = Trajectory(records=records)
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


# -- the count-level round on the complete graph ------------------------------------

SYSTEMIC = MarketParams(w=70.0, v=70.0, alpha=0.95, delta=0.8,
                        u=0.13, d=-0.6, r_s=0.1, r_b=0.11)
# up-moves at even odds: near eps = 0 every agent then ends each round at zero surplus
DEEP_DEBT = replace(SYSTEMIC, delta=0.5)
ROUND_LAW = ("xi", "Xi1", "Xi2", "departures", "default_frac")
COUNTS = slice(0, 4)  # the integer components of ROUND_LAW


def _round_law(play, market, dyn, state, seed, draws):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(draws):
        _, rec = play(state, market, dyn, rng)
        rows.append(tuple(getattr(rec, name) for name in ROUND_LAW))
    return rows


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance of two samples of numbers."""
    a, b = np.sort(a), np.sort(b)
    grid = np.union1d(a, b)
    return float(np.max(np.abs(np.searchsorted(a, grid, side="right") / a.size
                               - np.searchsorted(b, grid, side="right") / b.size)))


def _chi2_homogeneity(a, b, min_cell=10):
    """Chi-square of two equal-size samples of hashable outcomes, and its df.

    Outcomes seen fewer than `min_cell` times in both samples together share one cell.
    """
    ca, cb = Counter(a), Counter(b)
    cells, rest = [], [0, 0]
    for k in ca.keys() | cb.keys():
        if ca[k] + cb[k] >= min_cell:
            cells.append((ca[k], cb[k]))
        else:
            rest[0] += ca[k]
            rest[1] += cb[k]
    if sum(rest):
        cells.append(tuple(rest))
    return sum((x - y) ** 2 / (x + y) for x, y in cells), len(cells) - 1


# Fixed before any draw was looked at: each check has a false-alarm rate of at most
# 1e-4 (KS: c(alpha) = sqrt(ln(2 / alpha) / 2); chi-square: Wilson-Hilferty quantile).
ORACLE_DRAWS = 3000
ORACLE_ALPHA_Z = 3.719   # upper 1e-4 point of the standard normal
ORACLE_KS_C = 2.2252     # sqrt(ln(2e4) / 2)


def _chi2_bound(df):
    return df * (1 - 2 / (9 * df) + ORACLE_ALPHA_Z * (2 / (9 * df)) ** 0.5) ** 3


ORACLE_CASES = {
    # the table-3 imitation market mid-way, departures on: the down class defaults
    "departures": (DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=5.6, b_n=0.8, b_s=0.8),
                   "imitation", PopulationState(round=0, n1=200, n2=300, psi=1.0)),
    # three risky agents: an empty shock class is common and the peer weight large
    "small_n2": (DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=1.75, b_n=0.4, b_s=0.4),
                 "imitation", PopulationState(round=0, n1=97, n2=3, psi=1.0)),
    # heavy senior debt: whether r1 > 0 hinges on the up-class draw, and ties are common
    "systemic": (DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=1.75, b_n=0.4, b_s=0.4),
                 "systemic", PopulationState(round=0, n1=100, n2=100, psi=1.0)),
    # attempts up to the whole population, so drawing attempters without replacement shows
    "crowded": (DynamicsParams(mean_N=7.0, mean_S=30.0, mean_L=5.6, b_n=0.9, b_s=0.7),
                "imitation", PopulationState(round=0, n1=20, n2=30, psi=1.0)),
    # four agents: a contact is one of the n - 1 others, a third off from 1/n here
    "tiny": (DynamicsParams(mean_N=7.0, mean_S=30.0, mean_L=1.75, b_n=0.9, b_s=0.9),
             "imitation", PopulationState(round=0, n1=2, n2=2, psi=1.0)),
}


def _newton_clearing(b, sig2, y):
    """Greatest X with X_i = clip(b_i + sig2 * (sum(X) - X_i), 0, y): the complete graph.

    Newton from above, Eisenberg & Noe's fictitious default: from X = y, read each
    agent's regime at X (pays y, 0 or part of y) and solve the partial payers P
    exactly with the rest held, ((1 + sig2) I - sig2 11^T) x_P = b_P + sig2 * y * |F|
    over the full payers F, by Sherman-Morrison.  Where X >= T(X) and X is above the
    greatest fixed point X*, that solve lands in [X*, X] and again above its map, so
    regimes only fall and the steps end once they repeat.  Agent by agent, and
    shares no code with `class_fixed_point`.
    """
    X, scale, held = np.full(b.size, y), 1.0 + sig2, None
    for _ in range(2 * b.size + 2):
        pre = b + sig2 * (X.sum() - X)
        full, part = pre >= y, (pre > 0.0) & (pre < y)
        if held is not None and np.array_equal(full, held[0]) and np.array_equal(part, held[1]):
            return X
        held = full, part
        r = b[part] + sig2 * y * np.count_nonzero(full)
        paid_p = r.sum() / (scale - sig2 * r.size)  # 1^T x_P
        X = np.where(full, y, 0.0)
        X[part] = np.clip((r + sig2 * paid_p) / scale, 0.0, y)
    raise AssertionError("Newton from above: the regimes never settled")


def _newton_round(state, market, dyn, rng):
    """`_agent_round` on the complete graph: its flows, on returns of `_newton_clearing`.

    Draws as `_agent_round` does (the complete graph has no links to draw), and
    certifies every solve from outside: one map application moves no payment by
    more than 1e-12 * y.
    """
    n1, n2, eps = state.n1, state.n2, state.eps
    counts = _draw_counts(rng, dyn)
    k = sample_shocks(market, n2, eps, rng).k
    y, (w_g1, w_g2) = borrower_debt(market, eps), edge_weights(market, n1, n2)
    X = _newton_clearing(k - market.v, w_g2 / y, y)
    owed_in = w_g2 / y * (X.sum() - X)
    assert np.all(np.abs(np.clip(k + owed_in - market.v, 0.0, y) - X) <= 1e-12 * y)
    r1, r2 = surpluses(market, eps, y, np.full(n1, w_g1 / y * X.sum()), (k, owed_in))
    returns = ReturnsVector(r=np.concatenate([r1, r2]), n1=n1,
                            defaults=np.flatnonzero(defaulted(X, y)))
    return _agent_flows(state, dyn, counts, returns, rng)


def _no_kernel(*args, **kwargs):
    raise AssertionError("the agent-level oracle reached class_fixed_point")


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_count_round_matches_agent_round(case, imitation_market, monkeypatch):
    dyn, which, state = ORACLE_CASES[case]
    market = imitation_market if which == "imitation" else SYSTEMIC
    counted = _round_law(_count_round, market, dyn, state, 101, ORACLE_DRAWS)
    monkeypatch.setattr(clearing, "class_fixed_point", _no_kernel)
    agents = _round_law(_newton_round, market, dyn, state, 202, ORACLE_DRAWS)
    for k, name in enumerate(ROUND_LAW):
        a = np.array([row[k] for row in counted], dtype=float)
        b = np.array([row[k] for row in agents], dtype=float)
        assert _ks_distance(a, b) <= ORACLE_KS_C * (2 / ORACLE_DRAWS) ** 0.5, name
    # the joint law of the four counts; default_frac takes one value per defaulter
    # count, too many for its cells to fill, so only its KS distance above checks it
    chi2, df = _chi2_homogeneity([row[COUNTS] for row in counted],
                                 [row[COUNTS] for row in agents])
    assert df >= 1 and chi2 <= _chi2_bound(df)


def _count_rounds(market, dyn, state, seed, rounds):
    rng = np.random.default_rng(seed)
    return [_count_round(state, market, dyn, rng) for _ in range(rounds)]


def test_count_round_all_safe(imitation_market):
    dyn = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=5.6, b_n=0.8, b_s=0.8)
    state = PopulationState(round=0, n1=50, n2=0, psi=1.0)
    for nxt, rec in _count_rounds(imitation_market, dyn, state, 1, 200):
        # every entrant meets two risk-free agents; nobody can switch, default or leave
        assert nxt.n2 == 0 and nxt.n1 == 50 + rec.xi
        assert (rec.Xi1, rec.Xi2, rec.departures, rec.default_frac) == (0, 0, 0, 0.0)
        assert rec.mean_r2 is None and rec.mean_r1 > 0.0


def test_count_round_all_risky():
    dyn = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=5.6, b_n=0.8, b_s=0.8)
    state = PopulationState(round=0, n1=0, n2=50, psi=1.0)
    recs = [rec for _, rec in _count_rounds(DEEP_DEBT, dyn, state, 2, 200)]
    # no mixed pair exists, so no switch and no entrant turns risk-free
    assert all((rec.xi, rec.Xi1, rec.Xi2, rec.mean_r1) == (0, 0, 0, None) for rec in recs)
    assert any(rec.departures > 0 for rec in recs)


def test_count_round_single_risky_agent_has_no_peer(imitation_market):
    dyn = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=5.6, b_n=0.8, b_s=0.8)
    state = PopulationState(round=0, n1=99, n2=1, psi=1.0)
    assert edge_weights(imitation_market, 99, 1)[1] == 0.0
    der = derive(imitation_market, state.eps)
    expect = {max(k - imitation_market.v - der.y, 0.0) for k in (der.k_u, der.k_d)}
    for nxt, rec in _count_rounds(imitation_market, dyn, state, 3, 200):
        # with no peer to lend to it, the one borrower earns its own proceeds less its debt
        assert rec.mean_r2 in expect
        assert rec.Xi1 + rec.departures <= 1


def test_count_round_ties_favour_risk_free():
    # at eps = 0.02 every agent ends at zero surplus, so every comparison is a tie;
    # read without error, each tie goes to the risk-free side
    dyn = DynamicsParams(mean_N=7.0, mean_S=30.0, b_n=1.0, b_s=1.0)
    state = PopulationState(round=0, n1=10, n2=490, psi=1.0)
    out = _count_rounds(DEEP_DEBT, dyn, state, 4, 300)
    assert all(rec.mean_r1 == rec.mean_r2 == 0.0 for _, rec in out)
    assert all(rec.Xi2 == 0 for _, rec in out)       # risk-free attempters stay
    assert sum(rec.Xi1 for _, rec in out) > 0        # risky ones meeting a risk-free agent move
    # an entrant turns risk-free exactly when one of its two contacts is risk-free
    n, n2 = state.n, state.n2
    p_join = 1 - n2 * (n2 - 1) / (n * (n - 1))
    xi = sum(rec.xi for _, rec in out)
    arrivals = sum(nxt.n - n for nxt, _ in out)
    assert abs(xi - p_join * arrivals) <= 4 * (arrivals * p_join * (1 - p_join)) ** 0.5


def test_count_round_clips_departures_to_two_agents(caplog):
    # an all-risky pair under heavy senior debt: any departure must be cut
    dyn = DynamicsParams(mean_N=1.5, mean_S=6.0, mean_L=1.0, bound_L=10, b_n=0.8, b_s=0.8)
    state = PopulationState(round=0, n1=0, n2=2, psi=1.0)
    with caplog.at_level("WARNING", logger="sysrisk.replicator"):
        out = _count_rounds(SYSTEMIC, dyn, state, 5, 300)
    assert all(nxt.n >= 2 for nxt, _ in out)
    assert all(rec.departures <= rec.default_frac * state.n for _, rec in out)
    assert any("clipping" in msg for msg in caplog.messages)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n1=st.integers(0, 40), n2=st.integers(0, 40),
       systemic=st.booleans())
def test_count_round_bookkeeping(imitation_market, seed, n1, n2, systemic):
    if n1 + n2 < 2:
        n2 = 2 - n1
    market = SYSTEMIC if systemic else imitation_market
    dyn = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=5.6, b_n=0.8, b_s=0.8)
    state = PopulationState(round=3, n1=n1, n2=n2, psi=0.9)
    nxt, rec = _count_round(state, market, dyn, np.random.default_rng(seed))
    assert (rec.round, rec.n, rec.n1, rec.psi) == (3, state.n, n1, 0.9)
    assert nxt.n1 == n1 + rec.xi + rec.Xi1 - rec.Xi2 and nxt.round == 4
    arrivals = nxt.n - state.n + rec.departures
    assert 0 <= rec.xi <= arrivals <= dyn.bound_N
    assert 0 <= rec.Xi2 <= n1 and 0 <= rec.Xi1 <= n2
    assert rec.Xi1 + rec.Xi2 <= count_bound(dyn.mean_S)
    # departures come from the defaulted risky agents that did not just switch away
    defaulted_agents = round(rec.default_frac * state.n)
    assert 0 <= rec.departures <= min(dyn.bound_L, defaulted_agents) and defaulted_agents <= n2
    assert nxt.n >= 2
    assert nxt.psi == pytest.approx(nxt.n / (4 + dyn.n0))
