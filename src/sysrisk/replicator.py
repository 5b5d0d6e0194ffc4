"""Finite-population Monte-Carlo engine.

Each round, the current population plays one borrowing/clearing round on a
freshly sampled liability network, then the population composition updates:
incumbents imitate better-returning peers (switching), defaulted risky agents
may leave (departures), and newcomers adopt the strategy of better-returning
incumbents (arrivals).  All draws come from a single ``numpy`` Generator in a
fixed order, so a run is fully determined by its seed.  A round's first draws
are its arrival, switch-attempt and departure-cap counts, each a binomial on
the chance that `DynamicsParams` forms once per run (`_draw_counts`).

The state between rounds is two counts, the group sizes (n1, n2): agents
carry no identity across rounds, because every round draws a fresh network.
`run_simulation` keeps them, with the round index k, as locals; psi is the
population on the round clock, n / (k + n0), and only the record carries it.

Two rounds share that law.  On the complete graph (``p_ss = 1``) agents are
interchangeable within three classes -- risk-free, up-shocked, down-shocked
-- so the round's law depends on the class sizes alone (the chain is exactly
lumpable; Kemeny & Snell, *Finite Markov Chains*, ch. 6).  `_count_round`
draws it from a few scalar draws whatever the population size: the up class
by a binomial, the attempters by class by a multivariate hypergeometric, and
switches and arrivals by binomials, each thinned by the chance that a
uniform contact is a mixed pair seen one way.  On sampled graphs
(``p_ss < 1``) agents differ by their links, and `_agent_round` clears the
drawn network and hands the returns to `_agent_flows`, which the tests also
feed complete-graph returns cleared agent by agent, as `_count_round`'s oracle.

Switching and arrivals share one imitation rule (`_imitate`, and its
class-level form `_seen_safe`): a risk-free and a risky agent's returns are
compared, ties go to the risk-free side, and an observation error
(probability 1 - b_s, or 1 - b_n for entrants) flips it.
"""
from __future__ import annotations

import logging
from collections.abc import Sequence

import numpy as np

from .clearing import (ReturnsVector, class_clearing, compute_returns, defaulted, solve_clearing,
                       surpluses)
from .model import DynamicsParams, MarketParams, ParamError, derive
from .netgen import edge_weights, sample_network, sample_shocks
from .records import RoundRecord, Trajectory

log = logging.getLogger(__name__)


def initial_state(params: MarketParams, dyn: DynamicsParams,
                  rng_stream: np.random.Generator) -> tuple[int, int]:
    """The round-0 group sizes (n1, n2): ``round(eps0 * n0)`` agents are risk-free."""
    n0 = dyn.n0
    n1 = int(round(dyn.eps0 * n0))
    n2 = n0 - n1
    # An unused warm-up draw of shocks: it advances the stream by n2 uniforms, so
    # removing it would move every seeded run of the complete graph.
    sample_shocks(params, n2, n1 / n0, rng_stream)
    return n1, n2


def _draw_counts(rng_stream: np.random.Generator, dyn: DynamicsParams) -> tuple[int, int, int]:
    """The round's arrival, switch-attempt and departure-cap counts (N, S, L): each
    drawn on its per-run `dyn.chances` entry, or 0, undrawn, where that is None."""
    (N, S, L), binomial = dyn.chances, rng_stream.binomial
    return (int(binomial(*N)) if N else 0, int(binomial(*S)) if S else 0,
            int(binomial(*L)) if L else 0)


def _clip_departures(k: int, D: int, room: int) -> int:
    """Round k's D departures, cut to `room` (at least 0) so that two agents stay alive."""
    if D > room:
        log.warning("round %d: clipping %d departures to %d to keep two agents alive",
                    k, D, max(room, 0))
        D = max(room, 0)
    return D


def _close_round(k: int, n1: int, n2: int, dyn: DynamicsParams, N_k: int, xi: int,
                 Xi1: int, Xi2: int, D: int, default_frac: float,
                 mean_r1: float | None, mean_r2: float | None
                 ) -> tuple[int, int, RoundRecord]:
    """Exact composition update and round k's record: the next (n1, n2) and the record.

    ``n1' = n1 + xi + Xi1 - Xi2`` and ``n' = n + N - D``.  psi is the population
    on the round clock, ``n / (k + n0)``.
    """
    n = n1 + n2
    new_n1 = n1 + xi + Xi1 - Xi2
    new_n2 = n + N_k - D - new_n1
    if new_n1 < 0 or new_n2 < 0:
        raise RuntimeError(f"round {k}: negative group sizes {new_n1}, {new_n2}")
    record = RoundRecord(k, n, n1, n1 / n, n / (k + dyn.n0), default_frac,  # in CSV order
                         xi, Xi1, Xi2, D, mean_r1, mean_r2)
    return new_n1, new_n2, record


def _pick_other(rng_stream: np.random.Generator, n: int, me: np.ndarray) -> np.ndarray:
    """Uniform draw over the n-1 indices distinct from each entry of ``me``."""
    raw = rng_stream.integers(0, n - 1, size=me.shape)
    return raw + (raw >= me)


def _imitate(r: np.ndarray, n1: int, i: np.ndarray, j: np.ndarray,
             flips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The imitation comparison for the agent pairs (i[k], j[k]).

    Returns whether each pair is mixed (one risk-free agent, one risky) and
    whether the risk-free side is seen ahead: its return is at least the risky
    one (ties favour risk-free), inverted where the observation flips.
    """
    i_risky = i >= n1
    safe, risky = np.where(i_risky, j, i), np.where(i_risky, i, j)
    return i_risky != (j >= n1), (r[safe] >= r[risky]) != flips


def _seen_safe(r1: float, r_c: float, b: float) -> float:
    """`_imitate` for a class: the chance a risk-free agent is seen ahead of return r_c."""
    return b if r1 >= r_c else 1.0 - b


def _thin(rng_stream: np.random.Generator, count: int, p: float) -> int:
    """Binomial(count, p), drawn only when count > 0."""
    return int(rng_stream.binomial(count, p)) if count > 0 else 0


def step_round(k: int, n1: int, n2: int, params: MarketParams, dyn: DynamicsParams,
               rng_stream: np.random.Generator) -> tuple[int, int, RoundRecord]:
    """Play round k from the group sizes (n1, n2); return the next sizes and the record.

    The record describes the population that *played* the round (its eps, psi
    and size at the start) together with the flows the round produced.  Order
    of operations inside the round: draw the arrival/switch/departure counts,
    draw the shocks, clear, compute returns, apply switching (simultaneous,
    based on this round's returns), remove departing defaulted risky agents
    that did not just switch, then add arrivals.  Departures are on exactly
    when ``dyn.mean_L > 0``.  The complete graph plays `_count_round`, sampled
    graphs `_agent_round`.
    """
    if n1 + n2 < 2:
        raise ParamError("population: need at least two agents per round")
    play = _count_round if params.p_ss == 1.0 else _agent_round
    return play(k, n1, n2, params, dyn, rng_stream)


def _count_round(k: int, n1: int, n2: int, params: MarketParams, dyn: DynamicsParams,
                 rng_stream: np.random.Generator) -> tuple[int, int, RoundRecord]:
    """One complete-graph round from the class sizes alone, in O(1): one scalar pass.

    Risk-free agents earn r1; up- and down-shocked ones earn r_u and r_d and
    default as a class.  A uniform contact of a risk-free attempter is risky
    of class c with chance n_c/(n-1), one of a risky attempter risk-free with
    chance n1/(n-1), so each class's switchers are a binomial thinning of its
    attempters; an entrant's two distinct contacts make a mixed pair the same
    way.
    """
    n = n1 + n2
    N_k, S_k, L_k = _draw_counts(rng_stream, dyn)

    der = derive(params, n1 / n)
    n_u = _thin(rng_stream, n2, params.delta)
    n_d = n2 - n_u
    cc = class_clearing(der.y, *edge_weights(params, n1, n2), n_u, n_d, der.w_high, der.w_low)
    r1, r_u, r_d = surpluses(params, der.eps, der.y, cc.claims_safe,
                             (der.k_u, cc.claims_u), (der.k_d, cc.claims_d))
    down_u, down_d = defaulted(cc.x_u, der.y), defaulted(cc.x_d, der.y)

    # -- switching: a risk-free attempter moves when its contact is risky and seen
    # behind, a risky one when its contact is risk-free and seen ahead.  The
    # attempters by class are multivariate hypergeometric, drawn class by class.
    S_eff = min(S_k, n)
    Xi2 = Xi1_u = Xi1_d = 0
    if S_eff > 0:
        a1 = int(rng_stream.hypergeometric(n1, n2, S_eff))
        a_u = int(rng_stream.hypergeometric(n_u, n_d, S_eff - a1))
        s_u, s_d = _seen_safe(r1, r_u, dyn.b_s), _seen_safe(r1, r_d, dyn.b_s)
        Xi2 = _thin(rng_stream, a1, (n_u * (1.0 - s_u) + n_d * (1.0 - s_d)) / (n - 1))
        Xi1_u = _thin(rng_stream, a_u, n1 * s_u / (n - 1))
        Xi1_d = _thin(rng_stream, S_eff - a1 - a_u, n1 * s_d / (n - 1))

    # -- departures: defaulted risky agents that did not just switch away.
    D = 0
    if L_k > 0:
        candidates = (n_u - Xi1_u) * down_u + (n_d - Xi1_d) * down_d
        D = _clip_departures(k, min(L_k, candidates), n + N_k - 2)

    # -- arrivals: both contacts risk-free, or a mixed pair seen risk-free ahead.
    t_u, t_d = _seen_safe(r1, r_u, dyn.b_n), _seen_safe(r1, r_d, dyn.b_n)
    xi = _thin(rng_stream, N_k,
               (n1 * (n1 - 1) + 2 * n1 * (n_u * t_u + n_d * t_d)) / (n * (n - 1)))

    return _close_round(k, n1, n2, dyn, N_k, xi, Xi1_u + Xi1_d, Xi2, D,
                        (n_u * down_u + n_d * down_d) / n, r1 if n1 else None,
                        (n_u * r_u + n_d * r_d) / n2 if n2 else None)


def _agent_round(k: int, n1: int, n2: int, params: MarketParams, dyn: DynamicsParams,
                 rng_stream: np.random.Generator) -> tuple[int, int, RoundRecord]:
    """One round agent by agent, on a freshly sampled network."""
    counts = _draw_counts(rng_stream, dyn)
    graph = sample_network(params, n1, n2, rng_stream)
    shocks = sample_shocks(params, n2, graph.eps, rng_stream)
    res = solve_clearing(graph, shocks, params)
    return _agent_flows(k, n1, n2, dyn, counts, compute_returns(graph, res, shocks, params),
                        rng_stream)


def _agent_flows(k: int, n1: int, n2: int, dyn: DynamicsParams, counts: tuple[int, int, int],
                 returns: ReturnsVector, rng_stream: np.random.Generator
                 ) -> tuple[int, int, RoundRecord]:
    """Switching, departures and arrivals agent by agent, from the (N, S, L) counts and returns."""
    n = n1 + n2
    N_k, S_k, L_k = counts

    # -- switching: S_eff agents compare against one uniform other agent and
    # move when the other side is seen ahead.
    S_eff = min(S_k, n)
    to_g1 = np.empty(0, dtype=np.intp)  # risky-group positions of the switchers to risk-free
    Xi2 = 0
    if S_eff > 0:
        attempters = rng_stream.choice(n, size=S_eff, replace=False)
        contacts = _pick_other(rng_stream, n, attempters)
        flips = rng_stream.random(S_eff) >= dyn.b_s
        mixed, safe_ahead = _imitate(returns.r, n1, attempters, contacts, flips)
        switchers = attempters[mixed & (safe_ahead == (attempters >= n1))]
        to_g1 = switchers[switchers >= n1] - n1
        Xi2 = int((switchers < n1).sum())
    Xi1 = to_g1.size

    # -- departures: defaulted risky agents that did not just switch away.
    D = 0
    if L_k > 0 and n2 > 0 and returns.defaults.size > 0:
        stayed = np.ones(n2, dtype=bool)
        stayed[to_g1] = False
        candidates = returns.defaults[stayed[returns.defaults]]
        D = _clip_departures(k, min(L_k, int(candidates.size)), n + N_k - 2)
        if D > 0:
            # An unused draw of who leaves; only the count D matters.  It keeps the
            # stream of every seeded sampled run and of the one-round law test of
            # `_count_round`, which plays these flows at fixed seeds.
            rng_stream.choice(candidates, size=D, replace=False)

    # -- arrivals: each entrant asks two distinct incumbents from this round;
    # a mixed pair is compared, otherwise the entrant takes the first one's group.
    xi = 0
    if N_k > 0:
        first = rng_stream.integers(0, n, size=N_k)
        second = _pick_other(rng_stream, n, first)
        a_flips = rng_stream.random(N_k) >= dyn.b_n
        mixed, safe_ahead = _imitate(returns.r, n1, first, second, a_flips)
        xi = int(np.where(mixed, safe_ahead, first < n1).sum())

    return _close_round(k, n1, n2, dyn, N_k, xi, Xi1, Xi2, D, returns.defaults.size / n,
                        float(returns.r1.mean()) if n1 else None,
                        float(returns.r2.mean()) if n2 else None)


def run_simulation(config, seed: int) -> Trajectory:
    """Run ``config.dynamics.rounds`` rounds and return their records.

    ``config`` is duck-typed, like `harness.ExperimentConfig`: it must expose
    ``market`` and ``dynamics``.  The seed fixes the Generator stream, and so
    the whole run.
    """
    params: MarketParams = config.market
    dyn: DynamicsParams = config.dynamics
    rng = np.random.default_rng(seed)
    n1, n2 = initial_state(params, dyn, rng)
    records: list[RoundRecord] = []
    for k in range(dyn.rounds):
        n1, n2, rec = step_round(k, n1, n2, params, dyn, rng)
        records.append(rec)
    return Trajectory(records=records, seed=seed)


def tail_window(records: Sequence[RoundRecord]) -> Sequence[RoundRecord]:
    """The tail of a run: its last tenth, at least one round."""
    return records[-max(1, len(records) // 10):]


def estimate_limit(trajectory: Trajectory) -> float:
    """Terminal risk-free fraction: mean eps over the trajectory's `tail_window`."""
    recs = trajectory.records
    if not recs:
        raise ParamError("trajectory: no rounds recorded")
    return float(np.mean([r.eps for r in tail_window(recs)]))
