"""Finite-population Monte-Carlo engine.

Each round, the current population plays one borrowing/clearing round on a
freshly sampled liability network, then the population composition updates:
incumbents imitate better-returning peers (switching), defaulted risky agents
may leave (departures), and newcomers adopt the strategy of better-returning
incumbents (arrivals).  All draws come from a single ``numpy`` Generator in a
fixed order, so a run is fully determined by its seed.

Switching and arrivals share one imitation rule (`_imitate`): a risk-free and a
risky agent's returns are compared, ties go to the risk-free side, and an
observation error (probability 1 - b_s, or 1 - b_n for entrants) flips it.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .clearing import compute_returns, solve_clearing
from .model import DynamicsParams, MarketParams, ParamError, count_bound
from .netgen import sample_network, sample_shocks
from .records import RoundRecord, Trajectory

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PopulationState:
    """Population composition entering a round.

    ``ids1``/``ids2`` are the persistent agent identities of the risk-free
    and risky groups, and ``next_id`` the next unused identity.  ``psi`` is
    the population size relative to the round clock, ``n / (round + n0)``.
    """

    round: int
    n1: int
    n2: int
    psi: float
    ids1: np.ndarray
    ids2: np.ndarray
    next_id: int

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def eps(self) -> float:
        return self.n1 / self.n


def initial_state(params: MarketParams, dyn: DynamicsParams,
                  rng_stream: np.random.Generator) -> PopulationState:
    """Build the round-0 population.

    The initial split puts ``round(eps0 * n0)`` agents in the risk-free group.
    """
    n0 = dyn.n0
    n1 = int(round(dyn.eps0 * n0))
    n2 = n0 - n1
    # unused warm-up draws: they keep the seeded stream, and so every export, unchanged
    graph = sample_network(params, n1, n2, rng_stream)
    sample_shocks(params, n2, graph.eps, rng_stream)
    ids = np.arange(n0, dtype=np.uint64)
    return PopulationState(round=0, n1=n1, n2=n2, psi=1.0,
                           ids1=ids[:n1], ids2=ids[n1:], next_id=n0)


def _draw_count(rng_stream: np.random.Generator, mean: float, bound: int,
                deterministic: bool) -> int:
    """One arrival/switch/departure count: Binomial(bound, mean/bound)."""
    if deterministic:
        return int(round(mean))
    if mean <= 0.0 or bound <= 0:
        return 0
    return int(rng_stream.binomial(bound, mean / bound))


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


def step_round(state: PopulationState, params: MarketParams, dyn: DynamicsParams,
               rng_stream: np.random.Generator, *, departures: bool = True,
               deterministic_counts: bool = False, fixed_links: bool = False,
               link_key: int = 0) -> tuple[PopulationState, RoundRecord]:
    """Play one round and return the successor state plus its record.

    The record describes the population that *played* the round (its eps, psi
    and size at the start) together with the flows the round produced.  Order
    of operations inside the round: draw the arrival/switch/departure counts,
    sample the network and shocks, clear, compute returns, apply switching
    (simultaneous, based on this round's returns), remove departing defaulted
    risky agents, then add arrivals.  Group sizes update exactly:
    ``n1' = n1 + xi + Xi1 - Xi2`` and ``n' = n + N - D``.
    """
    n1, n2 = state.n1, state.n2
    n = n1 + n2
    if n < 2:
        raise ParamError("population: need at least two agents per round")

    N_k = _draw_count(rng_stream, dyn.mean_N, dyn.bound_N, deterministic_counts)
    S_k = _draw_count(rng_stream, dyn.mean_S, count_bound(dyn.mean_S), deterministic_counts)
    L_k = 0
    if departures and dyn.mean_L > 0.0:
        L_k = _draw_count(rng_stream, dyn.mean_L, dyn.bound_L, deterministic_counts)

    agent_ids = None
    key = None
    if fixed_links and params.p_ss < 1.0:
        agent_ids = np.concatenate([state.ids1, state.ids2])
        key = link_key
    graph = sample_network(params, n1, n2, rng_stream, link_key=key, agent_ids=agent_ids)
    shocks = sample_shocks(params, n2, graph.eps, rng_stream)
    res = solve_clearing(graph, shocks, params)
    returns = compute_returns(graph, res, shocks, params)

    r_all = np.concatenate([returns.r1, returns.r2])

    # -- switching: S_eff agents compare against one uniform other agent and
    # move when the other side is seen ahead.
    S_eff = min(S_k, n)
    to_g1_local = to_g2_local = np.empty(0, dtype=np.intp)  # positions in ids2 / ids1
    if S_eff > 0:
        attempters = rng_stream.choice(n, size=S_eff, replace=False)
        contacts = _pick_other(rng_stream, n, attempters)
        flips = rng_stream.random(S_eff) >= dyn.b_s
        mixed, safe_ahead = _imitate(r_all, n1, attempters, contacts, flips)
        # switchers stay in draw order, which fixes every agent's position next round
        switchers = attempters[mixed & (safe_ahead == (attempters >= n1))]
        to_g1_local = switchers[switchers >= n1] - n1
        to_g2_local = switchers[switchers < n1]
    Xi1, Xi2 = to_g1_local.size, to_g2_local.size

    # -- departures: defaulted risky agents that did not just switch away.
    D = 0
    departed = np.empty(0, dtype=np.intp)
    if L_k > 0 and n2 > 0 and returns.defaults.size > 0:
        stayed = np.ones(n2, dtype=bool)
        stayed[to_g1_local] = False
        candidates = returns.defaults[stayed[returns.defaults]]
        D = min(L_k, int(candidates.size))
        room = n + N_k - 2
        if D > room:
            log.warning("round %d: clipping %d departures to %d to keep two agents alive",
                        state.round, D, max(room, 0))
            D = max(room, 0)
        if D > 0:
            departed = rng_stream.choice(candidates, size=D, replace=False)

    # -- arrivals: each entrant asks two distinct incumbents from this round;
    # a mixed pair is compared, otherwise the entrant takes the first one's group.
    joins_g1 = np.empty(0, dtype=bool)
    if N_k > 0:
        first = rng_stream.integers(0, n, size=N_k)
        second = _pick_other(rng_stream, n, first)
        a_flips = rng_stream.random(N_k) >= dyn.b_n
        mixed, safe_ahead = _imitate(r_all, n1, first, second, a_flips)
        joins_g1 = np.where(mixed, safe_ahead, first < n1)
    xi = int(joins_g1.sum())

    # -- exact composition update.
    new_n1 = n1 + xi + Xi1 - Xi2
    new_n = n + N_k - D
    new_n2 = new_n - new_n1
    if new_n1 < 0 or new_n2 < 0:
        raise RuntimeError(f"round {state.round}: negative group sizes {new_n1}, {new_n2}")

    keep1 = np.ones(n1, dtype=bool)
    keep1[to_g2_local] = False
    keep2 = np.ones(n2, dtype=bool)
    keep2[to_g1_local] = False
    keep2[departed] = False
    fresh = np.arange(state.next_id, state.next_id + N_k, dtype=np.uint64)
    ids1 = np.concatenate([state.ids1[keep1], state.ids2[to_g1_local], fresh[joins_g1]])
    ids2 = np.concatenate([state.ids2[keep2], state.ids1[to_g2_local], fresh[~joins_g1]])
    if ids1.size != new_n1 or ids2.size != new_n2:
        raise RuntimeError(f"round {state.round}: {ids1.size}, {ids2.size} ids for "
                           f"group sizes {new_n1}, {new_n2}")

    psi = new_n / (state.round + 1 + dyn.n0)
    record = RoundRecord(
        eps=state.eps, psi=state.psi, round=state.round, n=n, n1=n1,
        default_frac=returns.defaults.size / n, xi=xi, Xi1=Xi1, Xi2=Xi2, departures=D,
        mean_r1=float(returns.r1.mean()) if n1 else None,
        mean_r2=float(returns.r2.mean()) if n2 else None,
    )
    new_state = PopulationState(round=state.round + 1, n1=new_n1, n2=new_n2, psi=psi,
                                ids1=ids1, ids2=ids2, next_id=state.next_id + N_k)
    return new_state, record


def run_simulation(config, seed: int) -> Trajectory:
    """Run ``config.dynamics.rounds`` rounds and return the trajectory.

    ``config`` is duck-typed, like `harness.ExperimentConfig`: it must expose
    ``market``, ``dynamics``, the run flags ``departures``, ``fixed_links``
    and ``deterministic_counts``, and a ``label``.  The seed fixes both the
    Generator stream and, under fixed links, the link key.
    """
    params: MarketParams = config.market
    dyn: DynamicsParams = config.dynamics
    rng = np.random.default_rng(seed)
    state = initial_state(params, dyn, rng)
    records: list[RoundRecord] = []
    for _ in range(dyn.rounds):
        state, rec = step_round(state, params, dyn, rng, departures=config.departures,
                                deterministic_counts=config.deterministic_counts,
                                fixed_links=config.fixed_links, link_key=seed)
        records.append(rec)
    return Trajectory(records=records, seed=seed, kind="mc", label=config.label)


def estimate_limit(trajectory: Trajectory) -> float:
    """Terminal risk-free fraction: mean eps over the trajectory's tail.

    The tail is the last tenth of the run, at least one round.
    """
    recs = trajectory.records
    if not recs:
        raise ParamError("trajectory: no rounds recorded")
    window = max(1, len(recs) // 10)
    return float(np.mean([r.eps for r in recs[-window:]]))
