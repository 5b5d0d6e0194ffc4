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

from .clearing import ReturnsVector, compute_returns, solve_clearing
from .model import DynamicsParams, MarketParams, ParamError, count_bound
from .netgen import sample_network, sample_shocks
from .records import RoundRecord, Trajectory

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PopulationState:
    """Population composition entering a round: the two group sizes.

    Agents carry no identity across rounds, because every round draws a fresh
    network.  ``psi`` is the population size relative to the round clock,
    ``n / (round + n0)``.
    """

    round: int
    n1: int
    n2: int
    psi: float

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
    return PopulationState(round=0, n1=n1, n2=n2, psi=1.0)


def _draw_count(rng_stream: np.random.Generator, mean: float, bound: int) -> int:
    """One arrival/switch/departure count: Binomial(bound, mean/bound)."""
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
               rng_stream: np.random.Generator, *, departures: bool = True
               ) -> tuple[PopulationState, RoundRecord, ReturnsVector]:
    """Play one round; return the successor state, its record and its returns.

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

    N_k = _draw_count(rng_stream, dyn.mean_N, dyn.bound_N)
    S_k = _draw_count(rng_stream, dyn.mean_S, count_bound(dyn.mean_S))
    L_k = 0
    if departures and dyn.mean_L > 0.0:
        L_k = _draw_count(rng_stream, dyn.mean_L, dyn.bound_L)

    graph = sample_network(params, n1, n2, rng_stream)
    shocks = sample_shocks(params, n2, graph.eps, rng_stream)
    res = solve_clearing(graph, shocks, params)
    returns = compute_returns(graph, res, shocks, params)

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
        D = min(L_k, int(candidates.size))
        room = n + N_k - 2
        if D > room:
            log.warning("round %d: clipping %d departures to %d to keep two agents alive",
                        state.round, D, max(room, 0))
            D = max(room, 0)
        if D > 0:
            # unused draw of who leaves: it keeps the seeded stream and every export unchanged
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

    # -- exact composition update.
    new_n1 = n1 + xi + Xi1 - Xi2
    new_n = n + N_k - D
    new_n2 = new_n - new_n1
    if new_n1 < 0 or new_n2 < 0:
        raise RuntimeError(f"round {state.round}: negative group sizes {new_n1}, {new_n2}")

    psi = new_n / (state.round + 1 + dyn.n0)
    record = RoundRecord(
        eps=state.eps, psi=state.psi, round=state.round, n=n, n1=n1,
        default_frac=returns.defaults.size / n, xi=xi, Xi1=Xi1, Xi2=Xi2, departures=D,
        mean_r1=float(returns.r1.mean()) if n1 else None,
        mean_r2=float(returns.r2.mean()) if n2 else None,
    )
    new_state = PopulationState(round=state.round + 1, n1=new_n1, n2=new_n2, psi=psi)
    return new_state, record, returns


def run_simulation(config, seed: int) -> Trajectory:
    """Run ``config.dynamics.rounds`` rounds and return the trajectory.

    ``config`` is duck-typed, like `harness.ExperimentConfig`: it must expose
    ``market``, ``dynamics``, the run flag ``departures`` and a ``label``.  The
    seed fixes the Generator stream, and so the whole run.
    """
    params: MarketParams = config.market
    dyn: DynamicsParams = config.dynamics
    rng = np.random.default_rng(seed)
    state = initial_state(params, dyn, rng)
    records: list[RoundRecord] = []
    for _ in range(dyn.rounds):
        # `returns` stays bound until the next round has made its own arrays.  Released
        # at once, they let glibc trim the heap after every round, and the next round
        # faults its arrays in afresh: 416 k minor page faults per 1000 rounds at
        # n0 = 50 000, against 116 k.
        state, rec, returns = step_round(state, params, dyn, rng,
                                         departures=config.departures)
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
