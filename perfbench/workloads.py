"""Benchmark workloads: inputs made from a seed, one timed op, output checks.

Each workload drives the package from outside through its public functions.
The ops reach every layer through module attributes (``harness.run_many``,
``analytic.thresholds``, ...), so the traced run can swap those attributes for
timing wrappers without touching this file.

An op's outcome separates two kinds of trouble:

* ``wrong``: an output contradicts a check -- a broken bookkeeping identity
  in the round records, a miss against the limit theory, or a missed pinned
  value of the theory layers;
* ``flagged``: the program itself reports a round whose clearing did not
  converge.

Only ``wrong`` fails the op and makes the run incorrect.  A flagged op passed
every check of its outputs; it is counted and printed apart, so the
program's own non-convergence stays visible without failing the op.
"""
from __future__ import annotations

import functools
import io
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

import reference
from sysrisk import analytic, ess, harness, odeflow
from sysrisk.model import DynamicsParams, MarketParams, derive

# Preset markets, as the presets and acceptance criteria define them.
IMITATION = MarketParams(w=70.0, v=15.0, alpha=0.95, delta=0.8,
                         u=0.13, d=-0.6, r_s=0.1, r_b=0.11)
GROWTH = MarketParams(w=70.0, v=20.0, alpha=0.95, delta=0.85,
                      u=0.15, d=-0.6, r_s=0.1, r_b=0.11)
GROWTH_LOW = replace(GROWTH, delta=0.45)
SYSTEMIC = replace(IMITATION, v=70.0)  # the contrast market, outside the closed forms

# The slow table-4 cell (b = 0.4, eps0 = 0.4, mean_L = 1.75, departures on),
# started at a large population so every round pays the per-agent work.
LARGE_POP = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=1.75, b_n=0.4, b_s=0.4,
                           n0=50_000, eps0=0.4, rounds=1000)
SPARSE = replace(LARGE_POP, n0=2000, rounds=25)
SPARSE_P = 0.1
# The criterion-9 pair is cut from 1500 to 500 rounds.  Every round that hits
# max_iter on the first ten seeds comes before round 160, and the tail bounds
# hold with room (tail defaults 0.0 adaptive, 1.0 frozen); shorter ops give a
# run more of them, which steadies its median on a noisy host.
SYSTEMIC_ROUNDS = 500

# Criterion 3 and criterion 7 dynamics.
IMITATION_DYN = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=5.6, b_n=0.8, b_s=0.8,
                               n0=500, eps0=0.4, rounds=4000)
GROWTH_DYN = DynamicsParams(mean_N=1.0, mean_S=10.0, b_n=0.9, b_s=0.9,
                            n0=300, eps0=0.85, rounds=1000)

# eps at the horizon must move from eps0 the way the flow does, and land within
# this share of the flow's move.  Over the 1000 rounds of a large-population op
# the flow moves +0.021 and runs miss it by 0.001 (sd); runs whose imitation
# ignores returns (b_n = b_s = 0.5) miss it by 0.0067.
HORIZON_SHARE = 0.25
SPARSE_R1_TOL = 0.05        # relative, round-mean risk-free return vs its limit
SPARSE_PD_SLACK = 0.03      # per-risky default fraction may not undercut the limit's
ADAPTIVE_CAP = 0.9          # criterion 9 tail-default bounds
FROZEN_FLOOR = 0.97


@dataclass
class Outcome:
    rounds: int = 0           # Monte-Carlo rounds played by the op
    agent_rounds: int = 0     # sum of the population size over those rounds
    wrong: list[str] = field(default_factory=list)
    flagged: list[str] = field(default_factory=list)


def sim_seed(seed: int, k: int) -> int:
    """Simulation seed of op k; seed 0 gives 0, 1, 2, ..."""
    return seed * 1000 + k


# --------------------------------------------------------------------------
# Monte-Carlo workloads: each op is one seed through harness.run_many

def _simulate(config: harness.ExperimentConfig) -> tuple[harness.Trajectory, str]:
    (_, _, trajectory), = harness.run_many(config, keep_trajectories=True)
    buf = io.StringIO()
    harness.write_trajectories(buf, [trajectory])
    return trajectory, buf.getvalue()


def mc_op(configs: tuple[harness.ExperimentConfig, ...]):
    return [(config, *_simulate(config)) for config in configs]


def _check_records(config, trajectory, csv_text: str, out: Outcome) -> None:
    """Bookkeeping identities and convergence flags of one run."""
    dyn, recs, tag = config.dynamics, trajectory.records, config.label
    out.rounds += len(recs)
    out.agent_rounds += sum(rec.n for rec in recs)
    if len(recs) != dyn.rounds or [r.round for r in recs] != list(range(dyn.rounds)):
        out.wrong.append(f"{tag}: {len(recs)} records for {dyn.rounds} rounds")
    if csv_text.count("\n") != len(recs) + 1:
        out.wrong.append(f"{tag}: CSV has {csv_text.count(chr(10))} lines")
    for prev, nxt in zip(recs, recs[1:]):
        if nxt.n1 != prev.n1 + prev.xi + prev.Xi1 - prev.Xi2:
            out.wrong.append(f"{tag}: round {prev.round} breaks n1' = n1 + xi + Xi1 - Xi2")
        arrivals = nxt.n - prev.n + prev.departures
        if not prev.xi <= arrivals <= dyn.bound_N:
            out.wrong.append(f"{tag}: round {prev.round} has xi={prev.xi}, "
                             f"arrivals={arrivals}, bound_N={dyn.bound_N}")
    unconverged = [r.round for r in recs if getattr(r, "clearing_converged", True) is False]
    if unconverged:
        out.flagged.append(f"{tag}: clearing not converged at rounds {unconverged}")


def _tail_default(trajectory) -> float:
    recs = trajectory.records
    return statistics.fmean(rec.default_frac for rec in recs[-max(1, len(recs) // 10):])


def _check_horizon(config, trajectory, out: Outcome) -> None:
    eps0 = config.dynamics.eps0
    eps, flow = trajectory.records[-1].eps, harness.theory_at_horizon(config)
    if (eps - eps0) * (flow - eps0) <= 0 or abs(eps - flow) > HORIZON_SHARE * abs(flow - eps0):
        out.wrong.append(f"{config.label}: eps {eps0} -> {eps:.5f} at the horizon, "
                         f"flow -> {flow:.5f}")


def check_large_pop(configs, result) -> Outcome:
    out = Outcome()
    for config, trajectory, csv_text in result:
        _check_records(config, trajectory, csv_text, out)
        _check_horizon(config, trajectory, out)
    return out


def check_systemic(configs, result) -> Outcome:
    out = Outcome()
    (adaptive, traj_a, csv_a), (frozen, traj_f, csv_f) = result
    _check_records(adaptive, traj_a, csv_a, out)
    _check_records(frozen, traj_f, csv_f, out)
    tail_a, tail_f = _tail_default(traj_a), _tail_default(traj_f)
    if not tail_a < ADAPTIVE_CAP:
        out.wrong.append(f"adaptive tail defaults {tail_a:.4f} >= {ADAPTIVE_CAP}")
    if not tail_f >= FROZEN_FLOOR:
        out.wrong.append(f"frozen tail defaults {tail_f:.4f} < {FROZEN_FLOOR}")
    return out


def check_sparse(configs, result) -> Outcome:
    """Sparse runs against the limit theory.

    At n ~ 2000 and p_ss = 0.1 a borrower's claims scatter by ~7 %, enough to
    push many up-shocked borrowers below y, so the default fraction is only
    bounded from below by the limit (down-shocked borrowers default).  The
    risk-free return stays close to its limit.

    eps at the horizon is not checked: over 25 rounds the flow moves +0.013,
    while runs land 0.007 below it (sd 0.004), and runs whose imitation
    ignores returns land closer.  The imitation rule is the same code as on
    mc_large_pop, where the horizon check can tell it from none.
    """
    out = Outcome()
    for config, trajectory, csv_text in result:
        _check_records(config, trajectory, csv_text, out)
        market, recs = config.market, trajectory.records
        r1_ratio = statistics.fmean(rec.mean_r1 / analytic.limit_returns(market, rec.eps).r1
                                    for rec in recs)
        if abs(r1_ratio - 1.0) > SPARSE_R1_TOL:
            out.wrong.append(f"{config.label}: risk-free return {r1_ratio:.4f} x its limit")
        per_risky = statistics.fmean(rec.default_frac * rec.n / (rec.n - rec.n1) for rec in recs)
        limit_pd = statistics.fmean(analytic.clearing_limit(market, rec.eps).p_d for rec in recs)
        if per_risky < limit_pd - SPARSE_PD_SLACK:
            out.wrong.append(f"{config.label}: default fraction {per_risky:.4f} "
                             f"under the limit's {limit_pd:.4f}")
    return out


def large_pop_inputs(seed: int, k: int):
    config = harness.ExperimentConfig(market=IMITATION, dynamics=LARGE_POP,
                                      seeds=(sim_seed(seed, k),), label="large_pop")
    return (config,)


def systemic_inputs(seed: int, k: int):
    seeds = (sim_seed(seed, k),)
    return tuple(replace(config, seeds=seeds, label=label,
                         dynamics=replace(config.dynamics, rounds=SYSTEMIC_ROUNDS))
                 for config, label in zip(harness.contrast_configs(1), ("adaptive", "frozen")))


def sparse_inputs(seed: int, k: int):
    config = harness.ExperimentConfig(market=replace(IMITATION, p_ss=SPARSE_P),
                                      dynamics=SPARSE, seeds=(sim_seed(seed, k),),
                                      label="sparse")
    return (config,)


# --------------------------------------------------------------------------
# theory workload: one sweep of the theory layers, no Monte-Carlo

THEORY_MARKETS = {"imitation": IMITATION, "growth": GROWTH,
                  "growth_low": GROWTH_LOW, "systemic": SYSTEMIC}
GRID = tuple(i / 1000 for i in range(1001))
FLOW_FIRST_ROUND = 250

# criterion 2: literature thresholds (eps_bar_1, eps_bar) within 5e-4
PINNED_THRESHOLDS = {"imitation": (0.2616, 0.4598), "growth": (0.1610, 0.8350),
                     "growth_low": (0.1610, 0.2233)}
# criterion 8: the nine stability verdicts
PINNED_ESS = (True, True, False, True, True, True, True, False, True)
RK4_EVERY = 50  # closed form checked against every 50th RK4 step


@dataclass(frozen=True)
class TheoryInput:
    figures: tuple          # the three figure configs
    anchors: tuple          # (eps, psi) flow start per figure, drawn from the seed


def theory_inputs(seed: int, k: int) -> TheoryInput:
    rng = np.random.default_rng([seed, k])
    figures = harness.figure_configs()
    anchors = tuple((float(cfg.dynamics.eps0 + rng.uniform(-0.02, 0.02)),
                     float(rng.uniform(0.9, 1.1))) for cfg in figures)
    return TheoryInput(figures=figures, anchors=anchors)


def theory_op(inp: TheoryInput) -> dict:
    out: dict = {"thresholds": {}, "grid": {}}
    for name, market in THEORY_MARKETS.items():
        out["thresholds"][name] = analytic.thresholds(market)
        out["grid"][name] = [(analytic.clearing_limit(market, eps),
                              analytic.limit_returns(market, eps),
                              analytic.q_eps(market, eps)) for eps in GRID]
    curves = [harness.flow_curve(config, eps, psi, FLOW_FIRST_ROUND, config.dynamics.rounds)
              for config, (eps, psi) in zip(inp.figures, inp.anchors)]
    buf = io.StringIO()
    harness.write_trajectories(buf, curves)
    out["flow_csv"] = buf.getvalue()
    out["walker"] = [odeflow.finite_round_estimate(GROWTH, GROWTH_DYN, 0.85, 0, j)
                     for j in range(100, 1000)]
    plain = replace(IMITATION_DYN, mean_L=0.0, bound_L=None)
    out["rk4"] = (odeflow.ode_numeric(IMITATION, plain, 0.4, 1.0, 10.0, 1e-3),
                  odeflow.ode_numeric(IMITATION, IMITATION_DYN, 0.4, 1.0, 10.0, 1e-3))
    cells = [row.config for spec in (harness.table3_spec(), harness.table4_spec())
             for row in spec.rows]
    out["attractors"] = [(config, odeflow.classify_attractors(config.market, config.dynamics))
                         for config in cells]
    out["ess"] = (
        ess.check_mixed_ess(IMITATION, IMITATION_DYN, 0.0),
        ess.check_mixed_ess(IMITATION, IMITATION_DYN, 1.0),
        ess.check_mixed_ess(IMITATION, IMITATION_DYN, 0.5),
        ess.check_mixed_ess(GROWTH, GROWTH_DYN, 0.0),
        ess.check_mixed_ess(GROWTH, GROWTH_DYN, 1.0),
        ess.check_multi_mutation(IMITATION, IMITATION_DYN, 0.0),
        ess.check_multi_mutation(IMITATION, IMITATION_DYN, 1.0),
        ess.check_avg_ess(IMITATION, 0.0),
        ess.check_avg_ess(IMITATION, 1.0),
    )
    out["avg"] = [odeflow.avg_limit(market) for market in (IMITATION, GROWTH, GROWTH_LOW)]
    return out


@functools.cache
def _picard(market: MarketParams, eps: float) -> float:
    """Criterion 1's oracle: plain fixed-point iteration of the limit map."""
    der = derive(market, eps)
    y, c, v = der.y, der.c_eps, market.v
    x = y
    for _ in range(200_000):
        pay_u = min(max(der.k_u - v + c * x, 0.0), y)
        pay_d = min(max(der.k_d - v + c * x, 0.0), y)
        nxt = market.delta * pay_u + (1 - market.delta) * pay_d
        if abs(nxt - x) <= 1e-13 * y:
            return nxt
        x = nxt
    raise RuntimeError(f"oracle did not converge at eps={eps}")


def check_theory(inp: TheoryInput, out: dict) -> Outcome:
    res = Outcome()
    # criterion 1: the clearing limit against the oracle, eps = 0.01 .. 0.99
    for name in ("imitation", "growth"):
        market = THEORY_MARKETS[name]
        for i in range(10, 1000, 10):
            eps = GRID[i]
            err = abs(out["grid"][name][i][0].x_bar - _picard(market, eps)) / derive(market, eps).y
            if err > 1e-8:
                res.wrong.append(f"{name}: clearing limit off the oracle by {err:.1e} at {eps}")
    # criterion 2
    for name, (e1, ebar) in PINNED_THRESHOLDS.items():
        th = out["thresholds"][name]
        if abs(th.eps_bar_1 - e1) > 5e-4 or abs(th.eps_bar - ebar) > 5e-4:
            res.wrong.append(f"{name}: thresholds {th.eps_bar_1:.4f}/{th.eps_bar:.4f}")
    # criterion 3: closed flow against RK4
    plain = replace(IMITATION_DYN, mean_L=0.0, bound_L=None)
    for traj, dyn, flow, tol in ((out["rk4"][0], plain, odeflow.ode_solution, 1e-6),
                                 (out["rk4"][1], IMITATION_DYN,
                                  odeflow.ode_solution_departures, 1e-5)):
        recs = traj.records[::RK4_EVERY] + traj.records[-1:]
        worst = max(max(abs(rec.eps - ref.eps), abs(rec.psi - ref.psi))
                    for rec in recs for ref in (flow(IMITATION, dyn, 0.4, 1.0, rec.t),))
        if worst > tol:
            res.wrong.append(f"RK4 off the closed flow by {worst:.1e} (tol {tol:g})")
    # criterion 5: attractor identities of the departure cells
    ebar = out["thresholds"]["imitation"].eps_bar
    owners = []
    for config, rep in out["attractors"]:
        if config.departures:
            eps0 = config.dynamics.eps0
            owners.append(next(star[0] for (lo, hi), star in zip(rep.doa, rep.attractors)
                               if lo <= eps0 < hi or (eps0 == 1.0 and hi == 1.0)))
    if owners != [1.0, 0.0, 1.0, 1.0, ebar]:
        res.wrong.append(f"departure-cell attractors {owners}")
    # criterion 8
    verdicts = tuple(v.is_ess for v in out["ess"])
    if verdicts != PINNED_ESS:
        res.wrong.append(f"stability verdicts {verdicts}")
    rows = sum(len(range(FLOW_FIRST_ROUND, cfg.dynamics.rounds + 1, 10)) for cfg in inp.figures)
    if out["flow_csv"].count("\n") != rows + 1:
        res.wrong.append("flow CSV row count")
    if not all(0.0 <= eps <= 1.0 for eps in out["walker"]):
        res.wrong.append("walker left [0, 1]")
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object      # (seed, k) -> op input
    op: object          # op input -> result
    check: object       # (op input, result) -> Outcome
    trace_ops: int      # ops in the traced run
    reference: object   # () -> seconds of the calibrating computation


WORKLOADS = {w.name: w for w in (
    Workload("mc_large_pop", large_pop_inputs, mc_op, check_large_pop, 4,
             reference.population_round),
    Workload("mc_systemic", systemic_inputs, mc_op, check_systemic, 4,
             reference.interpreter_mix),
    Workload("mc_sparse", sparse_inputs, mc_op, check_sparse, 4, reference.matrix_round),
    Workload("theory", theory_inputs, theory_op, check_theory, 4, reference.interpreter_mix),
)}
