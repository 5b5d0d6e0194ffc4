#!/usr/bin/env python3
"""Time one Monte-Carlo round of the slow table-4 cell at several population sizes.

The cell is table 4's first row (imitation market, b_n = b_s = 0.4,
eps0 = 0.4, mean_L = 1.75, departures on).  On the complete graph it is
started at each n0 in `SIZES`: the script plays a few untimed rounds, then
times `replicator.step_round` over `ROUNDS` rounds three times, and prints
the median microseconds per round.  It then times `harness.write_trajectories`
on the records of those timed rounds, three times, and prints the median
microseconds per exported row.  On a sampled graph (p_ss =
`SAMPLED_P`) it is started at each n0 in `SAMPLED_SIZES`, each in a fresh
process, timed the same way over `SAMPLED_ROUNDS` rounds; the script prints
the median milliseconds per round, the median clearing map evaluations per
solve over `SAMPLED_ROUNDS` fresh rounds drawn at the starting group sizes,
and the process's peak resident memory.

    python3 scripts/round_cost.py
"""
from __future__ import annotations

import io
import multiprocessing
import resource
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

from sysrisk.clearing import solve_clearing
from sysrisk.harness import table4_spec, write_trajectories
from sysrisk.netgen import sample_network, sample_shocks
from sysrisk.records import Trajectory
from sysrisk.replicator import initial_state, step_round

SIZES = (500, 50_000, 1_000_000)
ROUNDS = 2000
WARMUP_ROUNDS = 50
SAMPLED_SIZES = (2000, 8000)
SAMPLED_P = 0.1
SAMPLED_ROUNDS = 10
SAMPLED_WARMUP_ROUNDS = 2
TIMINGS = 3


def round_cost(config, n0: int, rounds: int = ROUNDS,
               warmup: int = WARMUP_ROUNDS) -> tuple[float, int, list]:
    """Median microseconds per round over `TIMINGS` timings, the final population, and
    the timed rounds' records."""
    dyn = replace(config.dynamics, n0=n0)
    rng = np.random.default_rng(0)
    n1, n2 = initial_state(config.market, dyn, rng)
    for k in range(warmup):
        n1, n2, _ = step_round(k, n1, n2, config.market, dyn, rng)
    timings, records = [], []
    for t in range(TIMINGS):
        start = time.perf_counter()
        for k in range(warmup + t * rounds, warmup + (t + 1) * rounds):
            n1, n2, rec = step_round(k, n1, n2, config.market, dyn, rng)
            records.append(rec)
        timings.append((time.perf_counter() - start) / rounds * 1e6)
    return statistics.median(timings), n1 + n2, records


def export_cost(records: list) -> float:
    """Median microseconds per row of `write_trajectories` on `records`, over `TIMINGS`."""
    runs = [Trajectory(records=records, seed=0)]
    timings = []
    for _ in range(TIMINGS):
        start = time.perf_counter()
        write_trajectories(io.StringIO(), runs)
        timings.append((time.perf_counter() - start) / len(records) * 1e6)
    return statistics.median(timings)


def sampled_sweeps(market, n0: int, eps0: float) -> float:
    """Median clearing map evaluations per solve over `SAMPLED_ROUNDS` rounds at n0
    agents, eps0 risk-free."""
    rng = np.random.default_rng(0)
    n1 = round(eps0 * n0)

    def sweeps() -> int:
        graph = sample_network(market, n1, n0 - n1, rng)
        shocks = sample_shocks(market, n0 - n1, graph.eps, rng)
        return solve_clearing(graph, shocks, market).iterations

    return statistics.median(sweeps() for _ in range(SAMPLED_ROUNDS))


def sampled_round_cost(n0: int) -> tuple[float, int, float, float]:
    """`round_cost` in milliseconds on the sampled graph, this process's peak RSS
    in MB over it, and then the median map evaluations per solve (`sampled_sweeps`)."""
    config = table4_spec().rows[0].config
    config = replace(config, market=replace(config.market, p_ss=SAMPLED_P))
    cost, n_end, _ = round_cost(config, n0, SAMPLED_ROUNDS, SAMPLED_WARMUP_ROUNDS)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return cost / 1e3, n_end, peak, sampled_sweeps(config.market, n0, config.dynamics.eps0)


def main() -> int:
    config = table4_spec().rows[0].config
    print(f"complete graph\n{'n0':>9}  {'n at end':>9}  {'us/round':>9}  {'us/row':>9}")
    for n0 in SIZES:
        cost, n_end, records = round_cost(config, n0)
        print(f"{n0:>9}  {n_end:>9}  {cost:>9.1f}  {export_cost(records):>9.2f}")
    print(f"\nsampled graph, p_ss = {SAMPLED_P}\n"
          f"{'n0':>9}  {'n at end':>9}  {'ms/round':>9}  {'map evals':>9}  {'peak MB':>9}")
    # one fresh process per size, so that each peak is the row's own
    ctx = multiprocessing.get_context("spawn")
    for n0 in SAMPLED_SIZES:
        with ctx.Pool(1) as pool:
            cost, n_end, peak, sweeps = pool.apply(sampled_round_cost, (n0,))
        print(f"{n0:>9}  {n_end:>9}  {cost:>9.1f}  {sweeps:>9.1f}  {peak:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
