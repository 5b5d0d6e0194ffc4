#!/usr/bin/env python3
"""Time one Monte-Carlo round of the slow table-4 cell at several population sizes.

The cell is table 4's first row (imitation market, b_n = b_s = 0.4,
eps0 = 0.4, mean_L = 1.75, departures on) on the complete graph, started at
each n0 in `SIZES`.  For every n0 the script plays a few untimed rounds,
then times `replicator.step_round` over `ROUNDS` rounds three times, and
prints the median microseconds per round.

    python3 scripts/round_cost.py
"""
from __future__ import annotations

import statistics
import sys
import time
from dataclasses import replace

import numpy as np

from sysrisk.harness import table4_spec
from sysrisk.replicator import initial_state, step_round

SIZES = (500, 50_000, 1_000_000)
ROUNDS = 2000
WARMUP_ROUNDS = 50
TIMINGS = 3


def round_cost(config, n0: int) -> tuple[float, int]:
    """Median microseconds per round over `TIMINGS` timings, and the final population."""
    dyn = replace(config.dynamics, n0=n0)
    rng = np.random.default_rng(0)
    state = initial_state(config.market, dyn, rng)
    for _ in range(WARMUP_ROUNDS):
        state, _ = step_round(state, config.market, dyn, rng, departures=config.departures)
    timings = []
    for _ in range(TIMINGS):
        start = time.perf_counter()
        for _ in range(ROUNDS):
            state, _ = step_round(state, config.market, dyn, rng,
                                  departures=config.departures)
        timings.append((time.perf_counter() - start) / ROUNDS * 1e6)
    return statistics.median(timings), state.n


def main() -> int:
    config = table4_spec().rows[0].config
    print(f"{'n0':>9}  {'n at end':>9}  {'us/round':>9}")
    for n0 in SIZES:
        cost, n_end = round_cost(config, n0)
        print(f"{n0:>9}  {n_end:>9}  {cost:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
