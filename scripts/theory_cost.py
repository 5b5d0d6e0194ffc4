#!/usr/bin/env python3
"""Time the theory layer's hot calls, one line per call family.

- `flow_curve` for each of the three figure configs, from round 250 to
  4 000 every 10 rounds, started at the config's eps0 with psi = 1:
  milliseconds per curve;
- `finite_round_estimate` on the growth market from eps0 = 0.85 for
  k = 100..999 rounds (the criterion-7 walker): microseconds per call;
- the same 900 values from one `flow_at_rounds` pass: microseconds per value;
- the 1 001-point limit grid (`clearing_limit`, `limit_returns` and
  `q_eps` at eps = i/1000) per market: milliseconds per grid;
- `assert_horizon` over every table 2, 3 and 4 row: milliseconds in all;
- `ode_numeric` for criterion 3's two RK4 runs (imitation market from
  eps0 = 0.4 to flow time 10 at step 1e-3, departures off and on):
  milliseconds for the pair;
- `ode_numeric` for the 18 table 2, 3 and 4 rows and figure configs, each
  from its eps0 with psi = 1 to its horizon on the round clock at step
  1e-3: milliseconds in all;
- the averaging dynamics: `avg_limit` on the four markets of the limit
  grid plus `check_avg_ess` at 0 and 1 on the imitation market:
  milliseconds in all;
- criterion 8's seven switch-utility verdicts: `check_mixed_ess` at 0, 1
  and 0.5 on the imitation market and at 0 and 1 on the growth market, and
  `check_multi_mutation` at 0 and 1 on the imitation market: milliseconds
  in all.

Each figure is the median of `TIMINGS` timings.

    python3 scripts/theory_cost.py
"""
from __future__ import annotations

import statistics
import sys
import time
from dataclasses import replace

from sysrisk import DynamicsParams, MarketParams
from sysrisk.analytic import clearing_limit, limit_returns, q_eps
from sysrisk.ess import check_avg_ess, check_mixed_ess, check_multi_mutation
from sysrisk.harness import (assert_horizon, figure_configs, flow_curve, table2_spec,
                             table3_spec, table4_spec)
from sysrisk.odeflow import (avg_limit, finite_round_estimate, flow_at_rounds, ode_numeric,
                             round_clock)

TIMINGS = 5
FIRST_ROUND = 250
GRID = tuple(i / 1000 for i in range(1001))
IMITATION = MarketParams(w=70.0, v=15.0, alpha=0.95, delta=0.8,
                         u=0.13, d=-0.6, r_s=0.1, r_b=0.11)
GROWTH = MarketParams(w=70.0, v=20.0, alpha=0.95, delta=0.85,
                      u=0.15, d=-0.6, r_s=0.1, r_b=0.11)
MARKETS = {"imitation": IMITATION, "growth": GROWTH,
           "growth_low": replace(GROWTH, delta=0.45),
           "systemic": replace(IMITATION, v=70.0)}
WALKER_DYN = DynamicsParams(mean_N=1.0, mean_S=10.0, b_n=0.9, b_s=0.9, n0=300, rounds=1000)
WALKER_ROUNDS = range(100, 1000)
RK4_DYN = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=5.6, b_n=0.8, b_s=0.8,
                         n0=500, eps0=0.4, rounds=4000)
RK4_RUNS = (replace(RK4_DYN, mean_L=0.0, bound_L=None), RK4_DYN)


def median_seconds(fn) -> float:
    timings = []
    for _ in range(TIMINGS):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def main() -> int:
    print(f"{'call':<40} {'median':>10}")
    for config in figure_configs():
        dyn = config.dynamics
        cost = median_seconds(lambda: flow_curve(config, dyn.eps0, 1.0, FIRST_ROUND, dyn.rounds))
        print(f"{'flow_curve ' + config.label:<40} {cost * 1e3:>7.2f} ms")

    cost = median_seconds(lambda: [finite_round_estimate(GROWTH, WALKER_DYN, 0.85, 0, k)
                                   for k in WALKER_ROUNDS])
    print(f"{'finite_round_estimate':<40} {cost / len(WALKER_ROUNDS) * 1e6:>7.1f} us")
    cost = median_seconds(lambda: list(flow_at_rounds(GROWTH, WALKER_DYN, 0.85, 1.0, 0.0, 0,
                                                      WALKER_ROUNDS)))
    print(f"{'finite_round_estimate, batch':<40} {cost / len(WALKER_ROUNDS) * 1e6:>7.1f} us")

    for name, market in MARKETS.items():
        cost = median_seconds(lambda: [(clearing_limit(market, eps), limit_returns(market, eps),
                                        q_eps(market, eps)) for eps in GRID])
        print(f"{'limit grid ' + name:<40} {cost * 1e3:>7.2f} ms")

    rows = [row.config for spec in (table2_spec(), table3_spec(), table4_spec())
            for row in spec.rows]
    cost = median_seconds(lambda: [assert_horizon(config) for config in rows])
    print(f"{f'assert_horizon, {len(rows)} table rows':<40} {cost * 1e3:>7.2f} ms")

    cost = median_seconds(lambda: [ode_numeric(IMITATION, dyn, 0.4, 1.0, 10.0, 1e-3)
                                   for dyn in RK4_RUNS])
    print(f"{'ode_numeric, criterion 3 pair':<40} {cost * 1e3:>7.2f} ms")

    flows = rows + list(figure_configs())
    cost = median_seconds(lambda: [
        ode_numeric(config.market, config.dynamics, config.dynamics.eps0, 1.0,
                    round_clock(config.dynamics.n0, config.dynamics.rounds), 1e-3)
        for config in flows])
    print(f"{f'ode_numeric, {len(flows)} table and figure flows':<40} {cost * 1e3:>7.2f} ms")

    cost = median_seconds(lambda: ([avg_limit(market) for market in MARKETS.values()],
                                   [check_avg_ess(IMITATION, eps) for eps in (0.0, 1.0)]))
    print(f"{'averaging: 4 avg_limit, 2 check_avg_ess':<40} {cost * 1e3:>7.2f} ms")

    cost = median_seconds(lambda: (
        [check_mixed_ess(IMITATION, RK4_DYN, eps) for eps in (0.0, 1.0, 0.5)],
        [check_mixed_ess(GROWTH, WALKER_DYN, eps) for eps in (0.0, 1.0)],
        [check_multi_mutation(IMITATION, RK4_DYN, eps) for eps in (0.0, 1.0)]))
    print(f"{'ess: 5 check_mixed_ess, 2 multi-mutation':<40} {cost * 1e3:>7.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
