"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
all) and asserts the stated tolerance.  The Monte-Carlo criteria use the
preset seed sets; everything here is deterministic end to end.
"""
from __future__ import annotations

import io
import statistics
import time
from dataclasses import replace

import numpy as np

from sysrisk import DynamicsParams, ExperimentConfig, MarketParams
from sysrisk.analytic import clearing_limit, limit_returns, thresholds
from sysrisk.clearing import class_clearing, defaulted
from sysrisk.ess import check_avg_ess, check_mixed_ess, check_multi_mutation
from sysrisk.harness import (
    contrast_configs,
    run_many,
    reproduce_table,
    systemic_contrast,
    table2_spec,
    table3_spec,
    table4_spec,
    write_trajectories,
)
from sysrisk.model import derive
from sysrisk.netgen import edge_weights, sample_shocks
from sysrisk.odeflow import (
    classify_attractors,
    finite_round_estimate,
    ode_numeric,
    ode_solution,
    ode_solution_departures,
)
from sysrisk.replicator import run_simulation

IMIT = MarketParams(w=70.0, v=15.0, alpha=0.95, delta=0.8,
                    u=0.13, d=-0.6, r_s=0.1, r_b=0.11)
GROWTH = MarketParams(w=70.0, v=20.0, alpha=0.95, delta=0.85,
                      u=0.15, d=-0.6, r_s=0.1, r_b=0.11)
GROWTH_LOW = replace(GROWTH, delta=0.45)
IMIT_DYN = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=5.6, b_n=0.8, b_s=0.8,
                          n0=500, eps0=0.4, rounds=4000)


def _line(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _picard(params: MarketParams, eps: float) -> float:
    y = params.w * (params.alpha + eps) * (1 + params.r_b) / (1 - params.alpha)
    c = params.alpha * (1 + eps) / (params.alpha + eps)
    k_u = params.w * (1 + eps) * (1 + params.u)
    k_d = params.w * (1 + eps) * (1 + params.d)
    x = y
    for _ in range(200_000):
        pay_u = min(max(k_u - params.v + c * x, 0.0), y)
        pay_d = min(max(k_d - params.v + c * x, 0.0), y)
        nxt = params.delta * pay_u + (1 - params.delta) * pay_d
        if abs(nxt - x) <= 1e-13 * y:
            return nxt
        x = nxt
    raise AssertionError("oracle did not converge")


def test_criterion_1_clearing_limit_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for market in (IMIT, GROWTH):
        for i in range(1, 100):
            eps = i / 100
            y = market.w * (market.alpha + eps) * (1 + market.r_b) / (1 - market.alpha)
            err = abs(clearing_limit(market, eps).x_bar - _picard(market, eps)) / y
            worst = max(worst, err)
    took = time.perf_counter() - t0
    ok = worst <= 1e-8 and took < 1.0
    assert _line(1, "clearing limit vs fixed-point oracle", ok,
                 f"max rel err {worst:.2e}, {took * 1e3:.0f} ms")


def test_criterion_2_thresholds():
    checks = [
        (IMIT, 0.2616, 0.4598),
        (GROWTH, 0.1610, 0.8350),
        (GROWTH_LOW, 0.1610, 0.2233),
    ]
    worst_lit = 0.0
    worst_route = 0.0
    for market, e1_ref, ebar_ref in checks:
        th = thresholds(market)
        worst_lit = max(worst_lit, abs(th.eps_bar_1 - e1_ref),
                        abs(th.eps_bar - ebar_ref))

        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if clearing_limit(market, mid).p_d > 0.0:
                hi = mid
            else:
                lo = mid
        worst_route = max(worst_route, abs(0.5 * (lo + hi) - th.eps_bar_1))

        lo, hi = th.eps_bar_1, 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            lr = limit_returns(market, mid)
            if lr.r1 >= lr.r2_up:
                hi = mid
            else:
                lo = mid
        worst_route = max(worst_route, abs(0.5 * (lo + hi) - th.eps_bar))
    ok = worst_lit <= 5e-4 and worst_route <= 1e-6
    assert _line(2, "thresholds", ok,
                 f"literal dev {worst_lit:.1e}, route dev {worst_route:.1e}")


def test_criterion_3_flow_closed_vs_rk4():
    plain = replace(IMIT_DYN, mean_L=0.0, bound_L=None)
    worst_plain = 0.0
    traj = ode_numeric(IMIT, plain, 0.4, 1.0, 10.0, 1e-3)
    for rec in traj.records:
        ref = ode_solution(IMIT, plain, 0.4, 1.0, rec.t)
        worst_plain = max(worst_plain, abs(rec.eps - ref.eps), abs(rec.psi - ref.psi))

    worst_dep = 0.0
    traj = ode_numeric(IMIT, IMIT_DYN, 0.4, 1.0, 10.0, 1e-3)
    for rec in traj.records:
        ref = ode_solution_departures(IMIT, IMIT_DYN, 0.4, 1.0, rec.t)
        worst_dep = max(worst_dep, abs(rec.eps - ref.eps), abs(rec.psi - ref.psi))
    ok = worst_plain <= 1e-6 and worst_dep <= 1e-5
    assert _line(3, "closed flow vs RK4", ok,
                 f"plain {worst_plain:.1e}, departures {worst_dep:.1e}")


def test_criterion_4_growth_table():
    report = reproduce_table(table2_spec(n_seeds=20))
    devs = [abs(row.eps_mc_median - row.target) for row in report.rows]
    ok = report.passed and all(row.n_seeds >= 20 for row in report.rows)
    assert _line(4, "growth-market table, 5 cells", ok,
                 "max |median-target| " + f"{max(devs):.4f} (tol 0.05)")


def test_criterion_5_departure_tables():
    targets = (1.0, 0.0, 1.0, 1.0, 0.4597)
    cells = [row.config for spec in (table3_spec(), table4_spec())
             for row in spec.rows if row.config.departures]
    assert len(cells) == len(targets)

    medians = []
    for config in cells:
        tails = [tail for _, tail, _ in run_many(config)]
        medians.append(statistics.median(tails))
    devs = [abs(m - t) for m, t in zip(medians, targets)]

    exact = (1.0, 0.0, 1.0, 1.0, thresholds(IMIT).eps_bar)
    identities_ok = True
    for config, attractor in zip(cells, exact):
        rep = classify_attractors(config.market, config.dynamics)
        eps0 = config.dynamics.eps0
        owner = next(star for (lo, hi), star in zip(rep.doa, rep.attractors)
                     if lo <= eps0 < hi or (eps0 == 1.0 and hi == 1.0))
        identities_ok &= owner[0] == attractor
    ok = max(devs) <= 0.05 and identities_ok
    assert _line(5, "departure tables, 5 on-cells", ok,
                 f"medians {[round(m, 4) for m in medians]}, "
                 f"max dev {max(devs):.4f}, identities {identities_ok}")


def test_criterion_6_large_network_clearing():
    n = 2000
    worst_claims = 0.0
    worst_frac = 0.0
    for eps in (0.2, 0.35, 0.9):
        n1 = int(round(n * eps))
        n2 = n - n1
        limit = clearing_limit(IMIT, eps)
        der = derive(IMIT, n1 / n)
        y, (w_g1, w_g2) = der.y, edge_weights(IMIT, n1, n2)
        claims_devs = []
        fracs = []
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            k = sample_shocks(IMIT, n2, n1 / n, rng).k
            # the class clearing, spread over the agents
            up = k == der.k_u
            n_u = int(up.sum())
            cc = class_clearing(y, w_g1, w_g2, n_u, n2 - n_u, der.w_high, der.w_low)
            X = np.where(up, cc.x_u, cc.x_d)
            # outside certificate: one application of the clearing map moves nothing
            mapped = np.clip(k + w_g2 / y * (X.sum() - X) - IMIT.v, 0.0, y)
            assert np.max(np.abs(mapped - X)) <= 1e-12 * y
            # risky-side claims concentrate on c_eps * x_bar
            c = IMIT.alpha * (1 + eps) / (IMIT.alpha + eps)
            claims = np.where(up, cc.claims_u, cc.claims_d)
            claims_devs.append(float(claims.mean()) / (c * limit.x_bar) - 1)
            fracs.append(int(defaulted(X, y).sum()) / n2)
        worst_claims = max(worst_claims, abs(float(np.mean(claims_devs))))
        worst_frac = max(worst_frac, abs(float(np.mean(fracs)) - limit.p_d))
    ok = worst_claims <= 0.05 and worst_frac <= 0.03
    assert _line(6, "n=2000 clearing vs limit", ok,
                 f"claims dev {worst_claims:.4f}, default-frac dev {worst_frac:.4f}")


def test_criterion_7_trajectory_tracks_walker():
    dyn = DynamicsParams(mean_N=1.0, mean_S=10.0, b_n=0.9, b_s=0.9,
                         n0=300, eps0=0.85, rounds=1000)
    config = ExperimentConfig(market=GROWTH, dynamics=dyn)
    walker = [finite_round_estimate(GROWTH, dyn, 0.85, 0, j)
              for j in range(100, 1000)]
    mads = []
    for seed in range(5):
        traj = run_simulation(config, seed)
        path = [rec.eps for rec in traj.records[100:1000]]
        mads.append(float(np.mean(np.abs(np.array(path) - np.array(walker)))))
    mean_mad = statistics.fmean(mads)
    ok = mean_mad <= 0.1
    assert _line(7, "per-round tracking", ok,
                 f"mean MAD over 5 seeds {mean_mad:.4f} (tol 0.1)")


def test_criterion_8_ess_suite_is_fast():
    t0 = time.perf_counter()
    gdyn = DynamicsParams(mean_N=1.0, mean_S=10.0, b_n=0.9, b_s=0.9,
                          n0=300, rounds=1000)
    verdicts = [
        check_mixed_ess(IMIT, IMIT_DYN, 0.0),
        check_mixed_ess(IMIT, IMIT_DYN, 1.0),
        check_mixed_ess(IMIT, IMIT_DYN, 0.5),
        check_mixed_ess(GROWTH, gdyn, 0.0),
        check_mixed_ess(GROWTH, gdyn, 1.0),
        check_multi_mutation(IMIT, IMIT_DYN, 0.0),
        check_multi_mutation(IMIT, IMIT_DYN, 1.0),
        check_avg_ess(IMIT, 0.0),
        check_avg_ess(IMIT, 1.0),
    ]
    took = time.perf_counter() - t0
    expected = [True, True, False, True, True, True, True, False, True]
    ok = took < 1.0 and [v.is_ess for v in verdicts] == expected
    assert _line(8, "stability suite", ok,
                 f"9 verdicts in {took * 1e3:.0f} ms")


def test_criterion_9_systemic_contrast():
    report = systemic_contrast(n_seeds=10)
    ok = (report.adaptive_default_tail < 0.9
          and report.frozen_default_tail >= 0.97)
    assert _line(9, "adaptation averts systemic defaults", ok,
                 f"adaptive tail defaults {report.adaptive_default_tail:.4f}, "
                 f"frozen {report.frozen_default_tail:.4f}")
    assert report.passed


def test_criterion_10_deterministic_exports():
    dyn = replace(IMIT_DYN, rounds=200)
    config = ExperimentConfig(market=IMIT, dynamics=dyn, seeds=(0, 1))
    outputs = []
    for _ in range(2):
        results = run_many(config, keep_trajectories=True)
        buf = io.StringIO()
        write_trajectories(buf, [traj for _, _, traj in results])
        outputs.append(buf.getvalue().encode())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    assert _line(10, "byte-identical reruns", ok,
                 f"{len(outputs[0])} bytes each")


def test_contrast_presets_are_out_of_theory():
    adaptive, frozen = contrast_configs()
    assert not adaptive.market.in_theory
    assert adaptive.market == frozen.market
