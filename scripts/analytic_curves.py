#!/usr/bin/env python3
"""Dump the closed-form landscape for the two preset markets.

For each market: the limit curves over a fraction grid (clearing payment,
default probability, returns, win probability), the switching thresholds,
the attractor partition for a few dynamics settings, the stability
verdicts for the pure strategies, and the limit of the average-return
dynamics (`avg_limit`).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from sysrisk import (DynamicsParams, avg_limit, check_mixed_ess, classify_attractors,
                     thresholds)
from sysrisk.cli import main as cli_main
from sysrisk.harness import save_config, table2_spec, table3_spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="analytic_out", help="output directory")
    parser.add_argument("--grid", type=int, default=200)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    presets = {"growth": table2_spec().rows[0].config,
               "imitation": table3_spec().rows[0].config}
    for name, config in presets.items():
        cfg_path = out / f"{name}.cfg"
        save_config(config, cfg_path)
        status = cli_main(["analytic", "--config", str(cfg_path),
                           "--grid", str(args.grid), "--out", str(out / name)])
        if status:
            return status
        th = thresholds(config.market, check=False)
        print(f"{name}: eps_bar_1={th.eps_bar_1:.6f} eps_bar={th.eps_bar:.6f} "
              f"eps_bar_2={th.eps_bar_2:.6f}")
        for mean_L in dict.fromkeys((0.0, config.dynamics.mean_L)):
            dyn = DynamicsParams(mean_N=config.dynamics.mean_N,
                                 mean_S=config.dynamics.mean_S, mean_L=mean_L,
                                 b_n=config.dynamics.b_n, b_s=config.dynamics.b_s)
            report = classify_attractors(config.market, dyn)
            print(f"  E[L]={mean_L:g}: {report.regime_label}")
        for cand in (0.0, 1.0):
            verdict = check_mixed_ess(config.market, config.dynamics, cand)
            print(f"  candidate {cand:g}: "
                  f"{'stable' if verdict.is_ess else 'invadable'} "
                  f"(margin {verdict.margin:.4f})")
        avg = avg_limit(config.market)
        print(f"  average-return limit {avg.limit:g} ({avg.case}, applies={avg.applies})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
