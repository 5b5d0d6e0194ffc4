#!/usr/bin/env python3
"""Run one simulated trajectory next to its flow overlay and summarize it.

A quick way to eyeball the dynamics for an arbitrary starting fraction
without setting up a config file.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from sysrisk import run_simulation, estimate_limit
from sysrisk.harness import (asymptotic_limit, figure_configs, flow_curve,
                             theory_at_horizon, write_metadata, write_trajectories)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eps0", type=float, default=0.5, help="starting risk-free fraction")
    parser.add_argument("--rounds", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="directory for the CSV pair (optional)")
    args = parser.parse_args()

    base = figure_configs(seed=args.seed)[0]
    config = replace(base, seeds=(args.seed,),
                     dynamics=replace(base.dynamics, eps0=args.eps0, rounds=args.rounds),
                     label=f"demo eps0={args.eps0:g}")

    trajectory = run_simulation(config, args.seed)
    tail = estimate_limit(trajectory)
    final = trajectory.records[-1]
    defaults = [r.default_frac for r in trajectory.records]
    print(f"eps0={args.eps0:g} seed={args.seed}: tail eps={tail:.4f}, "
          f"final n={final.n}, mean default fraction={sum(defaults) / len(defaults):.4f}")
    print(f"flow: eps(T)={theory_at_horizon(config):.4f}, "
          f"limit={asymptotic_limit(config):.4f}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_trajectories(out / "run.csv", [trajectory])
        overlay = flow_curve(config, args.eps0, 1.0, 0, args.rounds)
        write_trajectories(out / "overlay.csv", [overlay])
        write_metadata(out / "metadata.json", config)
        print(out / "run.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
