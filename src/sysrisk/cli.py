"""Command-line front end.

Subcommands: ``analytic`` (limit curves and thresholds over a fraction
grid), ``ode`` (closed-form or numeric flow trajectories), ``simulate``
(Monte-Carlo runs), ``ess`` (stability verdicts), ``reproduce`` (preset
tables and trajectory figures).  Exit status 0 on success, 1 when
``reproduce --strict`` misses a tolerance, 2 on bad configs or arguments.
"""
from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .analytic import clearing_limit, limit_returns, q_eps, thresholds
from .ess import EssMode, check_avg_ess, check_mixed_ess, check_multi_mutation
from .model import ParamError
from .odeflow import avg_limit, ode_numeric


def _load(args: argparse.Namespace) -> harness.ExperimentConfig:
    config = harness.load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config = replace(config, seeds=harness.parse_seeds("--seed", args.seed))
    return config


def _out_file(args: argparse.Namespace, name: str):
    if args.out is None:
        return sys.stdout, None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return None, out / name


def cmd_analytic(args: argparse.Namespace) -> int:
    market = _load(args).market
    if args.grid < 1:
        raise ParamError("--grid: need at least one interval")
    th = thresholds(market, check=False)
    lines = [f"# eps_bar_1 = {th.eps_bar_1!r}",
             f"# eps_bar = {th.eps_bar!r}",
             f"# eps_bar_2 = {th.eps_bar_2!r}",
             f"# outside_theory = {'true' if th.outside_theory else 'false'}",
             "eps,x_bar,p_d,regime,r1,r2_up,r2_down,q"]
    for i in range(args.grid + 1):
        eps = i / args.grid
        cl = clearing_limit(market, eps)
        lines.append(",".join((repr(eps), repr(cl.x_bar), repr(cl.p_d), cl.regime.value,
                               *map(repr, limit_returns(market, eps)), repr(q_eps(market, eps)))))
    stream, path = _out_file(args, "analytic.csv")
    text = "\n".join(lines) + "\n"
    if stream is not None:
        stream.write(text)
    else:
        path.write_text(text)
        print(path)
    return 0


def cmd_ode(args: argparse.Namespace) -> int:
    config = _load(args)
    dyn = config.dynamics
    if args.eps0 is not None:
        dyn = replace(dyn, eps0=args.eps0)
        config = replace(config, dynamics=dyn)
    rounds = args.rounds if args.rounds is not None else dyn.rounds
    if rounds < 0:
        raise ParamError(f"--rounds: horizon cannot be negative, got {rounds}")
    if args.method == "closed":
        trajectory = harness.flow_curve(config, dyn.eps0, args.psi0, 0, rounds,
                                        every=args.every)
    else:
        horizon = harness.round_clock(dyn.n0, rounds)
        trajectory = ode_numeric(config.market, dyn, dyn.eps0, args.psi0, horizon, args.step)
    stream, path = _out_file(args, "ode.csv")
    harness.write_trajectories(stream if stream is not None else path, [trajectory])
    if path is not None:
        print(path)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args)
    results = harness.run_many(config, keep_trajectories=args.out is not None)
    tails = []
    for seed, tail, _ in results:
        tails.append(tail)
        print(f"seed={seed} tail_eps={tail:.6f}")
    print(f"median tail_eps={statistics.median(tails):.6f} over {len(tails)} seed(s)")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        harness.write_trajectories(out / "trajectories.csv",
                                   [t for _, _, t in results if t is not None])
        harness.write_metadata(out / "metadata.json", config)
        print(out / "trajectories.csv")
    return 0


def cmd_ess(args: argparse.Namespace) -> int:
    config = _load(args)
    market, dyn = config.market, config.dynamics
    mode = EssMode(args.mode)
    candidates = args.candidate if args.candidate else [0.0, 1.0]
    if mode is EssMode.AVG_RETURN:
        avg = avg_limit(market)
        print(f"avg_limit={avg.limit:g} case={avg.case} applies={'yes' if avg.applies else 'no'}")
    for cand in candidates:
        if mode is EssMode.SWITCH_UTILITY:
            verdict = check_mixed_ess(market, dyn, cand)
        elif mode is EssMode.MULTI_MUTATION:
            verdict = check_multi_mutation(market, dyn, cand)
        else:
            verdict = check_avg_ess(market, cand)
        bits = [f"candidate={cand:g}", f"mode={verdict.mode.value}",
                f"ess={'yes' if verdict.is_ess else 'no'}",
                f"margin={verdict.margin:.6g}"]
        if verdict.x_bar_used is not None:
            bits.append(f"x_bar={verdict.x_bar_used:g}")
        if verdict.predominant_switching is not None:
            bits.append(f"switching_dominant={'yes' if verdict.predominant_switching else 'no'}")
        print(" ".join(bits))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    out = Path(args.out) if args.out else Path(f"reproduce_{args.target.replace('-', '_')}")
    if args.target == "fig-trajectories":
        seeds = harness.parse_seeds("--seed", args.seed) if args.seed is not None else (0,)
        if len(seeds) > 1:
            raise ParamError(f"--seed: fig-trajectories takes one seed, got {args.seed!r}")
        for path in harness.reproduce_figures(out, seed=seeds[0]):
            print(path)
        return 0
    spec = harness.TABLE_SPECS[args.target]()
    if args.seed is not None:
        seeds = harness.parse_seeds("--seed", args.seed)
        spec = replace(spec, rows=tuple(
            replace(row, config=replace(row.config, seeds=seeds)) for row in spec.rows))
    report = harness.reproduce_table(spec, out_dir=out)
    print(harness.format_report(report))
    if args.strict and not report.passed:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sysrisk",
        description="Evolution of risk appetites on random liability networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analytic", help="limit curves and thresholds over a fraction grid")
    pa.add_argument("--config", required=True, metavar="PATH")
    pa.add_argument("--grid", type=int, default=100, help="grid intervals (default 100)")
    pa.add_argument("--out", metavar="DIR", help="write analytic.csv here instead of stdout")
    pa.set_defaults(func=cmd_analytic)

    po = sub.add_parser("ode", help="flow trajectory on the round clock")
    po.add_argument("--config", required=True, metavar="PATH")
    po.add_argument("--method", choices=("closed", "numeric"), default="closed")
    po.add_argument("--eps0", type=float, help="override the starting fraction")
    po.add_argument("--psi0", type=float, default=1.0)
    po.add_argument("--rounds", type=int, help="horizon in rounds (default: config)")
    po.add_argument("--every", type=int, default=10, help="closed-form sampling stride")
    po.add_argument("--step", type=float, default=1e-3, help="numeric integration step")
    po.add_argument("--out", metavar="DIR", help="write ode.csv here instead of stdout")
    po.set_defaults(func=cmd_ode)

    ps = sub.add_parser("simulate", help="Monte-Carlo run(s) of a config")
    ps.add_argument("--config", required=True, metavar="PATH")
    ps.add_argument("--seed", metavar="N[,N...]", help="override the config's seeds")
    ps.add_argument("--out", metavar="DIR", help="write trajectories.csv + metadata.json")
    ps.set_defaults(func=cmd_simulate)

    pe = sub.add_parser("ess", help="stability verdicts for candidate fractions")
    pe.add_argument("--config", required=True, metavar="PATH")
    pe.add_argument("--candidate", type=float, action="append", metavar="EPS",
                    help="candidate fraction (repeatable; default 0 and 1)")
    pe.add_argument("--mode", choices=[m.value for m in EssMode],
                    default=EssMode.SWITCH_UTILITY.value)
    pe.set_defaults(func=cmd_ess)

    pr = sub.add_parser("reproduce", help="preset tables and trajectory figures")
    pr.add_argument("target", choices=("table2", "table3", "table4", "fig-trajectories"))
    pr.add_argument("--out", metavar="DIR", help="output directory (default ./reproduce_<target>)")
    pr.add_argument("--seed", metavar="N[,N...]", help="override preset seeds")
    pr.add_argument("--strict", action="store_true",
                    help="exit 1 if any row misses its tolerance")
    pr.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
