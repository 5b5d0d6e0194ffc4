"""Experiment harness: run configs, preset studies, and file output.

Everything the command line (and the reproduction tests) need sits here:
a picklable :class:`ExperimentConfig`, a flat ``section.key = value`` config
file format, multi-seed execution over a process pool, tail-limit summaries
with theory columns, and the CSV/JSON writers.  Output is deterministic for
a fixed config and seed list, down to the bytes.
"""
from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import statistics
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

from .analytic import drift_rates, thresholds
from .model import DynamicsParams, MarketParams, ParamError
from .odeflow import classify_attractors, flow_at_rounds, flow_path, round_clock  # cli reads it
from .records import RoundRecord, Trajectory
from .replicator import estimate_limit, run_simulation, tail_window

log = logging.getLogger(__name__)

TRAJECTORY_COLUMNS = (*RoundRecord._fields, "seed")
_FLOW_BLANKS = (None,) * 7  # a flow row's default_frac .. mean_r2


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: market, dynamics, seeds and a label.

    Frozen and built from frozen parts, so it pickles cleanly into worker
    processes and hashes canonically for run metadata.
    """

    market: MarketParams
    dynamics: DynamicsParams
    seeds: tuple[int, ...] = (0,)
    label: str = ""

    def __post_init__(self) -> None:
        if not self.seeds or min(self.seeds) < 0:
            raise ParamError(f"run.seeds: need one or more non-negative seeds, got {self.seeds}")

    @property
    def departures(self) -> bool:
        """Whether defaulted risky agents leave: ``dynamics.mean_L > 0``."""
        return self.dynamics.mean_L > 0


# --------------------------------------------------------------------------
# flat config files:  "market.w = 70" style, one key per line

_RUN_TYPES: dict[str, object] = {"seeds": "seeds", "label": str}
# each section's key types, and what an unknown key in the section is called
_SECTIONS = {"market": (typing.get_type_hints(MarketParams), "market parameter"),
             "dynamics": (typing.get_type_hints(DynamicsParams), "dynamics parameter"),
             "run": (_RUN_TYPES, "run option")}


def parse_seeds(key: str, text: str) -> tuple[int, ...]:
    """A non-empty comma-separated seed list; `key` names it in errors."""
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ParamError(f"{key}: expected comma-separated integers, got {text!r}") from None
    if not seeds:
        raise ParamError(f"{key}: empty seed list")
    return seeds


def _coerce(key: str, raw: str, tp: object) -> object:
    if tp in (int, float):
        try:
            value = tp(raw)
        except ValueError:
            raise ParamError(f"{key}: expected a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ParamError(f"{key}: expected a finite number, got {raw!r}")
        return value
    if tp is str:
        return raw
    if tp == "seeds":
        return parse_seeds(key, raw)
    args = typing.get_args(tp)
    if args and type(None) in args:
        if raw.lower() in ("", "none"):
            return None
        inner = next(a for a in args if a is not type(None))
        return _coerce(key, raw, inner)
    raise ParamError(f"{key}: unsupported value {raw!r}")


def _render(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def config_to_flat(config: ExperimentConfig) -> dict[str, str]:
    """Canonical flat representation, the basis of files and digests."""
    flat = {f"{section}.{name}": _render(value) for section in ("market", "dynamics")
            for name, value in asdict(getattr(config, section)).items()}
    for name in _RUN_TYPES:
        flat[f"run.{name}"] = _render(getattr(config, name))
    return flat


def config_from_flat(flat: dict[str, str]) -> ExperimentConfig:
    kw: dict[str, dict[str, object]] = {section: {} for section in _SECTIONS}
    for key, raw in flat.items():
        section, _, name = key.partition(".")
        if not name:
            raise ParamError(f"{key}: keys take the form section.name")
        if section not in _SECTIONS:
            raise ParamError(f"{key}: unknown section {section!r}")
        types, what = _SECTIONS[section]
        if name not in types:
            raise ParamError(f"{key}: unknown {what}")
        kw[section][name] = _coerce(key, raw, types[name])
    try:
        market = MarketParams(**kw["market"])
        dynamics = DynamicsParams(**kw["dynamics"])
    except TypeError as exc:  # a required field is missing
        raise ParamError(str(exc)) from None
    return ExperimentConfig(market=market, dynamics=dynamics, **kw["run"])


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    lines = [f"{key} = {value}" for key, value in config_to_flat(config).items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ParamError(f"{path}: not UTF-8 text") from None
    flat: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ParamError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        if key in set_on:
            raise ParamError(f"{path}:{lineno}: {key} already set on line {set_on[key]}")
        set_on[key] = lineno
        flat[key] = value.strip()
    return config_from_flat(flat)


def config_digest(config: ExperimentConfig) -> str:
    flat = config_to_flat(config)
    text = "\n".join(f"{key}={flat[key]}" for key in sorted(flat))
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# execution

def _worker(payload: tuple[ExperimentConfig, int, bool]) -> tuple[int, float, Trajectory | None]:
    config, seed, keep = payload
    trajectory = run_simulation(config, seed)
    return seed, estimate_limit(trajectory), trajectory if keep else None


def _max_workers(n_jobs: int) -> int:
    workers = min(n_jobs, os.cpu_count() or 1)
    cap = os.environ.get("SYSRISK_THREADS")
    if cap:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            log.warning("ignoring non-integer SYSRISK_THREADS=%r", cap)
    return max(1, workers)


def run_many(config: ExperimentConfig, *, keep_trajectories: bool = False,
             ) -> list[tuple[int, float, Trajectory | None]]:
    """Run every seed of one config; results ordered like ``config.seeds``."""
    payloads = [(config, seed, keep_trajectories) for seed in config.seeds]
    return _run_payloads(payloads)


def _run_payloads(payloads: list[tuple[ExperimentConfig, int, bool]],
                  ) -> list[tuple[int, float, Trajectory | None]]:
    workers = _max_workers(len(payloads))
    if workers == 1 or len(payloads) == 1:
        return [_worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_worker, payloads))


# --------------------------------------------------------------------------
# theory columns

def theory_at_horizon(config: ExperimentConfig) -> float:
    """Flow prediction for the risk-free fraction at the config's horizon."""
    dyn = config.dynamics
    return next(flow_at_rounds(config.market, dyn, dyn.eps0, 1.0, dyn.mean_L, 0, (dyn.rounds,))).eps


def asymptotic_limit(config: ExperimentConfig) -> float:
    """The attractor whose basin holds the config's starting fraction."""
    report = classify_attractors(config.market, config.dynamics)
    eps0 = config.dynamics.eps0
    for (lo, hi), (eps_star, _) in zip(report.doa, report.attractors):
        if lo <= eps0 < hi or (hi == 1.0 and eps0 == 1.0):
            return eps_star
    raise ParamError(f"eps0: {eps0!r} not covered by any basin")  # pragma: no cover


_ROW_TOL = 0.05       # a table row passes when its median is this close to target
_SETTLE_TOL = 0.01    # the flow has settled when it is this close to its limit
_MAX_DOUBLINGS = 6    # assert_horizon stretches a slow cell to at most 64x


def assert_horizon(config: ExperimentConfig) -> int:
    """Horizon at which comparing the simulation to its limit is meaningful.

    Rows whose flow is already within the row tolerance (`_ROW_TOL`) of the
    limit at the preset horizon keep it.  A slow cell that is not gets its
    horizon doubled, at most `_MAX_DOUBLINGS` times, until the flow itself
    has settled to within `_SETTLE_TOL`; comparing the simulation against the
    limit any earlier would test patience, not correctness.  The probes are
    one lazy `flow_at_rounds` pass, read no further than the first settled
    doubling; each equals `theory_at_horizon` at its horizon bit for bit.
    """
    target = asymptotic_limit(config)
    dyn = config.dynamics
    horizons = [dyn.rounds << i for i in range(_MAX_DOUBLINGS + 1)]
    flow = flow_at_rounds(config.market, dyn, dyn.eps0, 1.0, dyn.mean_L, 0, horizons)
    for doublings, (rounds, state) in enumerate(zip(horizons, flow)):
        if abs(state.eps - target) <= (_SETTLE_TOL if doublings else _ROW_TOL):
            return rounds
    log.warning("flow still %g away from %g at %d rounds", _SETTLE_TOL, target, horizons[-1])
    return horizons[-1]


# --------------------------------------------------------------------------
# table reproduction

@dataclass(frozen=True)
class RowSpec:
    config: ExperimentConfig


@dataclass(frozen=True)
class TableSpec:
    name: str
    rows: tuple[RowSpec, ...]


@dataclass(frozen=True)
class TableRow:
    """One reproduced table cell: simulation summary next to theory."""

    config_id: str
    eps0: float
    target: float
    eps_theory: float       # asymptotic attractor for this basin
    eps_theory_T: float     # flow prediction at the asserted horizon
    eps_mc_median: float
    eps_mc_mean: float
    eps_mc_stderr: float
    escapes: int            # seeds whose tail strays > 0.25 from the median
    eps_bar: float
    eps_bar_1: float
    beta: float
    mean_L: float
    rounds: int
    n_seeds: int
    tol: float
    passed: bool


@dataclass(frozen=True)
class TableReport:
    name: str
    rows: tuple[TableRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def _summarize(tails: list[float]) -> tuple[float, float, float, int]:
    median = statistics.median(tails)
    mean = statistics.fmean(tails)
    stderr = statistics.stdev(tails) / math.sqrt(len(tails)) if len(tails) > 1 else 0.0
    escapes = sum(1 for tail in tails if abs(tail - median) > 0.25)
    return median, mean, stderr, escapes


def reproduce_table(spec: TableSpec, out_dir: str | Path | None = None) -> TableReport:
    """Run a preset table, seed by seed, and summarize each row.

    The summary statistic is the median of the per-seed tail means: the
    finite population keeps a small per-seed probability of jumping between
    basins, so a mean over seeds measures the escape rate where the table
    reports the typical outcome.

    Each row is gated against the theory value that applies at its horizon:
    the asymptotic limit once the flow has settled within `_SETTLE_TOL` of
    it, the flow value at the horizon otherwise (slow cells sit a visible
    distance from their limit at any fixed round count, and that distance is
    physics, not sampling error).
    """
    payloads = [(row.config, seed, False) for row in spec.rows for seed in row.config.seeds]
    results = iter(_run_payloads(payloads))

    rows: list[TableRow] = []
    for row in spec.rows:
        config, dyn = row.config, row.config.dynamics
        tails = [next(results)[1] for _ in config.seeds]
        median, mean, stderr, escapes = _summarize(tails)
        th = thresholds(config.market, check=False)
        beta, _ = drift_rates(config.market, dyn)
        limit = asymptotic_limit(config)
        horizon_est = theory_at_horizon(config)
        target = limit if abs(horizon_est - limit) <= _SETTLE_TOL else horizon_est
        rows.append(TableRow(
            config_id=config.label, eps0=dyn.eps0, target=target,
            eps_theory=limit, eps_theory_T=horizon_est,
            eps_mc_median=median, eps_mc_mean=mean, eps_mc_stderr=stderr,
            escapes=escapes, eps_bar=th.eps_bar, eps_bar_1=th.eps_bar_1,
            beta=beta, mean_L=dyn.mean_L,
            rounds=dyn.rounds, n_seeds=len(config.seeds), tol=_ROW_TOL,
            passed=abs(median - target) <= _ROW_TOL))
    report = TableReport(name=spec.name, rows=tuple(rows))
    if out_dir is not None:
        write_table_report(report, spec, out_dir)
    return report


def format_report(report: TableReport) -> str:
    header = (f"{'row':28s} {'eps0':>5s} {'target':>8s} {'median':>8s} {'mean':>8s}"
              f" {'stderr':>8s} {'esc':>3s} {'theory(T)':>9s} {'rounds':>6s} {'ok':>3s}")
    lines = [f"== {report.name} ==", header]
    for row in report.rows:
        lines.append(f"{row.config_id:28s} {row.eps0:5.2f} {row.target:8.4f}"
                     f" {row.eps_mc_median:8.4f} {row.eps_mc_mean:8.4f}"
                     f" {row.eps_mc_stderr:8.4f} {row.escapes:3d}"
                     f" {row.eps_theory_T:9.4f} {row.rounds:6d}"
                     f" {'yes' if row.passed else 'NO':>3s}")
    lines.append(f"overall: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# file output

def _cells(values) -> str:
    """One CSV line's cells, as `csv.writer` writes them (see `write_trajectories`)."""
    return ",".join([repr(x) if isinstance(x, float) else "" if x is None else str(x)
                     for x in values])


def write_trajectories(path_or_file, trajectories: list[Trajectory]) -> None:
    """Round-per-line CSV of runs, stacked over seeds, in one write.

    A Monte-Carlo row is its `RoundRecord` followed by the seed.  A flow row
    (an `OdeState`) fills only eps and psi; every other column comes out
    blank.  A cell is what `csv.writer` writes: a float by repr, None empty,
    any other value by str.  Accepts a path or an open text file (e.g. stdout).
    """
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for trajectory in trajectories:
        seed = _cells((trajectory.seed,))
        for rec in trajectory.records:
            if not isinstance(rec, RoundRecord):
                rec = (None, None, None, rec.eps, rec.psi, *_FLOW_BLANKS)
            lines.append(f"{_cells(rec)},{seed}")
    lines.append("")
    if hasattr(path_or_file, "write"):
        path_or_file.write("\n".join(lines))
    else:
        Path(path_or_file).write_text("\n".join(lines), newline="")


def flow_curve(config: ExperimentConfig, eps0: float, psi0: float,
               first_round: int, last_round: int, every: int = 10) -> Trajectory:
    """Flow solution sampled on the round clock, as a trajectory of `OdeState`s.

    One `flow_path` pass, so each row equals `ode_solution_departures` at its
    `t` bit for bit.
    """
    if every < 1 or not 0 <= first_round <= last_round:
        raise ParamError(f"flow rounds: need every >= 1 and 0 <= first <= last, got "
                         f"every={every}, first={first_round}, last={last_round}")
    return Trajectory(records=flow_path(
        config.market, config.dynamics, eps0, psi0, config.dynamics.mean_L, first_round,
        range(first_round, last_round + 1, every)))


def write_metadata(path: str | Path, config: ExperimentConfig,
                   extra: dict | None = None) -> None:
    meta = {"config": config_to_flat(config),
            "config_sha256": config_digest(config),
            "seeds": list(config.seeds),
            "version": _pkg_version()}
    if extra:
        meta.update(extra)
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def report_to_dict(report: TableReport) -> dict:
    """The report as a JSON-compatible tree."""
    return {"name": report.name, "passed": report.passed,
            "rows": [asdict(row) for row in report.rows]}


def write_table_report(report: TableReport, spec: TableSpec, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = [f.name for f in fields(TableRow)]
    with open(out / f"{report.name}_rows.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(astuple(row) for row in report.rows)
    (out / f"{report.name}_report.json").write_text(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n")
    meta = {"table": report.name, "passed": report.passed, "version": _pkg_version(),
            "rows": [{"config": config_to_flat(r.config),
                      "config_sha256": config_digest(r.config)} for r in spec.rows]}
    (out / f"{report.name}_metadata.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _pkg_version() -> str:
    from sysrisk import __version__
    return __version__


# --------------------------------------------------------------------------
# presets

def _imitation_market(v: float = 15.0) -> MarketParams:
    return MarketParams(w=70.0, v=v, alpha=0.95, delta=0.8,
                        u=0.13, d=-0.6, r_s=0.1, r_b=0.11)


def _growth_market(delta: float) -> MarketParams:
    return MarketParams(w=70.0, v=20.0, alpha=0.95, delta=delta,
                        u=0.15, d=-0.6, r_s=0.1, r_b=0.11)


def table2_spec(n_seeds: int = 20) -> TableSpec:
    """Arrival-dominated runs without departures, five (b, delta, eps0) cells."""
    seeds = tuple(range(n_seeds))
    rows = []
    cells = ((0.9, 0.85, 0.85),
             (0.9, 0.85, 0.75),
             (0.4, 0.85, 0.80),
             (0.9, 0.45, 0.60),
             (0.15, 0.45, 0.20))
    for b, delta, eps0 in cells:
        dyn = DynamicsParams(mean_N=1.0, mean_S=10.0, mean_L=0.0, b_n=b, b_s=b,
                             n0=300, eps0=eps0, rounds=1000)
        config = ExperimentConfig(market=_growth_market(delta), dynamics=dyn, seeds=seeds,
                                  label=f"b={b:g} delta={delta:g} eps0={eps0:g}")
        rows.append(RowSpec(config=config))
    return TableSpec(name="table2", rows=tuple(rows))


_SLOW_SEEDS = 5  # seeds of a cell whose horizon assert_horizon stretched


def _departure_row(b: float, eps0: float, mean_L: float, n_seeds: int) -> RowSpec:
    dyn = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=mean_L, b_n=b, b_s=b,
                         n0=500, eps0=eps0, rounds=4000)
    config = ExperimentConfig(market=_imitation_market(), dynamics=dyn,
                              seeds=tuple(range(n_seeds)),
                              label=(f"b={b:g} eps0={eps0:g} L={mean_L:g} "
                                     f"{'on' if mean_L > 0 else 'off'}"))
    horizon = assert_horizon(config)
    if horizon != dyn.rounds:
        config = replace(config, seeds=tuple(range(_SLOW_SEEDS)),
                         dynamics=replace(dyn, rounds=horizon))
    return RowSpec(config=config)


def table3_spec(n_seeds: int = 10) -> TableSpec:
    """Departure on/off pairs at high observation accuracy (b = 0.8)."""
    rows = (_departure_row(0.8, 0.4, 5.6, n_seeds),
            _departure_row(0.8, 0.4, 0.0, n_seeds),
            _departure_row(0.8, 0.3, 2.1, n_seeds),
            _departure_row(0.8, 0.3, 0.0, n_seeds))
    return TableSpec(name="table3", rows=rows)


def table4_spec(n_seeds: int = 10) -> TableSpec:
    """Departure on/off pairs at low observation accuracy (b = 0.4)."""
    rows = (_departure_row(0.4, 0.4, 1.75, n_seeds),
            _departure_row(0.4, 0.4, 0.0, n_seeds),
            _departure_row(0.4, 0.8, 1.0, n_seeds),
            _departure_row(0.4, 0.8, 0.0, n_seeds),
            _departure_row(0.4, 0.5, 0.7, n_seeds),
            _departure_row(0.4, 0.5, 0.0, n_seeds))
    return TableSpec(name="table4", rows=rows)


def figure_configs(seed: int = 0) -> tuple[ExperimentConfig, ...]:
    """Single-run trajectories for three starts, mid observation accuracy."""
    configs = []
    for eps0 in (0.2, 0.5, 0.8):
        dyn = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=0.84, b_n=0.4, b_s=0.4,
                             n0=500, eps0=eps0, rounds=4000)
        configs.append(ExperimentConfig(market=_imitation_market(), dynamics=dyn,
                                        seeds=(seed,), label=f"trajectory eps0={eps0:g}"))
    return tuple(configs)


_FIG_RESTART_ROUND = 250


def reproduce_figures(out_dir: str | Path, seed: int = 0) -> list[Path]:
    """Write the trajectory runs with their flow overlays.

    Each start gets two files: the simulated run and the closed-form flow
    started from the simulated state a few hundred rounds in (the early
    rounds are noise-dominated, so anchoring the flow there makes the
    comparison informative rather than flattering).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for config in figure_configs(seed):
        results = run_many(config, keep_trajectories=True)
        trajectory = results[0][2]
        if trajectory is None:
            raise RuntimeError(f"{config.label}: the run kept no trajectory")
        tag = f"eps0_{config.dynamics.eps0:g}".replace(".", "p")
        mc_path = out / f"trajectory_{tag}.csv"
        write_trajectories(mc_path, [trajectory])
        written.append(mc_path)

        anchor = trajectory.records[_FIG_RESTART_ROUND]
        curve = flow_curve(config, anchor.eps, anchor.psi,
                           _FIG_RESTART_ROUND, config.dynamics.rounds)
        ode_path = out / f"ode_{tag}.csv"
        write_trajectories(ode_path, [curve])
        written.append(ode_path)
        write_metadata(out / f"metadata_{tag}.json", config,
                       extra={"restart_round": _FIG_RESTART_ROUND,
                              "ode_sampled_every": 10})
    return written


# --------------------------------------------------------------------------
# systemic-cost contrast

_ADAPTIVE_CAP = 0.9    # adaptive tail default fraction must stay below this
_FROZEN_FLOOR = 0.97   # frozen tail default fraction must reach this


@dataclass(frozen=True)
class ContrastReport:
    """Adaptation versus a frozen all-risky population under heavy senior debt.

    The adaptive population starts mixed and is free to imitate; the frozen
    one starts all-risky, where imitation has nobody to copy.  `passed`
    requires the adaptive run to escape mass default (median tail default
    fraction below `_ADAPTIVE_CAP`) while the frozen run stays in it (at or
    above `_FROZEN_FLOOR`).
    """

    adaptive_eps_tail: float
    adaptive_default_tail: float
    frozen_default_tail: float
    n_seeds: int

    @property
    def passed(self) -> bool:
        return (self.adaptive_default_tail < _ADAPTIVE_CAP
                and self.frozen_default_tail >= _FROZEN_FLOOR)


def contrast_configs(n_seeds: int = 10) -> tuple[ExperimentConfig, ExperimentConfig]:
    market = _imitation_market(v=70.0)
    seeds = tuple(range(n_seeds))
    dyn = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=2.0, b_n=0.8, b_s=0.8,
                         n0=500, eps0=0.5, rounds=1500)
    adaptive = ExperimentConfig(market=market, dynamics=dyn, seeds=seeds,
                                label="adaptive eps0=0.5")
    frozen = ExperimentConfig(market=market, seeds=seeds, label="frozen eps0=0",
                              dynamics=replace(dyn, mean_L=0.0, bound_L=None, eps0=0.0))
    return adaptive, frozen


def _tail_default(trajectory: Trajectory) -> float:
    return statistics.fmean(rec.default_frac for rec in tail_window(trajectory.records))


def systemic_contrast(n_seeds: int = 10, out_dir: str | Path | None = None) -> ContrastReport:
    adaptive, frozen = contrast_configs(n_seeds)
    results_a = run_many(adaptive, keep_trajectories=True)
    results_f = run_many(frozen, keep_trajectories=True)
    eps_tail = statistics.median(tail for _, tail, _ in results_a)
    default_a = statistics.median(_tail_default(t) for _, _, t in results_a if t)
    default_f = statistics.median(_tail_default(t) for _, _, t in results_f if t)
    report = ContrastReport(adaptive_eps_tail=eps_tail, adaptive_default_tail=default_a,
                            frozen_default_tail=default_f, n_seeds=n_seeds)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_trajectories(out / "contrast_adaptive.csv",
                           [t for _, _, t in results_a if t is not None])
        write_trajectories(out / "contrast_frozen.csv",
                           [t for _, _, t in results_f if t is not None])
        write_metadata(out / "contrast_adaptive_metadata.json", adaptive)
        write_metadata(out / "contrast_frozen_metadata.json", frozen)
    return report


TABLE_SPECS = {"table2": table2_spec, "table3": table3_spec, "table4": table4_spec}
