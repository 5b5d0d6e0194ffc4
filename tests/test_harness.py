"""Experiment harness: config files, CSV schema, table machinery, presets."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

import sysrisk
from sysrisk import (
    DynamicsParams,
    ExperimentConfig,
    MarketParams,
    ParamError,
    RoundRecord,
    Trajectory,
    config_digest,
    harness,
    load_config,
    run_simulation,
    save_config,
)
from sysrisk.harness import (
    TRAJECTORY_COLUMNS,
    RowSpec,
    TableSpec,
    assert_horizon,
    asymptotic_limit,
    config_from_flat,
    config_to_flat,
    contrast_configs,
    figure_configs,
    flow_curve,
    format_report,
    reproduce_table,
    round_clock,
    table2_spec,
    table3_spec,
    table4_spec,
    theory_at_horizon,
    write_metadata,
    write_table_report,
    write_trajectories,
)
from sysrisk.model import count_bound
from sysrisk.odeflow import finite_round_estimate, ode_numeric, ode_solution_departures

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def mini_config(growth_market):
    dyn = DynamicsParams(mean_N=1.0, mean_S=10.0, b_n=0.9, b_s=0.9,
                         n0=300, eps0=0.95, rounds=600)
    return ExperimentConfig(market=growth_market, dynamics=dyn,
                            seeds=(0, 1, 2), label="mini")


def test_config_flat_round_trip(mini_config):
    flat = config_to_flat(mini_config)
    assert flat["market.w"] == "70.0"
    # departures live in dynamics.mean_L alone; the run section holds seeds and label
    assert [key for key in flat if key.startswith("run.")] == ["run.seeds", "run.label"]
    assert flat["run.seeds"] == "0,1,2"
    again = config_from_flat(flat)
    assert again == mini_config
    assert config_digest(again) == config_digest(mini_config)


@pytest.mark.parametrize("raw", ["none", "None", ""])
def test_unset_bound_loads_as_the_count_bound(mini_config, raw):
    # an Optional field read as none takes its default: bound_N = count_bound(mean_N)
    flat = config_to_flat(mini_config)
    assert flat["dynamics.bound_N"] == "2"
    config = config_from_flat({**flat, "dynamics.bound_N": raw})
    assert config.dynamics.bound_N == count_bound(mini_config.dynamics.mean_N)
    assert config == mini_config


def test_config_digest_tracks_content(mini_config):
    other = replace(mini_config, seeds=(5,))
    assert config_digest(other) != config_digest(mini_config)
    assert len(config_digest(mini_config)) == 64  # sha256 hex


def test_config_file_round_trip(tmp_path, mini_config):
    path = tmp_path / "mini.txt"
    save_config(mini_config, path)
    text = path.read_text()
    assert "market.delta = 0.85" in text
    loaded = load_config(path)
    assert loaded == mini_config

    # comments and blank lines are tolerated
    path.write_text("# a comment\n\n" + text)
    assert load_config(path) == mini_config


def test_readme_config_example_loads(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL)
    path = tmp_path / "readme.txt"
    path.write_text(block.group(1))
    config = load_config(path)
    assert config.market.w == 70.0 and config.market.p_ss == 1.0
    assert config.dynamics.rounds == 4000
    assert config.departures and config.seeds == (0, 1, 2) and config.label == "example"


def test_config_rejects_unknown_keys(mini_config):
    flat = config_to_flat(mini_config)
    with pytest.raises(ParamError):
        config_from_flat({**flat, "market.nope": "1"})
    with pytest.raises(ParamError):
        config_from_flat({**flat, "typo.w": "1"})
    with pytest.raises(ParamError):
        config_from_flat({**flat, "market.w": "not-a-number"})


def test_trajectory_csv_schema():
    records = (
        RoundRecord(eps=0.4, psi=1.0, round=0, n=500, n1=200, default_frac=0.1,
                    xi=2, Xi1=0, Xi2=1, departures=3, mean_r1=62.5, mean_r2=50.25),
        RoundRecord(eps=0.41, psi=1.002, round=1, n=503, n1=206, default_frac=0.0,
                    xi=0, Xi1=1, Xi2=0, departures=0, mean_r1=62.5, mean_r2=None),
    )
    traj = Trajectory(records=records, seed=7)
    buf = io.StringIO()
    write_trajectories(buf, [traj])
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert lines[0] == ("round,n,n1,eps,psi,default_frac,xi,Xi1,Xi2,"
                        "departures,mean_r1,mean_r2,seed")
    assert len(lines) == 4 and lines[-1] == ""  # newline-terminated rows
    assert "\r" not in text
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "0.4" and first[12] == "7"
    # a missing value is an empty cell, not a literal None
    assert lines[2].split(",")[11] == ""

    again = io.StringIO()
    write_trajectories(again, [traj])
    assert again.getvalue() == text  # byte-identical rerun


# SHA-256 of each shipped config's seed-0 trajectory export over its first 200 rounds.
# They pin the seeded Monte-Carlo stream: a change that moves any draw changes them and
# must restate them.  All five configs run on the complete graph, whose clearing solves
# one scalar fixed point; no sparse run is pinned.  Restated when complete-graph
# rounds moved from per-agent draws to the count-level round (`replicator._count_round`),
# which draws the same law from other numbers, and again when the two-class clearing
# became a scalar fixed point, which moves the mean returns in their last bits.
STREAM_PINS = {
    "departures_high_accuracy.txt":
        "1e1c49b7ba0b624101deb9fa9f7cb33c8cca9ed72a6465e6de45931d0ad1ea92",
    "growth_pure_safe.txt": "1d4c273d30f62af2f87103bd18f4879425d46e346f56f95f1a4f838a59279c09",
    "systemic_adaptive.txt": "63b3cce796f74adff4ef637ca3e5e8ed5d1768208c79e711b5dc9247160ec7ff",
    "systemic_frozen.txt": "1148ef5c466aa8eda0bb7734fa4cc56a929d6f29699f41ecaf782f46b8ef6841",
    "trajectory_mid_start.txt":
        "590965b01c435f320a4907f65d678239fca0f986fb9e2c10c2973d2fe73c43e0",
}


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_shipped_config_stream_pins(name):
    config = load_config(ROOT / "configs" / name)
    assert config.market.p_ss == 1.0
    config = replace(config, dynamics=replace(config.dynamics, rounds=200))
    buf = io.StringIO()
    write_trajectories(buf, [run_simulation(config, 0)])
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == STREAM_PINS[name]


# SHA-256 of seed-0 exports of `trajectory_mid_start.txt` over 200 rounds at the edges of
# the draw-skip rule: mean_S = 0 draws no switch attempts and mean_L = 0 no departure cap,
# while bound_N = mean_N = 7 gives arrivals a chance of exactly 1, a draw that still takes
# from the stream, so skipping it moves every later draw and the digest.  Recorded before
# the counts' chances were formed once per run.  (numpy takes nothing from the stream for
# a binomial of chance 0, so at a mean of 0 these pin the zero counts and what follows.)
DRAW_SKIP_PINS = {
    "mean_S": (0.0, "b9d2a1161ce9ffd1370892c9c4b4387bffdf15eec026d621aba8fae05f0f5bd0"),
    "mean_L": (0.0, "66a1a22ad65c63552e964abcb71bf0c419e941f3db1240508c87208bc340d3e1"),
    "bound_N": (7, "930590fe7cc91124294fc8d894cb75f21cfb6b1744d776cac142b88f5ec0b8a4"),
}


@pytest.mark.parametrize("field", sorted(DRAW_SKIP_PINS))
def test_draw_skip_rule_stream_pins(field):
    value, digest = DRAW_SKIP_PINS[field]
    config = load_config(ROOT / "configs" / "trajectory_mid_start.txt")
    config = replace(config, dynamics=replace(config.dynamics, rounds=200, **{field: value}))
    buf = io.StringIO()
    write_trajectories(buf, [run_simulation(config, 0)])
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


# SHA-256 of the trajectory export of `trajectory_mid_start.txt` on a sampled graph
# (p_ss = 0.5, n0 = 200, 30 rounds) over seeds 0 and 1.  It pins the agent-by-agent
# round (`replicator._agent_round` and `_agent_flows`): the network, shock and flow
# draws and the sampled clearing.  The run has 52 departures and 95 switches.
SAMPLED_STREAM_PIN = "164149f4c83963238f5956c2f1bd28a34dbc486844e0eb15682cfede1e12d277"


def test_sampled_graph_stream_pin():
    config = load_config(ROOT / "configs" / "trajectory_mid_start.txt")
    config = replace(config, market=replace(config.market, p_ss=0.5),
                     dynamics=replace(config.dynamics, n0=200, rounds=30))
    trajs = [run_simulation(config, seed) for seed in (0, 1)]
    records = [rec for traj in trajs for rec in traj.records]
    assert sum(rec.departures for rec in records) == 52
    assert sum(rec.Xi1 + rec.Xi2 for rec in records) == 95
    buf = io.StringIO()
    write_trajectories(buf, trajs)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == SAMPLED_STREAM_PIN


# SHA-256 of seed-free flow exports: the closed-form flow of each figure config from
# its eps0 at psi = 1 over all its rounds, and table 3's first row integrated by RK4
# to flow time 10 at step 1e-3.  They pin the flow rows and their CSV form.
FLOW_PINS = {
    "figure eps0=0.2": "9d7ace9c0f4745f2c41be1edffc9fe3d43225348a9999b16ef1bc33fe727ee18",
    "figure eps0=0.5": "6d12e1620f7482c63686199a2115948f8dab4d707a1da8c4234e5d09a0e09e58",
    "figure eps0=0.8": "9bd758bef96cdce1d94714b942f622931003f07a342d92d3d14be25e4026404e",
    "rk4 table3 row 0": "501b574d5bc8cb2f32b6f629dd1d79b8e36e869decc4537b004556b0eee5ddc6",
}


def _flow_export(name: str) -> Trajectory:
    if name.startswith("rk4"):
        config = table3_spec(n_seeds=1).rows[0].config
        dyn = config.dynamics
        return ode_numeric(config.market, dyn, dyn.eps0, 1.0, 10.0, 1e-3)
    config = next(c for c in figure_configs() if name.endswith(f"eps0={c.dynamics.eps0:g}"))
    dyn = config.dynamics
    return flow_curve(config, dyn.eps0, 1.0, 0, dyn.rounds)


@pytest.mark.parametrize("name", sorted(FLOW_PINS))
def test_flow_export_pins(name):
    buf = io.StringIO()
    write_trajectories(buf, [_flow_export(name)])
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == FLOW_PINS[name]


def test_flow_export_blanks_integer_columns(mini_config):
    traj = flow_curve(mini_config, 0.95, 1.0, 0, 100, every=10)
    assert all(rec.t is not None for rec in traj.records)
    buf = io.StringIO()
    write_trajectories(buf, [traj])
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(rows) == len(traj.records)
    for row, rec in zip(rows, traj.records):
        assert row["n"] == "" and row["xi"] == "" and row["seed"] == ""
        assert float(row["eps"]) == rec.eps
        assert float(row["psi"]) == rec.psi
    # eps stays a valid fraction along the curve
    assert all(0.0 <= rec.eps <= 1.0 for rec in traj.records)


def _csv_module_export(trajectories) -> str:
    """The export as `csv.writer` writes it, row for row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRAJECTORY_COLUMNS)
    for traj in trajectories:
        writer.writerows((*rec, traj.seed) if isinstance(rec, RoundRecord)
                         else (None, None, None, rec.eps, rec.psi, *(None,) * 7, traj.seed)
                         for rec in traj.records)
    return buf.getvalue()


def test_export_matches_the_csv_module(tmp_path, mini_config):
    # the joined writer formats each cell as csv.writer does: a float by repr, None
    # empty, any other value by str; through an open file and through a path alike
    odd = [RoundRecord(0, 2, 0, 0.0, 1.0, -0.0, 0, 0, 0, 0, None, 1e300),
           RoundRecord(1, 2, 2, 1.0, 1e-300, 5e-324, 1, 2, 0, 0, -0.0, None),
           RoundRecord(2, 3, 1, 1 / 3, math.inf, math.nan, 0, 0, 1, 1, -math.inf, 0.1)]
    all_risky = replace(mini_config, dynamics=replace(mini_config.dynamics, eps0=0.0, rounds=5))
    runs = [Trajectory(records=odd, seed=7), run_simulation(all_risky, 3),
            flow_curve(mini_config, 0.95, 1.0, 0, 100, every=10)]
    assert runs[1].records[0].mean_r1 is None and runs[2].seed is None
    expected = _csv_module_export(runs)
    buf = io.StringIO()
    write_trajectories(buf, runs)
    assert buf.getvalue() == expected
    write_trajectories(tmp_path / "runs.csv", runs)
    assert (tmp_path / "runs.csv").read_bytes() == expected.encode()


def test_metadata_file(tmp_path, mini_config):
    path = tmp_path / "meta.json"
    write_metadata(path, mini_config, extra={"note": "x"})
    meta = json.loads(path.read_text())
    assert meta["config"]["market.w"] == "70.0"
    assert meta["config_sha256"] == config_digest(mini_config)
    assert meta["seeds"] == [0, 1, 2]
    assert meta["version"] == sysrisk.__version__
    assert meta["note"] == "x"


def test_round_clock_is_harmonic_sum():
    assert round_clock(300, 0) == 0.0
    expected = sum(1 / (j + 300) for j in range(1, 101))
    assert round_clock(300, 100) == pytest.approx(expected, rel=1e-12)
    # and it is the exactly rounded sum, bit for bit
    for n0 in (2, 300, 10**6):
        for rounds in (0, 1, 17, 4001):
            terms = [1.0 / (j + n0) for j in range(1, rounds + 1)]
            assert round_clock(n0, rounds) == math.fsum(terms)


def _flow_curve_cases():
    # the three figures cross eps_bar_1 or eps_bar; table 2's weak-switching
    # cell climbs to eps_bar and pins there
    return [(config, 250) for config in figure_configs()] + [(table2_spec(1).rows[2].config, 0)]


@pytest.mark.parametrize("config, first", _flow_curve_cases(),
                         ids=lambda case: getattr(case, "label", str(case)))
def test_flow_curve_rows_equal_ode_solution(config, first):
    dyn = config.dynamics
    eps0, psi0 = dyn.eps0 + 0.01, 1.1
    curve = flow_curve(config, eps0, psi0, first, dyn.rounds)
    terms = [1.0 / (j + dyn.n0) for j in range(1, dyn.rounds + 1)]
    t0 = math.fsum(terms[:first])
    crossed = False
    for rnd, rec in zip(range(first, dyn.rounds + 1, 10), curve.records):
        assert rec.t == math.fsum(terms[:rnd]) - t0
        ref = ode_solution_departures(config.market, dyn, eps0, psi0, rec.t)
        assert rec == ref  # the whole state: eps, psi, t and pinned
        crossed = crossed or ref.pinned or abs(rec.eps - eps0) > 0.1
    assert crossed


@pytest.mark.parametrize("l", [0, 200, 1000])
def test_round_walker_matches_flow_curve(l):
    # both read rounds l+1..l+k off the same clock, whatever the offset l
    config = table2_spec(n_seeds=1).rows[0].config
    dyn, k = config.dynamics, 500
    walker = finite_round_estimate(config.market, dyn, dyn.eps0, l, k)
    curve = flow_curve(config, dyn.eps0, 1.0, l, l + k, every=k)
    assert [rec.t > 0.0 for rec in curve.records] == [False, True]
    assert walker == pytest.approx(curve.records[-1].eps, rel=1e-12)


@pytest.mark.parametrize("first, last, every", [(0, 100, 0), (-1, 100, 10), (50, 40, 10)])
def test_flow_curve_rejects_bad_ranges(mini_config, first, last, every):
    with pytest.raises(ParamError):
        flow_curve(mini_config, 0.5, 1.0, first, last, every=every)


def test_theory_helpers(mini_config):
    # deep in the all-risky basin the horizon value is within coarse reach
    # of the asymptote
    limit = asymptotic_limit(mini_config)
    assert limit == 1.0
    horizon = theory_at_horizon(mini_config)
    assert 0.99 <= horizon <= 1.0
    assert assert_horizon(mini_config) == mini_config.dynamics.rounds


def test_miniature_table_run(tmp_path, mini_config):
    spec = TableSpec(name="mini", rows=(RowSpec(config=mini_config),))
    report = reproduce_table(spec)
    assert report.passed
    row = report.rows[0]
    assert row.eps_mc_median == pytest.approx(1.0, abs=0.02)
    assert row.target == 1.0
    assert row.n_seeds == 3
    assert row.escapes == 0

    text = format_report(report)
    assert "mini" in text and "pass" in text

    write_table_report(report, spec, tmp_path)
    rows_csv = (tmp_path / "mini_rows.csv").read_text()
    assert rows_csv.startswith("config_id,")
    tree = json.loads((tmp_path / "mini_report.json").read_text())
    assert tree["name"] == "mini"
    assert tree["rows"][0]["passed"] is True
    meta = json.loads((tmp_path / "mini_metadata.json").read_text())
    assert meta["rows"][0]["config_sha256"] == config_digest(mini_config)


def test_table_presets_embed_exact_parameters():
    t2 = table2_spec()
    assert len(t2.rows) == 5
    for row in t2.rows:
        m, dyn = row.config.market, row.config.dynamics
        assert (m.w, m.v, m.u, m.d, m.r_s, m.r_b) == (70.0, 20.0, 0.15, -0.6, 0.1, 0.11)
        assert (dyn.mean_N, dyn.mean_S, dyn.n0, dyn.rounds) == (1.0, 10.0, 300, 1000)
        assert dyn.mean_L == 0
        assert len(row.config.seeds) >= 20
    assert [r.config.dynamics.eps0 for r in t2.rows] == [0.85, 0.75, 0.80, 0.60, 0.20]
    assert [r.config.market.delta for r in t2.rows] == [0.85, 0.85, 0.85, 0.45, 0.45]

    for spec in (table3_spec(), table4_spec()):
        for row in spec.rows:
            m, dyn = row.config.market, row.config.dynamics
            assert (m.w, m.v, m.u, m.d, m.delta) == (70.0, 15.0, 0.13, -0.6, 0.8)
            assert (dyn.mean_N, dyn.mean_S, dyn.n0) == (7.0, 6.0, 500)
            assert row.config.label.endswith(" on" if dyn.mean_L > 0 else " off")

    t3 = table3_spec()
    assert [r.config.dynamics.mean_L for r in t3.rows] == [5.6, 0.0, 2.1, 0.0]
    assert all(r.config.dynamics.rounds == 4000 for r in t3.rows)

    t4 = table4_spec()
    assert [r.config.dynamics.mean_L for r in t4.rows] == [1.75, 0.0, 1.0, 0.0, 0.7, 0.0]
    # the slow cell runs on an extended clock with fewer seeds
    assert t4.rows[0].config.dynamics.rounds == 32000
    assert len(t4.rows[0].config.seeds) == 5
    assert all(r.config.dynamics.rounds == 4000 for r in t4.rows[1:])


def test_figure_and_contrast_presets():
    figs = figure_configs(seed=0)
    assert [f.dynamics.eps0 for f in figs] == [0.2, 0.5, 0.8]
    for cfg in figs:
        assert cfg.dynamics.mean_L == 0.84
        assert cfg.dynamics.rounds == 4000
        assert cfg.dynamics.b_s == 0.4
        assert cfg.seeds == (0,)

    adaptive, frozen = contrast_configs(n_seeds=4)
    assert adaptive.market.v == 70.0 and frozen.market.v == 70.0
    assert not adaptive.market.in_theory
    assert adaptive.dynamics.mean_L > 0 and adaptive.departures
    assert frozen.dynamics.mean_L == 0 and not frozen.departures
    assert frozen.dynamics.eps0 == 0.0
    assert len(adaptive.seeds) == len(frozen.seeds) == 4


def test_horizon_extension_only_for_slow_rows():
    # the first departure cell of the deep-defaults table needs a longer
    # clock before its flow settles; the others keep the preset horizon
    t4 = table4_spec()
    slow = replace(t4.rows[0].config,
                   dynamics=replace(t4.rows[0].config.dynamics, rounds=4000))
    assert assert_horizon(slow) == 32000
    settled = t4.rows[2].config
    assert assert_horizon(settled) == 4000


def test_assert_horizon_over_the_table_rows():
    # every preset row at its preset horizon: only two slow cells are stretched
    rows = [(row.config, base) for spec, base in ((table2_spec(1), 1000), (table3_spec(1), 4000),
                                                  (table4_spec(1), 4000))
            for row in spec.rows]
    horizons = [assert_horizon(replace(config, dynamics=replace(config.dynamics, rounds=base)))
                for config, base in rows]
    assert horizons == [1000, 1000, 1000, 1000, 32000,
                        4000, 4000, 4000, 4000,
                        32000, 4000, 4000, 4000, 4000, 4000]


def test_table_targets_follow_the_settle_rule(monkeypatch):
    # a row is gated against its limit once the flow has settled within
    # _SETTLE_TOL of it at the horizon, and against the flow value otherwise;
    # the Monte-Carlo side is stubbed out, since a target is theory alone
    monkeypatch.setattr(harness, "_run_payloads",
                        lambda payloads: [(seed, 0.5, None) for _, seed, _ in payloads])
    unsettled = []
    for spec in (table2_spec(1), table3_spec(1), table4_spec(1)):
        for row_spec, row in zip(spec.rows, reproduce_table(spec).rows, strict=True):
            limit = asymptotic_limit(row_spec.config)
            at_horizon = theory_at_horizon(row_spec.config)
            if abs(at_horizon - limit) <= harness._SETTLE_TOL:
                assert row.target == limit
            else:
                assert row.target == at_horizon
                unsettled.append(row.config_id)
    # the cells whose flow is still moving at the preset horizon
    assert unsettled == ["b=0.15 delta=0.45 eps0=0.2", "b=0.8 eps0=0.4 L=0 off",
                         "b=0.8 eps0=0.3 L=2.1 on", "b=0.8 eps0=0.3 L=0 off",
                         "b=0.4 eps0=0.8 L=0 off"]


def test_flow_matches_round_walker(mini_config):
    # the continuous clock evaluated at the round horizon agrees with the
    # per-round walker used by the table targets
    t = round_clock(mini_config.dynamics.n0, mini_config.dynamics.rounds)
    assert math.isfinite(t) and 0.5 < t < 1.5
    assert theory_at_horizon(mini_config) == pytest.approx(1.0, abs=1e-3)
