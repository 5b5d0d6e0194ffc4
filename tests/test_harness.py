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
from sysrisk.odeflow import finite_round_estimate

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def mini_config(growth_market):
    dyn = DynamicsParams(mean_N=1.0, mean_S=10.0, b_n=0.9, b_s=0.9,
                         n0=300, eps0=0.95, rounds=600)
    return ExperimentConfig(market=growth_market, dynamics=dyn,
                            departures=False, seeds=(0, 1, 2), label="mini")


def test_config_flat_round_trip(mini_config):
    flat = config_to_flat(mini_config)
    assert flat["market.w"] == "70.0"
    assert flat["run.departures"] == "false"
    assert flat["run.seeds"] == "0,1,2"
    again = config_from_flat(flat)
    assert again == mini_config
    assert config_digest(again) == config_digest(mini_config)


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
    traj = Trajectory(records=records, seed=7, kind="mc")
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
# two scalar unknowns; sparse clearing goes through BLAS matrix products, whose rounding
# may differ between machines, so no sparse run is pinned.  Restated when complete-graph
# rounds moved from per-agent draws to the count-level round (`replicator._count_round`),
# which draws the same law from other numbers.
STREAM_PINS = {
    "departures_high_accuracy.txt":
        "36f879caa9f0e90a039c83696d5d16786ddb404e75de08d34cd89ebf45e3a46d",
    "growth_pure_safe.txt": "13d9e7c80ea6ec2cb31e184a886097b774cbe821411cf6c5a632cdcc77374d47",
    "systemic_adaptive.txt": "7d109ad494a08db852dbccbfe6c8880becd187e6c93bf04aa813e64da8369c63",
    "systemic_frozen.txt": "1148ef5c466aa8eda0bb7734fa4cc56a929d6f29699f41ecaf782f46b8ef6841",
    "trajectory_mid_start.txt":
        "5a01282efa485cf8e27976d035c2c0b617ab647d38b9146b37df96e35855b7a7",
}


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_shipped_config_stream_pins(name):
    config = load_config(ROOT / "configs" / name)
    assert config.market.p_ss == 1.0
    config = replace(config, dynamics=replace(config.dynamics, rounds=200))
    buf = io.StringIO()
    write_trajectories(buf, [run_simulation(config, 0)])
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == STREAM_PINS[name]


def test_flow_export_blanks_integer_columns(mini_config):
    traj = flow_curve(mini_config, 0.95, 1.0, 0, 100, every=10)
    assert traj.kind == "ode"
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
        assert not row.config.departures
        assert len(row.config.seeds) >= 20
    assert [r.config.dynamics.eps0 for r in t2.rows] == [0.85, 0.75, 0.80, 0.60, 0.20]
    assert [r.config.market.delta for r in t2.rows] == [0.85, 0.85, 0.85, 0.45, 0.45]

    for spec in (table3_spec(), table4_spec()):
        for row in spec.rows:
            m, dyn = row.config.market, row.config.dynamics
            assert (m.w, m.v, m.u, m.d, m.delta) == (70.0, 15.0, 0.13, -0.6, 0.8)
            assert (dyn.mean_N, dyn.mean_S, dyn.n0) == (7.0, 6.0, 500)
            assert row.config.departures == (dyn.mean_L > 0)

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


def test_flow_matches_round_walker(mini_config):
    # the continuous clock evaluated at the round horizon agrees with the
    # per-round walker used by the table targets
    t = round_clock(mini_config.dynamics.n0, mini_config.dynamics.rounds)
    assert math.isfinite(t) and 0.5 < t < 1.5
    assert theory_at_horizon(mini_config) == pytest.approx(1.0, abs=1e-3)
