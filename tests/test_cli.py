from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from sysrisk import DynamicsParams, ExperimentConfig, MarketParams, odeflow, save_config
from sysrisk.analytic import DefaultRegime, clearing_limit
from sysrisk.cli import main


@pytest.fixture()
def config_path(tmp_path, imitation_market):
    dyn = DynamicsParams(mean_N=7.0, mean_S=6.0, mean_L=5.6, b_n=0.8, b_s=0.8,
                         n0=500, eps0=0.4, rounds=150)
    cfg = ExperimentConfig(market=imitation_market, dynamics=dyn,
                           seeds=(0, 1), label="cli-test")
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    return path


def test_analytic_writes_thresholds_and_grid(tmp_path, config_path):
    out = tmp_path / "an"
    assert main(["analytic", "--config", str(config_path),
                 "--grid", "20", "--out", str(out)]) == 0
    text = (out / "analytic.csv").read_text()
    header = {}
    body = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        else:
            body.append(line)
    assert float(header["eps_bar_1"]) == pytest.approx(0.261569416498994)
    assert float(header["eps_bar"]) == pytest.approx(0.45975590208980066)
    assert float(header["eps_bar_2"]) == 1.0
    assert header["outside_theory"] == "false"
    assert body[0] == "eps,x_bar,p_d,regime,r1,r2_up,r2_down,q"
    rows = list(csv.DictReader(body))
    assert len(rows) == 21
    mid = rows[10]  # eps = 0.5
    assert float(mid["x_bar"]) == pytest.approx(2250.350214592273)
    assert mid["regime"] == "ShockDefault"


# SHA-256 of `sysrisk analytic --grid 1000` for each shipped config: the thresholds and
# the 1 001-point limit grid (clearing limit, returns and q), every float by repr.  The
# configs share three markets, so two digests appear twice.
ANALYTIC_PINS = {
    "departures_high_accuracy.txt":
        "80c6afe0cd3ac457bc72b3e9fc042b7608b83b44acde879e4bb76b9a582d6883",
    "growth_pure_safe.txt": "dd7aaa68dbd249192f299c49ce6cdfce934a20cc10695aa67e534af410de8995",
    "systemic_adaptive.txt": "d57a9ab32be56fb227efaf298a665d02459b4b5fe42c6f1f6285f778f864b73c",
    "systemic_frozen.txt": "d57a9ab32be56fb227efaf298a665d02459b4b5fe42c6f1f6285f778f864b73c",
    "trajectory_mid_start.txt":
        "80c6afe0cd3ac457bc72b3e9fc042b7608b83b44acde879e4bb76b9a582d6883",
}


@pytest.mark.parametrize("name", sorted(ANALYTIC_PINS))
def test_analytic_grid_export_pins(capsys, name):
    preset = Path(__file__).resolve().parent.parent / "configs" / name
    assert main(["analytic", "--config", str(preset), "--grid", "1000"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ANALYTIC_PINS[name]


def test_ode_flat_at_zero(capsys, config_path):
    assert main(["ode", "--config", str(config_path), "--eps0", "0"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln and not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    assert rows
    assert all(float(row["eps"]) == 0.0 for row in rows)


def test_ode_methods_agree(tmp_path, config_path):
    closed = tmp_path / "c"
    numeric = tmp_path / "n"
    assert main(["ode", "--config", str(config_path), "--out", str(closed)]) == 0
    assert main(["ode", "--config", str(config_path), "--method", "numeric",
                 "--out", str(numeric)]) == 0
    with open(closed / "ode.csv") as fh:
        last_closed = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))[-1]
    with open(numeric / "ode.csv") as fh:
        last_numeric = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))[-1]
    assert float(last_closed["eps"]) == pytest.approx(float(last_numeric["eps"]), abs=1e-4)


@pytest.mark.parametrize("psi0", ["1e-20", "1e-300"])
def test_ode_from_a_tiny_population_rate(tmp_path, capsys, psi0):
    # psi0 below the rounding of the psi target: psi - a must not cancel to 0 at a
    # threshold crossing, where the next leg's time warp divides by psi
    preset = Path(__file__).resolve().parent.parent / "configs" / "trajectory_mid_start.txt"
    path = tmp_path / "cfg.txt"
    path.write_text(re.sub(r"(?m)^market\.alpha = .*$", "market.alpha = 0.5",
                           preset.read_text()))
    assert main(["ode", "--config", str(path), "--psi0", psi0, "--rounds", "30"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln and not ln.startswith("#")]
    psi = [float(row["psi"]) for row in csv.DictReader(lines)]
    assert len(psi) == 4 and psi[0] == float(psi0)
    assert all(0.0 < p < math.inf for p in psi)


def test_ode_refuses_a_step_it_cannot_finish(config_path, capsys, monkeypatch):
    # a step below half the float spacing of the flow time would never end; the cap on
    # the step count refuses it before the flow table is built
    def no_flow_table(*args):
        raise AssertionError("ode_numeric went past its input checks")

    monkeypatch.setattr(odeflow, "_flow_table", no_flow_table)
    assert main(["ode", "--config", str(config_path), "--method", "numeric",
                 "--step", "1e-25"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: step: ")


def test_reproduce_table_in_process(tmp_path, capsys):
    out = tmp_path / "t2"
    code = main(["reproduce", "table2", "--seed", "0", "--out", str(out), "--strict"])
    report = json.loads((out / "table2_report.json").read_text())
    assert code == (0 if report["passed"] else 1)
    assert report["rows"] and all(row["n_seeds"] == 1 for row in report["rows"])
    assert sorted(p.name for p in out.iterdir()) == [
        "table2_metadata.json", "table2_report.json", "table2_rows.csv"]
    overall = "pass" if report["passed"] else "FAIL"
    assert capsys.readouterr().out.endswith(f"overall: {overall}\n")


def test_simulate_writes_run_files(tmp_path, config_path, capsys):
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(config_path),
                 "--seed", "0,1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "seed=0" in printed and "seed=1" in printed and "median" in printed

    with open(out / "trajectories.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "round" and rows[0][-1] == "seed"
    assert len(rows) == 1 + 2 * 150  # header + both seeds' records
    assert {row[-1] for row in rows[1:]} == {"0", "1"}

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["seeds"] == [0, 1]
    assert meta["config"]["run.label"] == "cli-test"


def test_simulate_seed_override_changes_output(config_path, capsys):
    assert main(["simulate", "--config", str(config_path), "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", "--config", str(config_path), "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_simulate_runs_where_shock_spread_offsets_interbank_debt(tmp_path, capsys):
    # at eps = 0, y equals the retained shock spread (1 - delta)(w_high - w_low): the
    # shock-default test's bracket is exactly 0, yet nobody defaults (c = 1 >= 1 - w_low / y)
    market = MarketParams(w=1.0, v=0.0, alpha=0.5, delta=0.5, u=1.5, d=-0.5, r_s=0.0, r_b=0.0)
    assert clearing_limit(market, 0.0)[:3] == (1.0, 0.0, DefaultRegime.NO_DEFAULT)
    dyn = DynamicsParams(mean_N=1.0, mean_S=2.0, n0=10, eps0=0.0, rounds=5)
    path = tmp_path / "cfg.txt"
    save_config(ExperimentConfig(market=market, dynamics=dyn, seeds=(0,)), path)
    assert main(["simulate", "--config", str(path)]) == 0
    assert "seed=0" in capsys.readouterr().out


def test_ess_verdict_lines(config_path, capsys):
    assert main(["ess", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("candidate=")]
    assert len(lines) == 2  # defaults: the two pure profiles
    assert all("ess=yes" in ln for ln in lines)

    assert main(["ess", "--config", str(config_path),
                 "--candidate", "0.3", "--mode", "switch-utility"]) == 0
    out = capsys.readouterr().out
    assert "ess=no" in out


@pytest.mark.parametrize("mode, lines", [
    ("avg-return", ["avg_limit=1 case=all-safe applies=yes",
                    "candidate=0 mode=avg-return ess=no margin=-8.82812",
                    "candidate=1 mode=avg-return ess=yes margin=0.166983 x_bar=0.1"]),
    ("multi-mutation",
     ["candidate=0 mode=multi-mutation ess=yes margin=0.018 x_bar=0.04 switching_dominant=yes",
      "candidate=1 mode=multi-mutation ess=yes margin=0.03 x_bar=0.04 switching_dominant=yes"]),
])
def test_ess_mode_verdict_lines(config_path, capsys, mode, lines):
    assert main(["ess", "--config", str(config_path), "--mode", mode]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_ess_avg_return_reports_the_limit_once(capsys):
    preset = Path(__file__).resolve().parent.parent / "configs" / "systemic_adaptive.txt"
    assert main(["ess", "--config", str(preset), "--mode", "avg-return",
                 "--candidate", "0", "--candidate", "0.37", "--candidate", "1"]) == 0
    # inside the zero-gap stretch the advantage is exactly 0, printed without a sign
    assert capsys.readouterr().out.splitlines() == [
        "avg_limit=0.37 case=unclassified applies=no",
        "candidate=0 mode=avg-return ess=no margin=0",
        "candidate=0.37 mode=avg-return ess=no margin=0",
        "candidate=1 mode=avg-return ess=yes margin=0.0699076 x_bar=0.1"]


def test_bad_inputs_exit_2(tmp_path, config_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main(["simulate", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("market.w = -3\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"market.w = 70\n\xff\n")
    assert main(["analytic", "--config", str(binary)]) == 2
    assert capsys.readouterr().err.endswith(f"\nerror: {binary}: not UTF-8 text\n")
    assert main(["simulate", "--config", str(config_path), "--seed", "x"]) == 2
    assert main(["simulate", "--config", str(config_path), "--seed", ","]) == 2
    assert main(["simulate", "--config", str(config_path), "--seed", ""]) == 2
    figs = tmp_path / "figs"
    assert main(["reproduce", "fig-trajectories", "--seed", ",", "--out", str(figs)]) == 2
    assert not figs.exists()
    capsys.readouterr()  # swallow the error text


@pytest.mark.parametrize("target, seeds, message", [
    ("table2", "", "--seed: empty seed list"),
    ("fig-trajectories", "", "--seed: empty seed list"),
    ("fig-trajectories", "1,2", "--seed: fig-trajectories takes one seed, got '1,2'"),
])
def test_bad_reproduce_seeds_exit_2(tmp_path, capsys, target, seeds, message):
    out = tmp_path / "out"
    assert main(["reproduce", target, "--seed", seeds, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["", "0,-1"])
def test_bad_seed_lists_exit_2(tmp_path, capsys, seeds):
    preset = Path(__file__).resolve().parent.parent / "configs" / "systemic_adaptive.txt"
    bad = tmp_path / "seeds.txt"
    bad.write_text(re.sub(r"(?m)^run\.seeds = .*$", f"run.seeds = {seeds}",
                          preset.read_text()))
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "run.seeds" in capsys.readouterr().err


# mean_N = inf drops its bound, which would otherwise reject it first
@pytest.mark.parametrize("key, value, drop", [
    ("dynamics.mean_N", "inf", "dynamics.bound_N"),
    ("dynamics.mean_S", "inf", None),
    ("dynamics.mean_N", "nan", None),
    ("market.w", "inf", None),
    ("market.v", "-inf", None),
])
def test_non_finite_values_exit_2(tmp_path, capsys, key, value, drop):
    preset = Path(__file__).resolve().parent.parent / "configs" / "trajectory_mid_start.txt"
    text = re.sub(rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}", preset.read_text())
    if drop is not None:
        text = re.sub(rf"(?m)^{re.escape(drop)} = .*\n", "", text)
    bad = tmp_path / "nonfinite.txt"
    bad.write_text(text)
    assert main(["analytic", "--config", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key}: expected a finite number, got {value!r}\n"


# numpy draws each round's counts from a C long, so a count bound above 2**63 - 1 is
# refused when the config loads, not met as an OverflowError in the first round
@pytest.mark.parametrize("sets, key", [
    ({"dynamics.mean_S": "1e30"}, "mean_S"),
    ({"dynamics.bound_N": "10000000000000000000"}, "bound_N"),
    ({"dynamics.mean_N": "1e30", "dynamics.bound_N": "none"}, "bound_N"),
])
def test_undrawable_count_bounds_exit_2(tmp_path, capsys, sets, key):
    text = (Path(__file__).resolve().parent.parent / "configs"
            / "trajectory_mid_start.txt").read_text()
    for name, value in sets.items():
        text = re.sub(rf"(?m)^{re.escape(name)} = .*$", f"{name} = {value}", text)
    bad = tmp_path / "bounds.txt"
    bad.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {key}: count bound ")


def test_repeated_key_exits_2(tmp_path, config_path, capsys):
    lines = config_path.read_text().splitlines()
    bad = tmp_path / "twice.txt"
    bad.write_text("\n".join(lines + ["market.v = 20.0"]) + "\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    first = lines.index("market.v = 15.0") + 1
    assert capsys.readouterr().err == (
        f"error: {bad}:{len(lines) + 1}: market.v already set on line {first}\n")


# run outputs go to --out, the fixed-links and deterministic-counts modes are
# gone, and departures are set by dynamics.mean_L alone; a config naming any of
# them is refused, not ignored
@pytest.mark.parametrize("key, value", [("run.out_dir", "results"),
                                        ("run.fixed_links", "false"),
                                        ("run.deterministic_counts", "true"),
                                        ("run.departures", "true")])
def test_unknown_run_option_exits_2(tmp_path, config_path, capsys, key, value):
    bad = tmp_path / "unknown.txt"
    bad.write_text(config_path.read_text() + f"{key} = {value}\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key}: unknown run option\n"


# retired flags are refused: the fixed-links mode is gone, and dynamics.mean_L = 0
# is the one way to turn departures off
@pytest.mark.parametrize("command, flag", [
    ("simulate", "--fixed-links"),
    ("simulate", "--departures"), ("simulate", "--no-departures"),
    ("ode", "--departures"), ("ode", "--no-departures"),
], ids=lambda value: value.lstrip("-"))
def test_retired_simulate_flag_exits_2(config_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config_path), flag])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--every", "0"], ["--every", "-1"], ["--rounds", "-1"],
                                   ["--rounds", "-1", "--method", "numeric"],
                                   ["--psi0", "nan"], ["--psi0", "inf"],
                                   ["--method", "numeric", "--step", "nan"],
                                   ["--method", "numeric", "--psi0", "nan"]])
def test_bad_flow_ranges_exit_2(config_path, capsys, flags):
    assert main(["ode", "--config", str(config_path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_reproduce_figures_smoke(tmp_path, monkeypatch, capsys):
    # shrink the preset horizon through the seed override only; the run
    # stays the real one, so keep it to a single short figure seed
    out = tmp_path / "figs"
    code = main(["reproduce", "fig-trajectories", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    made = sorted(p.name for p in out.iterdir())
    assert "trajectory_eps0_0p2.csv" in made
    assert "ode_eps0_0p2.csv" in made
    assert "metadata_eps0_0p2.json" in made
    meta = json.loads((out / "metadata_eps0_0p5.json").read_text())
    assert meta["restart_round"] == 250
