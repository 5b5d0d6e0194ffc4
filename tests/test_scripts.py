"""The scripts under scripts/ still import and run against the package."""
from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.database import InMemoryExampleDatabase

from sysrisk.harness import table4_spec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda path: path.stem)
def test_script_imports(path):
    assert callable(_load(path).main)


def test_analytic_curves_prints_the_average_return_limit(tmp_path, monkeypatch, capsys):
    analytic_curves = _load(SCRIPTS / "analytic_curves.py")
    monkeypatch.setattr(sys, "argv", ["analytic_curves.py", "--out", str(tmp_path)])
    assert analytic_curves.main() == 0
    lines = capsys.readouterr().out.splitlines()
    # one line per preset market (growth, imitation), after its stability verdicts
    limits = [i for i, line in enumerate(lines) if line.startswith("  average-return limit")]
    assert [lines[i] for i in limits] == ["  average-return limit 1 (all-safe, applies=True)"] * 2
    assert all(lines[i - 1].startswith("  candidate 1: ") for i in limits)
    assert (tmp_path / "growth" / "analytic.csv").is_file()


def test_round_cost_plays_rounds():
    round_cost = _load(SCRIPTS / "round_cost.py")
    cost, n_end, records = round_cost.round_cost(table4_spec(1).rows[0].config, 50, rounds=3,
                                                 warmup=1)
    assert cost > 0.0 and n_end >= 2
    # the timed rounds' records, in order, and what exporting them costs per row
    assert [rec.round for rec in records] == list(range(1, 1 + 3 * round_cost.TIMINGS))
    assert round_cost.export_cost(records) > 0.0


def test_round_cost_clears_sampled_rounds():
    round_cost = _load(SCRIPTS / "round_cost.py")
    config = table4_spec(1).rows[0].config
    market = replace(config.market, p_ss=round_cost.SAMPLED_P)
    assert round_cost.sampled_sweeps(market, 200, config.dynamics.eps0) >= 1


def test_soak_hook_scales_hypothesis_tests_only():
    # the soak's collection hook, on one Hypothesis test and one plain test: the plain
    # one is dropped, and the Hypothesis one runs EXAMPLES_FACTOR times its own
    # max_examples and writes no failure to its example database
    soak = _load(SCRIPTS / "soak_clearing.py")
    seen, failing, saved = [], [], []

    class Recording(InMemoryExampleDatabase):
        def save(self, key, value):
            saved.append(key)
            super().save(key, value)

    @settings(max_examples=5, database=Recording(), deadline=None)
    @given(st.integers())
    def drawn(x):
        seen.append(x)
        assert not failing

    def plain():
        pass

    items = [SimpleNamespace(obj=plain), SimpleNamespace(obj=drawn)]
    soak._Soak().pytest_collection_modifyitems(items)
    assert [item.obj for item in items] == [drawn]
    drawn()
    assert len(seen) == 5 * soak.EXAMPLES_FACTOR
    failing.append(True)
    with pytest.raises(AssertionError):
        drawn()
    assert not saved


def test_theory_cost_prints_one_line_per_call_family(monkeypatch, capsys):
    theory_cost = _load(SCRIPTS / "theory_cost.py")
    monkeypatch.setattr(theory_cost, "TIMINGS", 1)
    assert theory_cost.main() == 0
    lines = capsys.readouterr().out.splitlines()[1:]  # below the header
    families = (["flow_curve"] * 3 + ["finite_round_estimate", "finite_round_estimate, cold table",
                                      "finite_round_estimate, batch"]
                + ["limit grid"] * 4 + ["assert_horizon", "ode_numeric, criterion 3",
                                        "ode_numeric, 18", "averaging", "ess"])
    assert len(lines) == len(families)
    for line, family in zip(lines, families):
        assert line.startswith(family)
        value, unit = line.split()[-2:]
        assert float(value) > 0.0 and unit in ("ms", "us")
