"""The scripts under scripts/ still import and run against the package."""
from __future__ import annotations

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

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


def test_round_cost_plays_rounds():
    round_cost = _load(SCRIPTS / "round_cost.py")
    cost, n_end = round_cost.round_cost(table4_spec(1).rows[0].config, 50, rounds=3, warmup=1)
    assert cost > 0.0 and n_end >= 2


def test_round_cost_clears_sampled_rounds():
    round_cost = _load(SCRIPTS / "round_cost.py")
    config = table4_spec(1).rows[0].config
    market = replace(config.market, p_ss=round_cost.SAMPLED_P)
    assert round_cost.sampled_sweeps(market, 200, config.dynamics.eps0) >= 1
