"""The scripts under scripts/ still import and run against the package."""
from __future__ import annotations

import importlib.util
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


def test_round_cost_plays_rounds():
    round_cost = _load(SCRIPTS / "round_cost.py")
    cost, n_end = round_cost.round_cost(table4_spec(1).rows[0].config, 50, rounds=3, warmup=1)
    assert cost > 0.0 and n_end >= 2


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
