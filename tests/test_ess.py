"""Stability verdicts for pure and mixed strategy profiles."""
from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from sysrisk import MarketParams, DynamicsParams, ParamError
from sysrisk.ess import (
    EssMode,
    check_avg_ess,
    check_mixed_ess,
    check_multi_mutation,
    switch_utility_gap,
)
from sysrisk.odeflow import avg_limit


@pytest.fixture(scope="module")
def growth_dyn():
    return DynamicsParams(mean_N=1.0, mean_S=10.0, b_n=0.9, b_s=0.9,
                          n0=300, rounds=1000)


@given(eps_mut=st.floats(0.0, 1.0), eps_cand=st.floats(0.0, 1.0),
       x=st.floats(0.01, 0.99))
def test_gap_antisymmetry(imitation_market, imitation_dynamics,
                          eps_mut, eps_cand, x):
    # swapping roles and the population share flips the sign exactly
    ab = switch_utility_gap(imitation_market, imitation_dynamics,
                            eps_mut, eps_cand, x)
    ba = switch_utility_gap(imitation_market, imitation_dynamics,
                            eps_cand, eps_mut, 1.0 - x)
    assert ab == pytest.approx(-ba, abs=1e-12)


def test_gap_validation(imitation_market, imitation_dynamics):
    for bad_x in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ParamError):
            switch_utility_gap(imitation_market, imitation_dynamics,
                               0.5, 0.1, bad_x)
    with pytest.raises(ParamError):
        switch_utility_gap(imitation_market, imitation_dynamics, 1.5, 0.1, 0.5)


def test_pure_strategies_are_stable(imitation_market, imitation_dynamics):
    safe = check_mixed_ess(imitation_market, imitation_dynamics, 0.0)
    assert safe.is_ess
    assert safe.margin == pytest.approx(0.0036)
    assert safe.x_bar_used == pytest.approx(0.1)
    assert safe.mode is EssMode.SWITCH_UTILITY
    assert safe.predominant_switching

    risky = check_mixed_ess(imitation_market, imitation_dynamics, 1.0)
    assert risky.is_ess
    assert risky.margin == pytest.approx(0.006)


def test_growth_market_margins(growth_market, growth_dyn):
    assert check_mixed_ess(growth_market, growth_dyn, 0.0).margin == pytest.approx(0.0056)
    assert check_mixed_ess(growth_market, growth_dyn, 1.0).margin == pytest.approx(0.008)


@pytest.mark.parametrize("candidate, margin", [(0.3, -0.108), (0.5, -0.3)])
def test_interior_candidates_fail(imitation_market, imitation_dynamics,
                                  candidate, margin):
    verdict = check_mixed_ess(imitation_market, imitation_dynamics, candidate)
    assert not verdict.is_ess
    assert verdict.margin == pytest.approx(margin)
    assert verdict.x_bar_used is None


def test_weak_switching_flips_the_verdict(imitation_market):
    # below the half-way switch probability imitation favors the *worse*
    # return, so the pure safe profile loses its stability
    weak = DynamicsParams(mean_N=7.0, mean_S=6.0, b_n=0.4, b_s=0.4,
                          n0=500, rounds=4000)
    verdict = check_mixed_ess(imitation_market, weak, 0.0)
    assert not verdict.is_ess
    assert verdict.margin == pytest.approx(-0.12)
    assert verdict.predominant_switching  # drift still points one way


def test_multi_mutation_profiles(imitation_market, imitation_dynamics):
    safe = check_multi_mutation(imitation_market, imitation_dynamics, 0.0)
    assert safe.is_ess
    assert safe.margin == pytest.approx(0.018)
    assert safe.x_bar_used == pytest.approx(0.04)
    assert safe.mode is EssMode.MULTI_MUTATION

    risky = check_multi_mutation(imitation_market, imitation_dynamics, 1.0)
    assert risky.is_ess
    assert risky.margin == pytest.approx(0.03)


def test_avg_return_mode(imitation_market):
    safe = check_avg_ess(imitation_market, 0.0)
    assert not safe.is_ess
    assert safe.mode is EssMode.AVG_RETURN
    assert avg_limit(imitation_market).applies

    risky = check_avg_ess(imitation_market, 1.0)
    assert risky.is_ess
    assert risky.margin == pytest.approx(0.1669831809863674)


def test_avg_return_zero_stretch(imitation_market):
    # both groups earn the same (zero) limit return at every scanned eps <= 0.37: a
    # stretch of rest points, none attracting, so neither reader calls one stable
    systemic = replace(imitation_market, v=70.0)
    report = avg_limit(systemic)
    assert (report.case, report.applies, report.limit) == ("unclassified", False, 0.37)
    for candidate in (0.0, 0.37):
        verdict = check_avg_ess(systemic, candidate)
        assert not verdict.is_ess
        assert verdict.margin == 0.0
    top = check_avg_ess(systemic, 1.0)
    assert top.is_ess
    assert top.margin == pytest.approx(0.0699076, abs=1e-7)
