"""Liability-network sampling: weights, reproducibility, shock draws."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from sysrisk import MarketParams, ParamError
from sysrisk.netgen import sample_network, sample_shocks


@pytest.fixture(scope="module")
def market():
    return MarketParams(w=70.0, v=15.0, alpha=0.95, delta=0.8,
                        u=0.13, d=-0.6, r_s=0.1, r_b=0.11)


def test_complete_graph_weights(market):
    g = sample_network(market, 3, 5, np.random.default_rng(0))
    assert g.indicator is None
    assert g.n == 8 and g.eps == 3 / 8
    # risk-free edge weight w (1 + r_b) / n
    assert g.w_g1 == pytest.approx(70 * 1.11 / 8)
    # every borrower owes all n1 risk-free agents and its n2 - 1 risky peers,
    # and those obligations sum to its full liability y
    assert g.n1 * g.w_g1 + (g.n2 - 1) * g.w_g2 == pytest.approx(g.y, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(n1=st.integers(0, 30), n2=st.integers(2, 30))
def test_borrower_shares_sum_to_one(market, n1, n2):
    g = sample_network(market, n1, n2, np.random.default_rng(1))
    shares = (g.n1 * g.w_g1 + (g.n2 - 1) * g.w_g2) / g.y
    assert shares == pytest.approx(1.0, rel=1e-12)


def test_sparse_shares_concentrate(market):
    sparse = replace(market, p_ss=0.5)
    n = 2000
    n1 = n // 4
    g = sample_network(sparse, n1, n - n1, np.random.default_rng(5))
    assert g.indicator is not None
    weight_row = np.where(np.arange(n) < n1, g.w_g1, g.w_g2)
    shares = (g.indicator * weight_row).sum(axis=1) / g.y
    assert float(shares.mean()) == pytest.approx(1.0, abs=0.02)
    # self columns are never linked
    assert not g.indicator[np.arange(n - n1), n1 + np.arange(n - n1)].any()


def test_single_borrower_has_no_peer_edges(market):
    g = sample_network(market, 4, 1, np.random.default_rng(2))
    assert g.indicator is None and g.w_g2 == 0.0
    # the lone borrower owes only the four risk-free agents, each w (1 + r_b) / n
    assert g.w_g1 == pytest.approx(70 * 1.11 / 5)


def test_sampling_is_reproducible(market):
    sparse = replace(market, p_ss=0.3)
    a = sample_network(sparse, 10, 20, np.random.default_rng(42))
    b = sample_network(sparse, 10, 20, np.random.default_rng(42))
    assert_array_equal(a.indicator, b.indicator)


def test_tiny_networks_rejected(market):
    with pytest.raises(ParamError):
        sample_network(market, 1, 0, np.random.default_rng(0))
    with pytest.raises(ParamError):
        sample_network(market, -1, 5, np.random.default_rng(0))


def test_shock_draws(market):
    rng = np.random.default_rng(3)
    s = sample_shocks(market, 5000, 0.35, rng)
    assert set(np.unique(s.k)) == {s.k_d, s.k_u}
    assert_array_equal(s.k == s.k_u, s.up)
    assert float(s.up.mean()) == pytest.approx(market.delta, abs=0.02)
    # proceeds levels scale with the round's risk-free fraction
    assert s.k_u == pytest.approx(70 * 1.35 * 1.13)
    assert s.k_d == pytest.approx(70 * 1.35 * 0.4)
