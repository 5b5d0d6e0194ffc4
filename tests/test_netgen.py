"""Liability-network sampling: weights, reproducibility, shock draws."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from sysrisk import MarketParams, ParamError, derive, netgen
from sysrisk.model import borrower_debt
from sysrisk.netgen import edge_weights, sample_network, sample_shocks


@pytest.fixture(scope="module")
def market():
    return MarketParams(w=70.0, v=15.0, alpha=0.95, delta=0.8,
                        u=0.13, d=-0.6, r_s=0.1, r_b=0.11)


def test_complete_graph_weights(market):
    w_g1, w_g2 = edge_weights(market, 3, 5)
    # risk-free edge weight w (1 + r_b) / n
    assert w_g1 == pytest.approx(70 * 1.11 / 8)
    # every borrower owes all n1 risk-free agents and its n2 - 1 risky peers,
    # and those obligations sum to its full liability y
    assert 3 * w_g1 + (5 - 1) * w_g2 == pytest.approx(borrower_debt(market, 3 / 8), rel=1e-12)
    # the complete graph is cleared by class from its weights, and never drawn
    with pytest.raises(ParamError, match="^p_ss: "):
        sample_network(market, 3, 5, np.random.default_rng(0))


def test_sampled_graph_without_borrowers_draws_nothing(market):
    rng = np.random.default_rng(6)
    before = rng.bit_generator.state
    g = sample_network(replace(market, p_ss=0.3), 4, 0, rng)
    assert rng.bit_generator.state == before
    for edges in (g.peers, g.safe):
        assert edges.borrower.size == edges.creditor.size == 0
    assert g.indicator.shape == (0, 4)


@settings(max_examples=40, deadline=None)
@given(n1=st.integers(0, 30), n2=st.integers(2, 30))
def test_borrower_shares_sum_to_one(market, n1, n2):
    w_g1, w_g2 = edge_weights(market, n1, n2)
    shares = (n1 * w_g1 + (n2 - 1) * w_g2) / borrower_debt(market, n1 / (n1 + n2))
    assert shares == pytest.approx(1.0, rel=1e-12)


def test_sparse_shares_concentrate(market):
    sparse = replace(market, p_ss=0.5)
    n = 2000
    n1 = n // 4
    n2 = n - n1
    g = sample_network(sparse, n1, n2, np.random.default_rng(5))
    owed = (g.w_g1 * np.bincount(g.safe.borrower, minlength=n2)
            + g.w_g2 * np.bincount(g.peers.borrower, minlength=n2))
    assert float((owed / g.y).mean()) == pytest.approx(1.0, abs=0.02)
    # no borrower ever owes itself
    assert not (g.peers.borrower == g.peers.creditor).any()


# (n1, n2, p): a dense draw, a thin one, no risk-free agents, and a lone borrower
LAW_CASES = ((500, 1500, 0.5), (800, 1200, 0.01), (0, 50, 0.3), (10, 1, 0.3))
LAW_SEEDS = (0, 1, 2)
LAW_SD = 4.5  # fixed before any draw was looked at: a false alarm per count of ~7e-6


def _check_edges(edges, n2, n_creditors):
    borrower, creditor = edges
    assert borrower.dtype == creditor.dtype == np.intp
    assert borrower.size == creditor.size
    if borrower.size:
        assert borrower.min() >= 0 and borrower.max() < n2
        assert creditor.min() >= 0 and creditor.max() < n_creditors
    # sorted by borrower, then creditor: so no pair repeats
    key = borrower * max(n_creditors, 1) + creditor
    assert (np.diff(borrower) >= 0).all() and (np.diff(key) > 0).all()


@pytest.mark.parametrize("n1, n2, p", LAW_CASES)
def test_sampled_links_follow_bernoulli_law(market, n1, n2, p):
    sparse = replace(market, p_ss=p)
    for seed in LAW_SEEDS:
        g = sample_network(sparse, n1, n2, np.random.default_rng(seed))
        _check_edges(g.peers, n2, n2)
        _check_edges(g.safe, n2, n1)
        assert not (g.peers.borrower == g.peers.creditor).any()
        for edges, cells in ((g.peers, n2 * (n2 - 1)), (g.safe, n2 * n1)):
            mean, sd = cells * p, (cells * p * (1 - p)) ** 0.5
            assert abs(edges.borrower.size - mean) <= LAW_SD * sd, (seed, cells)


def test_each_pair_links_with_probability_p(market):
    # over many draws of a tiny graph, every off-diagonal cell of the dense view
    # is linked a share p of the time, and the diagonal never
    n1, n2, p, draws = 3, 4, 0.3, 4000
    sparse = replace(market, p_ss=p)
    rng = np.random.default_rng(9)
    freq = sum(sample_network(sparse, n1, n2, rng).indicator.astype(int)
               for _ in range(draws)) / draws
    self_cells = (np.arange(n2), n1 + np.arange(n2))
    assert not freq[self_cells].any()
    off = np.ones_like(freq, dtype=bool)
    off[self_cells] = False
    assert np.abs(freq[off] - p).max() <= LAW_SD * (p * (1 - p) / draws) ** 0.5


def test_chunked_gaps_link_the_same_cells(monkeypatch):
    # one exponential stream feeds the gaps, so drawing them seven at a time must
    # link exactly the cells that one chunk past the block's end links
    whole = netgen._linked_cells(np.random.default_rng(4), 30, 29, 0.2)
    monkeypatch.setattr(netgen, "_chunk_size", lambda size, p: 7)
    pieces = netgen._linked_cells(np.random.default_rng(4), 30, 29, 0.2)
    assert whole[0].size > 7 * 10
    for a, b in zip(whole, pieces):
        assert_array_equal(a, b)


def test_single_borrower_has_no_peer_edges(market):
    w_g1, w_g2 = edge_weights(market, 4, 1)
    assert w_g2 == 0.0
    # the lone borrower owes only the four risk-free agents, each w (1 + r_b) / n
    assert w_g1 == pytest.approx(70 * 1.11 / 5)
    g = sample_network(replace(market, p_ss=0.3), 4, 1, np.random.default_rng(2))
    assert g.peers.borrower.size == 0 and g.w_g2 == 0.0


def test_sampling_is_reproducible(market):
    sparse = replace(market, p_ss=0.3)
    a = sample_network(sparse, 10, 20, np.random.default_rng(42))
    b = sample_network(sparse, 10, 20, np.random.default_rng(42))
    for edges_a, edges_b in ((a.peers, b.peers), (a.safe, b.safe)):
        assert_array_equal(edges_a.borrower, edges_b.borrower)
        assert_array_equal(edges_a.creditor, edges_b.creditor)
    c = sample_network(sparse, 10, 20, np.random.default_rng(43))
    assert not np.array_equal(a.indicator, c.indicator)


def test_tiny_networks_rejected(market):
    sparse = replace(market, p_ss=0.3)
    with pytest.raises(ParamError, match="^n1/n2: "):
        sample_network(sparse, 1, 0, np.random.default_rng(0))
    with pytest.raises(ParamError, match="^n1/n2: "):
        sample_network(sparse, -1, 5, np.random.default_rng(0))


def test_shock_draws(market):
    rng = np.random.default_rng(3)
    s = sample_shocks(market, 5000, 0.35, rng)
    der = derive(market, 0.35)
    assert set(np.unique(s.k)) == {der.k_d, der.k_u}
    assert float((s.k == der.k_u).mean()) == pytest.approx(market.delta, abs=0.02)
    # proceeds levels scale with the round's risk-free fraction
    assert der.k_u == pytest.approx(70 * 1.35 * 1.13)
    assert der.k_d == pytest.approx(70 * 1.35 * 0.4)
