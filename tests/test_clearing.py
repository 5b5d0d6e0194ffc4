from __future__ import annotations

import itertools
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from sysrisk import MarketParams
from sysrisk.analytic import clearing_limit
from sysrisk.clearing import (
    ClearingResult,
    class_clearing,
    class_fixed_point,
    compute_returns,
    default_stats,
    solve_clearing,
)
from sysrisk.model import ParamError, SolverError, borrower_debt, derive
from sysrisk.netgen import (
    Edges,
    LiabilityGraph,
    ShockVector,
    edge_weights,
    sample_network,
    sample_shocks,
)


@pytest.fixture(scope="module")
def zero_v_market():
    return MarketParams(w=70.0, v=0.0, alpha=0.95, delta=0.8,
                        u=0.13, d=-0.6, r_s=0.1, r_b=0.11)


class _Shocks(NamedTuple):
    """A complete-graph round's proceeds `k`, as in a `ShockVector`, with their classes."""

    k: np.ndarray
    up: np.ndarray
    k_u: float
    k_d: float


def _shocks(k):
    k = np.asarray(k, dtype=float)
    return _Shocks(k=k, up=k == k.max(), k_u=float(k.max()), k_d=float(k.min()))


def _full_edges(n1, n2):
    """Edge lists linking every borrower to every risk-free agent and every other borrower."""
    borrower, creditor = np.divmod(np.arange(n2 * n2), n2)
    keep = borrower != creditor
    peers = Edges(borrower[keep], creditor[keep])
    borrower, creditor = np.divmod(np.arange(n2 * n1), max(n1, 1))
    return peers, Edges(borrower, creditor)


def _complete(n1, n2, y, eps, w_g1, w_g2):
    """The complete graph, as a graph that holds every link."""
    return LiabilityGraph(n1, n2, y, eps, w_g1, w_g2, *_full_edges(n1, n2))


def _market_complete(params, n1, n2):
    """A market's complete graph on n1 risk-free and n2 risky agents, every link held."""
    eps = n1 / (n1 + n2)
    return _complete(n1, n2, borrower_debt(params, eps), eps, *edge_weights(params, n1, n2))


def _peer_graph(y=10.0, w_g2=3.0):
    # three borrowers, no risk-free lenders, complete peer lending
    return _complete(0, 3, y, 0.0, 0.0, w_g2)


def _clear_by_class(g, s, params):
    """Complete-graph clearing by `class_clearing`, spread over the agents of each class."""
    n_u = int(s.up.sum())
    cc = class_clearing(g.y, g.w_g1, g.w_g2, n_u, g.n2 - n_u, s.k_u - params.v, s.k_d - params.v)
    return ClearingResult(X=np.where(s.up, cc.x_u, cc.x_d), iterations=1,
                          claims=np.concatenate([np.full(g.n1, cc.claims_safe),
                                                 np.where(s.up, cc.claims_u, cc.claims_d)]))


def _peer_shares(g):
    """Dense (n2, n2) matrix: entry [i, j] is borrower j's payment share to borrower i."""
    A = np.zeros((g.n2, g.n2))
    A[g.peers.creditor, g.peers.borrower] = 1.0
    return A * (g.w_g2 / g.y)


def _residual(g, s, params, X):
    """max_i |T(X)_i - X_i| / y for the round's clearing map T, built from scratch."""
    mapped = np.clip(s.k + _peer_shares(g) @ X - params.v, 0.0, g.y)
    return float(np.max(np.abs(mapped - X), initial=0.0)) / g.y


def test_full_payment_when_shocks_cover_debt(zero_v_market):
    g = _peer_graph()
    s = _shocks([12.0, 4.0, 4.0])
    # down-shocked: 4 + 0.3 * (received 20) = 10 exactly, so everyone pays in full
    res = _clear_by_class(g, s, zero_v_market)
    assert _residual(g, s, zero_v_market, res.X) <= 1e-12
    assert_allclose(res.X, [10.0, 10.0, 10.0])
    assert_allclose(res.claims, [6.0, 6.0, 6.0])
    ret = compute_returns(g, res, s, zero_v_market)
    assert_allclose(ret.r2, [8.0, 0.0, 0.0])
    assert ret.defaults.size == 0
    assert ret.r1.size == 0
    assert default_stats(res, g.y) == (0, 0.0, False)


def test_partial_payment_fixed_point(zero_v_market):
    g = _peer_graph()
    s = _shocks([12.0, 3.9, 3.9])
    res = _clear_by_class(g, s, zero_v_market)
    # down-shocked pair solves x = 3.9 + 0.3 * (10 + x), i.e. 0.7 x = 6.9
    assert_allclose(res.X, [10.0, 69 / 7, 69 / 7], rtol=1e-9)
    ret = compute_returns(g, res, s, zero_v_market)
    assert_allclose(ret.r2, [55.4 / 7, 0.0, 0.0], rtol=1e-9, atol=1e-12)
    assert ret.defaults.tolist() == [1, 2]
    stats = default_stats(res, g.y)
    assert stats.count == 2
    assert stats.fraction == pytest.approx(2 / 3)


def test_edge_list_path_matches_two_scalar(zero_v_market):
    # edge lists holding every pair but the self pairs, over the same weights, must
    # reproduce the collapsed complete-graph arithmetic
    dense = _complete(2, 4, 10.0, 0.25, 1.5, 2.0)
    up = np.array([True, True, False, False])
    s = _Shocks(k=np.where(up, 9.0, 2.5), up=up, k_u=9.0, k_d=2.5)

    a = solve_clearing(dense, s, zero_v_market)
    b = _clear_by_class(dense, s, zero_v_market)
    # the sampled-graph sweeps stop once no payment moves by more than 1e-10 * y
    assert _residual(dense, s, zero_v_market, a.X) <= 2e-10
    assert _residual(dense, s, zero_v_market, b.X) <= 1e-12
    assert_allclose(a.X, b.X, rtol=1e-9)
    assert_allclose(a.claims, b.claims, rtol=1e-9)
    ra = compute_returns(dense, a, s, zero_v_market)
    rb = compute_returns(dense, b, s, zero_v_market)
    assert_allclose(ra.r1, rb.r1, rtol=1e-9)
    assert_allclose(ra.r2, rb.r2, rtol=1e-9)
    assert ra.defaults.tolist() == rb.defaults.tolist()


def test_sampled_graph_clears_its_own_map():
    # a sampled round at n = 300: the solved payments are a fixed point of the dense
    # clearing map built here from the edge lists, and the claims are its products
    market = MarketParams(w=70.0, v=15.0, alpha=0.95, delta=0.8,
                          u=0.13, d=-0.6, r_s=0.1, r_b=0.11, p_ss=0.3)
    rng = np.random.default_rng(21)
    n, n1 = 300, 105
    g = sample_network(market, n1, n - n1, rng)
    s = sample_shocks(market, n - n1, g.eps, rng)
    res = solve_clearing(g, s, market)
    assert res.iterations >= 2
    assert _residual(g, s, market, res.X) <= 2e-10
    safe_shares = np.zeros((n1, n - n1))
    safe_shares[g.safe.creditor, g.safe.borrower] = g.w_g1 / g.y
    assert_allclose(res.claims, np.concatenate([safe_shares @ res.X, _peer_shares(g) @ res.X]),
                    rtol=1e-12, atol=1e-12 * g.y)
    # the round is far from the all-pay corner: some borrowers default
    assert 0 < compute_returns(g, res, s, market).defaults.size < n - n1


def test_one_sided_shock_classes(zero_v_market):
    g = _peer_graph()
    all_up = _Shocks(k=np.full(3, 12.0), up=np.ones(3, bool), k_u=12.0, k_d=4.0)
    res = _clear_by_class(g, all_up, zero_v_market)
    assert_allclose(res.X, np.full(3, 10.0))

    all_dn = _Shocks(k=np.full(3, 1.0), up=np.zeros(3, bool), k_u=12.0, k_d=1.0)
    res = _clear_by_class(g, all_dn, zero_v_market)
    # x = 1 + 0.6 x has the unique solution 2.5, well short of y
    assert_allclose(res.X, np.full(3, 2.5), rtol=1e-7)
    assert default_stats(res, g.y).fraction == 1.0


def test_no_borrowers(zero_v_market):
    # a sampled graph with n2 = 0 holds empty edge lists, and its clearing is empty
    market = replace(zero_v_market, p_ss=0.3)
    rng = np.random.default_rng(0)
    g = sample_network(market, 4, 0, rng)
    res = solve_clearing(g, sample_shocks(market, 0, g.eps, rng), market)
    assert res.X.size == 0 and res.iterations == 0
    assert_allclose(res.claims, np.zeros(4))
    assert default_stats(res, g.y).degenerate


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 20.0), min_size=2, max_size=6),
       st.data())
def test_clearing_monotone_in_shocks(zero_v_market, ks, data):
    k = np.asarray(ks)
    g = _complete(0, len(k), 10.0, 0.0, 0.0, 2.0)
    up = k >= np.median(k)
    s = _Shocks(k=k, up=up, k_u=float(k.max()), k_d=float(k.min()))
    base = _clear_by_class(g, s, zero_v_market)

    j = data.draw(st.integers(0, len(k) - 1))
    bump = data.draw(st.floats(0.1, 10.0))
    k2 = k.copy()
    k2[j] += bump
    s2 = _Shocks(k=k2, up=up, k_u=float(k2.max()), k_d=float(k2.min()))
    more = _clear_by_class(g, s2, zero_v_market)
    assert np.all(more.X >= base.X - 1e-9)


def test_single_borrower_on_a_sampled_graph(zero_v_market):
    # a lone borrower has no peer, so it pays min(k - v, y) on its own
    market = replace(zero_v_market, p_ss=0.3)
    rng = np.random.default_rng(0)
    g = sample_network(market, 9, 1, rng)
    s = sample_shocks(market, 1, g.eps, rng)
    res = solve_clearing(g, s, market)
    assert_allclose(res.X, np.minimum(s.k - market.v, g.y), rtol=2e-10)


def test_finite_network_tracks_limit():
    market = MarketParams(w=70.0, v=15.0, alpha=0.95, delta=0.8,
                          u=0.13, d=-0.6, r_s=0.1, r_b=0.11)
    rng = np.random.default_rng(11)
    n, n1 = 500, 175
    g = _market_complete(market, n1, n - n1)
    der = derive(market, g.eps)
    k = sample_shocks(market, n - n1, g.eps, rng).k
    s = _Shocks(k=k, up=k == der.k_u, k_u=der.k_u, k_d=der.k_d)
    res = _clear_by_class(g, s, market)
    limit = clearing_limit(market, g.eps)
    assert _residual(g, s, market, res.X) <= 1e-12
    assert float(res.X.mean()) == pytest.approx(limit.x_bar, rel=0.01)
    assert default_stats(res, g.y).fraction == pytest.approx(limit.p_d, abs=0.06)


def _oracle_greatest(g, s, params):
    """Greatest clearing vector by brute force over all 3^n2 per-agent regimes.

    Each borrower pays 0, y, or a partial amount solved jointly with the other
    partial payers by a dense linear solve; a regime vector counts when the
    map reproduces it.  Shares no code with the solver under test.
    """
    y, n2 = g.y, g.n2
    A = _peer_shares(g)
    b = s.k - params.v
    slack = 1e-9 * y
    best = None
    for regimes in itertools.product((0, 1, 2), repeat=n2):  # 0, partial, y
        regimes = np.array(regimes)
        x = np.where(regimes == 2, y, 0.0)
        part = regimes == 1
        if part.any():
            lhs = np.eye(int(part.sum())) - A[np.ix_(part, part)]
            if np.linalg.cond(lhs) > 1e10:
                continue
            x[part] = np.linalg.solve(lhs, b[part] + A[np.ix_(part, ~part)] @ x[~part])
        value = b + A @ x
        ok = (np.all(value[regimes == 0] <= slack) and np.all(value[regimes == 2] >= y - slack)
              and np.all((x[part] >= -slack) & (x[part] <= y + slack)))
        if ok and (best is None or x.sum() > best.sum()):
            best = np.clip(x, 0.0, y)
    return best


def _nine_regime_oracle(b, m, y, sizes):
    """Greatest (x_u, x_d) in [0, y]^2 with x_i = clip(b_i + sum_j m_ij x_j, 0, y).

    `m` is non-negative, so the map is monotone and has a greatest fixed point.
    Each class pays 0, y, or the part that solves its row of x = b + m x; the
    nine regime assignments are solved by Cramer's rule, and the greatest
    solution the map reproduces to within 1e-12 * y is returned with the count
    of systems solved.  Raises SolverError if no solution passes that check.
    Where every class with members pays part of y the system is (I - m) x = b.
    When that is singular (c = 1 at eps = 0) the class sizes n, a left
    eigenvector of m, give n . x <= n . (b + m x) = n . b + n . x at a fixed
    point where no such class pays 0.  So a level n . b below zero beyond
    rounding rules out every regime in which all of them pay, however small
    its residual.  Shares no code with the scalar kernel under test.
    """
    (m_uu, m_ud), (m_du, m_dd), (b_u, b_d), (n_u, n_d) = *m, b, sizes
    slack, best, solves = 1e-12 * y, None, 0
    singular = abs((1.0 - m_uu) * (1.0 - m_dd) - m_ud * m_du) <= 1e-12
    rounding = 4 * sys.float_info.epsilon * (n_u * abs(b_u) + n_d * abs(b_d))
    all_pay_ruled_out = singular and n_u * b_u + n_d * b_d < -rounding
    # each class's equation (a . x = r) when it pays 0, part, or y
    eqs_u = ((1.0, 0.0, 0.0), (1.0 - m_uu, -m_ud, b_u), (1.0, 0.0, y))
    eqs_d = ((0.0, 1.0, 0.0), (-m_du, 1.0 - m_dd, b_d), (0.0, 1.0, y))
    for (pay_u, (a_uu, a_ud, r_u)), (pay_d, (a_du, a_dd, r_d)) in itertools.product(
            enumerate(eqs_u), enumerate(eqs_d)):
        if all_pay_ruled_out and not ((n_u and not pay_u) or (n_d and not pay_d)):
            continue
        det = a_uu * a_dd - a_ud * a_du
        if abs(det) <= 1e-12:  # singular (c = 1 at eps = 0): no solution or a
            continue           # line of them, whose ends other regimes reach
        solves += 1
        x_u = min(max((r_u * a_dd - a_ud * r_d) / det, 0.0), y)
        x_d = min(max((a_uu * r_d - a_du * r_u) / det, 0.0), y)
        if (abs(min(max(b_u + m_uu * x_u + m_ud * x_d, 0.0), y) - x_u) <= slack
                and abs(min(max(b_d + m_du * x_u + m_dd * x_d, 0.0), y) - x_d) <= slack
                and (best is None or x_u + x_d > best[0] + best[1])):
            best = (x_u, x_d)
    if best is None:
        raise SolverError(f"two-class clearing: no regime passes the residual check "
                          f"(b={b}, m={m}, y={y})")
    return best[0], best[1], solves


def _check_against_regimes(y, w_g2, n_u, n_d, b_u, b_d):
    """class_clearing against the nine-regime oracle, for every class that has members."""
    cc = class_clearing(y, 1.0, w_g2, n_u, n_d, b_u, b_d)
    sig2 = w_g2 / y
    # an empty shock class is dropped: zero its row, and its column is zero already
    row_u = (sig2 * (n_u - 1), sig2 * n_d) if n_u else (0.0, 0.0)
    row_d = (sig2 * n_u, sig2 * (n_d - 1)) if n_d else (0.0, 0.0)
    ref = _nine_regime_oracle((b_u, b_d), (row_u, row_d), y, (n_u, n_d))
    for n_c, x, x_ref, b, (m_u, m_d) in ((n_u, cc.x_u, ref[0], b_u, row_u),
                                         (n_d, cc.x_d, ref[1], b_d, row_d)):
        if n_c:
            assert abs(x - x_ref) <= 1e-9 * y
            assert abs(min(max(b + m_u * cc.x_u + m_d * cc.x_d, 0.0), y) - x) <= 1e-12 * y
    return cc


@settings(max_examples=400, deadline=None)
@given(n2=st.one_of(st.integers(1, 12), st.integers(13, 10**6)), up=st.floats(0.0, 1.0),
       c=st.one_of(st.just(1.0), st.floats(0.0, 1.0)), y=st.floats(0.1, 2000.0),
       b_u=st.floats(-2.0, 2.0), b_d=st.floats(-2.0, 2.0))
@example(n2=5, up=0.0, c=0.7, y=10.0, b_u=0.5, b_d=-0.3)        # the up class is empty
@example(n2=5, up=1.0, c=0.7, y=10.0, b_u=0.5, b_d=-0.3)        # the down class is empty
@example(n2=500, up=0.8, c=1.0, y=10.0, b_u=0.01, b_d=-0.04)    # slope * sum(w) == 1
@example(n2=10**6, up=0.8, c=0.999, y=1476.3, b_u=0.006, b_d=-0.03)
@example(n2=2, up=0.0, c=1.0, y=1.0, b_u=0.0, b_d=-1.0146e-12)  # a slope-1 top off by ~1e-12 * y
@example(n2=2, up=0.5, c=1.0, y=1.0, b_u=0.0, b_d=-1.374e-12)   # ... with both classes nonempty
@example(n2=2, up=0.5, c=1.0, y=1.0, b_u=0.0, b_d=-1.089e-12)
@example(n2=2, up=0.5, c=1.0, y=1.0, b_u=0.0, b_d=-5e-13)
@example(n2=2, up=0.5, c=1.0, y=1.0, b_u=0.3, b_d=-0.3 - 4e-13)  # a clipped offer at that top
@example(n2=2, up=0.0, c=1.0, y=1.0, b_u=0.0, b_d=-2.225073858507e-311)  # subnormal levels
@example(n2=2, up=0.0, c=1.0, y=1.0, b_u=0.0, b_d=2.225073858507e-311)
def test_class_clearing_matches_nine_regimes(n2, up, c, y, b_u, b_d):
    # shares of y: b_c is a net proceed, c the row sum of the peer map (c = 1 at eps = 0)
    n_u = round(up * n2)
    w_g2 = c / (n2 - 1) * y if n2 >= 2 else 0.0
    _check_against_regimes(y, w_g2, n_u, n2 - n_u, b_u * y, b_d * y)


SYSTEMIC = MarketParams(w=70.0, v=70.0, alpha=0.95, delta=0.8,
                        u=0.13, d=-0.6, r_s=0.1, r_b=0.11)


@pytest.mark.parametrize("n_u, x_u_share", [(380, 0.02563221115852695),
                                             (400, 0.03075865339023233)])
def test_frozen_systemic_states(n_u, x_u_share):
    # eps = 0 (c = 1) with 500 borrowers, as the frozen systemic runs play it: the
    # both-partial piece has slope 1 and no fixed point, and the greatest clearing
    # has the up class paying a small part of y and the down class nothing
    n2 = 500
    der = derive(SYSTEMIC, 0.0)
    w_g2 = edge_weights(SYSTEMIC, 0, n2)[1]
    assert der.c_eps == 1.0
    cc = _check_against_regimes(der.y, w_g2, n_u, n2 - n_u, der.w_high, der.w_low)
    assert cc.x_d == 0.0
    assert cc.x_u == pytest.approx(x_u_share * der.y, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(sizes=st.integers(2, 5000).flatmap(lambda n2: st.tuples(st.just(n2), st.integers(0, n2))))
@example(sizes=(2, 0))
@example(sizes=(2, 2))
@example(sizes=(5000, 0))
@example(sizes=(5000, 5000))
def test_frozen_systemic_rounds_match_nine_regimes(sizes):
    # every round of a frozen systemic run clears at eps = 0, on the slope-1 map
    n2, n_u = sizes
    der = derive(SYSTEMIC, 0.0)
    _check_against_regimes(der.y, edge_weights(SYSTEMIC, 0, n2)[1], n_u, n2 - n_u,
                           der.w_high, der.w_low)


def test_slope_one_pieces():
    # slope * sum(w) = 0.25 * 4 = 1 exactly.  With both offsets 0, every T in [0, 40]
    # is fixed, all on one piece of slope 1, and the greatest fixed point is its top
    assert class_fixed_point((3, 1), (0.0, 0.0), 0.25, 10.0) == 40.0
    # offsets 1 and -4: where both classes pay part of y (16 < T < 36) the map is
    # T - 1, so that piece has no fixed point; the greatest lies below it, where
    # only the up class pays: T = 3 * (1 + T / 4) gives T = 12
    assert class_fixed_point((3, 1), (1.0, -4.0), 0.25, 10.0) == pytest.approx(12.0, abs=1e-12)


def test_class_fixed_point_raises_when_nothing_passes():
    # a NaN offset: no candidate can pass the residual check, so none is returned
    with pytest.raises(SolverError):
        class_fixed_point((1.0, 1.0), (float("nan"), 0.5), 0.5, 1.0)


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.05, 0.97), delta=st.floats(0.05, 1.0),
       v_share=st.floats(0.001, 0.999), n1=st.integers(0, 3),
       up=st.lists(st.booleans(), min_size=1, max_size=5))
def test_complete_graph_matches_regime_oracle(alpha, delta, v_share, n1, up):
    assume(n1 + len(up) >= 2)
    w, u = 70.0, 0.13
    params = MarketParams(w=w, v=v_share * w * (1 + u), alpha=alpha, delta=delta,
                          u=u, d=-0.6, r_s=0.1, r_b=0.11)
    g = _market_complete(params, n1, len(up))
    try:
        der = derive(params, g.eps)
    except ParamError:  # a degenerate all-default boundary
        assume(False)
    mask = np.array(up)
    s = _Shocks(k=np.where(mask, der.k_u, der.k_d), up=mask, k_u=der.k_u, k_d=der.k_d)
    res = _clear_by_class(g, s, params)
    assert _residual(g, s, params, res.X) <= 1e-12
    assert_allclose(res.X, _oracle_greatest(g, s, params), rtol=0, atol=1e-9 * g.y)


def test_singular_all_risky_case_solved_exactly():
    # eps = 0 with every peer share 1/(n2-1): each row of the peer map sums to
    # one (c = 1), so the both-partial system is singular and sweeps from full
    # payment crawl down by |2 b_u + b_d| = 0.01 in total per sweep.  By hand:
    # x_d = 0 and x_u = 1 + 0.5 x_u give x_u = 2, and the down value
    # -2.01 + 0.5 * (2 + 2) = -0.01 is below 0, so that regime holds; the only
    # larger candidate, x_u = y, fails because 1 + 0.5 * (10 + 7.99) < 10.
    market = MarketParams(w=70.0, v=15.0, alpha=0.95, delta=0.8,
                          u=0.13, d=-0.6, r_s=0.1, r_b=0.11)
    g = _peer_graph(w_g2=5.0)
    s = _Shocks(k=np.array([16.0, 16.0, 12.99]), up=np.array([True, True, False]),
                k_u=16.0, k_d=12.99)
    res = _clear_by_class(g, s, market)
    assert_allclose(res.X, [2.0, 2.0, 0.0], rtol=0, atol=1e-12)
    assert_allclose(res.claims, [1.0, 1.0, 2.0], rtol=0, atol=1e-12)
    assert _residual(g, s, market, res.X) <= 1e-12
    assert default_stats(res, g.y).fraction == 1.0


def test_greatest_of_many_fixed_points():
    # the same singular network with 2 b_u + b_d = 0: every (t + 2, t + 2, t)
    # with t in [0, 8] is a fixed point, and clearing must return the top one
    market = MarketParams(w=70.0, v=15.0, alpha=0.95, delta=0.8,
                          u=0.13, d=-0.6, r_s=0.1, r_b=0.11)
    g = _peer_graph(w_g2=5.0)
    s = _Shocks(k=np.array([16.0, 16.0, 13.0]), up=np.array([True, True, False]),
                k_u=16.0, k_d=13.0)
    res = _clear_by_class(g, s, market)
    assert_allclose(res.X, [10.0, 10.0, 8.0], rtol=0, atol=1e-12)
    assert _residual(g, s, market, res.X) <= 1e-12
    assert_allclose(_oracle_greatest(g, s, market), res.X, rtol=0, atol=1e-12)


def _plain_sweeps(g, s, params):
    """Sampled-graph clearing by plain sweeps from full payment.

    The same arithmetic, in the same order, as the solver's sweeps on a round
    with some k <= v, so such a solve matches it bit for bit: (payments, sweeps).
    """
    y, peers = g.y, g.peers
    X = np.full(g.n2, y)
    for sweeps in itertools.count(1):
        owed_in = g.w_g2 / y * np.bincount(peers.creditor, weights=X[peers.borrower],
                                           minlength=g.n2)
        new = np.clip(s.k + owed_in - params.v, 0.0, y)
        if np.abs(new - X).max() <= 1e-10 * y:
            return X, sweeps
        X = new


def _dense_greatest(g, s, params):
    """Greatest clearing vector by dense sweeps from full payment, to a step of 1e-14 * y.

    Rebuilds the peer matrix from the edge lists and shares no code with the solver.
    """
    A, b, y = _peer_shares(g), s.k - params.v, g.y
    X = np.full(g.n2, y)
    while True:
        new = np.clip(b + A @ X, 0.0, y)
        if np.abs(new - X).max() <= 1e-14 * y:
            return new
        X = new


def _sampled_round(market, n, eps, seed):
    rng = np.random.default_rng(seed)
    n1 = round(eps * n)
    g = sample_network(market, n1, n - n1, rng)
    return g, sample_shocks(market, n - n1, g.eps, rng)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(10, 300), p_ss=st.floats(0.1, 0.9), eps=st.floats(0.05, 0.9),
       above=st.booleans(), share=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
def test_sampled_jumps_stay_above_greatest_fixed_point(n, p_ss, eps, above, share, seed):
    # v below k_d lets every row jump; above it (up to the cap w (1 + u)) the
    # down-shocked rows may clip at 0
    k_d, cap = derive(SYSTEMIC, round(eps * n) / n).k_d, SYSTEMIC.w * (1 + SYSTEMIC.u)
    market = replace(SYSTEMIC, v=k_d + share * (cap - k_d) if above else share * k_d, p_ss=p_ss)
    g, s = _sampled_round(market, n, eps, seed)
    assume(g.n2 >= 2)
    res = solve_clearing(g, s, market)
    assert np.all(res.X >= _dense_greatest(g, s, market) - 1e-12 * g.y)
    assert _residual(g, s, market, res.X) <= 2e-10


def test_sampled_systemic_market_keeps_plain_sweeps():
    # at v = 70 down-shocked borrowers have k < v and pay part of y while they
    # move, which blocks every jump: the solve is the plain sweeps, bit for bit
    market = replace(SYSTEMIC, p_ss=0.1)
    g, s = _sampled_round(market, 400, 0.3, 5)
    res = solve_clearing(g, s, market)
    X, sweeps = _plain_sweeps(g, s, market)
    assert res.iterations == sweeps > 20
    assert np.array_equal(res.X, X)


def test_sampled_jumps_cut_sweeps():
    # the benchmark's sampled market (n = 2000, p_ss = 0.1): the certified jumps
    # must save at least a quarter of the plain sweeps
    market = MarketParams(w=70.0, v=15.0, alpha=0.95, delta=0.8,
                          u=0.13, d=-0.6, r_s=0.1, r_b=0.11, p_ss=0.1)
    g, s = _sampled_round(market, 2000, 0.4, 0)
    res = solve_clearing(g, s, market)
    X, sweeps = _plain_sweeps(g, s, market)
    assert res.iterations <= 0.75 * sweeps
    assert _residual(g, s, market, res.X) <= 2e-10


def test_jump_waits_for_rows_that_may_clip_at_zero():
    # complete peer edge lists over five borrowers at c = 0.9: three pay 16 - v = 1
    # net, two 11 - v = -4.  By hand the down pair pays nothing and the up trio
    # x = 1 + 0.225 * 2x, so x = 20/11.  The down rows pay part of y for a few
    # sweeps and then clip at 0, which the linear bound does not foresee, so a
    # jump taken across them would land below the greatest fixed point
    market = MarketParams(w=70.0, v=15.0, alpha=0.95, delta=0.8,
                          u=0.13, d=-0.6, r_s=0.1, r_b=0.11)
    g = _complete(0, 5, 10.0, 0.0, 0.0, 0.9 / 4 * 10.0)
    up = np.array([True, True, True, False, False])
    s = ShockVector(k=np.where(up, 16.0, 11.0))
    res = solve_clearing(g, s, market)
    assert np.all(res.X >= np.where(up, 20 / 11, 0.0) - 1e-12 * g.y)
    assert _residual(g, s, market, res.X) <= 2e-10


def _dense_meet(g, s, params):
    """Dense sweeps from X = 0 and from X = y, run until they meet: (lo, hi).

    From below the sweeps rise onto the least fixed point and from above they
    fall onto the greatest, so their meeting, to 1e-12 of lo, shows the fixed
    point unique and brackets it.  Rebuilds the peer matrix from the edge lists
    and shares no code with the solver.
    """
    A, b, y = _peer_shares(g), s.k - params.v, g.y
    lo, hi = np.zeros(g.n2), np.full(g.n2, y)
    for _ in range(100_000):
        if np.all(hi - lo <= 1e-12 * lo):
            return lo, hi
        lo, hi = np.clip(b + A @ lo, 0.0, y), np.clip(b + A @ hi, 0.0, y)
    raise AssertionError("the sweeps from 0 and from y never meet")


def _leaves_room(g, s, params):
    """Whether floats can meet the enclosure's stop rule on this round.

    The solver's own test, restated from its documented bound: every k > v, and
    1e-10 * min(k - v, y) is at least four times (d + 3) u (k - v + sig2 y d),
    the rounding bound of a float residual in a row with d peer debtors.
    """
    b, d = s.k - params.v, np.bincount(g.peers.creditor, minlength=g.n2)
    slack = (d + 3) * (sys.float_info.epsilon / 2) * (b + g.w_g2 * d)
    return bool(np.all(b > 0.0) and np.all(1e-10 * np.minimum(b, g.y) >= 4 * slack))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(10, 300), p_ss=st.floats(0.1, 0.9), eps=st.floats(0.05, 0.9),
       share=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
def test_sampled_clearing_encloses_the_unique_fixed_point(n, p_ss, eps, share, seed):
    # v = share * k_d leaves every borrower k - v > 0, so the fixed point X* is
    # unique.  Where floats leave room for the stop rule the solve must return a
    # point of [X*, (1 + 2e-10) X*]; elsewhere (share near 1) it runs the plain
    # sweeps, which stay above X* and stop on a small step
    k_d = derive(SYSTEMIC, round(eps * n) / n).k_d
    market = replace(SYSTEMIC, v=share * k_d, p_ss=p_ss)
    g, s = _sampled_round(market, n, eps, seed)
    assume(g.n2 >= 2)
    lo, hi = _dense_meet(g, s, market)
    X = solve_clearing(g, s, market).X
    assert np.all(X >= lo)
    if _leaves_room(g, s, market):
        assert np.all(X <= (1 + 2e-10) * hi)
    else:
        assert _residual(g, s, market, X) <= 2e-10


@pytest.mark.parametrize("n_up, k_d", [(0, 15.0 + 1e-12), (2, 15.0 + 1e-12), (0, 15.5)])
def test_tiny_net_proceeds_fall_back_to_plain_sweeps(n_up, k_d):
    # five borrowers on complete peer edge lists at c = 0.9, so the sweeps contract
    # by 0.9 in the max norm.  Down-shocked ones with k - v = 1e-12 next to y = 10
    # leave the enclosure's tolerance below the rounding of a map evaluation: the
    # solve runs the plain sweeps, bit for bit, and stops within 1e-10 y / (1 - 0.9)
    # above the fixed point.  With k - v = 0.5 in every row it certifies instead
    market = MarketParams(w=70.0, v=15.0, alpha=0.95, delta=0.8,
                          u=0.13, d=-0.6, r_s=0.1, r_b=0.11)
    g = _complete(0, 5, 10.0, 0.0, 0.0, 0.9 / 4 * 10.0)
    s = ShockVector(k=np.where(np.arange(5) < n_up, 16.0, k_d))
    # every row pays part of y, so the fixed point solves (I - N) X = k - v
    exact = np.linalg.solve(np.eye(5) - _peer_shares(g), s.k - market.v)
    assert np.all(exact < g.y)
    res = solve_clearing(g, s, market)
    assert _leaves_room(g, s, market) == (k_d == 15.5)
    if k_d == 15.5:
        assert np.all(res.X >= exact * (1 - 1e-12))
        assert np.all(res.X <= exact * (1 + 2e-10) * (1 + 1e-12))
    else:
        X, sweeps = _plain_sweeps(g, s, market)
        assert res.iterations == sweeps and np.array_equal(res.X, X)
        assert np.all(res.X >= exact - 1e-12 * g.y)
        assert np.all(res.X <= exact + 1e-10 * g.y / (1 - 0.9))


def test_sampled_market_near_k_equal_v_returns():
    # the benchmark's sampled market with v just under k_d: k_d - v = 3.9e-4 next
    # to y = 2098 is too small for the enclosure's stop rule in floats, so the
    # solve runs the plain sweeps, bit for bit, and returns
    market = MarketParams(w=70.0, v=15.0, alpha=0.95, delta=0.8,
                          u=0.13, d=-0.6, r_s=0.1, r_b=0.11, p_ss=0.1)
    market = replace(market, v=derive(market, 0.4).k_d * (1 - 1e-5))
    g, s = _sampled_round(market, 2000, 0.4, 0)
    assert not _leaves_room(g, s, market)
    res = solve_clearing(g, s, market)
    X, sweeps = _plain_sweeps(g, s, market)
    assert res.iterations == sweeps and np.array_equal(res.X, X)
    assert _residual(g, s, market, res.X) <= 2e-10
