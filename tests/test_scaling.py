"""Tests for the closed-form exponent machinery."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridscale.scaling import (
    INF,
    NEG_INF,
    SCHEME_CODES,
    FiniteNMapping,
    InvalidPointError,
    ScalingPoint,
    achievable_exponent,
    achievable_exponent_grid,
    best_scheme_grid,
    classify_regime_3d,
    limitation_flags,
    map_finite_n,
    min_backhaul_exponent,
    scheme_exponents,
    upper_bound_exponent,
    upper_bound_exponent_grid,
)


@st.composite
def valid_points(draw, eta=None):
    alpha = draw(st.floats(min_value=2.0001, max_value=12.0))
    beta = draw(st.floats(min_value=0.0, max_value=0.999))
    frac = draw(st.floats(min_value=0.0, max_value=1.0))
    gamma = frac * min(0.999, 1.0 - beta)
    if eta is None:
        eta = draw(
            st.one_of(
                st.sampled_from([INF, NEG_INF]),
                st.floats(min_value=-2.0, max_value=2.0),
            )
        )
    return ScalingPoint(alpha, beta, gamma, eta)


# ---------------------------------------------------------------------------
# ScalingPoint validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "alpha,beta,gamma,eta",
    [
        (2.0, 0.0, 0.0, INF),     # alpha must be strictly > 2
        (1.5, 0.0, 0.0, INF),
        (math.nan, 0.0, 0.0, INF),
        (INF, 0.0, 0.0, INF),
        (3.0, 1.0, 0.0, INF),     # beta in [0, 1)
        (3.0, -0.1, 0.0, INF),
        (3.0, 0.0, 1.0, INF),     # gamma in [0, 1)
        (3.0, 0.0, -0.2, INF),
        (3.0, 0.6, 0.5, INF),     # beta + gamma <= 1
        (3.0, 0.0, 0.0, math.nan),
    ],
)
def test_invalid_points_rejected(alpha, beta, gamma, eta):
    with pytest.raises(InvalidPointError):
        ScalingPoint(alpha, beta, gamma, eta)


def test_point_is_frozen():
    p = ScalingPoint(3.0, 0.2, 0.1, 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.alpha = 4.0


def test_with_eta_replaces_only_eta():
    p = ScalingPoint(3.0, 0.2, 0.1, 0.5)
    q = p.with_eta(INF)
    assert (q.alpha, q.beta, q.gamma, q.eta) == (3.0, 0.2, 0.1, INF)
    assert p.eta == 0.5


def test_boundary_values_accepted():
    # beta + gamma == 1 is allowed, as is eta = -inf.
    ScalingPoint(2.0000001, 0.5, 0.5, NEG_INF)
    ScalingPoint(100.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Scheme exponents
# ---------------------------------------------------------------------------

def test_scheme_exponents_no_infrastructure():
    se = scheme_exponents(ScalingPoint(3.0, 0.0, 0.0, INF))
    assert se.mh == 0.5
    assert se.hc == 0.5
    assert se.ish_raw == -0.5
    assert se.imh_raw == 0.0
    assert se.backhaul_cap == INF


def test_scheme_exponents_ish_value():
    se = scheme_exponents(ScalingPoint(2.4, 0.6, 0.3, INF))
    assert se.ish_raw == pytest.approx(0.82, abs=1e-12)


def test_scheme_exponents_imh_and_cap():
    se = scheme_exponents(ScalingPoint(3.0, 0.3, 0.3, 0.2))
    assert se.imh_raw == pytest.approx(0.6, abs=1e-12)
    assert se.backhaul_cap == pytest.approx(0.5, abs=1e-12)


def test_hc_and_ish_decrease_with_alpha():
    alphas = np.linspace(2.01, 10.0, 200)
    prev = None
    for a in alphas:
        se = scheme_exponents(ScalingPoint(float(a), 0.4, 0.2, INF))
        assert se.mh == 0.5
        if prev is not None:
            assert se.hc < prev.hc
            assert se.ish_raw < prev.ish_raw
            assert se.imh_raw == prev.imh_raw
        prev = se


# ---------------------------------------------------------------------------
# Achievable exponent and matching upper bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "point,e_expect,scheme_expect",
    [
        (ScalingPoint(3.0, 0.0, 0.0, 0.0), 0.5, "MH"),
        (ScalingPoint(2.5, 0.0, 0.0, 0.0), 0.75, "HC"),
        (ScalingPoint(2.4, 0.6, 0.3, INF), 0.82, "ISH"),
        (ScalingPoint(3.0, 0.3, 0.3, 0.2), 0.5, "IMH"),
    ],
)
def test_achievable_examples(point, e_expect, scheme_expect):
    e, scheme = achievable_exponent(point)
    assert e == pytest.approx(e_expect, abs=1e-12)
    assert scheme == scheme_expect


@pytest.mark.parametrize(
    "point,expect",
    [
        (ScalingPoint(3.0, 0.0, 0.0, 0.0), 0.5),
        (ScalingPoint(2.4, 0.6, 0.3, INF), 0.82),
        (ScalingPoint(10.0, 0.5, 0.5, INF), 0.75),
    ],
)
def test_upper_bound_examples(point, expect):
    assert upper_bound_exponent(point) == pytest.approx(expect, abs=1e-12)


@given(valid_points())
@settings(max_examples=300)
def test_upper_bound_equals_achievable_exactly(p):
    e, _ = achievable_exponent(p)
    assert upper_bound_exponent(p) == e


def test_upper_bound_equals_achievable_on_grid():
    alpha = np.linspace(2.001, 8.0, 41)[:, None, None, None]
    beta = np.linspace(0.0, 0.98, 25)[None, :, None, None]
    gamma = np.linspace(0.0, 0.98, 25)[None, None, :, None]
    eta = np.array([NEG_INF, -0.7, -0.2, 0.0, 0.3, 0.9, 1.4, INF])[None, None, None, :]
    ok = beta + gamma <= 1.0
    e = achievable_exponent_grid(alpha, beta, gamma, eta)
    ub = upper_bound_exponent_grid(alpha, beta, gamma, eta)
    assert np.array_equal(np.where(ok, e, 0.0), np.where(ok, ub, 0.0))


def test_grid_matches_scalar():
    rng = np.random.default_rng(7)
    alpha = 2.0 + 6.0 * rng.random(500)
    beta = 0.99 * rng.random(500)
    gamma = (1.0 - beta) * rng.random(500) * 0.99
    eta = rng.uniform(-1.5, 1.5, 500)
    eta[:40] = INF
    eta[40:60] = NEG_INF
    e_grid = achievable_exponent_grid(alpha, beta, gamma, eta)
    _, s_grid = best_scheme_grid(alpha, beta, gamma, eta)
    for i in range(500):
        p = ScalingPoint(alpha[i], beta[i], gamma[i], eta[i])
        e, scheme = achievable_exponent(p)
        assert e == e_grid[i]
        assert SCHEME_CODES[scheme] == s_grid[i]


# ---------------------------------------------------------------------------
# Monotonicity and continuity
# ---------------------------------------------------------------------------

def test_monotone_along_each_axis():
    # Non-decreasing in beta, gamma, eta; non-increasing in alpha.
    alphas = np.linspace(2.001, 9.0, 120)
    for gamma, eta in [(0.0, INF), (0.3, 0.1), (0.1, -0.4)]:
        betas = np.linspace(0.0, 0.99 - gamma, 120)
        e = achievable_exponent_grid(3.1, betas, gamma, eta)
        assert np.all(np.diff(e) >= -1e-12)
    for beta, eta in [(0.0, INF), (0.5, 0.2), (0.2, INF)]:
        gammas = np.linspace(0.0, 0.99 - beta, 120)
        e = achievable_exponent_grid(2.7, beta, gammas, eta)
        assert np.all(np.diff(e) >= -1e-12)
    etas = np.linspace(-1.5, 2.0, 120)
    e = achievable_exponent_grid(2.9, 0.4, 0.3, etas)
    assert np.all(np.diff(e) >= -1e-12)
    for beta, gamma in [(0.0, 0.0), (0.3, 0.3), (0.7, 0.25)]:
        e = achievable_exponent_grid(alphas, beta, gamma, 0.4)
        assert np.all(np.diff(e) <= 1e-12)


def test_lipschitz_bounds_along_axes():
    # The steepest direction is beta where the ISH branch is active, with
    # slope alpha/2; gamma and eta have slope at most 1, alpha at most 1/2.
    step = 1e-4
    rng = np.random.default_rng(3)
    for _ in range(200):
        alpha = 2.01 + 7.0 * rng.random()
        beta = 0.98 * rng.random()
        gamma = (1.0 - beta - 0.005) * rng.random()
        eta = rng.uniform(-1.0, 1.5)
        e0 = achievable_exponent_grid(alpha, beta, gamma, eta)
        e_b = achievable_exponent_grid(alpha, beta + step, gamma, eta)
        e_g = achievable_exponent_grid(alpha, beta, gamma + step, eta)
        e_e = achievable_exponent_grid(alpha, beta, gamma, eta + step)
        e_a = achievable_exponent_grid(alpha + step, beta, gamma, eta)
        l_beta = max(1.0, (alpha + step) / 2.0)
        assert abs(e_b - e0) <= l_beta * step + 1e-12
        assert abs(e_g - e0) <= step + 1e-12
        assert abs(e_e - e0) <= step + 1e-12
        assert abs(e_a - e0) <= 0.5 * step + 1e-12


def test_eta_saturates_at_one():
    alpha = np.linspace(2.001, 8.0, 30)[:, None, None]
    beta = np.linspace(0.0, 0.95, 21)[None, :, None]
    gamma = np.linspace(0.0, 0.95, 21)[None, None, :]
    ok = beta + gamma <= 1.0
    e_inf = achievable_exponent_grid(alpha, beta, gamma, INF)
    for eta in (1.0, 1.25, 4.0):
        e = achievable_exponent_grid(alpha, beta, gamma, eta)
        assert np.array_equal(np.where(ok, e, 0.0), np.where(ok, e_inf, 0.0))


# ---------------------------------------------------------------------------
# Minimum backhaul exponent
# ---------------------------------------------------------------------------

def test_min_backhaul_examples():
    assert min_backhaul_exponent(0.2, 0.1) == NEG_INF
    assert min_backhaul_exponent(0.3, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert min_backhaul_exponent(0.7, 0.2) == pytest.approx(
        0.2 - 0.3 * 0.1 / 0.7, abs=1e-15
    )


@pytest.mark.parametrize("beta,gamma", [(0.7, 0.2), (0.6, 0.3), (0.5, 0.45), (0.9, 0.08)])
def test_min_backhaul_regime_d_matches_per_link_peak(beta, gamma):
    # Independent check: the D-regime value is the maximum over the ISH
    # alpha-window of the per-link exponent gamma - (alpha/2 - 1)(1 - beta),
    # attained at the window's left end.
    lo = 2.0 * (1.0 - gamma) / beta
    hi = 1.0 + 2.0 * gamma / (1.0 - beta)
    assert lo < hi  # the window exists in regime D
    alphas = np.linspace(lo, hi - 1e-9, 20001)
    per_link = gamma - (alphas / 2.0 - 1.0) * (1.0 - beta)
    assert min_backhaul_exponent(beta, gamma) == pytest.approx(
        per_link.max(), abs=1e-9
    )


def test_min_backhaul_negligible_cases():
    # gamma = 0 slices of B and D need no growing backhaul rate...
    assert min_backhaul_exponent(0.6, 0.0) == 0.0
    assert min_backhaul_exponent(0.999, 0.0) == 0.0
    # ...and the C/D requirement vanishes as beta -> 1.
    assert 0.0 <= min_backhaul_exponent(0.999, 0.0005) <= 1e-3
    assert 0.0 <= min_backhaul_exponent(0.999, 0.001) <= 2e-3


def _agree_with_unlimited(beta, gamma, eta, alphas):
    e_cap = achievable_exponent_grid(alphas, beta, gamma, eta)
    e_inf = achievable_exponent_grid(alphas, beta, gamma, INF)
    return e_cap, e_inf


@pytest.mark.parametrize(
    "beta,gamma",
    [(0.2, 0.1), (0.3, 0.3), (0.45, 0.1), (0.7, 0.2), (0.6, 0.3), (0.85, 0.1)],
)
def test_min_backhaul_sufficient_and_minimal(beta, gamma):
    alphas = np.linspace(2.01, 10.0, 97)
    eta_star = min_backhaul_exponent(beta, gamma)
    e_cap, e_inf = _agree_with_unlimited(beta, gamma, eta_star, alphas)
    assert np.array_equal(e_cap, e_inf)
    if eta_star > NEG_INF:
        e_less, e_inf = _agree_with_unlimited(beta, gamma, eta_star - 0.05, alphas)
        assert np.any(e_less < e_inf - 1e-12)


# ---------------------------------------------------------------------------
# Limitation flags
# ---------------------------------------------------------------------------

def test_limitation_flags_examples():
    f = limitation_flags(ScalingPoint(3.0, 0.3, 0.3, 0.2))
    assert f.dof_limited and f.infra_limited
    f = limitation_flags(ScalingPoint(2.2, 0.0, 0.0, 0.0))
    assert not f.dof_limited and not f.infra_limited
    f = limitation_flags(ScalingPoint(3.0, 0.3, 0.3, 1.0))
    assert f.dof_limited and not f.infra_limited


def test_flags_never_infra_limited_at_unbounded_backhaul():
    for alpha in (2.3, 3.0, 6.0):
        for beta, gamma in [(0.0, 0.0), (0.3, 0.3), (0.6, 0.3)]:
            assert not limitation_flags(
                ScalingPoint(alpha, beta, gamma, INF)
            ).infra_limited


# ---------------------------------------------------------------------------
# Finite-n realization
# ---------------------------------------------------------------------------

def test_map_finite_n_examples():
    fm = map_finite_n(1024, ScalingPoint(3.0, 0.5, 0.0, INF))
    assert (fm.m, fm.l) == (25, 1)
    assert fm.r_bs == INF

    fm = map_finite_n(256, ScalingPoint(3.0, 0.0, 0.0, NEG_INF))
    assert (fm.m, fm.l, fm.r_bs) == (1, 1, 0.0)

    fm = map_finite_n(4096, ScalingPoint(3.0, 0.5, 0.25, 0.0))
    assert (fm.m, fm.l, fm.r_bs) == (64, 8, 1.0)
    assert not fm.l_clipped


def test_map_finite_n_m_is_square_and_bounded():
    import warnings as _warnings

    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(4, 100000))
        beta = float(0.99 * rng.random())
        gamma = float((1.0 - beta) * rng.random() * 0.99)
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            fm = map_finite_n(n, ScalingPoint(3.0, beta, gamma, 0.0))
        assert math.isqrt(fm.m) ** 2 == fm.m
        assert 1 <= fm.m < n
        assert 1 <= fm.l
        assert fm.m * fm.l <= n


def test_map_finite_n_clips_l_with_warning():
    # round(90^0.9) = 57 -> m = 49; round(90^0.1) = 2; 49*2 > 90 forces l = 1.
    with pytest.warns(UserWarning, match="clipped"):
        fm = map_finite_n(90, ScalingPoint(3.0, 0.9, 0.1, INF))
    assert fm.m == 49
    assert fm.l == 1
    assert fm.l_clipped


def test_map_finite_n_guards_m_below_n():
    with pytest.warns(UserWarning, match="reduced"):
        fm = map_finite_n(4, ScalingPoint(3.0, 0.99, 0.0, INF))
    assert fm.m == 1


def test_map_finite_n_rejects_an_overflowing_backhaul():
    assert map_finite_n(64, ScalingPoint(3.0, 0.0, 0.0, 170.0)).r_bs == 2.0**1020
    with pytest.raises(ValueError, match=r"n=64, eta=171;"):
        map_finite_n(64, ScalingPoint(3.0, 0.0, 0.0, 171.0))


@pytest.mark.parametrize("eta, limit", [(1e308, INF), (5e307, INF), (-1e308, NEG_INF)])
def test_extreme_eta_reads_like_infinite_eta_without_warnings(eta, limit):
    """Crossings that overflow lie past every finite alpha and are dropped."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = classify_regime_3d(0.5, 0.5, eta)
        want = classify_regime_3d(0.5, 0.5, limit)
        assert got.label3d == want.label3d
        assert got.alpha_breakpoints == want.alpha_breakpoints


def test_map_finite_n_rejects_tiny_networks():
    with pytest.raises(ValueError):
        map_finite_n(3, ScalingPoint(3.0, 0.0, 0.0, INF))
