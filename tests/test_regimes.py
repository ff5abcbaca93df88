"""Regime classification, alpha-breakpoint tables, and oracle agreement."""

import numpy as np
import pytest

from hybridscale.scaling import (
    INF,
    NEG_INF,
    InvalidPointError,
    ScalingPoint,
    achievable_exponent,
    classify_regime_2d,
    classify_regime_3d,
    limitation_flags,
)

from oracles import near_boundary_mask, sweep_labels


# ---------------------------------------------------------------------------
# 2-D classification (unbounded backhaul)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "beta,gamma,label",
    [
        (0.2, 0.1, "A"),
        (0.3, 0.3, "B"),
        (0.6, 0.25, "C"),
        (0.6, 0.3, "D"),
        (0.0, 0.0, "A"),
        (0.5, 0.0, "B"),
    ],
)
def test_classify_2d_examples(beta, gamma, label):
    assert classify_regime_2d(beta, gamma) == label


def test_classify_2d_rejects_out_of_range():
    with pytest.raises(InvalidPointError):
        classify_regime_2d(1.0, 0.0)
    with pytest.raises(InvalidPointError):
        classify_regime_2d(0.5, 0.6)


def test_regime_b_scheme_pattern():
    # (0.3, 0.3): HC up to alpha = 4 - 2(beta+gamma) = 2.8, then IMH at 0.6.
    e, scheme = achievable_exponent(ScalingPoint(2.75, 0.3, 0.3, INF))
    assert scheme == "HC"
    for alpha in (2.85, 4.0, 9.0):
        e, scheme = achievable_exponent(ScalingPoint(alpha, 0.3, 0.3, INF))
        assert scheme == "IMH"
        assert e == pytest.approx(0.6, abs=1e-12)


def test_regime_d_scheme_pattern():
    # (0.6, 0.3): HC, then an ISH window, then the IMH plateau (1+beta)/2.
    schemes = [
        achievable_exponent(ScalingPoint(a, 0.6, 0.3, INF))[1]
        for a in (2.2, 2.4, 3.0)
    ]
    assert schemes == ["HC", "ISH", "IMH"]
    e, _ = achievable_exponent(ScalingPoint(3.0, 0.6, 0.3, INF))
    assert e == pytest.approx(0.8, abs=1e-12)


# ---------------------------------------------------------------------------
# 3-D classification (finite backhaul)
# ---------------------------------------------------------------------------

def _exponent(alpha, beta, gamma, eta):
    return achievable_exponent(ScalingPoint(alpha, beta, gamma, eta))[0]


def test_zero_ish_backhaul_is_always_regime_a():
    betas = np.linspace(0.0, 0.99, 41)
    gammas = np.linspace(0.0, 0.99, 41)
    for b in betas:
        for g in gammas:
            if b + g > 1.0:
                continue
            assert classify_regime_3d(float(b), float(g), -0.6).label3d == "A"


def test_b_tilde_example_with_breakpoints():
    report = classify_regime_3d(0.3, 0.3, 0.2)
    assert report.label3d == "B~"
    assert report.label2d == "B"
    segs = report.alpha_breakpoints
    assert len(segs) == 2
    assert (segs[0].alpha_min, segs[0].alpha_max, segs[0].scheme) == (2.0, 3.0, "HC")
    assert segs[1].alpha_min == 3.0
    assert segs[1].alpha_max == INF
    assert segs[1].scheme == "IMH"
    assert segs[1].formula == "beta + eta"
    assert _exponent(5.0, 0.3, 0.3, 0.2) == pytest.approx(0.5, abs=1e-15)
    assert _exponent(2.5, 0.3, 0.3, 0.2) == pytest.approx(0.75, abs=1e-15)


def test_d_tilde_example():
    report = classify_regime_3d(0.6, 0.4, 0.2)
    assert report.label3d == "D~"
    schemes = [seg.scheme for seg in report.alpha_breakpoints]
    assert schemes[0] == "HC"
    assert "ISH" in schemes
    assert schemes[-1] == "IMH"


def test_d_tilde_full_pattern():
    # A D~ point away from every knife edge: all four segments present.
    report = classify_regime_3d(0.4, 0.55, 0.35)
    assert report.label3d == "D~"
    segs = report.alpha_breakpoints
    assert [s.scheme for s in segs] == ["HC", "ISH", "ISH", "IMH"]
    assert segs[1].formula == "beta + eta"
    assert segs[0].alpha_max == pytest.approx(2.5, abs=1e-12)
    assert segs[1].alpha_max == pytest.approx(2.0 + 2.0 * 0.2 / 0.6, abs=1e-12)
    assert segs[2].alpha_max == pytest.approx(1.0 + 1.1 / 0.6, abs=1e-12)
    assert _exponent(2.6, 0.4, 0.55, 0.35) == pytest.approx(0.75, abs=1e-15)
    assert _exponent(9.0, 0.4, 0.55, 0.35) == pytest.approx(0.7, abs=1e-15)


def test_report_with_alpha_fills_point_fields():
    report = classify_regime_3d(0.3, 0.3, 0.2, alpha=3.0)
    assert report.exponent == pytest.approx(0.5, abs=1e-15)
    assert report.best_scheme == "IMH"
    flags = limitation_flags(ScalingPoint(3.0, 0.3, 0.3, 0.2))
    assert report.dof_limited == flags.dof_limited
    assert report.infra_limited == flags.infra_limited
    assert _exponent(3.0, 0.3, 0.3, 0.2) == report.exponent


def test_eta_at_least_one_matches_unbounded():
    betas = np.linspace(0.0, 0.99, 21)
    gammas = np.linspace(0.0, 0.99, 21)
    for eta in (1.0, 1.5):
        for b in betas:
            for g in gammas:
                if b + g > 1.0:
                    continue
                got = classify_regime_3d(float(b), float(g), eta)
                ref = classify_regime_3d(float(b), float(g), INF)
                assert got.label3d == ref.label3d
                assert got.alpha_breakpoints == ref.alpha_breakpoints


# ---------------------------------------------------------------------------
# Breakpoint tables as piecewise laws
# ---------------------------------------------------------------------------

def _random_valid_points(k, seed):
    rng = np.random.default_rng(seed)
    alpha = 2.0 + 8.0 * rng.random(k)
    beta = 0.99 * rng.random(k)
    gamma = (1.0 - beta) * rng.random(k) * 0.99
    eta = rng.uniform(-1.5, 1.8, k)
    eta[: k // 8] = INF
    eta[k // 8 : k // 6] = NEG_INF
    return alpha, beta, gamma, eta


def test_breakpoints_partition_positive_axis():
    _, beta, gamma, eta = _random_valid_points(400, seed=5)
    for b, g, h in zip(beta, gamma, eta):
        segs = classify_regime_3d(float(b), float(g), float(h)).alpha_breakpoints
        assert segs[0].alpha_min == 2.0
        assert segs[-1].alpha_max == INF
        for left, right in zip(segs, segs[1:]):
            assert left.alpha_max == right.alpha_min
            assert left.alpha_min < left.alpha_max


# The printed formula text of a segment, read as a function of (a, b, g, h),
# in the float form of the paper's formulas.
_FORMULAS = {
    "2 - alpha/2": lambda a, b, g, h: 2.0 - a / 2.0,
    "1/2": lambda a, b, g, h: 0.5,
    "beta + gamma": lambda a, b, g, h: b + g,
    "(1 + beta)/2": lambda a, b, g, h: b + (1.0 - b) / 2.0,
    "1 + gamma - alpha*(1 - beta)/2": lambda a, b, g, h: 1.0 + g - a * (1.0 - b) / 2.0,
    "beta + eta": lambda a, b, g, h: b + h,
}


def test_breakpoint_formula_matches_achievable():
    # The printed piecewise table and the pointwise max/min tree are the same
    # law: every probed alpha of a segment gets its scheme, and its formula
    # gives the exponent bit for bit.  Random points are also swept in alpha;
    # the default regime-map grid has rounded linspace values (such as
    # 0.6499999999999999, where 4 - 2(beta + gamma) rounds to 2.5), and at
    # (0.6, 0.35, 0.1) ISH holds the capped plateau before IMH does.
    _, beta, gamma, eta = _random_valid_points(150, seed=17)
    sweep = list(np.linspace(2.0001, 12.0, 241))
    points = [(b, g, h, sweep) for b, g, h in zip(beta, gamma, eta)]
    grid = np.linspace(0.0, 0.95, 20)
    for h in (NEG_INF, -0.5, -0.3, 0.0, 0.1, 0.2, 0.5, 0.7, INF):
        points += [(b, g, h, []) for b in grid for g in grid if b + g <= 1.0]
    points += [(0.6499999999999999, 0.09999999999999999, 0.2, []), (0.6, 0.35, 0.1, [])]
    for b, g, h, alphas in points:
        b, g, h = float(b), float(g), float(h)
        segs = classify_regime_3d(b, g, h).alpha_breakpoints
        probes = [a for s in segs for a in (
            max(s.alpha_min, np.nextafter(2.0, 3.0)),
            (s.alpha_min + min(s.alpha_max, 2.0 * s.alpha_min)) / 2.0,
            np.nextafter(s.alpha_max, 2.0))]
        for a in map(float, probes + alphas):
            e, scheme = achievable_exponent(ScalingPoint(a, b, g, h))
            seg = next(s for s in segs if s.alpha_min <= a < s.alpha_max)
            assert seg.scheme == scheme, (b, g, h, a, seg)
            assert _FORMULAS[seg.formula](a, b, g, h) == e, (b, g, h, a, seg)


# ---------------------------------------------------------------------------
# Agreement with the alpha-sweep oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "eta", [NEG_INF, -0.7, -0.3, 0.2, 0.45, 0.7, 1.2, INF], ids=str
)
def test_classifier_agrees_with_sweep_oracle(eta):
    n_side = 200
    beta = np.linspace(0.0, 0.995, n_side)
    gamma = np.linspace(0.0, 0.995, n_side)
    B, G = np.meshgrid(beta, gamma, indexing="ij")
    valid = B + G <= 1.0
    keep = valid & ~near_boundary_mask(B, G, eta)
    # the margins should only shave off a thin sliver of the square
    assert keep.sum() >= 0.85 * valid.sum()

    oracle = sweep_labels(B, G, eta)
    mismatches = []
    for i, j in zip(*np.nonzero(keep)):
        got = classify_regime_3d(float(B[i, j]), float(G[i, j]), eta).label3d
        if got != oracle[i, j]:
            mismatches.append((B[i, j], G[i, j], got, oracle[i, j]))
    assert not mismatches, mismatches[:10]
