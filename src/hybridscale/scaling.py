"""Closed-form throughput scaling laws for hybrid ad hoc networks.

A hybrid network has n source-destination pairs of wireless nodes assisted
by m = n^beta base stations, each with l = n^gamma antennas, all wired to a
central processor over backhaul links of rate R_BS = n^eta.  Everything in
this module is a pure function of the four exponents (alpha, beta, gamma,
eta): scheme exponents, the achievable/upper-bound throughput exponent,
operating-regime labels, the minimum backhaul exponent that preserves
throughput, and the DoF/infrastructure limitation flags.

Scalar entry points validate their inputs; the ``*_grid`` variants accept
numpy arrays (broadcast together) and are used for dense sweeps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

INF = float("inf")
NEG_INF = float("-inf")

#: Finite-difference step used by the DoF-limitation sensitivity probe.
SENSITIVITY_DELTA = 1e-6

#: Scheme codes of the ``*_grid`` functions, listed in code order.  A code is
#: also the scheme's priority for exact exponent ties: higher wins, so ties on
#: regime boundaries are attributed to the scheme that is best on the
#: high-alpha side of the boundary (IMH beats ISH beats MH beats HC).
SCHEME_CODES = {"HC": 0, "MH": 1, "ISH": 2, "IMH": 3}


class InvalidPointError(ValueError):
    """The operating point violates alpha > 2, beta/gamma range, or beta+gamma <= 1."""


def _check_eta(eta: float) -> None:
    """Reject eta = nan; every real eta and +-inf is a valid backhaul exponent."""
    if math.isnan(eta):
        raise InvalidPointError("eta must be a real number or +-inf, got nan")


# ---------------------------------------------------------------------------
# Operating point and per-scheme exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingPoint:
    """Operating point (alpha, beta, gamma, eta).

    alpha : path-loss exponent, must exceed 2.
    beta  : base-station count exponent, m = n^beta, in [0, 1).
    gamma : per-BS antenna count exponent, l = n^gamma, in [0, 1).
    eta   : backhaul rate exponent, R_BS = n^eta.  +inf means unlimited
            backhaul, -inf means zero-rate backhaul.
    """

    alpha: float
    beta: float = 0.0
    gamma: float = 0.0
    eta: float = INF

    def __post_init__(self) -> None:
        if not (self.alpha > 2.0) or math.isinf(self.alpha) or math.isnan(self.alpha):
            raise InvalidPointError(f"alpha must be a finite number > 2, got {self.alpha}")
        if not (0.0 <= self.beta < 1.0):
            raise InvalidPointError(f"beta must lie in [0, 1), got {self.beta}")
        if not (0.0 <= self.gamma < 1.0):
            raise InvalidPointError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.beta + self.gamma > 1.0:
            raise InvalidPointError(
                f"beta + gamma must not exceed 1, got {self.beta} + {self.gamma}"
            )
        _check_eta(self.eta)

    def with_eta(self, eta: float) -> "ScalingPoint":
        return ScalingPoint(self.alpha, self.beta, self.gamma, eta)


@dataclass(frozen=True)
class SchemeExponents:
    """The five exponents every throughput comparison is built from."""

    mh: float
    hc: float
    ish_raw: float
    imh_raw: float
    backhaul_cap: float


# The elementary exponent formulas.  All higher-level code (scalar and grid
# evaluation) goes through ``_terms`` so that equal quantities are computed by
# the identical floating-point expression.  They take floats or broadcast
# numpy arrays alike.

def _e_mh() -> float:
    return 0.5


def _e_hc(alpha):
    return 2.0 - alpha / 2.0


def _e_ish_raw(alpha, beta, gamma):
    return 1.0 + gamma - alpha * (1.0 - beta) / 2.0


def _e_imh_bg(beta, gamma):
    return beta + gamma


def _e_imh_half(beta):
    # (1 + beta) / 2, written as beta + (1 - beta)/2 so it is bit-identical
    # to the backhaul cap beta + eta* in the regime where eta* = (1 - beta)/2.
    return beta + (1.0 - beta) / 2.0


def _e_cap(beta, eta):
    return beta + eta


def _terms(alpha, beta, gamma, eta):
    """(hc, ish_raw, imh_raw, backhaul_cap) as arrays; inputs broadcast."""
    alpha, beta, gamma, eta = (np.asarray(v, dtype=float)
                               for v in (alpha, beta, gamma, eta))
    return (_e_hc(alpha), _e_ish_raw(alpha, beta, gamma),
            np.minimum(_e_imh_bg(beta, gamma), _e_imh_half(beta)),
            _e_cap(beta, eta))


def scheme_exponents(p: ScalingPoint) -> SchemeExponents:
    """Exponents of the four schemes plus the backhaul cap at point ``p``.

    mh is constant 1/2; hc = 2 - alpha/2; ish_raw = 1 + gamma -
    alpha*(1-beta)/2 is the uncapped one-hop-to-BS exponent; imh_raw =
    min(beta+gamma, (1+beta)/2) is the uncapped BS-assisted multihop
    exponent; backhaul_cap = beta + eta is what m backhaul links of rate
    n^eta can carry.
    """
    hc, ish, imh, cap = map(float, _terms(p.alpha, p.beta, p.gamma, p.eta))
    return SchemeExponents(mh=_e_mh(), hc=hc, ish_raw=ish, imh_raw=imh,
                           backhaul_cap=cap)


# ---------------------------------------------------------------------------
# Achievable exponent and matching upper bound
# ---------------------------------------------------------------------------

def best_scheme_grid(alpha, beta, gamma, eta):
    """(exponent, scheme code) of max{min{max{ish_raw, imh_raw}, beta+eta}, 1/2,
    2-alpha/2} on floats or broadcast arrays, with no domain validation.

    The infrastructure branch (capped or not) is credited to the scheme with
    the larger raw exponent; exact ties go to the higher SCHEME_CODES code.
    """
    hc, ish, imh, cap = _terms(alpha, beta, gamma, eta)
    infra = np.minimum(np.maximum(ish, imh), cap)
    e = np.maximum(np.maximum(infra, _e_mh()), hc)
    scheme = np.where(
        infra == e,
        np.where(imh >= ish, SCHEME_CODES["IMH"], SCHEME_CODES["ISH"]),
        np.where(e == _e_mh(), SCHEME_CODES["MH"], SCHEME_CODES["HC"]),
    )
    return e, scheme


def achievable_exponent(p: ScalingPoint) -> tuple[float, str]:
    """Best throughput exponent at ``p`` and the scheme achieving it.

    The exponent is max{min{max{ish_raw, imh_raw}, beta+eta}, 1/2, 2-alpha/2}.
    Exact ties are resolved by the SCHEME_CODES priority, so each boundary
    value belongs to the scheme that is best just above it in alpha.
    """
    e, code = best_scheme_grid(p.alpha, p.beta, p.gamma, p.eta)
    return float(e), tuple(SCHEME_CODES)[code]


def upper_bound_exponent(p: ScalingPoint) -> float:
    """Cut-set upper bound on the throughput exponent at ``p``.

    Evaluated as the minimum over the two network cuts: the wireless cut
    caps the exponent at max{ish_raw, imh_raw, 1/2, 2-alpha/2} and the
    backhaul cut at max{beta+eta, 1/2, 2-alpha/2}.  Both trees only select
    among already-computed values, so the min/max lattice identity makes
    this equal to achievable_exponent(p) bit-for-bit.
    """
    return float(upper_bound_exponent_grid(p.alpha, p.beta, p.gamma, p.eta))


# ---------------------------------------------------------------------------
# Vectorized variants for dense sweeps
# ---------------------------------------------------------------------------

def achievable_exponent_grid(alpha, beta, gamma, eta):
    """Vectorized achievable exponent; inputs broadcast like numpy arrays.

    No validation is performed; callers are expected to feed valid points.
    Uses the same elementary float expressions as the scalar version.
    """
    return best_scheme_grid(alpha, beta, gamma, eta)[0]


def upper_bound_exponent_grid(alpha, beta, gamma, eta):
    """Vectorized cut-set bound, composed as min(wireless cut, backhaul cut)."""
    hc, ish, imh, cap = _terms(alpha, beta, gamma, eta)
    adhoc = np.maximum(_e_mh(), hc)
    wireless_cut = np.maximum(np.maximum(ish, imh), adhoc)
    backhaul_cut = np.maximum(cap, adhoc)
    return np.minimum(wireless_cut, backhaul_cut)


# ---------------------------------------------------------------------------
# Operating-regime classification
# ---------------------------------------------------------------------------

def _check_range(beta: float, gamma: float) -> None:
    if not (0.0 <= beta < 1.0) or not (0.0 <= gamma < 1.0) or beta + gamma > 1.0:
        raise InvalidPointError(f"invalid (beta, gamma) = ({beta}, {gamma})")


def regime_label_grid(beta, gamma, eta: float):
    """Regime labels of array (beta, gamma) at one scalar eta, as a str array.

    With unlimited backhaul (eta = inf, or any eta >= 1, where the cap
    beta+eta exceeds every raw exponent) the label depends on (beta, gamma):

    A:  beta + gamma < 1/2 (infrastructure never beats pure ad hoc).
    B:  beta + gamma >= 1/2 and beta + 2*gamma < 1 (antenna-limited IMH).
    D:  beta + 2*gamma >= 1 and gamma >= (beta^2 - 3*beta + 2)/2 (an ISH
        window opens between the HC and IMH segments).
    C:  the rest (IMH plateau (1+beta)/2, no ISH window).

    A finite eta < 1 caps the infrastructure at beta+eta: B~ is the capped
    IMH plateau and D~ an ISH window that the cap cuts into; below the MH
    line (beta < 1/2 - eta) a capped plateau is useless and labelled A.
    Conditions are tried in order and the first that holds wins.
    """
    beta, gamma = np.broadcast_arrays(np.asarray(beta, dtype=float),
                                      np.asarray(gamma, dtype=float))
    ad_hoc = beta + gamma < 0.5
    narrow = beta + 2.0 * gamma < 1.0
    d_window = gamma >= 0.5 * (beta * beta - 3.0 * beta + 2.0)
    label = np.select([ad_hoc, narrow, d_window], ["A", "B", "D"], "C")
    if not eta < 1.0:  # eta >= 1, inf (and nan, which callers reject)
        return label
    if eta < -0.5:
        # Backhaul so weak that BS-assisted schemes never reach the MH line.
        return np.full(label.shape, "A")
    # Capped IMH plateau beta+eta; below the MH line it is useless.
    capped = np.where(beta < 0.5 - eta, "A", "B~")
    if eta < 0.0:
        return capped
    d_tilde = gamma >= beta * beta + (eta - 2.0) * beta + 1.0
    if eta < 0.5:
        return np.select(
            [ad_hoc, (gamma > eta) & (beta < 1.0 - 2.0 * eta), (gamma < eta) & narrow,
             ~narrow & (beta >= 1.0 - 2.0 * eta) & d_tilde],
            ["A", capped, "B", "D~"], label)
    return np.where(d_tilde, "D~", label)


def classify_regime_2d(beta: float, gamma: float) -> str:
    """Regime label A/B/C/D for unlimited backhaul (see ``regime_label_grid``)."""
    _check_range(beta, gamma)
    return regime_label_grid(beta, gamma, INF).item()


# ---------------------------------------------------------------------------
# Alpha breakpoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaInterval:
    """One segment [alpha_min, alpha_max) of the best-scheme piecewise law.

    The first interval of a regime is open at alpha_min = 2 (alpha > 2 by
    assumption); every other interval is closed at its left endpoint.
    """

    alpha_min: float
    alpha_max: float
    scheme: str
    formula: str

    def to_dict(self) -> dict:
        return {
            "alpha_min": self.alpha_min,
            "alpha_max": self.alpha_max,
            "scheme": self.scheme,
            "formula": self.formula,
        }


def _breakpoints(label: str, beta: float, gamma: float, eta: float) -> tuple[AlphaInterval, ...]:
    """Piecewise best-scheme segments of (2, inf) for a resolved label.

    The table only names each segment's scheme and formula; every exponent
    value is evaluated by ``best_scheme_grid``.
    """
    if label == "A":
        segs = [(2.0, 3.0, "HC", "2 - alpha/2"),
                (3.0, INF, "MH", "1/2")]
    elif label == "B":
        x = 4.0 - 2.0 * beta - 2.0 * gamma
        segs = [(2.0, x, "HC", "2 - alpha/2"),
                (x, INF, "IMH", "beta + gamma")]
    elif label == "C":
        x = 3.0 - beta
        segs = [(2.0, x, "HC", "2 - alpha/2"),
                (x, INF, "IMH", "(1 + beta)/2")]
    elif label == "D":
        x1 = 2.0 * (1.0 - gamma) / beta
        x2 = 1.0 + 2.0 * gamma / (1.0 - beta)
        segs = [(2.0, x1, "HC", "2 - alpha/2"),
                (x1, x2, "ISH", "1 + gamma - alpha*(1 - beta)/2"),
                (x2, INF, "IMH", "(1 + beta)/2")]
    elif label == "B~":
        x = 4.0 - 2.0 * beta - 2.0 * eta
        segs = [(2.0, x, "HC", "2 - alpha/2"),
                (x, INF, "IMH", "beta + eta")]
    elif label == "D~":
        x1 = 4.0 - 2.0 * beta - 2.0 * eta
        x2 = 2.0 + 2.0 * (gamma - eta) / (1.0 - beta)
        x3 = 1.0 + 2.0 * gamma / (1.0 - beta)
        segs = [(2.0, x1, "HC", "2 - alpha/2"),
                (x1, x2, "ISH", "beta + eta"),
                (x2, x3, "ISH", "1 + gamma - alpha*(1 - beta)/2"),
                (x3, INF, "IMH", "(1 + beta)/2")]
    else:  # pragma: no cover - labels are produced internally
        raise ValueError(f"unknown regime label {label!r}")

    kept = []
    for lo, hi, scheme, formula in segs:
        lo = max(lo, 2.0)
        if hi <= lo:
            continue  # segment pushed out of the alpha > 2 range
        kept.append((lo, hi, scheme, formula))
    # Stitch neighbours so the intervals tile (2, inf) with no gaps even if
    # an inner segment degenerated to a point.
    out = []
    for k, (lo, hi, scheme, formula) in enumerate(kept):
        if k + 1 < len(kept):
            hi = kept[k + 1][0]
        out.append(AlphaInterval(lo, hi, scheme, formula))
    return tuple(out)


# ---------------------------------------------------------------------------
# Regime report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeReport:
    """Classification of an operating point plus its piecewise law in alpha."""

    label2d: str
    label3d: str
    alpha_breakpoints: tuple[AlphaInterval, ...]
    best_scheme: str | None = None
    exponent: float | None = None
    dof_limited: bool | None = None
    infra_limited: bool | None = None

    def to_dict(self) -> dict:
        return {
            "label2d": self.label2d,
            "label3d": self.label3d,
            "alpha_breakpoints": [seg.to_dict() for seg in self.alpha_breakpoints],
            "best_scheme": self.best_scheme,
            "exponent": self.exponent,
            "dof_limited": self.dof_limited,
            "infra_limited": self.infra_limited,
        }


def classify_regime_3d(beta: float, gamma: float, eta: float,
                       alpha: float | None = None) -> RegimeReport:
    """Full regime report from (beta, gamma, eta), optionally at a query alpha.

    Without ``alpha`` only the labels and breakpoints are filled in; with it
    the report also carries the best scheme, exponent and limitation flags
    at that alpha.
    """
    label2d = classify_regime_2d(beta, gamma)
    _check_eta(eta)
    label3d = regime_label_grid(beta, gamma, eta).item()
    report = RegimeReport(
        label2d=label2d,
        label3d=label3d,
        alpha_breakpoints=_breakpoints(label3d, beta, gamma, eta),
    )
    if alpha is None:
        return report
    e, scheme, flags = _exponent_and_flags(ScalingPoint(alpha, beta, gamma, eta))
    return replace(report, best_scheme=scheme, exponent=e,
                   dof_limited=flags.dof_limited, infra_limited=flags.infra_limited)


# ---------------------------------------------------------------------------
# Minimum backhaul exponent and limitation flags
# ---------------------------------------------------------------------------

def min_backhaul_exponent_grid(beta, gamma):
    """Smallest eta that preserves the unlimited-backhaul exponent at all alpha.

    Regime A needs no backhaul at all (-inf).  In B the bottleneck is the
    per-BS antenna count (gamma); in C it is the (1-beta)/2 parallel-path
    plateau; in D the ISH segment peaks at alpha = 2(1-gamma)/beta, giving
    gamma - (1-beta)(1-beta-gamma)/beta.  Regime D needs beta > 0, so the
    division by zero at beta = 0 is never selected.
    """
    beta, gamma = np.asarray(beta, dtype=float), np.asarray(gamma, dtype=float)
    label = regime_label_grid(beta, gamma, INF)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = gamma - (1.0 - beta) * (1.0 - beta - gamma) / beta
    return np.select([label == "A", label == "B", label == "C"],
                     [NEG_INF, gamma, (1.0 - beta) / 2.0], d)


def min_backhaul_exponent(beta: float, gamma: float) -> float:
    """Validated scalar view of ``min_backhaul_exponent_grid``."""
    _check_range(beta, gamma)
    return float(min_backhaul_exponent_grid(beta, gamma))


@dataclass(frozen=True)
class LimitationFlags:
    dof_limited: bool
    infra_limited: bool


def limitation_flags(p: ScalingPoint) -> LimitationFlags:
    """Whether the exponent at ``p`` is backhaul-capped and/or DoF-sensitive.

    infra_limited: the exponent strictly improves when eta -> inf.
    dof_limited: an infrastructure scheme is best and nudging beta or gamma
    up by SENSITIVITY_DELTA strictly raises the exponent (the probe skips
    validation, so points on the domain edge still get a well-defined flag).
    """
    return _exponent_and_flags(p)[2]


def _exponent_and_flags(p: ScalingPoint) -> tuple[float, str, LimitationFlags]:
    """Exponent, best scheme and flags at ``p`` from one ``best_scheme_grid``
    call over four points: ``p`` itself, eta = inf, beta + delta and gamma +
    delta."""
    d = SENSITIVITY_DELTA
    e, code = best_scheme_grid(p.alpha, p.beta + np.array([0.0, 0.0, d, 0.0]),
                               p.gamma + np.array([0.0, 0.0, 0.0, d]),
                               np.array([p.eta, INF, p.eta, p.eta]))
    scheme = tuple(SCHEME_CODES)[code[0]]
    return float(e[0]), scheme, LimitationFlags(
        dof_limited=scheme in ("ISH", "IMH") and bool(np.any(e[2:] > e[0])),
        infra_limited=bool(e[0] < e[1]),
    )


# ---------------------------------------------------------------------------
# Finite-n realization of an operating point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteNMapping:
    """Concrete (m, l, R_BS) for a finite network of n nodes."""

    n: int
    m: int
    l: int
    r_bs: float
    l_clipped: bool = False


def map_finite_n(n: int, p: ScalingPoint) -> FiniteNMapping:
    """Realize (m, l, R_BS) for n nodes at operating point ``p``.

    m = round(n^beta) pushed down to the nearest perfect square so the BSs
    form a square grid; l = max(1, round(n^gamma)); R_BS = n^eta with eta
    = -inf mapping to 0 and +inf to math.inf.  If m*l would exceed n, l is
    clipped to n // m and a warning is emitted.
    """
    if n < 4:
        raise ValueError(f"n must be at least 4, got {n}")
    m = math.isqrt(round(float(n) ** p.beta)) ** 2
    if m >= n:  # only reachable for beta pushing n^beta up to n itself
        m = math.isqrt(n - 1) ** 2
        warnings.warn(f"m reduced to {m} to keep m < n", stacklevel=2)
    l = max(1, round(float(n) ** p.gamma))
    clipped = False
    if m * l > n:
        l = max(1, n // m)
        clipped = True
        warnings.warn(
            f"l clipped to {l} so that m*l <= n (m={m}, n={n})", stacklevel=2
        )
    if p.eta == NEG_INF:
        r_bs = 0.0
    elif p.eta == INF:
        r_bs = INF
    else:
        r_bs = float(n) ** p.eta
    return FiniteNMapping(n=n, m=m, l=l, r_bs=r_bs, l_clipped=clipped)
