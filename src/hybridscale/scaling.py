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

Regime labels are computed as integer codes, both labels of a point (eta =
inf and eta) in one pass, and become text only through a 6-entry table.  A
report at a query alpha is one pass as well: the alpha samples of its
breakpoints and the four probe points of its flags are evaluated together,
by one ``_select`` call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

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
_SCHEMES = tuple(SCHEME_CODES)


class InvalidPointError(ValueError):
    """The operating point violates alpha > 2, beta/gamma range, or beta+gamma <= 1."""


def _check_range(beta: float, gamma: float) -> None:
    """Reject (beta, gamma) outside [0, 1) x [0, 1) or with beta + gamma > 1."""
    if not (0.0 <= beta < 1.0):
        raise InvalidPointError(f"beta must lie in [0, 1), got {beta}")
    if not (0.0 <= gamma < 1.0):
        raise InvalidPointError(f"gamma must lie in [0, 1), got {gamma}")
    if beta + gamma > 1.0:
        raise InvalidPointError(f"beta + gamma must not exceed 1, got {beta} + {gamma}")


def _check_alpha(alpha: float) -> None:
    """Reject alpha <= 2, +-inf and nan."""
    if not (alpha > 2.0) or math.isinf(alpha) or math.isnan(alpha):
        raise InvalidPointError(f"alpha must be a finite number > 2, got {alpha}")


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
        _check_alpha(self.alpha)
        _check_range(self.beta, self.gamma)
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


# The six terms of the law, each a line in alpha: (formula, intercept, slope)
# with value intercept - slope*alpha.  Every exponent, scalar or grid, and
# every alpha-breakpoint table is evaluated from this one table; the lines
# take floats or broadcast numpy arrays alike.  (1 + beta)/2 is written
# beta + (1 - beta)/2 so that it is bit-identical to the backhaul cap
# beta + eta* in the regime where eta* = (1 - beta)/2.
_HC, _MH, _ISH, _BG, _HALF, _CAP = range(6)


def _lines(beta, gamma, eta):
    return (("2 - alpha/2", 2.0, 0.5),
            ("1/2", 0.5, 0.0),
            ("1 + gamma - alpha*(1 - beta)/2", 1.0 + gamma, (1.0 - beta) / 2.0),
            ("beta + gamma", beta + gamma, 0.0),
            ("(1 + beta)/2", beta + (1.0 - beta) / 2.0, 0.0),
            ("beta + eta", beta + eta, 0.0))


def _terms(alpha, beta, gamma, eta):
    """The six term values stacked on a new first axis, in ``_lines`` order;
    inputs broadcast.  Every value is c - s*alpha of its line."""
    alpha = np.asarray(alpha, dtype=float)
    _, c, s = zip(*_lines(*(np.asarray(v, dtype=float) for v in (beta, gamma, eta))))
    cs = np.array(np.broadcast_arrays(*c, *s))
    # (intercepts, slopes) x six lines x (alpha's extra axes) x the lines' axes
    cs = cs.reshape(2, 6, *(1,) * (alpha.ndim - cs.ndim + 1), *cs.shape[1:])
    return cs[0] - cs[1] * alpha


def scheme_exponents(p: ScalingPoint) -> SchemeExponents:
    """Exponents of the four schemes plus the backhaul cap at point ``p``.

    mh is constant 1/2; hc = 2 - alpha/2; ish_raw = 1 + gamma -
    alpha*(1-beta)/2 is the uncapped one-hop-to-BS exponent; imh_raw =
    min(beta+gamma, (1+beta)/2) is the uncapped BS-assisted multihop
    exponent; backhaul_cap = beta + eta is what m backhaul links of rate
    n^eta can carry.
    """
    hc, mh, ish, bg, half, cap = map(float, _terms(p.alpha, p.beta, p.gamma, p.eta))
    return SchemeExponents(mh=mh, hc=hc, ish_raw=ish, imh_raw=min(bg, half),
                           backhaul_cap=cap)


# ---------------------------------------------------------------------------
# Achievable exponent and matching upper bound
# ---------------------------------------------------------------------------

#: Scheme code of each term in ``_lines`` order.  The cap term has none of its
#: own: a capped plateau is credited to the scheme of the raw term it caps.
_TERM_SCHEME = np.array([SCHEME_CODES[s] for s in ("HC", "MH", "ISH", "IMH", "IMH")])


def _select(terms):
    """(exponent, scheme code, term index) of max{min{max{ish_raw, imh_raw},
    beta+eta}, 1/2, 2-alpha/2}, imh_raw = min{beta+gamma, (1+beta)/2}, from
    the term values stacked as ``_terms`` gives them.

    The term is the ``_lines`` entry whose value the exponent is.  On exact
    ties the infrastructure term beats 1/2, which beats 2 - alpha/2; a raw
    term beats the cap; and (1+beta)/2 beats beta+gamma.
    """
    hc, mh, ish, bg, half, cap = terms
    imh = np.minimum(bg, half)
    raw = np.maximum(ish, imh)
    infra = np.minimum(raw, cap)
    e = np.maximum(np.maximum(infra, mh), hc)
    raw_term = np.where(imh >= ish, np.where(bg < half, _BG, _HALF), _ISH)
    term = np.where(infra == e, np.where(cap < raw, _CAP, raw_term),
                    np.where(e == mh, _MH, _HC))
    return e, _TERM_SCHEME[np.where(term == _CAP, raw_term, term)], term


def best_scheme_grid(alpha, beta, gamma, eta):
    """(exponent, scheme code) of max{min{max{ish_raw, imh_raw}, beta+eta}, 1/2,
    2-alpha/2} on floats or broadcast arrays, with no domain validation.

    The infrastructure branch (capped or not) is credited to the scheme with
    the larger raw exponent; exact ties go to the higher SCHEME_CODES code.
    """
    return _select(_terms(alpha, beta, gamma, eta))[:2]


def achievable_exponent(p: ScalingPoint) -> tuple[float, str]:
    """Best throughput exponent at ``p`` and the scheme achieving it.

    The exponent is max{min{max{ish_raw, imh_raw}, beta+eta}, 1/2, 2-alpha/2}.
    Exact ties are resolved by the SCHEME_CODES priority, so each boundary
    value belongs to the scheme that is best just above it in alpha.
    """
    e, code = best_scheme_grid(p.alpha, p.beta, p.gamma, p.eta)
    return float(e), _SCHEMES[code]


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
    hc, mh, ish, bg, half, cap = _terms(alpha, beta, gamma, eta)
    adhoc = np.maximum(mh, hc)
    wireless_cut = np.maximum(np.maximum(ish, np.minimum(bg, half)), adhoc)
    backhaul_cut = np.maximum(cap, adhoc)
    return np.minimum(wireless_cut, backhaul_cut)


# ---------------------------------------------------------------------------
# Operating-regime classification
# ---------------------------------------------------------------------------

#: Regime label of each regime code; the first four are the eta = inf labels.
_LABELS = np.array(["A", "B", "C", "D", "B~", "D~"])
_A, _B, _C, _D, _B_TILDE, _D_TILDE = range(6)


def _regime_codes(beta, gamma, eta: float):
    """(eta = inf code, eta code) of array (beta, gamma) at one scalar eta;
    the labels are documented at ``regime_label_grid``.  Conditions are
    nested ``np.where`` calls, so the first that holds wins."""
    beta, gamma = np.asarray(beta, dtype=float), np.asarray(gamma, dtype=float)
    ad_hoc = beta + gamma < 0.5
    narrow = beta + 2.0 * gamma < 1.0
    d_window = gamma >= 0.5 * (beta * beta - 3.0 * beta + 2.0)
    code = np.where(ad_hoc, _A, np.where(narrow, _B, np.where(d_window, _D, _C)))
    if not eta < 1.0:  # eta >= 1, inf (and nan, which callers reject)
        return code, code
    if eta < -0.5:
        # Backhaul so weak that BS-assisted schemes never reach the MH line.
        return code, np.full(code.shape, _A)
    # Capped IMH plateau beta+eta; below the MH line it is useless.
    capped = np.where(beta < 0.5 - eta, _A, _B_TILDE)
    if eta < 0.0:
        return code, np.broadcast_to(capped, code.shape)
    d_tilde = gamma >= beta * beta + (eta - 2.0) * beta + 1.0
    if eta < 0.5:
        # the last condition is applied first, so that the first one wins
        code3d = np.where(~narrow & (beta >= 1.0 - 2.0 * eta) & d_tilde, _D_TILDE, code)
        code3d = np.where((gamma < eta) & narrow, _B, code3d)
        code3d = np.where((gamma > eta) & (beta < 1.0 - 2.0 * eta), capped, code3d)
        return code, np.where(ad_hoc, _A, code3d)
    return code, np.where(d_tilde, _D_TILDE, code)


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
    return _LABELS[_regime_codes(beta, gamma, eta)[1]]


def classify_regime_2d(beta: float, gamma: float) -> str:
    """Regime label A/B/C/D for unlimited backhaul (see ``regime_label_grid``)."""
    _check_range(beta, gamma)
    return _LABELS[_regime_codes(beta, gamma, INF)[0]].item()


# ---------------------------------------------------------------------------
# Alpha breakpoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaInterval:
    """One segment [alpha_min, alpha_max) of the best-scheme piecewise law.

    The first interval of a regime is open at alpha_min = 2 (alpha > 2 by
    assumption); every other interval is closed at its left endpoint.  Every
    alpha in the segment gets ``scheme`` as the best scheme of
    ``achievable_exponent``, and ``formula`` evaluated there equals its
    exponent bit for bit.
    """

    alpha_min: float
    alpha_max: float
    scheme: str
    formula: str

    def to_dict(self) -> dict:
        return {"alpha_min": self.alpha_min, "alpha_max": self.alpha_max,
                "scheme": self.scheme, "formula": self.formula}


#: Floats sampled on each side of every crossing of two ``_lines``, and
#: samples per step when a piece change is narrowed down.
_NEAR, _SAMPLES = 16, 64


def _breakpoints(beta: float, gamma: float, eta: float, alpha: float | None = None):
    """Segments of (2, inf) on which the tree keeps one (scheme, formula),
    and, given a query ``alpha``, the exponents at its four probe points
    (``_probe_terms``) and the scheme code at the first.

    The piece can only change near a crossing of two ``_lines``.  The tree
    is evaluated once on every float within ``_NEAR`` of each crossing, on
    the first alpha > 2, between each two crossings and past the last, and
    on the probe points; a piece change between two samples that are not
    adjacent floats is narrowed until they are.  Each breakpoint is the
    first float of its new piece.
    """
    # Python floats: an overflow below gives inf and no numpy warning
    beta, gamma, eta = float(beta), float(gamma), float(eta)
    lines = _lines(beta, gamma, eta)
    _, c, s = zip(*lines)
    # (c_i - c_j)/(s_i - s_j) is the same float for (i, j) and (j, i)
    x = {(c[i] - c[j]) / (s[i] - s[j])
         for i in range(len(lines)) for j in range(i) if s[i] != s[j]}
    edges = [math.nextafter(2.0, INF),
             *sorted(v for v in x if v > 2.0 and math.isfinite(2.0 * v))]
    head = np.array([*edges, *((a + b) / 2.0 for a, b in zip(edges, edges[1:])),
                     2.0 * edges[-1]])
    near = head[1:len(edges)].view(np.int64)[:, None] + np.arange(-_NEAR, _NEAR + 1)
    samples = np.sort(np.concatenate([head, near.view(float).ravel()]))
    samples = samples[samples >= edges[0]]
    c, s = np.array([c, s])[:, :, None]
    terms = c - s * samples
    if alpha is not None:
        terms = np.concatenate([terms, _probe_terms(alpha, beta, gamma, eta)], axis=1)
    e, scheme, term = _select(terms)
    piece = (scheme * len(lines) + term)[:samples.size]
    k = np.nonzero(piece[1:] != piece[:-1])[0]
    # lo never gives the new piece and hi does
    lo, hi, new = samples[k], samples[k + 1], piece[k + 1, None]
    while (np.nextafter(lo, INF) != hi).any():
        rows, steps = np.arange(k.size), np.arange(_SAMPLES + 1)
        width = (hi.view(np.int64) - lo.view(np.int64))[:, None] / _SAMPLES
        cand = (lo.view(np.int64)[:, None] + (steps * width).astype(np.int64)).view(float)
        cand[:, -1] = hi
        _, cand_scheme, cand_term = _select(c[..., None] - s[..., None] * cand)
        first = np.argmax(cand_scheme * len(lines) + cand_term == new, axis=1)
        lo, hi = cand[rows, first - 1], cand[rows, first]
    bounds = [2.0, *hi.tolist(), INF]
    kinds = [int(piece[0]), *new.ravel().tolist()]
    segs = tuple(AlphaInterval(a, b, _SCHEMES[p // len(lines)], lines[p % len(lines)][0])
                 for a, b, p in zip(bounds, bounds[1:], kinds))
    if alpha is None:
        return segs, None
    return segs, (e[samples.size:].tolist(), int(scheme[samples.size]))


# ---------------------------------------------------------------------------
# Regime report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeReport:
    """Classification of an operating point plus its piecewise law in alpha.

    Without a query alpha the law (``alpha_breakpoints``) is derived from the
    stored (beta, gamma, eta) on first read, so callers that only want the
    labels never build it; ``classify_regime_3d`` at an alpha builds it in
    the same pass as the exponent and flags.
    """

    label2d: str
    label3d: str
    beta: float
    gamma: float
    eta: float
    best_scheme: str | None = None
    exponent: float | None = None
    dof_limited: bool | None = None
    infra_limited: bool | None = None

    @cached_property
    def alpha_breakpoints(self) -> tuple[AlphaInterval, ...]:
        return _breakpoints(self.beta, self.gamma, self.eta)[0]

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
    _check_range(beta, gamma)
    _check_eta(eta)
    labels = [_LABELS[code].item() for code in _regime_codes(beta, gamma, eta)]
    if alpha is None:
        return RegimeReport(*labels, beta, gamma, eta)
    _check_alpha(alpha)
    segs, (e, code) = _breakpoints(beta, gamma, eta, alpha)
    flags = _flags(e, code)
    report = RegimeReport(*labels, beta, gamma, eta, _SCHEMES[code], e[0],
                          flags.dof_limited, flags.infra_limited)
    vars(report)["alpha_breakpoints"] = segs  # the cached_property's slot
    return report


# ---------------------------------------------------------------------------
# Minimum backhaul exponent and limitation flags
# ---------------------------------------------------------------------------

def min_backhaul_exponent_grid(beta, gamma, label=None):
    """Smallest eta that preserves the unlimited-backhaul exponent at all alpha.

    Regime A needs no backhaul at all (-inf).  In B the bottleneck is the
    per-BS antenna count (gamma); in C it is the (1-beta)/2 parallel-path
    plateau; in D the ISH segment peaks at alpha = 2(1-gamma)/beta, giving
    gamma - (1-beta)(1-beta-gamma)/beta.  Regime D needs beta > 0 (and gamma
    near 1 at a tiny beta), so the division by zero at beta = 0 and its
    overflow at a subnormal beta are never selected.  ``label`` passes the
    eta = inf regime labels of (beta, gamma) when the caller has them.
    """
    beta, gamma = np.asarray(beta, dtype=float), np.asarray(gamma, dtype=float)
    code = (_regime_codes(beta, gamma, INF)[0] if label is None
            else np.searchsorted(_LABELS[:4], label))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = gamma - (1.0 - beta) * (1.0 - beta - gamma) / beta
    return np.choose(code, (NEG_INF, gamma, (1.0 - beta) / 2.0, d))


def min_backhaul_exponent(beta: float, gamma: float, label2d: str | None = None) -> float:
    """Validated scalar view of ``min_backhaul_exponent_grid``."""
    _check_range(beta, gamma)
    return float(min_backhaul_exponent_grid(beta, gamma, label2d))


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
    e, code, _ = _select(_probe_terms(p.alpha, p.beta, p.gamma, p.eta))
    return _flags(e.tolist(), int(code[0]))


def _probe_terms(alpha: float, beta: float, gamma: float, eta: float):
    """The six term values (6, 4) at the four probe points of the flags: the
    point itself, eta = inf, beta + delta and gamma + delta."""
    d = SENSITIVITY_DELTA
    points = ((beta, gamma, eta), (beta, gamma, INF), (beta + d, gamma, eta),
              (beta, gamma + d, eta))
    c, s = np.array([v for q in points for line in _lines(*q)
                     for v in line[1:]]).reshape(4, 6, 2).T
    return c - s * alpha


def _flags(e: list[float], code: int) -> LimitationFlags:
    """Flags from the exponents at the four probe points and the scheme code
    at the first."""
    e0, e_inf, e_beta, e_gamma = e
    return LimitationFlags(
        dof_limited=(_SCHEMES[code] in ("ISH", "IMH")
                     and (e_beta > e0 or e_gamma > e0)),
        infra_limited=e0 < e_inf,
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
    = -inf mapping to 0 and +inf to math.inf; a finite eta whose n^eta
    overflows a float is a ValueError.  If m*l would exceed n, l is clipped
    to n // m and a warning is emitted.
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
        try:
            r_bs = float(n) ** p.eta
        except OverflowError:
            raise ValueError(f"R_BS = n^eta overflows a float at n={n}, eta={p.eta:g}; "
                             "--eta=inf means unlimited backhaul") from None
    return FiniteNMapping(n=n, m=m, l=l, r_bs=r_bs, l_clipped=clipped)
