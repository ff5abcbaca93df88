"""Correctness checks on the CLI's outputs, made apart from the program.

Nothing here calls the program's scaling, protocols or cutset code.  The
exponent law, the regime patterns and the cut-set sums are derived again
from the paper's formulas; the only program code used is topology
generation, to get the node and antenna positions of an instance back.

Every check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import json
import math

import numpy as np

INF = math.inf

# -- exponent law -----------------------------------------------------------


def achievable(alpha, beta, gamma, eta):
    """max{min{max{ish, imh}, beta + eta}, 1/2, 2 - alpha/2}, broadcast."""
    ish = 1.0 + gamma - alpha * (1.0 - beta) / 2.0
    imh = np.minimum(beta + gamma, (1.0 + beta) / 2.0)
    infra = np.minimum(np.maximum(ish, imh), beta + eta)
    return np.maximum(np.maximum(infra, 0.5), 2.0 - alpha / 2.0)


def upper_bound(alpha, beta, gamma, eta):
    """min(wireless cut, backhaul cut) of the exponent, broadcast."""
    ish = 1.0 + gamma - alpha * (1.0 - beta) / 2.0
    imh = np.minimum(beta + gamma, (1.0 + beta) / 2.0)
    adhoc = np.maximum(0.5, 2.0 - alpha / 2.0)
    wireless = np.maximum(np.maximum(ish, imh), adhoc)
    backhaul = np.maximum(beta + eta, adhoc)
    return np.minimum(wireless, backhaul)


# -- regime labels from a dense alpha sweep ----------------------------------

# Which term sets the best exponent at one alpha.
HC, MH, IMH_BG, IMH_HALF, ISH, CAP = range(6)

# Best-term sequence along increasing alpha -> the paper's regime label.
LABEL_OF_PATTERN = {
    (HC, MH): "A",
    (HC, IMH_BG): "B",
    (HC, IMH_HALF): "C",
    (HC, ISH, IMH_HALF): "D",
    (HC, CAP): "B~",
    (HC, CAP, ISH, IMH_HALF): "D~",
}

# Every breakpoint of every regime lies in (2, 4]; step 0.004, plus one
# column far out for the large-alpha limit.  A step of BOUNDARY_STEP in
# beta, gamma or eta moves a breakpoint by at least 0.01, so a segment the
# sweep misses at one of the seven points it sees at another.
SWEEP_ALPHAS = np.append(np.linspace(2.0, 4.4, 601)[1:], 1000.0)

# Step in beta, gamma and eta that a label must survive to count as lying
# away from a regime boundary.
BOUNDARY_STEP = 5e-3


def _best_terms(beta, gamma, eta):
    """(rows, alphas) codes of the term that sets the exponent."""
    b, g, e = (np.asarray(v, dtype=float)[:, None] for v in (beta, gamma, eta))
    a = SWEEP_ALPHAS[None, :]
    hc = 2.0 - a / 2.0
    ish = 1.0 + g - a * (1.0 - b) / 2.0
    bg, half = b + g, (1.0 + b) / 2.0
    imh = np.minimum(bg, half)
    raw = np.maximum(ish, imh)
    cap = b + e
    infra = np.minimum(raw, cap)
    infra_kind = np.where(
        cap < raw, CAP,
        np.where(ish > imh, ISH, np.where(bg < half, IMH_BG, IMH_HALF)),
    )
    adhoc_kind = np.where(0.5 >= hc, MH, HC)
    return np.where(infra >= np.maximum(0.5, hc), infra_kind, adhoc_kind)


def pattern_labels(beta, gamma, eta) -> list:
    """Label per row from its best-term sequence; None if it fits no regime."""
    out = []
    for lo in range(0, len(beta), 256):
        kinds = _best_terms(beta[lo:lo + 256], gamma[lo:lo + 256], eta[lo:lo + 256])
        starts = np.ones_like(kinds, dtype=bool)
        starts[:, 1:] = kinds[:, 1:] != kinds[:, :-1]
        out += [LABEL_OF_PATTERN.get(tuple(k[s])) for k, s in zip(kinds, starts)]
    return out


def stable_labels(beta, gamma, eta) -> list:
    """Pattern label per row, or None where a step of BOUNDARY_STEP in
    beta, gamma or eta changes it (a point near a regime boundary)."""
    beta, gamma, eta = (np.asarray(v, dtype=float) for v in (beta, gamma, eta))
    d = BOUNDARY_STEP
    shifts = [(0, 0, 0), (d, 0, 0), (-d, 0, 0), (0, d, 0), (0, -d, 0),
              (0, 0, d), (0, 0, -d)]
    labels = pattern_labels(
        np.concatenate([beta + s[0] for s in shifts]),
        np.concatenate([gamma + s[1] for s in shifts]),
        np.concatenate([eta + s[2] for s in shifts]),
    )
    rows = len(beta)
    out = []
    for i in range(rows):
        mine = {labels[k * rows + i] for k in range(len(shifts))}
        out.append(mine.pop() if len(mine) == 1 else None)
    return out


# -- minimum backhaul exponent ----------------------------------------------

_ETA_ALPHAS = np.append(np.linspace(2.0, 8.0, 601)[1:], 1000.0)


def eta_star_errors(beta, gamma, eta_star, stable) -> list[str]:
    """eta* keeps e(inf) on an alpha grid, and eta* - 0.05 loses somewhere.

    Minimality is only asked of rows whose regime is ``stable``: on a
    boundary an infrastructure exponent can tie the ad hoc one, and then
    no backhaul is needed at all.
    """
    b, g, es = (np.asarray(v, dtype=float)[:, None] for v in (beta, gamma, eta_star))
    a = _ETA_ALPHAS[None, :]
    e_inf = achievable(a, b, g, INF)
    errors = []
    short = np.abs(achievable(a, b, g, es) - e_inf).max(axis=1) > 1e-9
    for i in np.nonzero(short)[0]:
        errors.append(f"eta*={eta_star[i]!r} at beta={beta[i]!r} gamma={gamma[i]!r} "
                      "loses exponent")
    loses = (achievable(a, b, g, es - 0.05) < e_inf - 1e-9).any(axis=1)
    for i in range(len(loses)):
        if stable[i] and math.isfinite(eta_star[i]) and not loses[i]:
            errors.append(f"eta*={eta_star[i]!r} at beta={beta[i]!r} "
                          f"gamma={gamma[i]!r} is not minimal")
    return errors


# -- CSV helpers --------------------------------------------------------------


def parse_csv(text: str):
    """(header dict, column names, rows as lists of str, trailer lines)."""
    header, trailers, columns, rows = {}, [], None, []
    for line in text.splitlines():
        if line.startswith("# "):
            if columns is None:
                key, _, value = line[2:].partition("=")
                header[key] = value
            else:
                trailers.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns or [], rows, trailers


def simplex_size(beta_grid, gamma_grid) -> int:
    b = np.linspace(*beta_grid[:2], int(beta_grid[2]))[:, None]
    g = np.linspace(*gamma_grid[:2], int(gamma_grid[2]))[None, :]
    return int(((b >= 0) & (b < 1) & (g >= 0) & (g < 1) & (b + g <= 1)).sum())


def _sample(n_rows: int, rng: np.random.Generator, k: int) -> np.ndarray:
    return np.sort(rng.choice(n_rows, size=min(k, n_rows), replace=False))


# Rows per op that get the alpha-sweep checks; the closed-form checks run on
# every row.
SWEEP_ROWS = 100


def check_regime_map(text: str, grids, eta: float, alphas, rng) -> list[str]:
    header, columns, rows, _ = parse_csv(text)
    errors = []
    if len(rows) != simplex_size(*grids):
        errors.append(f"regime-map has {len(rows)} rows, expected "
                      f"{simplex_size(*grids)}")
    want = ["beta", "gamma", "label3d"] + [f"e_alpha_{a!r}" for a in alphas]
    if columns != want or float(header.get("eta", "nan")) != eta:
        return errors + [f"regime-map columns {columns} / eta {header.get('eta')}"]
    beta = np.array([float(r[0]) for r in rows])
    gamma = np.array([float(r[1]) for r in rows])
    labels = [r[2] for r in rows]
    es = np.array([[float(v) for v in r[3:]] for r in rows])
    expect = achievable(np.asarray(alphas)[None, :], beta[:, None], gamma[:, None], eta)
    bad = np.nonzero(np.abs(es - expect).max(axis=1) > 1e-9)[0]
    errors += [f"exponents {es[i].tolist()} at beta={beta[i]!r} gamma={gamma[i]!r} "
               f"eta={eta!r}, expected {expect[i].tolist()}" for i in bad[:5]]
    pick = _sample(len(rows), rng, SWEEP_ROWS)
    mine = stable_labels(beta[pick], gamma[pick], np.full(len(pick), eta))
    for i, lab in zip(pick, mine):
        if lab is not None and lab != labels[i]:
            errors.append(f"label {labels[i]} at beta={beta[i]!r} gamma={gamma[i]!r} "
                          f"eta={eta!r}; alpha sweep gives {lab}")
    return errors


def check_min_backhaul(text: str, grids, rng) -> list[str]:
    _, columns, rows, _ = parse_csv(text)
    errors = []
    if len(rows) != simplex_size(*grids):
        errors.append(f"min-backhaul has {len(rows)} rows, expected "
                      f"{simplex_size(*grids)}")
    if columns != ["beta", "gamma", "regime", "eta_star", "negligible"]:
        return errors + [f"min-backhaul columns {columns}"]
    eta_star = np.array([float(r[3]) for r in rows])
    negligible = np.array([r[4] == "true" for r in rows])
    if np.any(negligible != ~(eta_star > 0.0)):
        errors.append("negligible flag disagrees with eta* <= 0")
    pick = _sample(len(rows), rng, SWEEP_ROWS)
    beta = np.array([float(rows[i][0]) for i in pick])
    gamma = np.array([float(rows[i][1]) for i in pick])
    mine = stable_labels(beta, gamma, np.full(len(pick), INF))
    for k, i in enumerate(pick):
        if mine[k] is not None and mine[k] != rows[i][2]:
            errors.append(f"regime {rows[i][2]} at beta={beta[k]!r} "
                          f"gamma={gamma[k]!r}; alpha sweep gives {mine[k]}")
    errors += eta_star_errors(beta, gamma, eta_star[pick],
                              [lab is not None for lab in mine])
    return errors


def _scheme_exponent(scheme, alpha, beta, gamma, eta):
    cap = beta + eta
    return {
        "MH": 0.5,
        "HC": 2.0 - alpha / 2.0,
        "ISH": min(1.0 + gamma - alpha * (1.0 - beta) / 2.0, cap),
        "IMH": min(beta + gamma, (1.0 + beta) / 2.0, cap),
    }.get(scheme, math.nan)


def check_exponents(texts, queries, labels) -> list[str]:
    """``exponent --json`` blobs against the law, at stable-label points."""
    errors = []
    pts = np.array(queries, dtype=float)
    blobs = []
    for text, q in zip(texts, queries):
        blob = json.loads(text)
        p = blob["point"]
        if [p["alpha"], p["beta"], p["gamma"], p["eta"]] != list(q):
            errors.append(f"point {p} is not the query {q}")
        blobs.append(blob)
    if errors:
        return errors
    a, b, g, e = pts.T
    exp = np.array([blob["exponent"] for blob in blobs])
    ach, ub = achievable(a, b, g, e), upper_bound(a, b, g, e)
    for i in np.nonzero((np.abs(exp - ach) > 1e-12) | (ach != ub))[0]:
        errors.append(f"exponent {exp[i]!r} at {queries[i]}: law {ach[i]!r}, "
                      f"bound {ub[i]!r}")
    for blob, q, lab in zip(blobs, queries, labels):
        if blob["label3d"] != lab:
            errors.append(f"label3d {blob['label3d']} at {q}; alpha sweep gives {lab}")
        own = _scheme_exponent(blob["best_scheme"], *q)
        if not abs(own - blob["exponent"]) <= 1e-12:
            errors.append(f"best scheme {blob['best_scheme']} at {q} reaches {own!r}, "
                          f"not {blob['exponent']!r}")
    eta_star = np.array([blob["min_backhaul_exponent"] for blob in blobs])
    stable = [lab is not None for lab in stable_labels(b, g, np.full(len(b), INF))]
    errors += eta_star_errors(b, g, eta_star, stable)
    return errors


# -- simulate -----------------------------------------------------------------

SIM_COLUMNS = ["scheme", "n", "m", "l", "R_BS", "alpha", "seed",
               "aggregate", "access", "backhaul", "exit"]


def check_simulate(text: str, sizes, schemes) -> list[str]:
    """Rates finite and >= 0, dominated by MIN_CUT and by m * R_BS, slopes."""
    _, columns, rows, trailers = parse_csv(text)
    if columns != SIM_COLUMNS:
        return [f"simulate columns {columns}"]
    if len(rows) != len(sizes) * (len(schemes) + 1):
        return [f"simulate has {len(rows)} rows for {len(sizes)} sizes"]
    errors = []
    cut, agg = {}, {s: {} for s in schemes}
    for r in rows:
        vals = [float(v) for v in r[7:] if v != ""]
        if not all(math.isfinite(v) and v >= 0.0 for v in vals):
            errors.append(f"rate not finite and >= 0 in row {r}")
        n, m, r_bs = int(r[1]), int(r[2]), float(r[4])
        if r[0] == "MIN_CUT":
            cut[n] = vals[0]
        elif r[0] in agg:
            agg[r[0]][n] = vals[0]
            if r[0] in ("IMH", "ISH") and max(vals[0], vals[2]) > m * r_bs * (1 + 1e-12):
                errors.append(f"{r[0]} aggregate/backhaul exceed m*R_BS in row {r}")
        else:
            errors.append(f"unexpected scheme in row {r}")
    for s in schemes:
        for n, value in agg[s].items():
            if not value <= cut[n] * (1 + 1e-12):
                errors.append(f"{s} aggregate {value!r} exceeds MIN_CUT {cut[n]!r} at n={n}")
    slopes = {}
    for line in trailers:
        name, _, rest = line[2:].partition("=")
        slopes[name.removeprefix("slope_")] = float(rest.split()[0])
    for s in schemes:
        x = np.log(np.array(sorted(agg[s]), dtype=float))
        y = np.log(np.array([agg[s][n] for n in sorted(agg[s])]))
        own = float(((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum())
        if s not in slopes or not abs(slopes[s] - own) <= 1e-9:
            errors.append(f"slope_{s}={slopes.get(s)!r}, least squares gives {own!r}")
    return errors


def min_cut_rows(text: str):
    """(n, m, l, R_BS, alpha, seed, MIN_CUT) of each instance in the output."""
    _, _, rows, _ = parse_csv(text)
    return [(int(r[1]), int(r[2]), int(r[3]), float(r[4]), float(r[5]), int(r[6]),
             float(r[7])) for r in rows if r[0] == "MIN_CUT"]


def _miso_sum(dest, src, amp, alpha) -> float:
    """Sum over destinations of log2(1 + (sum_i amp_i r_i^(-alpha/2))^2)."""
    total = 0.0
    for lo in range(0, len(dest), 256):
        d = dest[lo:lo + 256]
        r = np.hypot(d[:, None, 0] - src[None, :, 0], d[:, None, 1] - src[None, :, 1])
        s = (amp[None, :] * r ** (-alpha / 2.0)).sum(axis=1)
        total += float(np.log2(1.0 + s * s).sum())
    return total


def plain_min_cut(topo, alpha: float, power: float, r_bs: float) -> float:
    """min(L1, L2) from the positions: the midline cuts of the paper."""
    pos = topo.node_positions
    ants = topo.antenna_positions                      # (m, l, 2)
    m, l = ants.shape[:2]
    mid = math.sqrt(len(pos)) / 2.0
    left = pos[:, 0] < mid
    left_bs = topo.bs_centers[:, 0] < mid
    node_amp = math.sqrt(power)
    ant_amp = math.sqrt(len(pos) * power / m / l)

    src = pos[left]
    dest = np.vstack([pos[~left], ants.reshape(-1, 2), topo.rcp_position[None, :]])
    l1 = _miso_sum(dest, src, np.full(len(src), node_amp), alpha)

    src = np.vstack([pos[left], ants[left_bs].reshape(-1, 2)])
    amp = np.concatenate([np.full(int(left.sum()), node_amp),
                          np.full(int(left_bs.sum()) * l, ant_amp)])
    dest = np.vstack([pos[~left], ants[~left_bs].reshape(-1, 2)])
    wired = int(left_bs.sum()) * r_bs if left_bs.any() else 0.0
    l2 = _miso_sum(dest, src, amp, alpha) + wired
    return min(l1, l2)
