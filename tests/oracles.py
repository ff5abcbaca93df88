"""Independent oracles shared by the test modules.

The regime oracle classifies an operating point purely from the pattern of
best schemes along a dense alpha sweep, without looking at any of the
closed-form region inequalities the classifier under test uses.

The dense distance and MISO references are the one-shot forms that the
blocked and tensor-free kernels in ``channel`` and ``cutset`` must equal
bit for bit, and the per-cut builder over them, which puts each destination
in its D1/D2/D3 group from its position and owning BS alone
(``group_masks``), is what the one-pass ``cutset.cut_bounds`` must equal
byte for byte; the exp gain form and the per-cell MMSE-SIC loop are the
ones that ``channel.path_gains`` and the stacked ``protocols._sic_rates``
must equal bit for bit, and the one-pair gain matrix and 2-D
log-determinant are what the blocked ``channel.node_gain_blocks`` and the
stacked ``protocols.hc_long_range_rates`` must equal bit for bit.  The
log-det sum capacity is what the rates of one ``_sic_rates`` cell must add
up to.
"""

import math

import numpy as np

from hybridscale.channel import (
    _KIND_NODE,
    ZeroDistanceError,
    _distances,
    _phase,
    path_gains,
)
from hybridscale.cutset import _GROUPS, CutBound
from hybridscale.scaling import SCHEME_CODES, best_scheme_grid

ALPHA_SWEEP = np.linspace(2.001, 12.0, 571)

_LIN_MARGIN = 1e-4
_PARAB_MARGIN = 0.02  # the ISH alpha-window narrows linearly near the parabolas


def _parab_2d(beta):
    return 0.5 * (beta * beta - 3.0 * beta + 2.0)


def _parab_3d(beta, eta):
    return beta * beta + (eta - 2.0) * beta + 1.0


def near_boundary_mask(beta, gamma, eta):
    """True where (beta, gamma) sits too close to a regime boundary curve.

    The sweep oracle cannot resolve labels within a vanishing distance of a
    boundary (the distinguishing alpha window shrinks to zero there), so the
    agreement tests skip those points.
    """
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    near = np.abs(beta + gamma - 0.5) < _LIN_MARGIN
    near |= np.abs(beta + 2.0 * gamma - 1.0) < _LIN_MARGIN
    near |= np.abs(gamma - _parab_2d(beta)) < _PARAB_MARGIN
    if np.isfinite(eta):
        near |= np.abs(gamma - eta) < _LIN_MARGIN
        near |= np.abs(beta - (1.0 - 2.0 * eta)) < _LIN_MARGIN
        near |= np.abs(beta - (0.5 - eta)) < _LIN_MARGIN
        near |= np.abs(gamma - _parab_3d(beta, eta)) < _PARAB_MARGIN
    return near


def sweep_labels(beta, gamma, eta, alphas=ALPHA_SWEEP):
    """Regime labels inferred from the best-scheme pattern over ``alphas``.

    beta/gamma are broadcastable arrays; eta is a scalar (may be +-inf).
    Returns an array of labels from {A, B, C, D, B~, D~}.

    Decision rules, reading only the sweep pattern:
      * any MH win                        -> A
      * any ISH win below the cap, or an ISH win pinned at the cap while the
        large-alpha plateau sits strictly below the cap
                                          -> D family; D~ if a cap-pinned ISH
                                             win occurred, else D
      * otherwise match the large-alpha plateau against beta+gamma,
        (1+beta)/2 and beta+eta           -> B / C / B~
    A cap-pinned ISH attribution alone does not indicate the D family: that
    also happens inside B~ (where the plateau equals the cap); the raw ISH
    window of D~ can in turn be narrower than the sweep spacing near the
    beta = 1-2*eta edge, which is why the pinned+low-plateau clause exists.
    """
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    shape = np.broadcast(beta, gamma).shape
    seen_mh = np.zeros(shape, dtype=bool)
    ish_free = np.zeros(shape, dtype=bool)
    ish_capped = np.zeros(shape, dtype=bool)
    cap = beta + eta
    for a in alphas:
        e, scheme = best_scheme_grid(a, beta, gamma, eta)
        seen_mh |= scheme == SCHEME_CODES["MH"]
        is_ish = scheme == SCHEME_CODES["ISH"]
        ish_free |= is_ish & (e < cap - 1e-9)
        ish_capped |= is_ish & (e >= cap - 1e-9)
    # plateau value for alpha past every breakpoint
    e_end, _ = best_scheme_grid(alphas[-1], beta, gamma, eta)

    labels = np.full(shape, "?", dtype="<U2")
    labels[seen_mh] = "A"
    d_like = ~seen_mh & (ish_free | (ish_capped & (e_end < cap - 1e-9)))
    labels[d_like & ish_capped] = "D~"
    labels[d_like & ~ish_capped] = "D"
    rest = ~seen_mh & ~d_like
    is_b = rest & (np.abs(e_end - (beta + gamma)) < 1e-9)
    is_c = rest & ~is_b & (np.abs(e_end - (1.0 + beta) / 2.0) < 1e-9)
    is_bt = rest & ~is_b & ~is_c & (np.abs(e_end - cap) < 1e-9)
    labels[is_b] = "B"
    labels[is_c] = "C"
    labels[is_bt] = "B~"
    assert not np.any(labels == "?"), "sweep produced an unclassifiable pattern"
    return labels


def dense_distances(rows, cols):
    """(len(rows), len(cols)) distances through the full difference tensor."""
    return np.linalg.norm(rows[:, None, :] - cols[None, :, :], axis=-1)


def dense_miso_bits(dest_pos, src_pos, src_amp, alpha):
    """Per-destination log2(1 + (sum_i amp_i * r_i^(-alpha/2))^2), one pass."""
    if len(dest_pos) == 0 or len(src_pos) == 0:
        return np.zeros(len(dest_pos))
    r = dense_distances(dest_pos, src_pos)
    if np.any(r == 0.0):
        raise ZeroDistanceError("coincident endpoints give an infinite gain")
    amp = (src_amp[None, :] * r ** (-alpha / 2.0)).sum(axis=1)
    return np.log2(1.0 + amp * amp)


def group_masks(topo, dest_pos, dest_owner):
    """Partition destinations into D1/D2/D3 (priority order, disjoint).

    dest_owner holds the owning BS index for antenna entries and -1 for
    nodes and the central processor.
    """
    mid = topo.config.side / 2.0
    x = dest_pos[:, 0]
    d1 = (x >= mid) & (x < mid + 1.0)

    is_antenna = dest_owner >= 0
    ring = np.zeros(len(dest_pos), dtype=bool)
    if is_antenna.any():
        owners = dest_owner[is_antenna]
        centers = topo.bs_centers[owners]
        left_bs = centers[:, 0] < mid
        cheb = np.abs(dest_pos[is_antenna] - centers).max(axis=1)
        inside = topo.footprint_side / 2.0 - cheb
        ring[is_antenna] = left_bs & (inside <= 1.0)
    d2 = ring & ~d1
    d3 = ~(d1 | d2)
    return {"D1": d1, "D2": d2, "D3": d3}


def _per_cut(name, topo, alpha, p, src_bs, dest_bs, extra_dest, wired):
    """Left nodes and the antennas of ``src_bs`` against the right nodes,
    the antennas of ``dest_bs`` and ``extra_dest`` (owned by no BS)."""
    left = topo.node_positions[:, 0] < topo.config.side / 2.0
    ants = topo.antenna_positions
    per_antenna = (topo.n * p / topo.m) / topo.l
    src_pos = np.vstack([topo.node_positions[left], ants[src_bs].reshape(-1, 2)])
    src_amp = np.concatenate([
        np.full(int(left.sum()), math.sqrt(p)),
        np.full(len(src_bs) * topo.l, math.sqrt(per_antenna)),
    ])
    dest_pos = np.vstack(
        [topo.node_positions[~left], ants[dest_bs].reshape(-1, 2), extra_dest]
    )
    dest_owner = np.concatenate([
        np.full(int((~left).sum()), -1),
        np.repeat(dest_bs, topo.l),
        np.full(len(extra_dest), -1),
    ])
    bits = dense_miso_bits(dest_pos, src_pos, src_amp, alpha)
    masks = group_masks(topo, dest_pos, dest_owner)
    terms = {g: float(bits[masks[g]].sum()) for g in _GROUPS}
    return CutBound(name, terms, wired, sum(terms.values()) + wired)


def per_cut_bounds(topo, ch, cfg):
    """(L1, L2), each cut built on its own over the dense MISO reference."""
    left_bs = topo.bs_centers[:, 0] < topo.config.side / 2.0
    n_left = int(left_bs.sum())
    l1 = _per_cut("L1", topo, ch.alpha, cfg.p, np.arange(0), np.arange(topo.m),
                  topo.rcp_position[None, :], 0.0)
    l2 = _per_cut("L2", topo, ch.alpha, cfg.p, np.nonzero(left_bs)[0],
                  np.nonzero(~left_bs)[0], np.zeros((0, 2)),
                  n_left * cfg.r_bs if n_left else 0.0)
    return l1, l2


def exp_gains(r, theta, alpha):
    """Complex gains in the one-line form exp(j*theta) * r^(-alpha/2)."""
    return np.exp(1j * theta) * r ** (-alpha / 2.0)


def per_cell_sic_rates(h_cell, noise_inv, power):
    """MMSE-SIC rates of one (l, k) cell, one rank-1 update per user."""
    kk = h_cell.shape[1]
    minv = noise_inv.copy()
    rates = np.zeros(kk)
    for i in range(kk - 1, -1, -1):
        h = h_cell[:, i]
        mh = minv @ h
        quad = float(np.real(np.conj(h) @ mh))
        rates[i] = math.log2(1.0 + power * quad)
        minv = minv - (power / (1.0 + power * quad)) * np.outer(mh, np.conj(mh))
    return rates


def cell_sum_rate(h_cell, noise, power):
    """log2 det(I + P H H^h N^-1): the MMSE-SIC sum capacity of one cell."""
    l = h_cell.shape[0]
    m = np.eye(l) + power * (h_cell @ h_cell.conj().T) @ np.linalg.inv(noise)
    _, logdet = np.linalg.slogdet(m)
    return float(logdet / math.log(2.0))


def pair_gain_matrix(ch, tx, rx):
    """(len(rx), len(tx)) node-to-node gains of one cluster pair, built alone."""
    pos = ch.topology.node_positions
    r = _distances(pos[rx], pos[tx])
    if np.any(r == 0.0):
        raise ZeroDistanceError("coincident endpoints give an infinite gain")
    theta = _phase(ch.phase_seed, _KIND_NODE, tx[None, :], rx[:, None])
    return path_gains(r, theta, ch.alpha)


def pair_long_range_rate(ch, tx, rx, power):
    """log2 det(I + (power/|A|) H H^h) of one pair, one 2-D matmul and slogdet."""
    h = pair_gain_matrix(ch, tx, rx)
    mat = np.eye(len(rx)) + (power / len(tx)) * (h @ h.conj().T)
    _, logdet = np.linalg.slogdet(mat)
    return float(logdet / math.log(2.0))
