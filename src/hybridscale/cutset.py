"""Numeric cut-set upper bounds on finite network instances.

Two vertical cuts at the midline x = sqrt(n)/2 bound the aggregate rate
from above.  Each sends from the left-half nodes to the right-half nodes
and adds the sets below; a BS is left when its center is strictly left of
the midline, and RCP is the central processor:

    cut   extra sources      extra destinations           wired term
    L1    none               every BS antenna, the RCP    0
    L2    left-BS antennas   right-BS antennas            R_BS per left BS

Every wireless term is the single-destination MISO bound

    log2(1 + (sum_i sqrt(P_i) * r_i^(-alpha/2))^2)

summed over destinations, where P_i is P for nodes and nP/m split evenly
across a BS's l antennas.  Phases drop out of the magnitude sum, so the
bound depends on geometry alone.  Destinations fall into diagnostic
groups: D1 is the width-1 slab just right of the midline (the central
processor sits on the midline and lands here), D2 holds antennas of
left-half BSs within the width-1 ring inside their footprint boundary,
and D3 is the remainder.

Both cuts are built in one pass (``cut_bounds``).  The right nodes and
right-BS antennas are destinations of both, so their rows against L2's
sources are computed once: L2 sums each whole row and L1 its left-node
prefix.  Each destination's group is decided once, where its row is laid
out, and each cut sums its bits group by group in its destination order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import ChannelRealization, _check_distances, _distances
from .protocols import SimConfig
from .topology import Topology

__all__ = ["CutBound", "bound_l1", "bound_l2", "cut_bounds", "min_cut"]

_GROUPS = ("D1", "D2", "D3")

# (destination, source) pairs per block, 512 KB of float64 per buffer: it
# beat 2**14, 2**18 and 2**20 pairs and fixed 128-row blocks at n = 4096
# and 16384, and with blocks computed in place it tied 2**15 and 2**17
BLOCK = 2**16


@dataclass(frozen=True)
class CutBound:
    """One evaluated cut: per-group wireless terms plus any wired term."""

    cut: str
    wireless_terms: dict[str, float]
    wired_term: float
    total: float

    def __post_init__(self) -> None:
        if self.cut not in ("L1", "L2"):
            raise ValueError(f"unknown cut {self.cut!r}")
        if set(self.wireless_terms) != set(_GROUPS):
            raise ValueError("wireless_terms must cover exactly D1, D2, D3")
        if any(v < 0.0 for v in self.wireless_terms.values()) or self.wired_term < 0.0:
            raise ValueError("cut-set terms cannot be negative")
        expect = sum(self.wireless_terms.values()) + self.wired_term
        if not (self.total == expect or abs(self.total - expect) <= 1e-9):
            raise ValueError("total does not match the sum of its terms")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _amp_sums(dest_pos, src_pos, src_amp, alpha, prefix):
    """Per-destination sum_i amp_i * r_i^(-alpha/2) over all sources, and
    over the first ``prefix`` sources.

    Destinations are taken in blocks of BLOCK // len(src_pos) rows (at least
    one, at most all), each computed in place in two flat dx and dy buffers
    of one block.  Beside the results the working memory is O(BLOCK +
    len(src_pos)) floats, however many (destination, source) pairs there
    are.  Each row sums the same sources in the same order as one dense pass
    would, and a prefix view of a row sums like a row of its own, so the
    result depends neither on the block size nor on ``prefix``.
    """
    full, pre = np.zeros(len(dest_pos)), np.zeros(len(dest_pos))
    n_src = len(src_pos)
    if n_src == 0:
        return full, pre
    rows = max(1, min(BLOCK // n_src, len(dest_pos)))
    buffers = np.empty(rows * n_src), np.empty(rows * n_src)
    src = np.asfortranarray(src_pos)  # contiguous x and y columns
    for lo in range(0, len(dest_pos), rows):
        block = dest_pos[lo:lo + rows]
        size = len(block) * n_src
        dx, dy = (b[:size].reshape(len(block), n_src) for b in buffers)
        r = _check_distances(_distances(block, src, out=(dx, dy)))
        r **= -alpha / 2.0
        r *= src_amp
        r.sum(axis=1, out=full[lo:lo + rows])
        r[:, :prefix].sum(axis=1, out=pre[lo:lo + rows])
    return full, pre


def _group(x, mid, ring=False):
    """Index into ``_GROUPS`` of destinations at abscissae ``x``: D1 in the
    slab, else D2 where ``ring``, else D3."""
    return np.where((x >= mid) & (x < mid + 1.0), 0, np.where(ring, 1, 2))


def _evaluate(name, amp, group, wired) -> CutBound:
    """One cut from its destinations' amplitude sums and group indices."""
    bits = np.log2(1.0 + amp * amp)
    terms = {g: float(bits[group == i].sum()) for i, g in enumerate(_GROUPS)}
    return CutBound(name, terms, wired, sum(terms.values()) + wired)


def cut_bounds(
    topo: Topology, ch: ChannelRealization, cfg: SimConfig
) -> tuple[CutBound, CutBound]:
    """(L1, L2), with every (destination, source) pair they share built once.

    The shared rows, the right nodes and then the right-BS antennas, face
    L2's sources, the left nodes and then the left-BS antennas; L2 sums each
    whole row and L1 its left-node prefix.  L1's own rows, the left-BS
    antennas and the RCP, face the left nodes alone.  Each destination's
    group is decided once, from where it lies in this layout: a right node
    or the RCP is D1 or D3, and an antenna is D2 only when its BS is left.
    Each cut's destinations are then put in its order of the module table:
    right nodes, every BS's antennas in BS order and the RCP for L1; right
    nodes and right-BS antennas for L2.
    """
    mid = topo.config.side / 2.0
    nodes, ants, m, l = topo.node_positions, topo.antenna_positions, topo.m, topo.l
    left = nodes[:, 0] < mid
    left_bs = topo.bs_centers[:, 0] < mid
    lbs, rbs = np.nonzero(left_bs)[0], np.nonzero(~left_bs)[0]
    right = nodes[~left]
    n_left, n_right = len(nodes) - len(right), len(right)
    src = np.vstack([nodes[left], ants[lbs].reshape(-1, 2)])
    amp = np.concatenate([
        np.full(n_left, math.sqrt(cfg.p)),
        np.full(len(lbs) * l, math.sqrt((topo.n * cfg.p / m) / l)),
    ])
    shared = np.vstack([right, ants[rbs].reshape(-1, 2)])
    own = np.vstack([ants[lbs].reshape(-1, 2), topo.rcp_position[None, :]])

    l2_amp, l1_shared = _amp_sums(shared, src, amp, ch.alpha, n_left)
    l1_own, _ = _amp_sums(own, src[:n_left], amp[:n_left], ch.alpha, 0)

    # an antenna within 1 of its left BS's footprint edge is in the D2 ring
    cheb = np.abs(ants - topo.bs_centers[:, None, :]).max(axis=2)
    ring = left_bs[:, None] & (topo.footprint_side / 2.0 - cheb <= 1.0)
    ant_group = _group(ants[..., 0], mid, ring)  # (m, l)
    right_group = _group(right[:, 0], mid)
    rcp_group = _group(topo.rcp_position[:1], mid)

    l1_ant = np.empty((m, l))
    l1_ant[rbs] = l1_shared[n_right:].reshape(-1, l)
    l1_ant[lbs] = l1_own[:-1].reshape(-1, l)
    l1_amp = np.concatenate([l1_shared[:n_right], l1_ant.ravel(), l1_own[-1:]])
    l1 = _evaluate("L1", l1_amp,
                   np.concatenate([right_group, ant_group.ravel(), rcp_group]), 0.0)
    l2 = _evaluate("L2", l2_amp, np.concatenate([right_group, ant_group[rbs].ravel()]),
                   len(lbs) * cfg.r_bs if len(lbs) else 0.0)
    return l1, l2


def bound_l1(topo: Topology, ch: ChannelRealization, cfg: SimConfig) -> CutBound:
    """Left-half nodes against the rest of the world (wireless only)."""
    return cut_bounds(topo, ch, cfg)[0]


def bound_l2(topo: Topology, ch: ChannelRealization, cfg: SimConfig) -> CutBound:
    """Entire left half against the right half, plus the wired links."""
    return cut_bounds(topo, ch, cfg)[1]


def min_cut(topo: Topology, ch: ChannelRealization, cfg: SimConfig) -> float:
    """Tighter of the two cuts; upper-bounds every scheme's aggregate."""
    return min(b.total for b in cut_bounds(topo, ch, cfg))
