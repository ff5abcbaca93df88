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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, _check_distances, _distances
from .protocols import SimConfig
from .topology import Topology

__all__ = ["CutBound", "bound_l1", "bound_l2", "min_cut"]

_GROUPS = ("D1", "D2", "D3")

# (destination, source) pairs per _miso_bits block, 512 KB of float64: it
# beat 2**14, 2**18 and 2**20 pairs and fixed 128-row blocks at n = 4096
# and 16384
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
        return {
            "cut": self.cut,
            "wireless_terms": dict(self.wireless_terms),
            "wired_term": self.wired_term,
            "total": self.total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _miso_bits(
    dest_pos: np.ndarray, src_pos: np.ndarray, src_amp: np.ndarray, alpha: float
) -> np.ndarray:
    """Per-destination log2(1 + (sum_i amp_i * r_i^(-alpha/2))^2).

    Destinations are taken in row blocks of max(1, BLOCK // len(src_pos)),
    so beside the result the working memory is O(BLOCK + len(src_pos))
    floats, however many (destination, source) pairs there are.  Each row
    sums the same sources in the same order as one dense pass would, so the
    result does not depend on the block size.
    """
    amp = np.zeros(len(dest_pos))
    if len(src_pos) == 0:
        return amp
    rows = max(1, BLOCK // len(src_pos))
    for lo in range(0, len(dest_pos), rows):
        r = _check_distances(_distances(dest_pos[lo:lo + rows], src_pos))
        amp[lo:lo + rows] = (src_amp[None, :] * r ** (-alpha / 2.0)).sum(axis=1)
    return np.log2(1.0 + amp * amp)


def _group_masks(
    topo: Topology, dest_pos: np.ndarray, dest_owner: np.ndarray
) -> dict[str, np.ndarray]:
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


def _cut(
    name: str,
    topo: Topology,
    ch: ChannelRealization,
    cfg: SimConfig,
    src_bs: np.ndarray,
    dest_bs: np.ndarray,
    extra_dest: np.ndarray,
    wired: float,
) -> CutBound:
    """Left nodes and the antennas of ``src_bs`` against the right nodes,
    the antennas of ``dest_bs`` and ``extra_dest`` (owned by no BS)."""
    left = topo.node_positions[:, 0] < topo.config.side / 2.0
    ants = topo.antenna_positions
    per_antenna = (topo.n * cfg.p / topo.m) / topo.l
    src_pos = np.vstack([topo.node_positions[left], ants[src_bs].reshape(-1, 2)])
    src_amp = np.concatenate([
        np.full(int(left.sum()), math.sqrt(cfg.p)),
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

    bits = _miso_bits(dest_pos, src_pos, src_amp, ch.alpha)
    masks = _group_masks(topo, dest_pos, dest_owner)
    terms = {g: float(bits[masks[g]].sum()) for g in _GROUPS}
    return CutBound(name, terms, wired, sum(terms.values()) + wired)


def bound_l1(topo: Topology, ch: ChannelRealization, cfg: SimConfig) -> CutBound:
    """Left-half nodes against the rest of the world (wireless only)."""
    return _cut("L1", topo, ch, cfg, np.arange(0), np.arange(topo.m),
                topo.rcp_position[None, :], 0.0)


def bound_l2(topo: Topology, ch: ChannelRealization, cfg: SimConfig) -> CutBound:
    """Entire left half against the right half, plus the wired links."""
    left_bs = topo.bs_centers[:, 0] < topo.config.side / 2.0
    n_left = int(left_bs.sum())
    return _cut("L2", topo, ch, cfg, np.nonzero(left_bs)[0], np.nonzero(~left_bs)[0],
                np.zeros((0, 2)), n_left * cfg.r_bs if n_left else 0.0)


def min_cut(topo: Topology, ch: ChannelRealization, cfg: SimConfig) -> float:
    """Tighter of the two cuts; upper-bounds every scheme's aggregate."""
    return min(bound_l1(topo, ch, cfg).total, bound_l2(topo, ch, cfg).total)
