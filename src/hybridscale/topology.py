"""Random network instances: node placement, BS grids, antennas, pairing.

The network is a square of area n (side sqrt(n), unit node density) divided
into m equal square cells, one multi-antenna BS per cell.  Each BS occupies a
small square footprint around its cell center; nodes are placed uniformly on
the square minus every footprint.  Antennas sit on the footprint boundary at
equal spacing (up to ceil(sqrt(n/m)) of them), with any surplus placed
uniformly inside the footprint.  A remote central processor sits at the
network center.

Antenna ordering convention: for every BS, ``antenna_positions[bs]`` lists
the boundary antennas first (counterclockwise from the bottom-left footprint
corner) followed by the interior antennas.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


class InfeasibleGeometryError(ValueError):
    """The requested BS layout cannot fit the network square."""


def grid_cell(points: np.ndarray, cell_side: float, g: int) -> np.ndarray:
    """(i, j) cell of each point on a g x g grid of squares of side ``cell_side``."""
    return np.clip((points / cell_side).astype(np.int64), 0, g - 1)


# ---------------------------------------------------------------------------
# Configuration and instance types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopologyConfig:
    """Parameters of one random network instance.

    n: number of nodes; m: number of BSs (a perfect square, arranged in a
    sqrt(m) x sqrt(m) grid); l: antennas per BS; seed: RNG seed driving
    placement and pairing; delta0: concentration slack used by the per-cell
    node-count checks.
    """

    n: int
    m: int = 1
    l: int = 1
    seed: int = 0
    delta0: float = 0.5

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InfeasibleGeometryError(f"need at least 2 nodes, got n={self.n}")
        if self.m < 1 or math.isqrt(self.m) ** 2 != self.m:
            raise InfeasibleGeometryError(f"m={self.m} is not a perfect square")
        if self.m >= self.n:
            raise InfeasibleGeometryError(f"m={self.m} must be smaller than n={self.n}")
        if self.l < 1:
            raise InfeasibleGeometryError(f"l={self.l} must be positive")
        if self.m * self.l > self.n:
            raise InfeasibleGeometryError(
                f"m*l = {self.m * self.l} antennas exceed n = {self.n} nodes"
            )
        if not 0.0 < self.delta0 < 1.0:
            raise InfeasibleGeometryError("delta0 must lie in (0, 1)")

    @property
    def side(self) -> float:
        """Side length of the network square (area n)."""
        return math.sqrt(self.n)

    @property
    def cell_side(self) -> float:
        return math.sqrt(self.n / self.m)

    @property
    def boundary_count(self) -> int:
        """Antennas on the footprint boundary: min(l, ceil(sqrt(n/m)))."""
        return min(self.l, math.ceil(self.cell_side))


@dataclass(frozen=True)
class Topology:
    """One generated network instance (all arrays are float64 / int64)."""

    config: TopologyConfig
    node_positions: np.ndarray      # (n, 2)
    bs_centers: np.ndarray          # (m, 2)
    antenna_positions: np.ndarray   # (m, l, 2), boundary antennas first
    sd_pairing: np.ndarray          # (n,) destination index per source
    rcp_position: np.ndarray        # (2,)
    footprint_side: float

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def m(self) -> int:
        return self.config.m

    @property
    def l(self) -> int:
        return self.config.l

    @property
    def boundary_antennas(self) -> np.ndarray:
        """View of the on-boundary antennas, shape (m, boundary_count, 2)."""
        return self.antenna_positions[:, : self.config.boundary_count, :]

    def cell_index_of(self, points: np.ndarray) -> np.ndarray:
        """Cell id (row-major on the BS grid) containing each point."""
        points = np.atleast_2d(points)
        g = math.isqrt(self.m)
        ij = grid_cell(points, self.config.cell_side, g)
        return ij[:, 0] + g * ij[:, 1]

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "config": {
                "n": self.config.n,
                "m": self.config.m,
                "l": self.config.l,
                "seed": self.config.seed,
                "delta0": self.config.delta0,
            },
            "node_positions": self.node_positions.tolist(),
            "bs_centers": self.bs_centers.tolist(),
            "antenna_positions": self.antenna_positions.tolist(),
            "sd_pairing": self.sd_pairing.tolist(),
            "rcp_position": self.rcp_position.tolist(),
            "footprint_side": self.footprint_side,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "Topology":
        cfg = TopologyConfig(**d["config"])
        return cls(
            config=cfg,
            node_positions=np.asarray(d["node_positions"], dtype=float).reshape(cfg.n, 2),
            bs_centers=np.asarray(d["bs_centers"], dtype=float).reshape(cfg.m, 2),
            antenna_positions=np.asarray(d["antenna_positions"], dtype=float).reshape(
                cfg.m, cfg.l, 2
            ),
            sd_pairing=np.asarray(d["sd_pairing"], dtype=np.int64),
            rcp_position=np.asarray(d["rcp_position"], dtype=float),
            footprint_side=float(d["footprint_side"]),
        )

    @classmethod
    def from_json(cls, s: str) -> "Topology":
        return cls.from_dict(json.loads(s))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _footprint_side(cfg: TopologyConfig) -> float:
    # Perimeter equals the boundary antenna count (unit spacing), shrunk to
    # half the cell side if it would not fit.
    return min(cfg.boundary_count / 4.0, cfg.cell_side / 2.0)


def _grid_centers(cfg: TopologyConfig) -> np.ndarray:
    g = math.isqrt(cfg.m)
    s = cfg.cell_side
    i = np.arange(g, dtype=float)
    cx, cy = np.meshgrid((i + 0.5) * s, (i + 0.5) * s, indexing="xy")
    return np.column_stack([cx.ravel(), cy.ravel()])


def _boundary_ring(center: np.ndarray, half: float, count: int) -> np.ndarray:
    """``count`` points equally spaced counterclockwise on the square of
    half-side ``half``, starting at the bottom-left corner."""
    edge = 2.0 * half
    t = np.arange(count) * (4.0 * edge / count)
    k = np.minimum((t // edge).astype(int), 3)  # 0=bottom 1=right 2=top 3=left
    u = t - k * edge
    x0, y0 = center[0] - half, center[1] - half
    x1, y1 = center[0] + half, center[1] + half
    const = np.full_like(u, 0.0)
    x = np.choose(k, [x0 + u, const + x1, x1 - u, const + x0])
    y = np.choose(k, [const + y0, y0 + u, const + y1, y1 - u])
    return np.column_stack([x, y])


def _inside_any_footprint(pts: np.ndarray, cfg: TopologyConfig, half: float) -> np.ndarray:
    # Footprints are centered in their cells and no wider than half a cell,
    # so a point can only collide with the footprint of its own cell.
    s = cfg.cell_side
    centers = (grid_cell(pts, s, math.isqrt(cfg.m)) + 0.5) * s
    cheb = np.abs(pts - centers).max(axis=1)
    return cheb < half


def generate_topology(cfg: TopologyConfig) -> Topology:
    """Generate one instance; a pure, deterministic function of ``cfg``.

    Draw order (fixed for reproducibility): node rejection sampling, then
    interior antennas, then the S-D derangement.
    """
    rng = np.random.default_rng(cfg.seed)
    side = cfg.side
    half = _footprint_side(cfg) / 2.0
    centers = _grid_centers(cfg)

    pts = rng.uniform(0.0, side, size=(cfg.n, 2))
    bad = _inside_any_footprint(pts, cfg, half)
    while bad.any():
        pts[bad] = rng.uniform(0.0, side, size=(int(bad.sum()), 2))
        bad = _inside_any_footprint(pts, cfg, half)

    b = cfg.boundary_count
    antennas = np.empty((cfg.m, cfg.l, 2))
    for bs in range(cfg.m):
        antennas[bs, :b] = _boundary_ring(centers[bs], half, b)
    if cfg.l > b:
        antennas[:, b:, :] = centers[:, None, :] + rng.uniform(
            -half, half, size=(cfg.m, cfg.l - b, 2)
        )

    idx = np.arange(cfg.n)
    while True:
        perm = rng.permutation(cfg.n)
        if not np.any(perm == idx):
            break

    return Topology(
        config=cfg,
        node_positions=pts,
        bs_centers=centers,
        antenna_positions=antennas,
        sd_pairing=perm.astype(np.int64),
        rcp_position=np.array([side / 2.0, side / 2.0]),
        footprint_side=2.0 * half,
    )


# ---------------------------------------------------------------------------
# Instance statistics
# ---------------------------------------------------------------------------

def cell_counts(t: Topology) -> np.ndarray:
    """Number of nodes in each of the m cells (sums to n)."""
    return np.bincount(t.cell_index_of(t.node_positions), minlength=t.m)


def min_pairwise_distance(t: Topology) -> float:
    """Smallest node-node or node-boundary-antenna distance (inf if none).

    Nodes and boundary antennas sorted by x are compared with the point s
    places on, for s = 1, 2, ..., skipping antenna-antenna pairs.  The x gap
    of every pair s or more places apart is at least the least x gap at s,
    so the sweep stops once that exceeds the best distance found.  Memory is
    O(n); the distance is ``sqrt(dx*dx + dy*dy)``, as in ``channel``.
    """
    pts = np.vstack([t.node_positions, t.boundary_antennas.reshape(-1, 2)])
    order = np.argsort(pts[:, 0], kind="stable")
    x, y = pts[order, 0], pts[order, 1]
    node = order < len(t.node_positions)
    best = math.inf
    for s in range(1, len(pts)):
        dx = x[s:] - x[:-s]
        if dx.min() >= best:
            break
        dy = y[s:] - y[:-s]
        d = np.sqrt(dx * dx + dy * dy)[node[s:] | node[:-s]]
        if len(d):
            best = min(best, float(d.min()))
    return best


def max_nodes_unit_square(t: Topology) -> int:
    """Largest node count over the unit squares tiling the network."""
    w = math.ceil(t.config.side)
    ij = grid_cell(t.node_positions, 1.0, w)
    flat = ij[:, 0] + w * ij[:, 1]
    return int(np.bincount(flat, minlength=w * w).max())


def concentration_ok(t: Topology) -> bool:
    """Whether every cell count lies within (1 +- delta0) * n/m."""
    mean = t.n / t.m
    lo = (1.0 - t.config.delta0) * mean
    hi = (1.0 + t.config.delta0) * mean
    counts = cell_counts(t)
    return bool(np.all((counts >= lo) & (counts <= hi)))
