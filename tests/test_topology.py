"""Tests for network instance generation and its geometric statistics."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from hybridscale.topology import (
    InfeasibleGeometryError,
    Topology,
    TopologyConfig,
    cell_counts,
    concentration_ok,
    generate_topology,
    max_nodes_unit_square,
    min_pairwise_distance,
)


def _manual_topology(nodes, antennas=None, m=1, l=1, n=None):
    """Hand-built instance for tests that need exact coordinates."""
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 2)
    n = n if n is not None else max(len(nodes), 2)
    cfg = TopologyConfig(n=n, m=m, l=l, seed=0)
    if antennas is None:
        ant = np.zeros((0, l, 2))
    else:
        ant = np.asarray(antennas, dtype=float).reshape(m, l, 2)
    return Topology(
        config=cfg,
        node_positions=nodes,
        bs_centers=np.zeros((m, 2)),
        antenna_positions=ant,
        sd_pairing=np.arange(n, dtype=np.int64),
        rcp_position=np.array([0.0, 0.0]),
        footprint_side=0.0,
    )


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=1, m=1, l=1),           # too few nodes
        dict(n=100, m=3, l=1),         # m not a perfect square
        dict(n=100, m=100, l=1),       # m must stay below n
        dict(n=100, m=25, l=5),        # m*l > n
        dict(n=100, m=4, l=0),
        dict(n=100, m=4, l=1, delta0=0.0),  # delta0 interval is open
        dict(n=100, m=4, l=1, delta0=1.5),
    ],
)
def test_config_rejects_bad_parameters(kwargs):
    with pytest.raises(InfeasibleGeometryError):
        TopologyConfig(**kwargs)


# ---------------------------------------------------------------------------
# Generation basics
# ---------------------------------------------------------------------------

def test_smallest_configuration():
    t = generate_topology(TopologyConfig(n=16, m=1, l=1, seed=7))
    assert t.node_positions.shape == (16, 2)
    assert np.allclose(t.bs_centers, [[2.0, 2.0]])
    assert t.antenna_positions.shape == (1, 1, 2)
    # one boundary antenna at the bottom-left corner of the 0.25-side footprint
    assert np.allclose(t.antenna_positions[0, 0], [1.875, 1.875])
    assert t.footprint_side == pytest.approx(0.25)
    assert np.allclose(t.rcp_position, [2.0, 2.0])


def test_generation_is_deterministic():
    cfg = TopologyConfig(n=256, m=4, l=3, seed=42)
    a, b = generate_topology(cfg), generate_topology(cfg)
    assert np.array_equal(a.node_positions, b.node_positions)
    assert np.array_equal(a.antenna_positions, b.antenna_positions)
    assert np.array_equal(a.sd_pairing, b.sd_pairing)
    c = generate_topology(TopologyConfig(n=256, m=4, l=3, seed=43))
    assert not np.array_equal(a.node_positions, c.node_positions)


@pytest.mark.parametrize(
    "n,m,l", [(64, 4, 2), (256, 16, 4), (1024, 16, 12), (500, 9, 5)]
)
def test_nodes_avoid_footprints_and_stay_inside(n, m, l):
    cfg = TopologyConfig(n=n, m=m, l=l, seed=5)
    t = generate_topology(cfg)
    side = cfg.side
    assert np.all(t.node_positions >= 0.0) and np.all(t.node_positions <= side)
    half = t.footprint_side / 2.0
    for bs in range(m):
        cheb = np.abs(t.node_positions - t.bs_centers[bs]).max(axis=1)
        assert np.all(cheb >= half)


def test_sd_pairing_is_a_derangement():
    for seed in range(5):
        t = generate_topology(TopologyConfig(n=100, m=4, l=2, seed=seed))
        p = t.sd_pairing
        assert sorted(p.tolist()) == list(range(100))
        assert np.all(p != np.arange(100))


# ---------------------------------------------------------------------------
# Antenna placement rules
# ---------------------------------------------------------------------------

def test_all_antennas_on_boundary_when_few():
    # l <= ceil(sqrt(n/m)): every antenna is a boundary antenna.
    cfg = TopologyConfig(n=1024, m=16, l=4, seed=3)
    t = generate_topology(cfg)
    assert cfg.boundary_count == 4
    half = t.footprint_side / 2.0
    for bs in range(t.m):
        cheb = np.abs(t.antenna_positions[bs] - t.bs_centers[bs]).max(axis=1)
        assert np.allclose(cheb, half, atol=1e-12)


def test_surplus_antennas_go_inside():
    # ceil(sqrt(1024/16)) = 8 < l = 12: 8 on the ring, 4 strictly inside.
    cfg = TopologyConfig(n=1024, m=16, l=12, seed=3)
    t = generate_topology(cfg)
    assert cfg.boundary_count == 8
    half = t.footprint_side / 2.0
    for bs in range(t.m):
        cheb = np.abs(t.antenna_positions[bs] - t.bs_centers[bs]).max(axis=1)
        assert np.allclose(cheb[:8], half, atol=1e-12)
        assert np.all(cheb[8:] < half)


def test_boundary_antennas_equally_spaced():
    cfg = TopologyConfig(n=1024, m=4, l=8, seed=1)
    t = generate_topology(cfg)
    ring = t.boundary_antennas[0]
    # consecutive arc distances along the square perimeter are equal
    perimeter = 4.0 * t.footprint_side
    spacing = perimeter / cfg.boundary_count
    walked = np.abs(np.diff(ring, axis=0)).sum(axis=1)  # L1 = arc length here
    assert np.allclose(walked, spacing, atol=1e-9)


def test_footprint_fits_cell():
    for n, m, l in [(64, 4, 2), (10000, 100, 30), (256, 64, 2)]:
        cfg = TopologyConfig(n=n, m=m, l=l, seed=0)
        t = generate_topology(cfg)
        assert t.footprint_side <= cfg.cell_side / 2.0 + 1e-12


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def test_cell_counts_conserve_nodes():
    t = generate_topology(TopologyConfig(n=1024, m=16, l=4, seed=1))
    counts = cell_counts(t)
    assert counts.shape == (16,)
    assert counts.sum() == 1024
    t1 = generate_topology(TopologyConfig(n=300, m=1, l=1, seed=1))
    assert cell_counts(t1).tolist() == [300]


def test_cell_count_concentration():
    # All 16 cells within (1 +- 0.5) * 64 in at least 95% of 200 seeds.
    ok = sum(
        concentration_ok(
            generate_topology(TopologyConfig(n=1024, m=16, l=4, seed=s, delta0=0.5))
        )
        for s in range(200)
    )
    assert ok >= 190


def test_min_distance_exact_cases():
    t = _manual_topology([[0.0, 0.0], [3.0, 4.0]])
    assert min_pairwise_distance(t) == pytest.approx(5.0, abs=1e-15)
    # lone node, no antennas -> nothing to measure
    t = _manual_topology([[1.0, 1.0]])
    assert min_pairwise_distance(t) == math.inf
    # node-antenna cross distance picked up when it is the smallest
    t = _manual_topology(
        [[0.0, 0.0], [10.0, 0.0]], antennas=[[0.3, 0.4]], m=1, l=1
    )
    assert min_pairwise_distance(t) == pytest.approx(0.5, abs=1e-15)


def test_min_distance_whp_thresholds():
    # Empirical rates at n=4096 (100 seeds): ~73% clear n^-0.6 and ~98%
    # clear n^-0.75; the asymptotic claim leaves the constant free, so the
    # frozen thresholds sit several sigma below those measurements.
    n = 4096
    d = np.array(
        [
            min_pairwise_distance(
                generate_topology(TopologyConfig(n=n, m=16, l=4, seed=s))
            )
            for s in range(100)
        ]
    )
    assert np.mean(d > n ** -0.6) >= 0.55
    assert np.mean(d > n ** -0.75) >= 0.90


def test_max_nodes_unit_square_exact_cases():
    t = _manual_topology([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]], n=4)
    assert max_nodes_unit_square(t) == 1
    t = _manual_topology([[0.2, 0.2], [0.3, 0.3], [0.4, 0.4], [0.5, 0.5]], n=4)
    assert max_nodes_unit_square(t) == 4


def test_max_nodes_unit_square_log_bound():
    n = 4096
    bound = 3.0 * math.log(n)
    hits = sum(
        max_nodes_unit_square(
            generate_topology(TopologyConfig(n=n, m=16, l=4, seed=s))
        )
        < bound
        for s in range(100)
    )
    assert hits >= 95


def test_node_sampler_uniformity():
    # chi-square over a 4x4 partition must not reject at the 1% level
    t = generate_topology(TopologyConfig(n=4096, m=1, l=1, seed=2))
    side = t.config.side
    ij = np.clip((t.node_positions / (side / 4.0)).astype(int), 0, 3)
    counts = np.bincount(ij[:, 0] + 4 * ij[:, 1], minlength=16)
    _, p = stats.chisquare(counts)
    assert p > 0.01


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_json_round_trip_is_exact():
    t = generate_topology(TopologyConfig(n=128, m=4, l=3, seed=9))
    s = t.to_json()
    u = Topology.from_json(s)
    assert u.config == t.config
    assert np.array_equal(u.node_positions, t.node_positions)
    assert np.array_equal(u.bs_centers, t.bs_centers)
    assert np.array_equal(u.antenna_positions, t.antenna_positions)
    assert np.array_equal(u.sd_pairing, t.sd_pairing)
    assert np.array_equal(u.rcp_position, t.rcp_position)
    assert u.footprint_side == t.footprint_side
    json.loads(s)  # valid JSON document
