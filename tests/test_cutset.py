"""Cut-set bounds: closed forms, partition laws, and dominance."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridscale import cutset
from hybridscale.channel import ChannelRealization, ZeroDistanceError
from hybridscale.cutset import (
    BLOCK, CutBound, bound_l1, bound_l2, cut_bounds, min_cut, _amp_sums,
)
from hybridscale.protocols import SimConfig, best_of_schemes
from hybridscale.scaling import ScalingPoint, map_finite_n
from hybridscale.topology import Topology, TopologyConfig, generate_topology

from oracles import dense_miso_bits, group_masks, per_cut_bounds


def _fixed_topo(nodes, antennas, m=1, l=1):
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 2)
    cfg = TopologyConfig(n=len(nodes), m=m, l=l, seed=0)
    g = math.isqrt(m)
    centers = cfg.cell_side * (np.indices((g, g)).reshape(2, -1).T + 0.5)
    return Topology(
        config=cfg,
        node_positions=nodes,
        bs_centers=centers.astype(float),
        antenna_positions=np.asarray(antennas, dtype=float).reshape(m, l, 2),
        sd_pairing=np.arange(len(nodes)),
        rcp_position=np.array([cfg.side / 2.0] * 2),
        footprint_side=0.0,
    )


def _instance(n, m, l, alpha, seed):
    topo = generate_topology(TopologyConfig(n=n, m=m, l=l, seed=seed))
    return topo, ChannelRealization(topo, alpha=alpha, phase_seed=seed)


def test_zero_power_l1_is_zero():
    topo, ch = _instance(256, 16, 2, 3.0, 0)
    b = bound_l1(topo, ch, SimConfig(p=0.0))
    assert b.total == 0.0
    assert all(v == 0.0 for v in b.wireless_terms.values())


def test_single_source_closed_form():
    """One left node facing one right node, a far antenna, and the RCP."""
    side = 2.0  # n=4 network square
    nodes = [
        [side / 2 - 0.5, 1.7],   # the lone source
        [side / 2 + 0.5, 1.7],   # destination at distance exactly 1
        [1.9, 0.1],              # padding so the config is valid, right half
        [1.8, 0.3],
    ]
    topo = _fixed_topo(nodes, antennas=[[1.9, 1.9]])
    ch = ChannelRealization(topo, alpha=4.0)
    b = bound_l1(topo, ch, SimConfig(p=3.0))
    src = np.array(nodes[0])
    expect = 0.0
    for dest in (nodes[1], nodes[2], nodes[3], [1.9, 1.9], [1.0, 1.0]):
        r = float(np.linalg.norm(src - np.array(dest)))
        expect += math.log2(1.0 + 3.0 * r**-4.0)
    assert b.total == pytest.approx(expect, rel=1e-12)
    # the unit-distance pair alone contributes log2(1+P)
    assert math.log2(1.0 + 3.0) == pytest.approx(
        math.log2(1.0 + 3.0 * 1.0**-4.0), rel=1e-15
    )


def test_l1_groups_partition_destinations():
    topo, ch = _instance(1024, 16, 4, 3.0, 1)
    ants = topo.antenna_positions.reshape(-1, 2)
    mid = topo.config.side / 2.0
    right = topo.node_positions[topo.node_positions[:, 0] >= mid]
    dest_pos = np.vstack([right, ants, topo.rcp_position[None, :]])
    dest_owner = np.concatenate(
        [np.full(len(right), -1), np.repeat(np.arange(16), 4), [-1]]
    )
    masks = group_masks(topo, dest_pos, dest_owner)
    stack = np.stack([masks["D1"], masks["D2"], masks["D3"]])
    assert np.all(stack.sum(axis=0) == 1)  # disjoint and exhaustive
    # the RCP sits on the midline, inside the slab
    assert masks["D1"][-1]
    b = bound_l1(topo, ch, SimConfig(p=10.0))
    assert b.total == pytest.approx(sum(b.wireless_terms.values()), rel=1e-12)
    assert b.wired_term == 0.0


def test_l2_wired_only_when_power_is_zero():
    topo, ch = _instance(1024, 16, 4, 3.0, 2)
    b = bound_l2(topo, ch, SimConfig(p=0.0, r_bs=1.0))
    assert b.total == 8.0  # 8 of the 16 BSs sit strictly left of the midline
    assert b.wired_term == 8.0
    assert all(v == 0.0 for v in b.wireless_terms.values())


def test_l2_zero_backhaul_is_wireless_only():
    topo, ch = _instance(1024, 16, 4, 3.0, 3)
    b = bound_l2(topo, ch, SimConfig(p=10.0, r_bs=0.0))
    assert b.wired_term == 0.0
    assert b.total == pytest.approx(sum(b.wireless_terms.values()), rel=1e-12)
    # left-half antennas are sources under L2, never destinations
    assert b.wireless_terms["D2"] == 0.0


def test_l2_wired_slope_is_left_bs_count():
    topo, ch = _instance(1024, 16, 4, 3.0, 4)
    t0, t1, t2 = (bound_l2(topo, ch, SimConfig(p=10.0, r_bs=r)).total
                  for r in (0.0, 1.0, 2.0))
    assert t1 - t0 == 8.0
    assert t2 - t1 == 8.0


def test_l2_defaults_to_config_backhaul():
    topo, ch = _instance(256, 4, 2, 3.0, 5)
    b0 = bound_l2(topo, ch, SimConfig(p=10.0, r_bs=0.0))
    b = bound_l2(topo, ch, SimConfig(p=10.0, r_bs=0.7))
    n_left = int((topo.bs_centers[:, 0] < topo.config.side / 2.0).sum())
    assert b.wireless_terms == b0.wireless_terms
    assert b.wired_term == n_left * 0.7


def test_min_cut_is_the_smaller_total():
    topo, ch = _instance(256, 16, 2, 3.0, 6)
    cfg = SimConfig(p=100.0, r_bs=0.5)
    assert min_cut(topo, ch, cfg) == min(
        bound_l1(topo, ch, cfg).total, bound_l2(topo, ch, cfg).total
    )
    # infinite backhaul pushes L2 out of the way
    unlimited = SimConfig(p=100.0, r_bs=math.inf)
    assert min_cut(topo, ch, unlimited) == bound_l1(topo, ch, unlimited).total


def test_l2_binds_under_scarce_backhaul():
    n = 1024
    r_bs = n**-0.4
    wins = 0
    for s in range(8):
        topo, ch = _instance(n, 16, 4, 3.0, s)
        cfg = SimConfig(p=10.0, r_bs=r_bs)
        wins += bound_l2(topo, ch, cfg).total < bound_l1(topo, ch, cfg).total
    assert wins >= 5


def test_min_cut_dominates_every_scheme():
    for s in range(5):
        topo, ch = _instance(256, 16, 4, 3.0, s)
        cfg = SimConfig(p=100.0, r_bs=1.0)
        _, best = best_of_schemes(topo, ch, cfg)
        assert min_cut(topo, ch, cfg) >= best.aggregate_throughput


def test_cut_bound_validates_and_serializes():
    with pytest.raises(ValueError):
        CutBound("L3", {"D1": 0.0, "D2": 0.0, "D3": 0.0}, 0.0, 0.0)
    with pytest.raises(ValueError):
        CutBound("L1", {"D1": -1.0, "D2": 0.0, "D3": 0.0}, 0.0, -1.0)
    with pytest.raises(ValueError):
        CutBound("L1", {"D1": 1.0, "D2": 0.0, "D3": 0.0}, 0.0, 5.0)
    b = CutBound("L2", {"D1": 1.0, "D2": 0.0, "D3": 2.0}, 4.0, 7.0)
    blob = json.loads(b.to_json())
    assert blob["total"] == 7.0 and blob["cut"] == "L2"


def _oracle_cut(topo, p, r_bs, alpha, cut):
    """Both cuts' terms by a plain per-destination loop over the definitions.

    Sources, destinations, powers and the D1/D2/D3 rings follow the module
    docstring, written out point by point without the module's arrays.
    """
    mid = topo.config.side / 2.0
    nodes = [tuple(map(float, q)) for q in topo.node_positions]
    left_bs = [b for b in range(topo.m) if topo.bs_centers[b][0] < mid]
    right_bs = [b for b in range(topo.m) if b not in left_bs]
    ants = [[tuple(map(float, a)) for a in topo.antenna_positions[b]]
            for b in range(topo.m)]
    amp_node = math.sqrt(p)
    amp_ant = math.sqrt(topo.n * p / topo.m / topo.l)

    sources = [(q, amp_node) for q in nodes if q[0] < mid]
    dests = [(q, None) for q in nodes if q[0] >= mid]
    if cut == "L1":
        dests += [(a, b) for b in range(topo.m) for a in ants[b]]
        dests.append((tuple(map(float, topo.rcp_position)), None))
        wired = 0.0
    else:
        sources += [(a, amp_ant) for b in left_bs for a in ants[b]]
        dests += [(a, b) for b in right_bs for a in ants[b]]
        wired = len(left_bs) * r_bs

    terms = {"D1": 0.0, "D2": 0.0, "D3": 0.0}
    for (dx, dy), owner in dests:
        amp = 0.0
        for (sx, sy), a in sources:
            amp += a * math.hypot(dx - sx, dy - sy) ** (-alpha / 2.0)
        bits = math.log2(1.0 + amp * amp)
        if mid <= dx < mid + 1.0:
            terms["D1"] += bits
            continue
        if owner is not None and owner in left_bs:
            cx, cy = map(float, topo.bs_centers[owner])
            cheb = max(abs(dx - cx), abs(dy - cy))
            if topo.footprint_side / 2.0 - cheb <= 1.0:
                terms["D2"] += bits
                continue
        terms["D3"] += bits
    return terms, wired


# at n=576, m=4, l=36 some interior antennas lie deeper than the D2 ring
@pytest.mark.parametrize("n, m, l", [(256, 16, 4), (256, 1, 1), (576, 4, 36)])
@pytest.mark.parametrize("cut", ["L1", "L2"])
def test_cut_terms_match_a_per_destination_oracle(n, m, l, cut):
    """L1 and L2 (left-BS antennas as sources at sqrt(nP/(ml))) against a loop."""
    topo, ch = _instance(n, m, l, 3.0, 0)
    cfg = SimConfig(p=100.0, r_bs=1.0)
    b = bound_l1(topo, ch, cfg) if cut == "L1" else bound_l2(topo, ch, cfg)
    terms, wired = _oracle_cut(topo, cfg.p, cfg.r_bs, ch.alpha, cut)
    for g in ("D1", "D2", "D3"):
        assert b.wireless_terms[g] == pytest.approx(terms[g], rel=1e-12, abs=0.0)
    assert b.wired_term == wired
    assert b.total == pytest.approx(sum(terms.values()) + wired, rel=1e-12)


def _points(rng, k):
    return rng.uniform(0.0, 64.0, (k, 2))


# 700 sources give blocks of b = 93 rows; BLOCK + 3 sources give one-row blocks
@pytest.mark.parametrize("n_src", [0, 1, 700, BLOCK + 3])
# 0, 1, b-1, b, b+1 and 2b+1 destination rows
@pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_miso_bits_equal_the_dense_oracle(n_src, blocks, extra):
    """The blocked sums over all sources and over the first half of them."""
    n_dest = blocks * max(1, BLOCK // max(n_src, 1)) + extra
    rng = np.random.default_rng([n_src, n_dest])
    dest, src = _points(rng, n_dest), _points(rng, n_src)
    amp = rng.uniform(0.5, 20.0, n_src)
    k = n_src // 2
    full, pre = _amp_sums(dest, src, amp, 3.3, k)
    assert full.shape == pre.shape == (n_dest,)
    assert np.array_equal(np.log2(1.0 + full * full),
                          dense_miso_bits(dest, src, amp, 3.3))
    assert np.array_equal(np.log2(1.0 + pre * pre),
                          dense_miso_bits(dest, src[:k], amp[:k], 3.3))


def test_miso_bits_finds_a_coincident_pair_in_the_last_block():
    rng = np.random.default_rng(7)
    src = _points(rng, 700)
    b = BLOCK // 700
    dest = _points(rng, 2 * b + 1)
    dest[-1] = src[350]  # the last block holds only this row
    with pytest.raises(ZeroDistanceError):
        _amp_sums(dest, src, np.ones(700), 3.0, 350)


def test_cut_bounds_keep_memory_far_below_the_pair_count():
    """Both cuts at the largest infra_sweep size, n=4096, m=64, l=8.

    Each cut has about 5.3 M (destination, source) pairs, so a dense float64
    difference tensor over them alone would take 84 MB.
    """
    topo, ch = _instance(4096, 64, 8, 3.0, 0)
    cfg = SimConfig(p=100.0, r_bs=1.0)
    tracemalloc.start()
    try:
        bound_l1(topo, ch, cfg)
        bound_l2(topo, ch, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _same_as_per_cut(topo, ch, cfg):
    got = [b.to_json() for b in cut_bounds(topo, ch, cfg)]
    assert got == [b.to_json() for b in per_cut_bounds(topo, ch, cfg)]


def _tiny_instance():
    """The n = 4 instance of the strict xfail in test_cli: every node is right
    of the midline, so neither cut has a node source."""
    fm = map_finite_n(4, ScalingPoint(alpha=6.0, beta=0.0, gamma=0.1, eta=-1.0))
    topo = generate_topology(TopologyConfig(n=4, m=fm.m, l=fm.l, seed=10))
    assert not np.any(topo.node_positions[:, 0] < topo.config.side / 2.0)
    return topo, ChannelRealization(topo, alpha=6.0, phase_seed=10), SimConfig(
        p=1.0, r_bs=fm.r_bs)


@pytest.mark.parametrize("alpha", [2.0, 4.0])
@pytest.mark.parametrize("p", [0.0, 10.0])
@pytest.mark.parametrize("r_bs", [0.0, 1.0, math.inf])
@pytest.mark.parametrize("n, m, l", [(256, 1, 1), (256, 16, 1), (300, 9, 3)])
def test_cut_bounds_equal_the_per_cut_oracle(n, m, l, r_bs, p, alpha):
    """At m = 1 the one BS sits on the midline, so no BS is left of it."""
    topo, ch = _instance(n, m, l, alpha, 1)
    _same_as_per_cut(topo, ch, SimConfig(p=p, r_bs=r_bs))


def test_cut_bounds_with_every_node_right_of_the_midline():
    _same_as_per_cut(*_tiny_instance())


# 7 pairs: one-row blocks; 1000 pairs: about 6 shared and 7 L1-only rows a
# block at n = 256, m = 16, l = 4, so edges fall inside both row sets
@pytest.mark.parametrize("block", [7, 1000])
@pytest.mark.parametrize("m, l", [(16, 4), (4, 9)])
def test_cut_bounds_do_not_depend_on_the_block_size(monkeypatch, block, m, l):
    topo, ch = _instance(256, m, l, 3.0, 2)
    cfg = SimConfig(p=100.0, r_bs=1.0)
    want = [b.to_json() for b in cut_bounds(topo, ch, cfg)]
    monkeypatch.setattr(cutset, "BLOCK", block)
    assert [b.to_json() for b in cut_bounds(topo, ch, cfg)] == want
    _same_as_per_cut(topo, ch, cfg)


@st.composite
def _small_instances(draw):
    n = draw(st.integers(4, 80))
    m = draw(st.sampled_from([k * k for k in (1, 2, 3) if k * k < n]))
    l = draw(st.integers(1, max(1, min(5, n // m))))
    topo = generate_topology(TopologyConfig(n=n, m=m, l=l, seed=draw(st.integers(0, 999))))
    ch = ChannelRealization(topo, alpha=draw(st.floats(2.0, 5.0)))
    cfg = SimConfig(p=draw(st.sampled_from([0.0, 0.5, 100.0])),
                    r_bs=draw(st.sampled_from([0.0, 1.0, math.inf])))
    return topo, ch, cfg, draw(st.sampled_from([BLOCK, 1, 5, 40]))


@given(_small_instances())
@settings(max_examples=150, deadline=None)
def test_cut_bounds_equal_the_per_cut_oracle_on_small_instances(case):
    topo, ch, cfg, block = case
    saved, cutset.BLOCK = cutset.BLOCK, block
    try:
        _same_as_per_cut(topo, ch, cfg)
    finally:
        cutset.BLOCK = saved


def _coincident_topo(bs, node):
    """n = 16 nodes and 4 BSs of one antenna each (BSs 0 and 1 are left of the
    midline), with the antenna of BS ``bs`` placed on node ``node``."""
    nodes = np.random.default_rng(3).uniform(0.1, 3.9, (16, 2))
    nodes[0, 0], nodes[15, 0] = 0.5, 3.5  # one node on each side at least
    ants = np.array([[1.0, 1.0], [1.0, 3.0], [3.0, 1.0], [3.0, 3.0]])
    ants[bs] = nodes[node]
    return _fixed_topo(nodes, ants, m=4, l=1)


def test_cut_bounds_find_a_coincidence_in_the_last_shared_block(monkeypatch):
    # the last shared row is the antenna of BS 3, the last right BS
    topo = _coincident_topo(3, 0)
    monkeypatch.setattr(cutset, "BLOCK", 1)
    with pytest.raises(ZeroDistanceError):
        cut_bounds(topo, ChannelRealization(topo, alpha=3.0), SimConfig(p=1.0))


def test_cut_bounds_find_a_left_bs_antenna_on_a_left_node():
    # only L1's own rows meet it: the antenna of BS 0 is an L2 source
    topo = _coincident_topo(0, 0)
    ch, cfg = ChannelRealization(topo, alpha=3.0), SimConfig(p=1.0)
    with pytest.raises(ZeroDistanceError):
        cut_bounds(topo, ch, cfg)
    with pytest.raises(ZeroDistanceError):
        per_cut_bounds(topo, ch, cfg)


@pytest.mark.parametrize("n, m, l", [(4096, 64, 8), (16384, 121, 11)])
def test_cut_bounds_memory_does_not_grow_with_n(n, m, l):
    """The infra sweep's point at its largest size and at n = 16384: the
    block buffers and O(n) per-destination arrays stay under 4 MB."""
    topo, ch = _instance(n, m, l, 3.0, 0)
    cfg = SimConfig(p=100.0, r_bs=1.0)
    tracemalloc.start()
    try:
        cut_bounds(topo, ch, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
