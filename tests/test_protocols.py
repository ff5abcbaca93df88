"""Scheme simulators: closed forms, invariants, and slope windows."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridscale import channel, protocols
from hybridscale.channel import ChannelRealization, ZeroDistanceError
from hybridscale.protocols import (
    RUNNERS,
    EmptyRoutingCellError,
    NonFiniteRateError,
    SimConfig,
    best_of_schemes,
    estimate_hc_single_level,
    fit_scaling_exponent,
    hc_long_range_rates,
    routing_grid_size,
    simulate_imh,
    simulate_ish,
    simulate_mh,
    _sic_rates,
)
from hybridscale.scaling import ScalingPoint, map_finite_n
from hybridscale.topology import Topology, TopologyConfig, generate_topology

from oracles import cell_sum_rate, pair_long_range_rate, per_cell_sic_rates


def _topo(nodes, antennas=None, m=1, l=1, pairing=None):
    """Hand-placed instance; pairing defaults to identity."""
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 2)
    n = len(nodes)
    cfg = TopologyConfig(n=n, m=m, l=l, seed=0)
    ant = (
        np.zeros((m, l, 2))
        if antennas is None
        else np.asarray(antennas, dtype=float).reshape(m, l, 2)
    )
    sd = np.arange(n) if pairing is None else np.asarray(pairing, dtype=np.int64)
    return Topology(
        config=cfg,
        node_positions=nodes,
        bs_centers=cfg.cell_side * (np.indices((int(math.isqrt(m)),) * 2).reshape(2, -1).T + 0.5),
        antenna_positions=ant,
        sd_pairing=sd,
        rcp_position=np.array([cfg.side / 2] * 2),
        footprint_side=0.0,
    )


def _instance(n, beta, gamma, eta, alpha, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fm = map_finite_n(n, ScalingPoint(alpha=alpha, beta=beta, gamma=gamma, eta=eta))
    topo = generate_topology(TopologyConfig(n=n, m=fm.m, l=fm.l, seed=seed))
    ch = ChannelRealization(topo, alpha=alpha, phase_seed=seed)
    return topo, ch, fm


SIZES = (256, 512, 1024, 2048, 4096)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=-2.0),
        dict(p=math.nan),
        dict(p=math.inf),
        dict(p=1.0, tdma_k=0),
        dict(p=1.0, tdma_k=5),       # not a perfect square
        dict(p=1.0, r_bs=-1.0),
        dict(p=1.0, r_bs=math.nan),
        dict(p=1.0, hc_cluster_exponent=0.0),
        dict(p=1.0, hc_cluster_exponent=1.0),
        dict(p=1.0, hc_quant_bits=0),
    ],
)
def test_sim_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_zero_power_means_zero_rates():
    topo, ch, _ = _instance(256, 0.5, 0.25, math.inf, 3.0, 0)
    cfg = SimConfig(p=0.0)
    assert simulate_mh(topo, ch, cfg).aggregate_throughput == 0.0
    assert simulate_imh(topo, ch, cfg).aggregate_throughput == 0.0
    assert simulate_ish(topo, ch, cfg).aggregate_throughput == 0.0
    assert estimate_hc_single_level(topo, ch, cfg).aggregate_throughput == 0.0


def test_sim_result_serializes():
    topo, ch, _ = _instance(256, 0.5, 0.25, math.inf, 5.0, 0)
    res = simulate_imh(topo, ch, SimConfig(p=1e3))
    blob = json.loads(json.dumps(res.to_dict()))
    assert blob["scheme"] == "IMH"
    assert len(blob["per_pair_rates"]) == 256
    assert set(blob["stage_rates"]) == {"access", "backhaul", "exit"}
    assert res.aggregate_throughput == pytest.approx(
        float(res.per_pair_rates.sum()), rel=1e-12
    )


# ---------------------------------------------------------------------------
# MH
# ---------------------------------------------------------------------------

def test_mh_two_nodes_closed_form():
    topo = generate_topology(TopologyConfig(n=2, seed=7))
    ch = ChannelRealization(topo, alpha=3.0, phase_seed=7)
    res = simulate_mh(topo, ch, SimConfig(p=5.0))
    d = float(np.linalg.norm(topo.node_positions[0] - topo.node_positions[1]))
    assert res.aggregate_throughput == pytest.approx(
        math.log2(1.0 + 5.0 * d**-3.0) / 9.0, rel=1e-12
    )
    # both directions share the single cell equally
    assert res.per_pair_rates[0] == res.per_pair_rates[1]


def test_mh_load_doubling_halves_per_pair():
    topo, ch, _ = _instance(256, 0.0, 0.0, math.inf, 3.0, 2)
    cfg = SimConfig(p=100.0)
    base = simulate_mh(topo, ch, cfg)
    pairs = np.column_stack([np.arange(256), topo.sd_pairing])
    doubled = simulate_mh(topo, ch, cfg, pairs=np.vstack([pairs, pairs]))
    assert np.array_equal(doubled.per_pair_rates[:256], base.per_pair_rates / 2.0)
    assert np.array_equal(doubled.per_pair_rates[256:], doubled.per_pair_rates[:256])
    assert doubled.aggregate_throughput == pytest.approx(
        base.aggregate_throughput, rel=1e-9
    )


def test_mh_empty_routing_cell_raises():
    # 64 nodes crammed into one corner leave the other routing cells bare
    rng = np.random.default_rng(0)
    nodes = rng.uniform(0.0, 1.0, size=(64, 2))
    topo = _topo(nodes, pairing=np.roll(np.arange(64), 1))
    assert routing_grid_size(64) == 2
    ch = ChannelRealization(topo, alpha=3.0)
    with pytest.raises(EmptyRoutingCellError):
        simulate_mh(topo, ch, SimConfig(p=1.0))


def test_mh_deterministic_and_phase_free():
    topo, ch, _ = _instance(256, 0.0, 0.0, math.inf, 3.0, 5)
    cfg = SimConfig(p=100.0)
    a = simulate_mh(topo, ch, cfg)
    b = simulate_mh(topo, ch, cfg)
    assert np.array_equal(a.per_pair_rates, b.per_pair_rates)
    # MH uses only path losses, so fading phases are irrelevant
    other = ChannelRealization(topo, alpha=3.0, phase_seed=999)
    c = simulate_mh(topo, other, cfg)
    assert np.array_equal(a.per_pair_rates, c.per_pair_rates)
    topo2, ch2, _ = _instance(256, 0.0, 0.0, math.inf, 3.0, 6)
    d = simulate_mh(topo2, ch2, cfg)
    assert not np.array_equal(a.per_pair_rates, d.per_pair_rates)


def test_mh_tdma_reuse_one_has_no_zero_rate_flow():
    # with every cell in one TDMA phase, the representative of the next cell
    # on a route can be the hop's own receiver; a half-duplex receiver must
    # not count as its own interferer
    topo = generate_topology(TopologyConfig(n=1024, seed=0))
    ch = ChannelRealization(topo, alpha=3.0, phase_seed=0)
    rates = simulate_mh(topo, ch, SimConfig(p=100.0, tdma_k=1)).per_pair_rates
    assert np.all(np.isfinite(rates))
    assert np.count_nonzero(rates == 0.0) == 0


def test_mh_slope_in_window():
    pts = []
    for n in SIZES:
        agg = [
            simulate_mh(*_instance(n, 0.0, 0.0, math.inf, 3.0, s)[:2],
                        SimConfig(p=1e8, tdma_k=289)).aggregate_throughput
            for s in range(4)
        ]
        pts.append((n, float(np.mean(agg))))
    slope, _ = fit_scaling_exponent(pts)
    assert 0.35 <= slope <= 0.65


# ---------------------------------------------------------------------------
# IMH
# ---------------------------------------------------------------------------

def test_imh_single_bs_closed_form():
    """Two nodes, one antenna, one routing cell: shares computable by hand."""
    topo = _topo(
        [[0.6, 0.7], [1.2, 0.7]],
        antennas=[[0.7, 0.7]],
        pairing=[1, 0],
    )
    ch = ChannelRealization(topo, alpha=4.0)
    res = simulate_imh(topo, ch, SimConfig(p=2.0))
    rate = lambda d: math.log2(1.0 + 2.0 * d**-4.0)
    # access load 2 and exit load 2 in the lone cell, parallelism 1
    expected0 = min(rate(0.1), rate(0.5)) / 18.0
    expected1 = min(rate(0.5), rate(0.1)) / 18.0
    assert res.per_pair_rates[0] == pytest.approx(expected0, rel=1e-12)
    assert res.per_pair_rates[1] == pytest.approx(expected1, rel=1e-12)
    assert res.stage_rates.backhaul == pytest.approx(
        res.stage_rates.access, rel=1e-12
    )


def test_imh_zero_backhaul_zeroes_everything():
    topo, ch, _ = _instance(256, 0.5, 0.25, -math.inf, 5.0, 1)
    res = simulate_imh(topo, ch, SimConfig(p=1e3, r_bs=0.0))
    assert res.aggregate_throughput == 0.0
    assert res.stage_rates.backhaul == 0.0
    assert np.all(res.per_pair_rates == 0.0)


def test_imh_infinite_backhaul_is_uncapped_bit_exact():
    topo, ch, _ = _instance(512, 0.5, 0.25, math.inf, 5.0, 3)
    res_inf = simulate_imh(topo, ch, SimConfig(p=1e3, r_bs=math.inf))
    res_big = simulate_imh(topo, ch, SimConfig(p=1e3, r_bs=1e9))
    assert np.array_equal(res_inf.per_pair_rates, res_big.per_pair_rates)
    assert res_inf.stage_rates.backhaul == res_inf.stage_rates.access


def test_imh_monotone_in_backhaul_rate():
    topo, ch, _ = _instance(256, 0.5, 0.25, math.inf, 5.0, 4)
    prev_agg, prev_stage = -1.0, -1.0
    for r_bs in (0.0, 0.01, 0.1, 1.0, 10.0, math.inf):
        res = simulate_imh(topo, ch, SimConfig(p=1e3, r_bs=r_bs))
        assert res.aggregate_throughput >= prev_agg
        assert res.stage_rates.backhaul >= prev_stage
        prev_agg, prev_stage = res.aggregate_throughput, res.stage_rates.backhaul
        if math.isfinite(r_bs):
            assert res.aggregate_throughput <= topo.m * r_bs + 1e-9


def test_imh_backhaul_clips_exactly():
    topo, ch, fm = _instance(256, 0.5, 0.25, 0.0, 5.0, 0)
    res = simulate_imh(topo, ch, SimConfig(p=1e3, r_bs=fm.r_bs))
    # every BS is demand-saturated, so the stage pins to m * R_BS exactly
    assert res.stage_rates.backhaul == topo.m * fm.r_bs
    assert res.aggregate_throughput <= topo.m * fm.r_bs + 1e-9
    assert res.stage_rates.access > res.stage_rates.backhaul


def test_imh_slope_in_window():
    pts = []
    for n in SIZES:
        agg = []
        for s in range(4):
            topo, ch, fm = _instance(n, 0.5, 0.25, math.inf, 5.0, s)
            agg.append(
                simulate_imh(topo, ch, SimConfig(p=1e3, r_bs=fm.r_bs)).aggregate_throughput
            )
        pts.append((n, float(np.mean(agg))))
    slope, _ = fit_scaling_exponent(pts)
    assert 0.6 <= slope <= 0.9


def test_imh_aggregate_below_stage_totals():
    topo, ch, _ = _instance(512, 0.5, 0.25, math.inf, 5.0, 8)
    res = simulate_imh(topo, ch, SimConfig(p=1e3, r_bs=2.0))
    assert res.aggregate_throughput <= res.stage_rates.access + 1e-9
    assert res.aggregate_throughput <= res.stage_rates.exit + 1e-9
    assert res.aggregate_throughput <= res.stage_rates.backhaul + 1e-9


def test_per_cell_parallelism_respects_bs_power_budget():
    # min(l, ceil(sqrt(n/m))) antennas at power P never exceed the nP/m budget
    for n, m, l in [(256, 16, 4), (90, 49, 1), (1024, 25, 40), (4096, 64, 64)]:
        cfg = TopologyConfig(n=n, m=m, l=l, seed=0)
        par = cfg.boundary_count
        assert par * 1.0 <= n / m


# ---------------------------------------------------------------------------
# ISH
# ---------------------------------------------------------------------------

def test_ish_single_user_rate_matches_scalar_formula():
    # node 0 sits at distance 0.5 from its antenna; others are ~1e6 away
    far = [[1e6 + i, 1e6] for i in range(4)]
    topo = _topo(
        [[1.0, 1.0]] + far,
        antennas=[[[1.0, 1.5]], [[2e6, 0.0]], [[0.0, 2e6]], [[2e6, 2e6]]],
        m=4,
        l=1,
    )
    ch = ChannelRealization(topo, alpha=3.0)
    h_own = ch.uplink_matrix(0, np.array([0]))
    h_out = ch.uplink_matrix(0, np.array([1, 2, 3, 4]))
    noise = np.eye(1) + 4.0 * (h_out @ h_out.conj().T)
    rates = _sic_rates(h_own[None], np.linalg.inv(noise), 4.0)[0]
    assert rates[0] == pytest.approx(math.log2(1.0 + 4.0 * 0.5**-3.0), rel=1e-9)


@pytest.mark.parametrize("cells_per_block", [None, 3])
def test_stacked_sic_equals_per_cell_loop_bit_for_bit(cells_per_block, monkeypatch):
    """40 cells of 0 to 11 users (one empty, one single-user), zero-padded to
    the largest, each with its own power and noise; in one block or in
    blocks of 3 cells."""
    rng = np.random.default_rng(4)
    l = 5
    sizes = [0, 1, *rng.integers(0, 12, 38).tolist()]
    # SNRs near 1, where a one-ulp change of the covariance shows in the rates
    powers = 10.0 ** rng.uniform(-1.0, 1.0, len(sizes))
    h = np.zeros((len(sizes), l, max(sizes)), dtype=complex)
    noise_inv = np.empty((len(sizes), l, l), dtype=complex)
    for c, k in enumerate(sizes):
        scale = 10.0 ** rng.uniform(-0.5, 0.0, k)
        h[c, :, :k] = scale * (rng.normal(size=(l, k)) + 1j * rng.normal(size=(l, k)))
        out = rng.normal(size=(l, 9)) + 1j * rng.normal(size=(l, 9))
        noise_inv[c] = np.linalg.inv(np.eye(l) + powers[c] * (out @ out.conj().T))
    if cells_per_block:
        monkeypatch.setattr(protocols, "_SIC_BLOCK", cells_per_block * l * l)
    rates = _sic_rates(h, noise_inv, powers)
    assert rates.shape == (len(sizes), max(sizes))
    for c, k in enumerate(sizes):
        want = per_cell_sic_rates(h[c, :, :k], noise_inv[c], powers[c])
        assert rates[c, :k].tobytes() == want.tobytes()
        alone = _sic_rates(h[c : c + 1, :, :k], noise_inv[c], powers[c])[0]
        assert alone.tobytes() == want.tobytes()
        assert not rates[c, k:].any()


def test_ish_sic_chain_matches_logdet():
    """Sum of successive-decoding rates equals the log-det sum capacity."""
    topo, ch, _ = _instance(256, 0.5, 0.25, math.inf, 3.0, 11)
    home = topo.cell_index_of(topo.node_positions)
    b = int(np.argmax(np.bincount(home)))
    own = np.nonzero(home == b)[0]
    out = np.nonzero(home != b)[0]
    h_own = ch.uplink_matrix(b, own)
    h_out = ch.uplink_matrix(b, out)
    p = 7.0
    noise = np.eye(topo.l) + p * (h_out @ h_out.conj().T)
    rates = _sic_rates(h_own[None], np.linalg.inv(noise), p)[0]
    assert float(rates.sum()) == pytest.approx(
        cell_sum_rate(h_own, noise, p), abs=1e-9
    )
    # two-user, two-antenna special case against the plain identity-noise form
    topo2 = _topo(
        [[0.4, 0.4], [1.0, 0.6]],
        antennas=[[[0.5, 0.9], [0.9, 0.9]]],
        m=1,
        l=2,
        pairing=[1, 0],
    )
    ch2 = ChannelRealization(topo2, alpha=2.0)
    h = ch2.uplink_matrix(0, np.array([0, 1]))
    rates2 = _sic_rates(h[None], np.eye(2, dtype=complex), 3.0)[0]
    direct = math.log2(
        float(np.real(np.linalg.det(np.eye(2) + 3.0 * (h @ h.conj().T))))
    )
    assert float(rates2.sum()) == pytest.approx(direct, abs=1e-9)


def test_ish_monotone_in_backhaul_and_power():
    topo, ch, _ = _instance(256, 0.5, 0.5, math.inf, 2.4, 2)
    prev = -1.0
    for r_bs in (0.0, 0.1, 1.0, math.inf):
        res = simulate_ish(topo, ch, SimConfig(p=10.0, r_bs=r_bs))
        assert res.aggregate_throughput >= prev
        prev = res.aggregate_throughput
        if math.isfinite(r_bs):
            assert res.aggregate_throughput <= topo.m * r_bs + 1e-9
    res_inf = simulate_ish(topo, ch, SimConfig(p=10.0, r_bs=math.inf))
    res_big = simulate_ish(topo, ch, SimConfig(p=10.0, r_bs=1e9))
    assert np.array_equal(res_inf.per_pair_rates, res_big.per_pair_rates)
    weaker = simulate_ish(topo, ch, SimConfig(p=1.0, r_bs=math.inf))
    assert weaker.aggregate_throughput < res_inf.aggregate_throughput


def test_ish_slope_in_window():
    pts = []
    for n in SIZES:
        agg = []
        for s in range(3):
            topo, ch, fm = _instance(n, 0.5, 0.5, math.inf, 2.4, s)
            agg.append(
                simulate_ish(topo, ch, SimConfig(p=10.0, r_bs=fm.r_bs)).aggregate_throughput
            )
        pts.append((n, float(np.mean(agg))))
    slope, _ = fit_scaling_exponent(pts)
    assert 0.75 <= slope <= 1.05


# ---------------------------------------------------------------------------
# HC estimate
# ---------------------------------------------------------------------------

def test_hc_single_cluster_degenerates_to_direct_rate():
    topo = _topo([[0.4, 0.4], [1.0, 0.4]], pairing=[1, 0])
    ch = ChannelRealization(topo, alpha=3.0)
    res = estimate_hc_single_level(
        topo, ch, SimConfig(p=5.0, hc_cluster_exponent=0.1)
    )
    assert res.detail == "single_level_estimate"
    assert res.aggregate_throughput == pytest.approx(
        math.log2(1.0 + 5.0 * 0.6**-3.0), rel=1e-12
    )


def test_hc_long_range_rate_matches_dense_logdet():
    topo, ch, _ = _instance(256, 0.0, 0.0, math.inf, 2.5, 3)
    a_nodes = np.array([0, 1, 2])
    b_nodes = np.array([10, 11])
    got = hc_long_range_rates(ch, [a_nodes, b_nodes], [(0, 1)], 6.0)[0]
    h = ch.node_gain_matrix(a_nodes, b_nodes)
    mat = np.eye(2) + 2.0 * (h @ h.conj().T)
    want = math.log2(float(np.real(np.linalg.det(mat))))
    assert got == pytest.approx(want, abs=1e-9)


# against the channel's blocks of 2^15 gain entries
_SHAPE_CASES = {
    # 40000 entries
    "larger_than_block": [(0, 1)],
    # sorted by shape: two 128 x 128 pairs fill a block exactly, the third
    # makes a block of one pair, and a 128 x 256 pair fills a block alone
    "exact_fill": [(2, 3), (3, 4), (4, 5), (5, 6)],
    "one_pair": [(10, 11)],
    "single_tx_or_rx": [(7, 9), (9, 7), (7, 8)],
    "interleaved_shapes": [(10, 11), (11, 12), (3, 10), (10, 13), (12, 11), (9, 7),
                           (13, 10), (11, 10)],
    "empty": [],
}


@pytest.mark.parametrize("case", sorted(_SHAPE_CASES))
def test_hc_long_range_rates_equal_per_pair_oracle_bit_for_bit(case):
    topo = generate_topology(TopologyConfig(n=1600, seed=2))
    ch = ChannelRealization(topo, alpha=2.7, phase_seed=5)
    sizes = [200, 200, 256, 128, 128, 128, 128, 1, 1, 300, 7, 30, 7, 30]
    groups = np.split(np.random.default_rng(3).permutation(topo.n), np.cumsum(sizes))
    pairs = _SHAPE_CASES[case]
    got = protocols.hc_long_range_rates(ch, groups, pairs, 40.0)
    want = np.array([pair_long_range_rate(ch, groups[a], groups[b], 40.0)
                     for a, b in pairs])
    assert got.shape == (len(pairs),)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _partitions(count):
    """Index lists that split ``count`` cross pairs: strided slices for 2, 3
    and 5 parts, then uneven contiguous cuts with an empty slice among them."""
    for k in (2, 3, 5):
        yield [list(range(part, count, k)) for part in range(k)]
    cuts = [0, 1, count // 3, count // 3, count - 1, count]
    yield [list(range(a, b)) for a, b in zip(cuts, cuts[1:])]


@pytest.mark.parametrize("n, alpha, x", [
    *((n, alpha, 0.5) for n in (512, 1024, 2048) for alpha in (2.5, 3.0, 4.0)),
    (1024, 3.0, 0.7),   # nine clusters of about 114 nodes
])
def test_hc_long_range_rates_of_any_partition_reassemble_bit_for_bit(n, alpha, x):
    """A cross pair's rate does not depend on the pairs it is computed with,
    so HC's slices, put back in key order, give the one-call rates."""
    topo = generate_topology(TopologyConfig(n=n, seed=n % 7))
    ch = ChannelRealization(topo, alpha=alpha, phase_seed=3)
    cfg = SimConfig(p=100.0, hc_cluster_exponent=x)
    members, frame = protocols.hc_frame(topo, cfg, alpha)
    cross = frame.cross()
    whole = hc_long_range_rates(ch, members, cross, cfg.p)
    assert whole.shape == (len(cross),) and len(cross) > 5
    for parts in _partitions(len(cross)):
        assert sorted(i for part in parts for i in part) == list(range(len(cross)))
        got = np.empty(len(cross))
        for part in parts:
            got[part] = hc_long_range_rates(ch, members, [cross[i] for i in part], cfg.p)
        assert np.array_equal(got.view(np.uint64), whole.view(np.uint64))


@pytest.mark.parametrize("n, x", [(1024, 0.5), (256, 0.3)])
def test_hc_rates_do_not_depend_on_the_gain_block_size(n, x, monkeypatch):
    """With 64-entry gain blocks each pair of about 28 x 28 nodes (x = 0.5)
    fills a block alone and the pairs of about 5 x 5 (x = 0.3) share one,
    so the one set of buffers is rewritten block after block; the rates and
    the estimate keep their bits."""
    topo = generate_topology(TopologyConfig(n=n, seed=1))
    ch = ChannelRealization(topo, alpha=2.8, phase_seed=2)
    cfg = SimConfig(p=100.0, hc_cluster_exponent=x)
    members, frame = protocols.hc_frame(topo, cfg, ch.alpha)
    cross = frame.cross()
    whole = hc_long_range_rates(ch, members, cross, cfg.p)
    want = estimate_hc_single_level(topo, ch, cfg).aggregate_throughput
    monkeypatch.setattr(channel, "_GAIN_BLOCK", 64)
    got = hc_long_range_rates(ch, members, cross, cfg.p)
    assert np.array_equal(got.view(np.uint64), whole.view(np.uint64))
    assert estimate_hc_single_level(topo, ch, cfg).aggregate_throughput.hex() == want.hex()


@pytest.mark.parametrize("cores", [1, 3])
def test_cli_hc_row_equals_the_recomposed_estimate_bit_for_bit(cores, capsys, monkeypatch):
    """``simulate``'s HC rows, from one slice per worker, are the aggregate
    of ``estimate_hc_single_level`` on the same instance, bit for bit."""
    from hybridscale import cli

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    assert cli.main(["simulate", "--sizes", "256", "1024", "--seeds", "0", "5",
                     "--alpha", "2.5", "--beta", "0", "--gamma", "0", "--eta=inf",
                     "--schemes", "HC", "--hc-cluster-exponent", "0.6",
                     "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    hc = [(row[1], row[6], row[7]) for row in rows if row[0] == "HC"]
    assert [(n, seed) for n, seed, _ in hc] == [(256, 0), (256, 5), (1024, 0), (1024, 5)]
    for n, seed, aggregate in hc:
        topo, ch, fm = _instance(n, 0.0, 0.0, math.inf, 2.5, seed)
        cfg = SimConfig(p=100.0, r_bs=fm.r_bs, hc_cluster_exponent=0.6)
        assert aggregate.hex() == estimate_hc_single_level(
            topo, ch, cfg).aggregate_throughput.hex()


@pytest.mark.parametrize("k", [1, 2, 3, 13])
@pytest.mark.parametrize("n, alpha", [
    (4, 3.0),     # one cluster: no cross pair, so every slice is empty
    (16, 3.0),    # four clusters: at most 12 cross pairs, fewer than 13 slices
    *((n, alpha) for n in (512, 1024) for alpha in (2.5, 3.0)),
])
def test_hc_result_joins_any_slice_count_into_the_estimate_bit_for_bit(n, alpha, k):
    """``hc_result`` of ``k`` ``hc_slice``s, in part order, is the
    one-slice ``estimate_hc_single_level``, bit for bit."""
    topo = generate_topology(TopologyConfig(n=n, seed=n % 7))
    ch = ChannelRealization(topo, alpha=alpha, phase_seed=3)
    cfg = SimConfig(p=100.0)
    slices = [protocols.hc_slice(topo, ch, cfg, i, k) for i in range(k)]
    cross = slices[0][0].cross()
    assert [len(rates) for _, rates in slices] == [len(cross[i::k]) for i in range(k)]
    assert (len(cross) == 0) == (n == 4) and (len(cross) < 13) == (n <= 16)
    got = protocols.hc_result(n, slices, cfg.hc_quant_bits).aggregate_throughput
    want = estimate_hc_single_level(topo, ch, cfg).aggregate_throughput
    assert got.hex() == want.hex()


def test_hc_estimate_memory_does_not_grow_with_the_pair_count():
    """2,566 cluster pairs of about 64 x 64 gains at n=4096; their gains
    together would take about 160 MB, the blocks stay a few MB."""
    topo = generate_topology(TopologyConfig(n=4096, seed=0))
    ch = ChannelRealization(topo, alpha=3.0, phase_seed=0)
    tracemalloc.start()
    try:
        estimate_hc_single_level(topo, ch, SimConfig(p=100.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_hc_nearest_neighbor_overflow_is_an_error():
    """At P = 1e308, P r^-alpha overflows in every cluster; the estimate used
    to charge those hops no time and report a finite rate."""
    topo = generate_topology(TopologyConfig(n=64, seed=0))
    ch = ChannelRealization(topo, alpha=3.0, phase_seed=0)
    with np.errstate(over="ignore"), pytest.raises(
            NonFiniteRateError, match="HC nearest-neighbor rate is inf"):
        estimate_hc_single_level(topo, ch, SimConfig(p=1e308))


def test_hc_beats_mh_near_alpha_two():
    wins = 0
    for s in range(8):
        topo = generate_topology(TopologyConfig(n=1024, seed=s))
        ch = ChannelRealization(topo, alpha=2.2, phase_seed=s)
        cfg = SimConfig(p=1e4, hc_cluster_exponent=0.5)
        hc = estimate_hc_single_level(topo, ch, cfg).aggregate_throughput
        mh = simulate_mh(topo, ch, cfg).aggregate_throughput
        wins += hc > mh
    assert wins >= 7


# ---------------------------------------------------------------------------
# best_of_schemes / fit_scaling_exponent
# ---------------------------------------------------------------------------

def test_best_of_zero_backhaul_goes_ad_hoc():
    topo, ch, _ = _instance(256, 0.5, 0.25, -math.inf, 3.0, 0)
    name, res = best_of_schemes(topo, ch, SimConfig(p=100.0, r_bs=0.0))
    assert name in {"MH", "HC"}
    assert res.aggregate_throughput > 0.0


def test_best_of_no_infrastructure_goes_ad_hoc():
    # a lone single-antenna BS caps ISH/IMH at one spatial degree of freedom
    for s in range(2):
        topo, ch, _ = _instance(256, 0.0, 0.0, math.inf, 3.0, s)
        name, _ = best_of_schemes(topo, ch, SimConfig(p=1e4))
        assert name in {"MH", "HC"}


def test_best_of_regime_b_point_picks_imh():
    # dense infrastructure with unlimited backhaul: IMH should dominate in
    # the large majority of draws (we ask for 8 of 10)
    wins = 0
    for s in range(10):
        topo, ch, fm = _instance(4096, 0.5, 0.25, math.inf, 5.0, s)
        name, _ = best_of_schemes(topo, ch, SimConfig(p=1e6, r_bs=fm.r_bs))
        wins += name == "IMH"
    assert wins >= 8


def test_fit_exact_power_laws():
    ns = [100, 200, 400, 800]
    slope, stderr = fit_scaling_exponent([(n, n**0.5) for n in ns])
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)
    slope, _ = fit_scaling_exponent([(n, 3.7 * n**0.82) for n in ns])
    assert slope == pytest.approx(0.82, abs=1e-12)


def test_fit_matches_scipy_linregress_exactly():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(7)
    cases = [
        [(256, 0.62), (512, 0.83), (1024, 0.97)],
        [(n, 3.7 * n**0.82) for n in (100, 200, 400, 800)],
        [(n, 5.0 * n**-1.5) for n in (1024, 2048, 4096)],
    ]
    for size in (3, 5, 40):
        ns = np.sort(rng.uniform(64.0, 1e5, size))
        cases.append(list(zip(ns, ns**0.5 * np.exp(rng.normal(0.0, 0.3, size)))))
    for pts in cases:
        fit = stats.linregress(np.log([n for n, _ in pts]), np.log([t for _, t in pts]))
        assert fit_scaling_exponent(pts) == (float(fit.slope), float(fit.stderr))


def test_fit_needs_three_distinct_sizes():
    with pytest.raises(ValueError):
        fit_scaling_exponent([(100, 1.0), (100, 2.0), (200, 3.0)])


def test_fit_coverage_on_synthetic_noise():
    """~95% of noisy fits should land within two standard errors of truth."""
    rng = np.random.default_rng(2024)
    ns = np.logspace(2, 4, 500)
    hits = 0
    for _ in range(1000):
        y = ns**0.7 * np.exp(rng.normal(0.0, 0.1, size=ns.size))
        slope, stderr = fit_scaling_exponent(list(zip(ns, y)))
        hits += abs(slope - 0.7) <= 2.0 * stderr
    assert hits >= 950


def test_best_of_schemes_breaks_exact_ties_by_priority():
    # at zero power every scheme delivers nothing; the tie goes to IMH, the
    # highest SCHEME_CODES priority, as in the exponent oracle
    topo = generate_topology(TopologyConfig(n=256, m=16, l=2, seed=0))
    ch = ChannelRealization(topo, alpha=3.0, phase_seed=0)
    cfg = SimConfig(p=0.0)
    assert [run(topo, ch, cfg).aggregate_throughput for run in RUNNERS.values()] == [0.0] * 4
    assert best_of_schemes(topo, ch, cfg)[0] == "IMH"


# ---------------------------------------------------------------------------
# Every runner on random small instances
# ---------------------------------------------------------------------------

@st.composite
def _small_instances(draw):
    n = draw(st.integers(4, 80))
    m = draw(st.sampled_from([k * k for k in (1, 2, 3) if k * k < n]))
    l = draw(st.integers(1, n // m))
    topo = generate_topology(TopologyConfig(n=n, m=m, l=l, seed=draw(st.integers(0, 999))))
    ch = ChannelRealization(topo, alpha=draw(st.floats(2.05, 5.0)))
    cfg = SimConfig(p=draw(st.sampled_from([0.0, 0.5, 100.0])),
                    r_bs=draw(st.sampled_from([0.0, 1.0, math.inf])))
    return topo, ch, cfg


@given(_small_instances(), st.sampled_from(list(RUNNERS)))
@settings(max_examples=200, deadline=None)
def test_every_runner_gives_finite_rates_that_sum_to_the_aggregate(case, scheme):
    """Any scheme on any small instance gives finite, non-negative per-pair
    rates whose float sum is the aggregate, or one of the two documented
    geometry errors.  No comparison with the cut bound: it bounds only the
    flows that cross the midline, so at the smallest n an aggregate of all
    flows may exceed it."""
    topo, ch, cfg = case
    try:
        res = RUNNERS[scheme](topo, ch, cfg)
    except (EmptyRoutingCellError, ZeroDistanceError):
        return
    rates = res.per_pair_rates
    assert rates.shape == (topo.n,)
    assert np.all(np.isfinite(rates)) and np.all(rates >= 0.0)
    assert res.aggregate_throughput == float(rates.sum())
