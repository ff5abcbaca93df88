"""Tests for the phase-only path-loss channel."""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from hybridscale.channel import (
    _GAIN_BLOCK,
    _KIND_DOWNLINK,
    _KIND_NODE,
    _KIND_UPLINK,
    ChannelRealization,
    ZeroDistanceError,
    _distances,
    _hash,
    path_gains,
)
from hybridscale.topology import Topology, TopologyConfig, generate_topology

from oracles import dense_distances, pair_gain_matrix
from test_topology import _manual_topology


def _channel_with_nodes(nodes, alpha=3.0, seed=0, **kw):
    return ChannelRealization(_manual_topology(nodes, **kw), alpha, seed)


def test_unit_distance_has_unit_magnitude():
    ch = _channel_with_nodes([[0.0, 0.0], [1.0, 0.0]])
    assert abs(abs(ch.node_gain(0, 1)) - 1.0) < 1e-15


def test_distance_four_alpha_four():
    ch = _channel_with_nodes([[0.0, 0.0], [4.0, 0.0]], alpha=4.0)
    assert abs(ch.node_gain(0, 1)) == pytest.approx(1.0 / 16.0, abs=1e-15)


def test_gain_is_reproducible_and_direction_dependent():
    ch = _channel_with_nodes([[0.0, 0.0], [2.0, 1.0]], seed=99)
    assert ch.node_gain(0, 1) == ch.node_gain(0, 1)
    # same magnitude both ways, independent phases
    fwd, bwd = ch.node_gain(0, 1), ch.node_gain(1, 0)
    assert abs(fwd) == pytest.approx(abs(bwd), abs=1e-15)
    assert fwd != bwd
    other = _channel_with_nodes([[0.0, 0.0], [2.0, 1.0]], seed=100)
    assert other.node_gain(0, 1) != ch.node_gain(0, 1)


def test_self_link_rejected():
    ch = _channel_with_nodes([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ZeroDistanceError):
        ch.node_gain(1, 1)


def test_coincident_nodes_rejected():
    ch = _channel_with_nodes([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ZeroDistanceError):
        ch.node_gain(0, 1)


def test_alpha_must_be_positive():
    with pytest.raises(ValueError):
        _channel_with_nodes([[0.0, 0.0], [1.0, 0.0]], alpha=0.0)


def test_gain_matrix_agrees_with_scalar():
    t = generate_topology(TopologyConfig(n=20, m=1, l=1, seed=4))
    ch = ChannelRealization(t, 3.3, phase_seed=5)
    tx = np.array([0, 3, 7])
    rx = np.array([1, 2])
    H = ch.node_gain_matrix(tx, rx)
    for j, i in enumerate(tx):
        for q, k in enumerate(rx):
            assert H[q, j] == ch.node_gain(int(i), int(k))


def test_gain_blocks_equal_per_pair_matrices_bit_for_bit():
    t = generate_topology(TopologyConfig(n=1000, m=1, l=1, seed=6))
    ch = ChannelRealization(t, 2.7, phase_seed=8)
    sizes = [128, _GAIN_BLOCK // 128, 200, 200, 10, 5, 1]
    groups = np.split(np.random.default_rng(1).permutation(t.n), np.cumsum(sizes))
    # the first two pairs fill a block each exactly, the third (40000
    # entries) is larger than a block and the last three share one
    pairs = [(0, 1), (1, 0), (2, 3), (4, 5), (5, 6), (6, 4)]
    spans = []
    for i, j, gains in ch.node_gain_blocks(groups, pairs):  # each lives until the next
        spans.append((i, j))
        o = 0
        for a, b in pairs[i:j]:
            want = pair_gain_matrix(ch, groups[a], groups[b])
            assert _same_bits(gains[o : o + want.size].reshape(want.shape), want)
            o += want.size
        assert o == gains.size
    assert spans == [(0, 1), (1, 2), (2, 3), (3, 6)]
    assert list(ch.node_gain_blocks(groups, [])) == []


def test_gain_blocks_reject_a_coincidence_in_the_last_pair_of_the_last_block():
    nodes = [[i % 20 + 0.5, i // 20 + 0.5] for i in range(404)] + [[0.5, 20.5]]
    ch = _channel_with_nodes(nodes)  # node 404 sits on node 400
    groups = [np.arange(0, 200), np.arange(200, 400), np.array([400, 401]),
              np.array([402, 404])]
    blocks = ch.node_gain_blocks(groups, [(0, 1), (1, 2), (2, 3)])
    assert next(blocks)[:2] == (0, 1)  # 40000 entries, a block alone
    with pytest.raises(ZeroDistanceError):
        next(blocks)  # pairs 1 and 2 share the last block


# ---------------------------------------------------------------------------
# Uplink / downlink vectors
# ---------------------------------------------------------------------------

def test_single_antenna_uplink_magnitude():
    # antenna at distance 2, alpha = 2 -> magnitude r^(-alpha/2) = 1/2
    t = _manual_topology([[2.0, 0.0], [5.0, 5.0]], antennas=[[0.0, 0.0]], m=1, l=1)
    ch = ChannelRealization(t, 2.0, phase_seed=1)
    v = ch.uplink_vector(0, 0)
    assert v.shape == (1,)
    assert abs(v[0]) == pytest.approx(0.5, abs=1e-15)


def test_uplink_norm_matches_distance_sum():
    t = generate_topology(TopologyConfig(n=64, m=4, l=4, seed=8))
    ch = ChannelRealization(t, 3.0, phase_seed=2)
    for bs in range(4):
        for i in (0, 5, 17):
            v = ch.uplink_vector(i, bs)
            r = ch.antenna_distances(bs, np.array([i]))[0]
            assert np.linalg.norm(v) ** 2 == pytest.approx(
                np.sum(r ** -3.0), rel=1e-12
            )


def test_downlink_mirrors_uplink_magnitudes_not_phases():
    t = generate_topology(TopologyConfig(n=64, m=4, l=4, seed=8))
    ch = ChannelRealization(t, 3.0, phase_seed=2)
    up = ch.uplink_vector(9, 2)
    down = ch.downlink_vector(2, 9)
    assert np.allclose(np.abs(up), np.abs(down), atol=1e-15)
    assert not np.allclose(up, down)


def test_matrix_forms_agree_with_vectors():
    t = generate_topology(TopologyConfig(n=32, m=4, l=3, seed=8))
    ch = ChannelRealization(t, 2.8, phase_seed=11)
    nodes = np.array([4, 9, 20])
    U = ch.uplink_matrix(1, nodes)
    D = ch.downlink_matrix(1, nodes)
    for j, i in enumerate(nodes):
        assert np.array_equal(U[:, j], ch.uplink_vector(int(i), 1))
        assert np.array_equal(D[j], ch.downlink_vector(1, int(i)))


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("alpha", [2.2, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("seed", [0, 5])
def test_every_gain_path_equals_the_kernel_bit_for_bit(alpha, seed):
    t = generate_topology(TopologyConfig(n=600, m=9, l=7, seed=seed))
    ch = ChannelRealization(t, alpha, phase_seed=seed + 1)
    pos, nodes, ant = t.node_positions, np.arange(t.n), np.arange(t.l)
    tx, rx = nodes[::3], nodes[1::3]
    h = _hash(ch.phase_seed, _KIND_NODE, tx[None, :], rx[:, None])
    want = path_gains(_distances(pos[rx], pos[tx]), h, alpha)
    assert _same_bits(ch.node_gain_matrix(tx, rx), want)
    for i, k in zip(tx[:50].tolist(), rx[:50].tolist()):
        r = float(np.linalg.norm(pos[k] - pos[i]))
        want = path_gains(r, _hash(ch.phase_seed, _KIND_NODE, i, k), alpha)
        assert _same_bits(np.array([ch.node_gain(i, k)]), want.reshape(1))
    uplinks = ch._uplinks(nodes)
    for b in range(t.m):
        r = ch.antenna_distances(b, nodes)
        for kind, got in ((_KIND_UPLINK, ch.uplink_matrix(b, nodes).T),
                          (_KIND_DOWNLINK, ch.downlink_matrix(b, nodes))):
            h = _hash(ch.phase_seed, kind, nodes[:, None], b, ant[None, :])
            assert _same_bits(got, path_gains(r, h, alpha))
        # ISH's pass over the BSs, with the node stage of the hash hoisted
        bs, dists, gains = next(uplinks)
        assert bs == b and _same_bits(dists, r)
        assert _same_bits(gains, ch.uplink_matrix(b, nodes).T)
    assert next(uplinks, None) is None


_EPS = np.finfo(float).eps
_HASHES = st.integers(0, 2**64 - 1)
# the lowest and highest hash of a table bin: u on either edge of the bin
_BIN_EDGES = st.builds(lambda k, top: (k << 52) | ((1 << 52) - 1 if top else 0),
                       st.integers(0, 4095), st.booleans())


@given(st.lists(st.one_of(_HASHES, _BIN_EDGES), min_size=1, max_size=64),
       st.floats(0.01, 1e4), st.floats(0.5, 8.0))
@example([0, 2**64 - 1, 1 << 52, (1 << 52) - 1, 2**63], 1.0, 3.0)
@example(list(range(1 << 51, 2**64, 1 << 52)), 1.0, 3.0)  # every bin centre: x = 0
@settings(max_examples=200, deadline=None)
def test_gain_kernel_is_within_4_eps_of_the_exact_phasor(hashes, r, alpha):
    """|g - r^(-alpha/2) exp(j*2*pi*u)| <= 4 eps r^(-alpha/2), u = (h >> 11) 2^-53,
    against mpmath's exact phasor and power."""
    got = path_gains(np.full(len(hashes), r), np.array(hashes, dtype=np.uint64), alpha)
    with mpmath.workprec(113):
        amp = mpmath.mpf(r) ** (-mpmath.mpf(alpha) / 2)
        for h, g in zip(hashes, got.tolist()):
            exact = amp * mpmath.expjpi(2 * mpmath.mpf(h >> 11) / 2**53)
            assert abs(mpmath.mpc(g.real, g.imag) - exact) <= 4 * _EPS * amp


def test_gain_matrices_are_arrays_of_their_own():
    """A block of ``node_gain_blocks`` is a view that the next block
    overwrites, so ``node_gain_matrix`` returns a copy: one call's result
    does not alias the next one's, nor change with it."""
    t = generate_topology(TopologyConfig(n=64, m=1, l=1, seed=2))
    ch = ChannelRealization(t, 3.0, phase_seed=4)
    tx, rx = np.arange(0, 20), np.arange(20, 40)
    first = ch.node_gain_matrix(tx, rx)
    kept = first.copy()
    second = ch.node_gain_matrix(rx, tx)
    assert first.flags.owndata and second.flags.owndata
    assert not np.shares_memory(first, second)
    assert _same_bits(first, kept) and not _same_bits(first, second)


@pytest.mark.parametrize("n_rows, n_cols", [(0, 0), (0, 7), (7, 0), (1, 1), (37, 53)])
@pytest.mark.parametrize("seed", [0, 1])
def test_distances_equal_the_norm_oracle(n_rows, n_cols, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-5.0, 90.0, (n_rows, 2))
    cols = rng.uniform(-5.0, 90.0, (n_cols, 2))
    cols[: min(n_rows, n_cols)] = rows[: min(n_rows, n_cols)]  # exact zeros too
    got = _distances(rows, cols)
    assert got.shape == (n_rows, n_cols)
    assert np.array_equal(got, dense_distances(rows, cols))


# ---------------------------------------------------------------------------
# Statistical laws
# ---------------------------------------------------------------------------

def test_magnitude_law_on_random_pairs():
    t = generate_topology(TopologyConfig(n=512, m=1, l=1, seed=3))
    ch = ChannelRealization(t, 3.7, phase_seed=3)
    rng = np.random.default_rng(0)
    tx = rng.integers(0, 512, 12_000)
    rx = rng.integers(0, 512, 12_000)
    keep = tx != rx
    tx, rx = tx[keep][:10_000], rx[keep][:10_000]
    pos = t.node_positions
    r = np.linalg.norm(pos[rx] - pos[tx], axis=1)
    mags = np.array(
        [abs(ch.node_gain(int(i), int(k))) for i, k in zip(tx, rx)]
    )
    assert np.allclose(np.log(mags), -ch.alpha / 2.0 * np.log(r), atol=1e-12)


def test_phases_are_uniform():
    t = generate_topology(TopologyConfig(n=512, m=1, l=1, seed=6))
    ch = ChannelRealization(t, 3.0, phase_seed=7)
    idx = np.arange(512)
    H = ch.node_gain_matrix(idx[:320], idx[320:])
    pos = t.node_positions
    r = np.linalg.norm(
        pos[idx[320:]][:, None, :] - pos[idx[:320]][None, :, :], axis=-1
    )
    phases = np.angle(H * r ** (ch.alpha / 2.0)).ravel() % (2 * np.pi)
    assert phases.size >= 60_000
    _, p = stats.kstest(phases / (2 * np.pi), "uniform")
    assert p > 0.01


def test_phase_independence_across_links():
    # correlation between phases of disjoint links should be negligible
    t = generate_topology(TopologyConfig(n=1000, m=1, l=1, seed=6))
    ch = ChannelRealization(t, 3.0, phase_seed=13)
    a = ch.node_gain_matrix(np.arange(0, 400), np.array([500]))
    b = ch.node_gain_matrix(np.arange(0, 400), np.array([501]))
    pa, pb = np.angle(a).ravel(), np.angle(b).ravel()
    corr = np.corrcoef(pa, pb)[0, 1]
    assert abs(corr) < 0.1
