"""Phase-only path-loss channel: g = exp(j*2*pi*u) / r^(alpha/2).

Gains are never stored; each coefficient is recomputed on demand from the
endpoint positions and a counter-based hash h of (seed, link kind, endpoint
indices), so any slice of the channel can be evaluated independently and
reproducibly.  The phase is u = (h >> 11) * 2^-53, uniform on [0, 1).
Uplink (node -> BS antenna) and downlink (BS antenna -> node) phases are
drawn independently; node-to-node links are keyed by the ordered (tx, rx)
pair, so the two directions of a node pair are also independent.

``path_gains`` turns hashes into gains with no libm ``cos``/``sin`` call
per gain: exp(j*2*pi*u) is the phasor at the centre of u's bin in a table
of 4096 equal bins (indexed by the top 12 bits of h) times exp(j*x) of the
offset |x| <= pi/4096 from that centre, by the polynomials 1 - x^2/2 +
x^4/24 and x (1 - x^2/6 + x^4/120).  Over 10^5 random hashes and 2,000
bin edges its largest error against an exact exp(j*2*pi*u) was 1.1 eps,
against 3.3 eps for libm ``cos``/``sin`` of the rounded angle 2*pi*u; the
tests hold it within 4 eps.  So the gains' bits depend on the table's
4096 phasors alone, which libm's ``cos`` and ``sin`` give over the first
octant and exact mirrors and quarter turns give elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import Topology

_U = np.uint64

# link-kind keys folded into the seed
_KIND_UPLINK = _U(1)
_KIND_DOWNLINK = _U(2)
_KIND_NODE = _U(3)

_GAIN_BLOCK = 1 << 15  # node-to-node gain entries built at once, bounding memory

_BIN_BITS = 12  # the top 12 bits of h pick one of 4096 bins of u
# bits 11..51 of h place u within its bin: the offset from the bin centre is
# ((h & _IN_BIN) - 2^51) * 2^-64 turns, exact before the one product by 2*pi
_IN_BIN = _U(((1 << 52) - 1) & ~((1 << 11) - 1))
_BIN_MID = 2.0 ** 51
_RADIANS = 2.0 * math.pi * 2.0 ** -64


def _bin_phasors(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2*pi*(k + 1/2)/2^bits for every k < 2^bits, the phasors
    at the bin centres: libm's over the first octant, where the angle rounds
    by at most eps/4, and exact mirrors and quarter turns elsewhere."""
    octant = [math.tau * (k + 0.5) / (1 << bits) for k in range(1 << (bits - 3))]
    c8, s8 = np.array([math.cos(a) for a in octant]), np.array([math.sin(a) for a in octant])
    c, s = np.concatenate([c8, s8[::-1]]), np.concatenate([s8, c8[::-1]])  # a quarter
    return np.concatenate([c, -s, -c, s]), np.concatenate([s, c, -s, -c])


_BIN_COS, _BIN_SIN = _bin_phasors(_BIN_BITS)


class ZeroDistanceError(ValueError):
    """Two endpoints coincide; the path-loss law r^(-alpha/2) diverges."""


def _mix64(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer, a bijective avalanche on uint64, in place in the
    array ``z`` (a scalar becomes a 0-d array); ``tmp`` is scratch of its
    shape, allocated when not given.  Integer arrays wrap without a warning,
    so the modular products need no ``errstate``."""
    z = np.asarray(z)
    if tmp is None:
        tmp = np.empty_like(z)
    np.right_shift(z, _U(30), out=tmp)
    z ^= tmp
    z *= _U(0xBF58476D1CE4E5B9)
    np.right_shift(z, _U(27), out=tmp)
    z ^= tmp
    z *= _U(0x94D049BB133111EB)
    np.right_shift(z, _U(31), out=tmp)
    z ^= tmp
    return z


def _hash(seed: int, kind: np.uint64, *keys) -> np.ndarray:
    """uint64 hash of (seed, kind, *keys), one ``_mix64`` per key; keys broadcast."""
    h = _mix64(_U(seed & 0xFFFFFFFFFFFFFFFF) ^ kind)
    for key in keys:
        h = _mix64(h + np.asarray(key, dtype=_U))
    return h


def _distances(rows: np.ndarray, cols: np.ndarray, out=None) -> np.ndarray:
    """(len(rows), len(cols)) Euclidean distances between two point sets.

    ``sqrt(dx*dx + dy*dy)`` equals ``np.linalg.norm`` over the stacked
    differences bit for bit (its length-2 reduction is that very sum), so
    every caller's output depends on keeping this form; ``np.hypot`` rounds
    differently.  Each step works in place, so a call allocates two
    (rows, cols) arrays, or none when ``out = (dx, dy)`` gives them; the
    result is then ``dx``.
    """
    if out is None:
        out = np.empty((len(rows), len(cols))), np.empty((len(rows), len(cols)))
    dx, dy = out
    np.subtract(rows[:, None, 0], cols[:, 0], out=dx)
    np.subtract(rows[:, None, 1], cols[:, 1], out=dy)
    return _norm(dx, dy)


def _norm(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx*dx + dy*dy), computed in place in ``dx`` (``dy`` is overwritten)."""
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


class _GainBuffers:
    """The result and the intermediates of ``path_gains`` for up to ``size``
    entries, allocated once and reused by every call that is given them."""

    def __init__(self, size: int) -> None:
        self.out = np.empty(size, dtype=complex)
        self.real = np.empty((5, size))
        self.bits = np.empty(size, dtype=_U)


def path_gains(r: np.ndarray, h: np.ndarray, alpha: float,
               buffers: _GainBuffers | None = None) -> np.ndarray:
    """Complex gains exp(j*2*pi*u) * r^(-alpha/2), u = (h >> 11) * 2^-53,
    from distances ``r`` and phase hashes ``h`` of one shape.

    exp(j*2*pi*u) is the phasor of u's bin, one of 4096 (h >> 52), times
    cos x + j sin x of the offset x from the bin centre (|x| <= pi/4096) by
    the degree-4 and degree-5 Taylor polynomials, whose truncation error is
    below 1e-21.  Against an exact r^(-alpha/2) exp(j*2*pi*u) the largest
    error measured is 2.0 eps of the amplitude (1.1 eps at r = 1, the rest
    is the rounding of r^(-alpha/2)); the tests hold it within 4 eps.  No
    libm ``cos``/``sin`` is called.  Every step writes into ``buffers``
    (sized for this call when not given), so the result is a view of
    ``buffers.out`` that the next call with them overwrites.
    """
    r = np.asarray(r, dtype=float)
    shape, size = r.shape, r.size
    if buffers is None:
        buffers = _GainBuffers(size)
    r, h = r.reshape(-1), np.asarray(h, dtype=_U).reshape(-1)
    c, s, x, q, t = buffers.real[:, :size]
    bits = buffers.bits[:size]
    out = buffers.out[:size]
    # the bin's phasor c + j s, times the amplitude; every index is below
    # 4096, and "clip" takes with no buffered bounds check
    np.right_shift(h, _U(64 - _BIN_BITS), out=bits)
    np.take(_BIN_COS, bits.view(np.int64), out=c, mode="clip")
    np.take(_BIN_SIN, bits.view(np.int64), out=s, mode="clip")
    np.power(r, -alpha / 2.0, out=q)
    c *= q
    s *= q
    # the offset x from the bin centre, in radians
    np.bitwise_and(h, _IN_BIN, out=bits)
    np.subtract(bits.view(np.int64), _BIN_MID, out=x)
    x *= _RADIANS
    np.multiply(x, x, out=q)
    # sin x = x + x^3 (x^2/120 - 1/6) into t, cos x = 1 + x^2 (x^2/24 - 1/2) into x
    np.multiply(q, 1.0 / 120.0, out=t)
    t -= 1.0 / 6.0
    t *= q
    t *= x
    t += x
    np.multiply(q, 1.0 / 24.0, out=x)
    x -= 0.5
    x *= q
    x += 1.0
    # (c + j s)(cos x + j sin x)
    np.multiply(s, t, out=q)
    t *= c
    c *= x
    s *= x
    np.subtract(c, q, out=out.real)
    np.add(t, s, out=out.imag)
    return out.reshape(shape)


def _check_distances(r: np.ndarray) -> np.ndarray:
    if r.size and r.min() == 0.0:  # distances are never negative
        raise ZeroDistanceError("coincident endpoints give an infinite gain")
    return r


@dataclass(frozen=True)
class ChannelRealization:
    """Quasi-static channel over one topology: fixed phases, pure lookups."""

    topology: Topology
    alpha: float
    phase_seed: int = 0

    def __post_init__(self) -> None:
        # the scaling layer wants alpha > 2; the sampling law itself only
        # needs a positive exponent
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    # -- node-to-node -------------------------------------------------------

    def node_gain(self, i: int, k: int) -> complex:
        """Gain of the link from node i to node k."""
        if i == k:
            raise ZeroDistanceError("a node has no channel to itself")
        pos = self.topology.node_positions
        r = float(np.linalg.norm(pos[k] - pos[i]))
        if r == 0.0:
            raise ZeroDistanceError("coincident endpoints give an infinite gain")
        return complex(path_gains(r, _hash(self.phase_seed, _KIND_NODE, i, k), self.alpha))

    def node_gain_matrix(self, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        """Dense (len(rx), len(tx)) matrix of node-to-node gains, an array of
        its own (a block of ``node_gain_blocks`` lives only until the next)."""
        ((_, _, gains),) = self.node_gain_blocks([tx, rx], [(0, 1)])
        return gains.reshape(len(rx), len(tx)).copy()

    def node_gain_blocks(self, groups, pairs):
        """Gains from the nodes ``groups[a]`` to the nodes ``groups[b]`` for
        each pair (a, b) of ``pairs``, built a block of pairs at a time.

        Yields (i, j, gains): ``gains`` holds the (len(groups[b]),
        len(groups[a])) matrices of pairs[i:j] flat, one after another, each
        in row-major order, in a buffer that the next block overwrites.
        Consecutive pairs fill a block up to ``_GAIN_BLOCK`` entries; a larger
        pair fills one alone.  Each pair costs three broadcast writes (x and y
        differences and hash keys) into buffers allocated once per call;
        distances, hashes and gains then take one pass each over the whole
        block, in place.  A node's transmit key, the first two of the three
        hash stages of (seed, kind, tx, rx), is computed once.
        """
        pos = self.topology.node_positions
        groups = [np.asarray(g, dtype=np.int64) for g in groups]
        xs = [pos[g, 0] for g in groups]
        ys = [pos[g, 1] for g in groups]
        tx_key = [_hash(self.phase_seed, _KIND_NODE, g) for g in groups]
        rx_key = [g.astype(_U)[:, None] for g in groups]
        size = [len(groups[a]) * len(groups[b]) for a, b in pairs]
        cap = max([min(_GAIN_BLOCK, sum(size)), *size])
        dx, dy, key = np.empty(cap), np.empty(cap), np.empty(cap, dtype=_U)
        buffers = _GainBuffers(cap)
        i = 0
        while i < len(pairs):
            j, end = i + 1, size[i]
            while j < len(pairs) and end + size[j] <= _GAIN_BLOCK:
                end += size[j]
                j += 1
            o = 0
            for (a, b), e in zip(pairs[i:j], size[i:j]):
                shape = (len(groups[b]), len(groups[a]))
                np.subtract(xs[b][:, None], xs[a], out=dx[o : o + e].reshape(shape))
                np.subtract(ys[b][:, None], ys[a], out=dy[o : o + e].reshape(shape))
                np.add(tx_key[a], rx_key[b], out=key[o : o + e].reshape(shape))
                o += e
            r = _check_distances(_norm(dx[:end], dy[:end]))
            h = _mix64(key[:end], buffers.bits[:end])  # scratch path_gains rewrites
            yield i, j, path_gains(r, h, self.alpha, buffers)
            i = j

    # -- node-to-BS and BS-to-node -----------------------------------------

    def uplink_vector(self, i: int, bs: int) -> np.ndarray:
        """Length-l uplink vector from node i to the antennas of BS ``bs``."""
        return self.uplink_matrix(bs, np.array([i]))[:, 0]

    def uplink_matrix(self, bs: int, nodes: np.ndarray) -> np.ndarray:
        """(l, N) matrix; column j is the uplink vector of nodes[j]."""
        return self._link(_KIND_UPLINK, bs, nodes).T

    def downlink_vector(self, bs: int, i: int) -> np.ndarray:
        """Length-l downlink row vector from BS ``bs`` to node i."""
        return self.downlink_matrix(bs, np.array([i]))[0]

    def downlink_matrix(self, bs: int, nodes: np.ndarray) -> np.ndarray:
        """(N, l) matrix; row j is the downlink row vector to nodes[j]."""
        return self._link(_KIND_DOWNLINK, bs, nodes)

    def _link(self, kind: np.uint64, bs, nodes: np.ndarray, r=None) -> np.ndarray:
        """(N, l) gains between nodes and the antennas of BS ``bs``, phases by kind.

        ``bs`` is one BS or an (N, 1) array of one BS per node; ``r`` passes
        the (N, l) antenna distances when the caller already has them.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if r is None:
            r = self.antenna_distances(bs, nodes)
        t = np.arange(self.topology.l, dtype=np.int64)
        h = _hash(self.phase_seed, kind, nodes[:, None], bs, t[None, :])
        return path_gains(r, h, self.alpha)

    def _uplinks(self, nodes: np.ndarray):
        """(b, r, gains) of each BS b in turn: the (N, l) distances from
        ``nodes`` to its antennas and the uplink gains, bit for bit
        ``antenna_distances(b, nodes)`` and ``uplink_matrix(b, nodes).T``.

        Both are views of buffers allocated once per call, which the next BS
        overwrites.  The node stage of each hash, ``_hash(seed, kind,
        node)``, is computed once for all BSs.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        pos = self.topology.node_positions[nodes]
        shape = (len(nodes), self.topology.l)
        dx, dy, key = np.empty(shape), np.empty(shape), np.empty(shape, dtype=_U)
        buffers = _GainBuffers(key.size)
        node_key = _hash(self.phase_seed, _KIND_UPLINK, nodes)
        bs_key = np.empty(len(nodes), dtype=_U)
        antennas = np.arange(self.topology.l, dtype=_U)
        for b, ant in enumerate(self.topology.antenna_positions):
            r = _check_distances(_distances(pos, ant, out=(dx, dy)))
            # buffers.bits is scratch here: path_gains rewrites it
            _mix64(np.add(node_key, _U(b), out=bs_key), buffers.bits[: len(nodes)])
            _mix64(np.add(bs_key[:, None], antennas, out=key), buffers.bits.reshape(shape))
            yield b, r, path_gains(r, key, self.alpha, buffers)

    # -- distance/magnitude helpers (no phases) -----------------------------

    def antenna_distances(self, bs: int, nodes: np.ndarray) -> np.ndarray:
        """(N, l) distances from each node to each antenna of BS ``bs``."""
        ant = self.topology.antenna_positions[bs]          # (l, 2)
        pos = self.topology.node_positions[np.asarray(nodes, dtype=np.int64)]
        return _check_distances(_distances(pos, ant))
