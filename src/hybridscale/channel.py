"""Phase-only path-loss channel: h = exp(j*theta) / r^(alpha/2).

Gains are never stored; each coefficient is recomputed on demand from the
endpoint positions and a counter-based hash of (seed, link kind, endpoint
indices), so any slice of the channel can be evaluated independently and
reproducibly.  Uplink (node -> BS antenna) and downlink (BS antenna -> node)
phases are drawn independently; node-to-node links are keyed by the ordered
(tx, rx) pair, so the two directions of a node pair are also independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Topology

_U = np.uint64

# link-kind keys folded into the seed
_KIND_UPLINK = _U(1)
_KIND_DOWNLINK = _U(2)
_KIND_NODE = _U(3)

_TWO_PI = 2.0 * np.pi
_INV_2_53 = 2.0 ** -53

_GAIN_BLOCK = 1 << 15  # node-to-node gain entries built at once, bounding memory


class ZeroDistanceError(ValueError):
    """Two endpoints coincide; the path-loss law r^(-alpha/2) diverges."""


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; a bijective avalanche on uint64."""
    with np.errstate(over="ignore"):  # modular arithmetic is intended
        z = (z ^ (z >> _U(30))) * _U(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U(27))) * _U(0x94D049BB133111EB)
    return z ^ (z >> _U(31))


def _hash(seed: int, kind: np.uint64, *keys) -> np.ndarray:
    """uint64 hash of (seed, kind, *keys), one ``_mix64`` per key; keys broadcast."""
    h = _mix64(_U(seed & 0xFFFFFFFFFFFFFFFF) ^ kind)
    for key in keys:
        h = _mix64(h + np.asarray(key, dtype=_U))
    return h


def _phase(seed: int, kind: np.uint64, *keys) -> np.ndarray:
    """Uniform [0, 2pi) phase keyed by (seed, kind, *keys)."""
    return _angle(_hash(seed, kind, *keys))


def _angle(h: np.ndarray) -> np.ndarray:
    """Uniform [0, 2pi) phase from the top 53 bits of a uint64 hash."""
    return (h >> _U(11)).astype(float) * (_INV_2_53 * _TWO_PI)


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


def path_gains(r: np.ndarray, theta: np.ndarray, alpha: float) -> np.ndarray:
    """Complex gains exp(j*theta) * r^(-alpha/2) from distances and phases.

    ``theta`` has the shape of the result.  The real and imaginary parts are
    cos(theta) and sin(theta) times the amplitude, computed in place in one
    preallocated array, with no complex exponential or complex product
    formed.  The bits equal those of the exp form, which
    ``tests/oracles.py`` keeps as the reference.
    """
    amp = r ** (-alpha / 2.0)
    out = np.empty(np.shape(theta), dtype=complex)
    re, im = out.real, out.imag
    np.cos(theta, out=re)
    re *= amp
    np.sin(theta, out=im)
    im *= amp
    return out


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
        theta = float(_phase(self.phase_seed, _KIND_NODE, i, k))
        return complex(path_gains(r, theta, self.alpha))

    def node_gain_matrix(self, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        """Dense (len(rx), len(tx)) matrix of node-to-node gains."""
        ((_, _, gains),) = self.node_gain_blocks([tx, rx], [(0, 1)])
        return gains.reshape(len(rx), len(tx))

    def node_gain_blocks(self, groups, pairs):
        """Gains from the nodes ``groups[a]`` to the nodes ``groups[b]`` for
        each pair (a, b) of ``pairs``, built a block of pairs at a time.

        Yields (i, j, gains): ``gains`` holds the (len(groups[b]),
        len(groups[a])) matrices of pairs[i:j] flat, one after another, each
        in row-major order.  Consecutive pairs fill a block up to
        ``_GAIN_BLOCK`` entries; a larger pair fills one alone.  Each pair
        costs three broadcast writes (x and y differences and hash keys) into
        buffers allocated once; distances, hashes, phases and gains then take
        one call each over the whole block.  A node's transmit key, the first
        two of the three hash stages of (seed, kind, tx, rx), is computed once.
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
            yield i, j, path_gains(r, _angle(_mix64(key[:end])), self.alpha)
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
        theta = _phase(self.phase_seed, kind, nodes[:, None], bs, t[None, :])
        return path_gains(r, theta, self.alpha)

    # -- distance/magnitude helpers (no phases) -----------------------------

    def antenna_distances(self, bs: int, nodes: np.ndarray) -> np.ndarray:
        """(N, l) distances from each node to each antenna of BS ``bs``."""
        ant = self.topology.antenna_positions[bs]          # (l, 2)
        pos = self.topology.node_positions[np.asarray(nodes, dtype=np.int64)]
        return _check_distances(_distances(pos, ant))
