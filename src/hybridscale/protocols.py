"""Monte Carlo execution of the four delivery schemes on one instance.

Rates are in bits per slot (log base 2), noise power 1, per-node transmit
power P, per-BS power nP/m.  Schemes:

* MH   - nearest-neighbor multihop through routing cells of area ~2 ln n.
* IMH  - multihop to the home BS boundary antenna, wired hop to the remote
         processor and back, multihop from the target BS to the destination;
         min{l, ceil(sqrt(n/m))} parallel paths per routing cell.
* ISH  - one-shot uplink per cell decoded by MMSE-SIC, wired hops, downlink
         computed through uplink-downlink duality; one pass over the BSs
         takes each BS's antenna distances once, and the SIC of every cell
         runs in one stack of cells zero-padded to the largest.
* HC   - single-level estimate of hierarchical cooperation (intra-cluster
         exchange, long-range MIMO, quantize-and-collect); labeled as an
         estimate, not the recursive scheme.  The long-range MIMO hops of
         all cluster pairs are evaluated together: sorted by shape, their
         gains built in blocks of pairs, one stacked slogdet per run of
         equal shape.

MH and both IMH radio stages share one multihop kernel on a g x g grid of
routing cells.  Routing contract: a route is a pure function of the instance
and the flow key - each relay is picked by hashing (topology seed, flow key,
cell) - so duplicating flows changes no route.  Each loaded cell's interferer
representative is hashed from the cell's distinct transmitter positions, so
duplicates leave it unchanged too.  A hop's receiver hears one representative
from every other loaded cell of its TDMA phase; nodes are half-duplex, so a
representative that is the receiver itself does not interfere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import _KIND_DOWNLINK, _KIND_UPLINK, ChannelRealization, _U, _distances, _hash
from .scaling import SCHEME_CODES
from .topology import Topology, grid_cell

_KIND_RELAY = _U(4)
_KIND_REP = _U(5)


class EmptyRoutingCellError(RuntimeError):
    """A routing cell on some route contains no relay candidate."""


class NonFiniteRateError(ArithmeticError):
    """A rate that should be a finite number of bits overflowed (or is nan)."""


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Knobs shared by every scheme.

    p: per-node power; tdma_k: spatial reuse factor (perfect square);
    r_bs: wired rate per BS-RCP link (0 and inf allowed);
    hc_cluster_exponent: cluster size M = n^x for the HC estimate;
    hc_quant_bits: bits per quantized observation in HC phase 3.
    """

    p: float
    tdma_k: int = 9
    r_bs: float = math.inf
    hc_cluster_exponent: float = 0.5
    hc_quant_bits: int = 8

    def __post_init__(self) -> None:
        if not self.p >= 0.0 or math.isinf(self.p):
            raise ValueError(f"power must be finite and non-negative, got {self.p}")
        k = self.tdma_k
        if k < 1 or math.isqrt(k) ** 2 != k:
            raise ValueError(f"tdma_k must be a perfect square, got {k}")
        if self.r_bs < 0.0 or math.isnan(self.r_bs):
            raise ValueError(f"r_bs must be non-negative, got {self.r_bs}")
        if not 0.0 < self.hc_cluster_exponent < 1.0:
            raise ValueError("hc_cluster_exponent must lie in (0, 1)")
        if self.hc_quant_bits < 1:
            raise ValueError("hc_quant_bits must be at least 1")


@dataclass(frozen=True)
class StageRates:
    access: float
    backhaul: float
    exit: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SimResult:
    scheme: str
    aggregate_throughput: float
    per_pair_rates: np.ndarray
    stage_rates: StageRates | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "aggregate_throughput": self.aggregate_throughput,
            "per_pair_rates": self.per_pair_rates.tolist(),
            "stage_rates": self.stage_rates.to_dict() if self.stage_rates else None,
            "detail": self.detail,
        }


def _result(scheme, per_pair, stages=None, detail=""):
    per_pair = np.asarray(per_pair, dtype=float)
    return SimResult(
        scheme=scheme,
        aggregate_throughput=float(per_pair.sum()),
        per_pair_rates=per_pair,
        stage_rates=stages,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# Multihop kernel shared by MH and the IMH radio stages
# ---------------------------------------------------------------------------

_BLOCK = 1 << 16  # interference entries evaluated at once, bounding peak memory


def routing_grid_size(n: int) -> int:
    """Cells per side; floor keeps cell area >= 2 ln n so cells are nonempty whp."""
    return max(1, math.floor(math.sqrt(n) / math.sqrt(2.0 * math.log(n))))


def _hash_index(seed: int, kind: np.uint64, a, b, count) -> np.ndarray:
    """Keyed index in [0, count) for each (a, b)."""
    return (_hash(seed, kind, a, b) % np.asarray(count, dtype=_U)).astype(np.int64)


class _RoutingGrid:
    """Square grid of routing cells over the network with node occupancy."""

    def __init__(self, topo: Topology):
        self.topo = topo
        g = self.g = routing_grid_size(topo.n)
        self.cell_side = topo.config.side / g
        i, j = self.cell_ij(topo.node_positions)
        node_cell = i + g * j
        self.count = np.bincount(node_cell, minlength=g * g)
        empty = np.nonzero(self.count == 0)[0]
        if empty.size:
            raise EmptyRoutingCellError(
                f"{empty.size} empty routing cell(s) at n={topo.n} "
                f"(grid {g}x{g}); first: {empty[:5].tolist()}"
            )
        self.nodes = np.argsort(node_cell, kind="stable")  # by cell, then index
        self.first = np.cumsum(self.count) - self.count

    def cell_ij(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ij = grid_cell(points, self.cell_side, self.g)
        return ij[:, 0], ij[:, 1]


def _distinct_hops(cell: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (cell, x, y) rows of hops in sorted order: the index of one
    hop of each distinct row, and each hop's row number."""
    order = np.lexsort((pts[:, 1], pts[:, 0], cell))
    c, x, y = cell[order], pts[order, 0], pts[order, 1]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (c[1:] != c[:-1]) | (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    row = np.empty(order.size, dtype=np.int64)
    row[order] = np.cumsum(new) - 1
    return order[new], row


def _multihop_shares(
    grid: _RoutingGrid,
    cfg: SimConfig,
    alpha: float,
    key0: np.ndarray,
    key1: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    parallelism: int,
) -> np.ndarray:
    """Per-flow rate of the multihop flows ``start[f] -> end[f]``.

    Flow f walks the routing cells horizontally, then vertically; a walk
    inside one cell is one direct hop.  Each intermediate cell c relays
    through the node hashed from (key0[f] * g^2 + c, key1[f]).  A hop sent
    from a cell carrying ``load`` hops gets its SINR rate times
    min(parallelism, load) / (tdma_k * load); a flow gets its slowest hop.
    """
    g, p, k = grid.g, cfg.p, cfg.tdma_k
    s = math.isqrt(k)
    seed = grid.topo.config.seed

    # hops as flat arrays, flow by flow in walk order
    i0, j0 = grid.cell_ij(start)
    i1, j1 = grid.cell_ij(end)
    di, dj = np.abs(i1 - i0), np.abs(j1 - j0)
    hops = np.maximum(di + dj, 1)
    first = np.cumsum(hops) - hops
    flow = np.repeat(np.arange(hops.size), hops)
    t = np.arange(flow.size) - first[flow]           # step along the walk
    across = np.minimum(t, di[flow])
    cell = (i0[flow] + np.sign(i1 - i0)[flow] * across
            + g * (j0[flow] + np.sign(j1 - j0)[flow] * (t - across)))

    tx = start[flow]
    relay = np.nonzero(t > 0)[0]
    rc, rf = cell[relay], flow[relay]
    pick = _hash_index(seed, _KIND_RELAY, key0[rf] * (g * g) + rc, key1[rf], grid.count[rc])
    tx[relay] = grid.topo.node_positions[grid.nodes[grid.first[rc] + pick]]
    rx = np.empty_like(tx)
    rx[:-1] = tx[1:]
    rx[first + hops - 1] = end

    # one representative transmitter per loaded cell, hashed over the cell's
    # distinct transmitter positions in (x, y) order
    keep, _ = _distinct_hops(cell, tx)
    sc, sx, sy = cell[keep], tx[keep, 0], tx[keep, 1]
    loaded, lo, cnt = np.unique(sc, return_index=True, return_counts=True)
    rep = lo + _hash_index(seed, _KIND_REP, loaded, 0, cnt)
    # interference is summed over representatives in the order their cells
    # first carry a hop
    appear = np.argsort(np.unique(cell, return_index=True)[1])
    rep_cell, rep_x, rep_y = loaded[appear], sx[rep][appear], sy[rep][appear]

    def phase(c):
        return (c % g) % s + s * ((c // g) % s)

    # a hop's interference depends only on its receiver and its cell, so it
    # is computed once for each distinct (cell, receiver) and copied to the
    # hops that share it; each row is summed alone, so no bit changes
    keep, row = _distinct_hops(cell, rx)
    u_cell, u_x, u_y = cell[keep], rx[keep, 0], rx[keep, 1]

    u_phase, rep_phase = phase(u_cell), phase(rep_cell)
    interf = np.empty(u_cell.size)
    for ph in np.unique(rep_phase):
        same = rep_phase == ph
        cs, xs, ys = rep_cell[same], rep_x[same], rep_y[same]
        at = np.nonzero(u_phase == ph)[0]
        step = max(1, _BLOCK // cs.size)
        for a in range(0, at.size, step):
            h = at[a : a + step]
            dist = np.hypot(xs - u_x[h][:, None], ys - u_y[h][:, None])
            dist[dist == 0.0] = math.inf  # half-duplex: the receiver is silent
            gain = np.where(cs != u_cell[h][:, None], dist ** (-alpha), 0.0)
            interf[h] = p * gain.sum(axis=1)
    interf = interf[row]

    # Python floats on purpose: numpy's vector power and log2 can differ from
    # the scalar ones in the last bit
    d = np.hypot(rx[:, 0] - tx[:, 0], rx[:, 1] - tx[:, 1])
    rate = np.array([
        math.log2(1.0 + p * dd ** (-alpha) / (1.0 + ii))
        for dd, ii in zip(d.tolist(), interf.tolist())
    ])
    load = np.bincount(cell, minlength=g * g)[cell]
    share = rate * np.minimum(parallelism, load) / (k * load)
    shares = np.full(hops.size, math.inf)
    np.minimum.at(shares, flow, share)
    return shares


# ---------------------------------------------------------------------------
# MH
# ---------------------------------------------------------------------------

def simulate_mh(
    topo: Topology,
    ch: ChannelRealization,
    cfg: SimConfig,
    pairs: np.ndarray | None = None,
) -> SimResult:
    """Plain nearest-neighbor multihop between S-D pairs.

    ``pairs`` overrides the topology pairing with explicit (src, dst) rows;
    used by load-sensitivity tests.
    """
    if pairs is None:
        src = np.arange(topo.n)
        dst = topo.sd_pairing
    else:
        pairs = np.asarray(pairs)
        src, dst = pairs[:, 0], pairs[:, 1]
    pos = topo.node_positions
    shares = _multihop_shares(
        _RoutingGrid(topo), cfg, ch.alpha, src, dst, pos[src], pos[dst], 1
    )
    return _result("MH", shares)


# ---------------------------------------------------------------------------
# IMH
# ---------------------------------------------------------------------------

def _infra_result(scheme: str, topo: Topology, r_bs: float, home: np.ndarray,
                  up: np.ndarray, down: np.ndarray, down_total: float) -> SimResult:
    """The wired stage shared by IMH and ISH, ending either scheme's result.

    Flow f gets min(up[f], its equal split of R_BS at its source's BS and at
    its destination's BS, down[f]).  The backhaul stage reports
    sum_b min(access demand at b, R_BS) <= m * R_BS.  ``home`` is each
    node's BS cell.
    """

    def share(bs):  # equal split of each BS's wired link among its flows
        return (r_bs / np.maximum(np.bincount(bs, minlength=topo.m), 1.0))[bs]

    wired = np.minimum(share(home), share(home[topo.sd_pairing]))
    demand = np.zeros(topo.m)
    np.add.at(demand, home, up)
    stages = StageRates(access=float(up.sum()),
                        backhaul=float(np.minimum(demand, r_bs).sum()),
                        exit=float(down_total))
    return _result(scheme, np.minimum(np.minimum(up, wired), down), stages)


def simulate_imh(topo: Topology, ch: ChannelRealization, cfg: SimConfig) -> SimResult:
    """Multihop access to the home BS, wired relay, multihop exit.

    Per-flow rate is the minimum of its access share, its equal split of the
    two wired links it crosses, and its exit share.
    """
    n = topo.n
    grid = _RoutingGrid(topo)
    pos = topo.node_positions
    home = topo.cell_index_of(pos)          # BS cell of each node
    dst = topo.sd_pairing
    par = topo.config.boundary_count        # min(l, ceil(sqrt(n/m)))

    # each node's nearest boundary antenna of its home BS
    ring = topo.boundary_antennas[home]     # (n, boundary_count, 2)
    near = np.argmin(np.linalg.norm(ring - pos[:, None, :], axis=2), axis=1)
    ant = ring[np.arange(n), near]

    access = _multihop_shares(grid, cfg, ch.alpha, np.arange(n), 2 * n + home, pos, ant, par)
    exit_ = _multihop_shares(
        grid, cfg, ch.alpha, n + dst, 3 * n + home[dst], ant[dst], pos[dst], par
    )
    return _infra_result("IMH", topo, cfg.r_bs, home, access, exit_, exit_.sum())


# ---------------------------------------------------------------------------
# ISH
# ---------------------------------------------------------------------------

_SIC_BLOCK = 1 << 14  # covariance entries updated at once, keeping them in cache


def _sic_rates(h: np.ndarray, noise_inv: np.ndarray,
               power: float | np.ndarray) -> np.ndarray:
    """Per-user MMSE-SIC rates, ascending decode order over columns.

    ``h`` is a stack of cells (m, l, K); ``noise_inv`` holds their inverse
    noise covariances (m, l, l) or one (l, l) for all, and ``power`` one
    power per cell or one for all.  User i of a cell is decoded with users
    > i still present, so rates are computed from the last column down
    while accumulating decoded users into each cell's effective covariance
    via rank-1 inverse updates.  A cell with fewer than K users is
    zero-padded at the end and gets rate 0 there.  Cells are taken in
    blocks of similar user counts, about ``_SIC_BLOCK`` covariance entries
    a block, and each block runs its rank-1 updates one column index at a
    time for all its cells at once.  Returns (m, K) rates.
    """
    m, l, kk = h.shape
    power = np.broadcast_to(np.asarray(power, dtype=float), (m,))
    noise_inv = np.broadcast_to(noise_inv, (m, l, l))
    # a cell's users run up to its last nonzero column
    users = (np.arange(1, kk + 1) * h.any(axis=1)).max(axis=1, initial=0)
    order = np.argsort(users, kind="stable")
    rates = np.zeros((m, kk))
    step = max(1, _SIC_BLOCK // (l * l))
    for a in range(0, m, step):
        cells = order[a : a + step]
        hb, pb = h[cells], power[cells]
        minv = noise_inv[cells].astype(complex)
        for i in range(users[cells].max() - 1, -1, -1):
            col = hb[:, :, i, None]                             # (c, l, 1)
            mh = minv @ col
            quad = (np.conj(col).transpose(0, 2, 1) @ mh)[:, 0, 0].real
            snr = 1.0 + pb * quad
            # math.log2 on purpose: numpy's vector log2 can differ in the last bit
            rates[cells, i] = [math.log2(x) for x in snr.tolist()]
            # fold user i into the interference for users decoded before it
            outer = mh * np.conj(mh).transpose(0, 2, 1)
            outer *= (pb / snr)[:, None, None]
            minv -= outer
    return rates


def simulate_ish(topo: Topology, ch: ChannelRealization, cfg: SimConfig) -> SimResult:
    """Single-hop uplink (MMSE-SIC) and dual downlink through every BS."""
    n, m, l = topo.n, topo.m, topo.l
    p = cfg.p
    pos = topo.node_positions
    home = topo.cell_index_of(pos)
    dst = topo.sd_pairing
    bs_power = n * p / m

    # each node's column in its BS's cell: cells are padded to the largest
    count = np.bincount(home, minlength=m)
    order = np.argsort(home, kind="stable")
    col = np.empty(n, dtype=np.int64)
    col[order] = np.arange(n) - (np.cumsum(count) - count)[home[order]]
    up = np.zeros((m, l, count.max()), dtype=complex)
    noise_inv = np.empty((m, l, l), dtype=complex)

    # one pass over the BSs: each BS's distances to every node give both its
    # uplink gains and its term of the downlink noise boost, the power
    # received from every foreign BS (summed over all BSs before each
    # node's own BS is taken out again)
    nu, own_term = np.ones(n), np.empty(n)
    own_dists = np.empty((n, l))
    all_nodes = np.arange(n)
    for b in range(m):
        dists = ch.antenna_distances(b, all_nodes)         # (n, l)
        term = (bs_power / l) * np.sum(dists ** (-ch.alpha), axis=1)
        nu += term
        own = home == b
        own_term[own] = term[own]
        own_dists[own] = dists[own]
        h = ch._link(_KIND_UPLINK, b, all_nodes, dists)    # (n, l)
        h_out = h[~own].T                                  # (l, n-k)
        noise = np.eye(l) + p * (h_out @ h_out.conj().T)
        noise_inv[b] = np.linalg.inv(noise)
        up[b, :, col[own]] = h[own]
    nu -= own_term
    r_up = _sic_rates(up, noise_inv, p)[home, col]

    # downlink by duality: equal dual powers, per-user noise nu folded
    # into scaled channels, unit effective noise at the BS side
    g = ch._link(_KIND_DOWNLINK, home[:, None], all_nodes, own_dists)
    down = np.zeros_like(up)
    down[home, :, col] = g / np.sqrt(nu)[:, None]
    q = bs_power / np.maximum(count, 1)
    r_down = _sic_rates(down, np.eye(l, dtype=complex), q)[home, col]

    return _infra_result("ISH", topo, cfg.r_bs, home, r_up, r_down[dst], r_down.sum())


# ---------------------------------------------------------------------------
# HC (single-level estimate)
# ---------------------------------------------------------------------------

def hc_long_range_rates(ch: ChannelRealization, groups, pairs, power: float) -> np.ndarray:
    """Sum rates of cluster-to-cluster MIMO hops, power/|A| per transmitter.

    Pair (a, b) sends from the nodes A = groups[a] to the nodes B = groups[b].
    The pairs are sorted by shape (|B|, |A|) and their gains built in blocks
    by ``ch.node_gain_blocks``; each run of equal shape in a block is a
    (c, |B|, |A|) view of the block's gains and gets one stacked H H^h, one
    I + (power/|A|) H H^h and one stacked slogdet.  Returns one rate per
    pair, in the order of ``pairs``.
    """
    shape = [(len(groups[b]), len(groups[a])) for a, b in pairs]
    order = sorted(range(len(pairs)), key=shape.__getitem__)
    rates = np.empty(len(pairs))
    for i, j, gains in ch.node_gain_blocks(groups, [pairs[k] for k in order]):
        o = 0
        for (nb, na), run in itertools.groupby(order[i:j], key=shape.__getitem__):
            run = list(run)
            h = gains[o : o + len(run) * nb * na].reshape(len(run), nb, na)
            mat = h @ np.conj(h).transpose(0, 2, 1)
            mat *= power / na
            mat += np.eye(nb)
            rates[run] = np.linalg.slogdet(mat)[1] / math.log(2.0)
            o += h.size
    return rates


def _cluster_nn_rate(pos: np.ndarray, members: np.ndarray, p: float, alpha: float) -> float:
    """Worst nearest-neighbor rate inside one cluster."""
    d = _distances(pos[members], pos[members])
    np.fill_diagonal(d, math.inf)
    dnn = d.min(axis=1)
    rate = float(np.min(np.log2(1.0 + p * dnn ** (-alpha))))
    if not math.isfinite(rate):
        raise NonFiniteRateError(
            f"HC nearest-neighbor rate is {rate!r} in a cluster of {members.size} "
            f"nodes at power {p!r}")
    return rate


def estimate_hc_single_level(
    topo: Topology, ch: ChannelRealization, cfg: SimConfig
) -> SimResult:
    """One-level hierarchical-cooperation throughput estimate.

    Clusters are the squares of a round(sqrt(n/M)) grid with M = n^x.  For
    each ordered cluster pair carrying f flows the cycle time adds
    f/r_A (intra-source-cluster exchange) + f/R2 (long-range MIMO) +
    f*|B|*Q/(R2*r_B) (quantize-and-collect); same-cluster flows pay f/r_A
    at nearest-neighbor rates.  Aggregate = n / total cycle time.  The R2 of
    every cross-cluster pair comes from one ``hc_long_range_rates`` call
    (blocks of pairs sorted by shape, one stacked slogdet per run of equal
    shape); the times are then added in the sorted order of the pair keys.
    """
    n = topo.n
    m_target = max(1, round(n ** cfg.hc_cluster_exponent))
    cg = max(1, round(math.sqrt(n / m_target)))
    pos = topo.node_positions
    ij = grid_cell(pos, topo.config.side / cg, cg)
    cluster = ij[:, 0] + cg * ij[:, 1]
    dst = topo.sd_pairing

    count = np.bincount(cluster, minlength=cg * cg)
    members = np.split(np.argsort(cluster, kind="stable"), np.cumsum(count)[:-1])
    nn_rate = [
        _cluster_nn_rate(pos, mem, cfg.p, ch.alpha) if mem.size >= 2 else math.inf
        for mem in members
    ]

    # flows per ordered cluster pair (a, b), keyed a * cg^2 + b in sorted order
    keys, flows = np.unique(cluster * (cg * cg) + cluster[dst], return_counts=True)
    pairs = [divmod(key, cg * cg) for key in keys.tolist()]
    r2s = iter(hc_long_range_rates(
        ch, members, [(ca, cb) for ca, cb in pairs if ca != cb], cfg.p
    ).tolist())

    def slot_time(bits: float, rate: float) -> float:
        return bits / rate if rate > 0.0 else math.inf

    total_time = 0.0
    q = float(cfg.hc_quant_bits)
    for (ca, cb), f in zip(pairs, flows.tolist()):
        r_a = nn_rate[ca]
        if ca == cb:
            total_time += slot_time(f, r_a)  # direct nearest-neighbor delivery
            continue
        t1 = slot_time(f, r_a) if members[ca].size >= 2 else 0.0
        r2 = next(r2s)
        t2 = slot_time(f, r2)
        t3 = (
            slot_time(f * members[cb].size * q, r2 * nn_rate[cb])
            if members[cb].size >= 2
            else 0.0
        )
        total_time += t1 + t2 + t3

    aggregate = n / total_time if total_time > 0.0 else math.inf
    per_pair = np.full(n, aggregate / n)
    return _result("HC", per_pair, detail="single_level_estimate")


# ---------------------------------------------------------------------------
# Scheme registry, best-of and slope fitting
# ---------------------------------------------------------------------------

#: Scheme name -> runner, in the canonical presentation (CSV row) order.
RUNNERS = {
    "MH": simulate_mh,
    "HC": estimate_hc_single_level,
    "IMH": simulate_imh,
    "ISH": simulate_ish,
}


def best_of_schemes(
    topo: Topology, ch: ChannelRealization, cfg: SimConfig
) -> tuple[str, SimResult]:
    """Run all four schemes; the largest aggregate wins.

    Exact ties (which only arise in degenerate setups, e.g. zero power)
    are resolved with the same scheme priority (SCHEME_CODES) the exponent
    oracle uses, so measured winners and predicted winners break ties
    identically.
    """
    runs = {name: run(topo, ch, cfg) for name, run in RUNNERS.items()}
    best = max(runs, key=lambda s: (runs[s].aggregate_throughput, SCHEME_CODES[s]))
    return best, runs[best]


def fit_scaling_exponent(points) -> tuple[float, float]:
    """Least-squares slope of log T against log n with its standard error."""
    pts = [(float(n), float(t)) for n, t in points]
    if len({n for n, _ in pts}) < 3:
        raise ValueError("need at least 3 distinct network sizes to fit a slope")
    x = np.log([n for n, _ in pts])
    y = np.log([t for _, t in pts])
    # the arithmetic of scipy.stats.linregress, which it matches bit for bit
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0) if ssym > 0.0 else math.nan
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2))
    return float(ssxym / ssxm), float(stderr)
