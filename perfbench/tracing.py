"""Per-layer timing for the traced run, recorded from the benchmark's side.

``Tracer.installed(cli)`` swaps the names through which ``hybridscale.cli``
calls each layer for timed wrappers, and hands the schemes a
``ChannelRealization`` subclass that times its public methods.  No file of
the package changes, and the names are put back on exit.

A span's self time is its time minus the time of the spans opened inside
it.  Counts are computed from each call's inputs (array shapes, routes,
cluster pairs), not read from the program, and are worked out after the op
so that they add nothing to any span.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MB = 2.0 ** 20

# per_layer metric -> (kind, key): "s" total span time, "self" span self
# time, "n" count, "max" largest value; times and counts are per op
METRICS = {
    "topology.generate_s": ("s", "topology.generate"),
    "channel.node_gain_matrix_s": ("s", "channel.node_gain_matrix"),
    "channel.node_gain_entries": ("n", "channel.node_gain_entries"),
    "channel.link_matrix_s": ("s", "channel.link_matrix"),
    "channel.link_entries": ("n", "channel.link_entries"),
    "channel.antenna_distances_s": ("s", "channel.antenna_distances"),
    "protocols.mh_s": ("s", "protocols.mh"),
    "protocols.mh_hops": ("n", "protocols.mh_hops"),
    "protocols.hc_s": ("s", "protocols.hc"),
    "protocols.hc_self_s": ("self", "protocols.hc"),
    "protocols.hc_cluster_pairs": ("n", "protocols.hc_cluster_pairs"),
    "protocols.imh_s": ("s", "protocols.imh"),
    "protocols.imh_hops": ("n", "protocols.imh_hops"),
    "protocols.ish_s": ("s", "protocols.ish"),
    "protocols.ish_self_s": ("self", "protocols.ish"),
    "protocols.fit_s": ("s", "protocols.fit"),
    "cutset.l1_s": ("s", "cutset.l1"),
    "cutset.l2_s": ("s", "cutset.l2"),
    "cutset.pairs": ("n", "cutset.pairs"),
    "cutset.alloc_peak_mb": ("max", "cutset.alloc_peak_mb"),
    "cutset.tensor_mb": ("max", "cutset.tensor_mb"),
    "scaling.classify_s": ("s", "scaling.classify"),
    "scaling.points": ("n", "scaling.points"),
    "scaling.min_backhaul_s": ("s", "scaling.min_backhaul"),
    "scaling.map_finite_n_s": ("s", "scaling.map_finite_n"),
    "cli.main_s": ("s", "cli.main"),
    "cli.self_s": ("self", "cli.main"),
}

UNITS = {"s": "s", "self": "s", "n": "count", "max": "MB"}


class Tracer:
    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, float] = defaultdict(float)
        self._open: list[float] = []       # child time of each open span
        self._deferred: list = []          # (count function, its inputs)

    @contextmanager
    def span(self, name: str):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.seconds[name] += dt
            self.self_seconds[name] += dt - self._open.pop()
            if self._open:
                self._open[-1] += dt

    def wrap(self, name: str, fn, count=None):
        def timed(*args, **kwargs):
            if count is not None:
                self._deferred.append((count, args))
            with self.span(name):
                return fn(*args, **kwargs)
        return timed

    def settle_counts(self) -> None:
        """Work out the counts of the calls made since the last settle."""
        for count, args in self._deferred:
            count(self, *args)
        self._deferred.clear()

    def metrics(self, ops: int) -> dict[str, dict]:
        out = {}
        for name, (kind, key) in METRICS.items():
            if kind == "s":
                value = self.seconds[key] / ops
            elif kind == "self":
                value = self.self_seconds[key] / ops
            elif kind == "n":
                value = self.counts[key] / ops
            else:
                value = self.peaks[key]
            out[name] = {"value": value, "unit": UNITS[kind]}
        return out

    @contextmanager
    def installed(self, cli):
        """Route the layer calls of ``cli`` through timed wrappers."""
        saved = {name: getattr(cli, name) for name in _PATCHED}
        runners = dict(cli._RUNNERS)
        cli.generate_topology = self.wrap("topology.generate", cli.generate_topology)
        cli.ChannelRealization = _timed_channel(self, cli.ChannelRealization)
        cli.map_finite_n = self.wrap("scaling.map_finite_n", cli.map_finite_n)
        cli.classify_regime_3d = self.wrap("scaling.classify", cli.classify_regime_3d,
                                           _count_point)
        cli.min_backhaul_exponent = self.wrap("scaling.min_backhaul",
                                              cli.min_backhaul_exponent)
        cli.fit_scaling_exponent = self.wrap("protocols.fit", cli.fit_scaling_exponent)
        cli.bound_l1 = self._bound("cutset.l1", cli.bound_l1, _l1_sets)
        cli.bound_l2 = self._bound("cutset.l2", cli.bound_l2, _l2_sets)
        cli._RUNNERS.update({
            "MH": self.wrap("protocols.mh", runners["MH"], _count_mh_hops),
            "HC": self.wrap("protocols.hc", runners["HC"], _count_hc_pairs),
            "IMH": self.wrap("protocols.imh", runners["IMH"], _count_imh_hops),
            "ISH": self.wrap("protocols.ish", runners["ISH"]),
        })
        try:
            yield self
        finally:
            for name, value in saved.items():
                setattr(cli, name, value)
            cli._RUNNERS.update(runners)

    def _bound(self, name: str, fn, sets):
        def count(tracer, topo, *_):
            src, dest = sets(topo)
            tracer.counts["cutset.pairs"] += src * dest
            tracer.peaks["cutset.tensor_mb"] = max(
                tracer.peaks["cutset.tensor_mb"], src * dest * 2 * 8 / MB)

        def timed(*args, **kwargs):
            self._deferred.append((count, args))
            with self.span(name):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks["cutset.alloc_peak_mb"] = max(
                        self.peaks["cutset.alloc_peak_mb"], peak / MB)
        return timed


_PATCHED = ("generate_topology", "ChannelRealization", "map_finite_n",
            "classify_regime_3d", "min_backhaul_exponent", "fit_scaling_exponent",
            "bound_l1", "bound_l2")


def _timed_channel(tracer: Tracer, base):
    class TimedChannel(base):
        def node_gain_matrix(self, tx, rx):
            tracer.counts["channel.node_gain_entries"] += len(tx) * len(rx)
            with tracer.span("channel.node_gain_matrix"):
                return super().node_gain_matrix(tx, rx)

        def uplink_matrix(self, bs, nodes):
            tracer.counts["channel.link_entries"] += self.topology.l * len(nodes)
            with tracer.span("channel.link_matrix"):
                return super().uplink_matrix(bs, nodes)

        def downlink_matrix(self, bs, nodes):
            tracer.counts["channel.link_entries"] += self.topology.l * len(nodes)
            with tracer.span("channel.link_matrix"):
                return super().downlink_matrix(bs, nodes)

        def antenna_distances(self, bs, nodes):
            with tracer.span("channel.antenna_distances"):
                return super().antenna_distances(bs, nodes)

    return TimedChannel


# -- counts computed from the inputs ------------------------------------------


def _count_point(tracer, *_):
    tracer.counts["scaling.points"] += 1


def _route_hops(topo, start: np.ndarray, end: np.ndarray) -> int:
    """Hops of horizontal-then-vertical walks over the routing-cell grid
    (cell area about 2 ln n); a walk inside one cell is one hop."""
    n = topo.n
    g = max(1, math.floor(math.sqrt(n) / math.sqrt(2.0 * math.log(n))))
    side = math.sqrt(n) / g
    a = np.minimum((start / side).astype(np.int64), g - 1)
    b = np.minimum((end / side).astype(np.int64), g - 1)
    return int(np.maximum(np.abs(a - b).sum(axis=1), 1).sum())


def _count_mh_hops(tracer, topo, *_):
    pos = topo.node_positions
    tracer.counts["protocols.mh_hops"] += _route_hops(topo, pos, pos[topo.sd_pairing])


def _count_imh_hops(tracer, topo, *_):
    pos = topo.node_positions
    home = topo.cell_index_of(pos)
    ring = topo.boundary_antennas[home]                        # (n, b, 2)
    near = np.linalg.norm(ring - pos[:, None, :], axis=-1).argmin(axis=1)
    antenna = ring[np.arange(len(pos)), near]                  # nearest per node
    dst = topo.sd_pairing
    tracer.counts["protocols.imh_hops"] += (_route_hops(topo, pos, antenna)
                                            + _route_hops(topo, antenna[dst], pos[dst]))


def _count_hc_pairs(tracer, topo, _ch, cfg):
    n = topo.n
    size = max(1, round(n ** cfg.hc_cluster_exponent))
    cg = max(1, round(math.sqrt(n / size)))
    ij = np.clip((topo.node_positions / (math.sqrt(n) / cg)).astype(np.int64), 0, cg - 1)
    cluster = ij[:, 0] + cg * ij[:, 1]
    src, dst = cluster, cluster[topo.sd_pairing]
    pairs = np.unique(src[src != dst] * cg * cg + dst[src != dst])
    tracer.counts["protocols.hc_cluster_pairs"] += len(pairs)


def _left(topo):
    mid = math.sqrt(topo.n) / 2.0
    return topo.node_positions[:, 0] < mid, topo.bs_centers[:, 0] < mid


def _l1_sets(topo) -> tuple[int, int]:
    """(sources, destinations) of the L1 cut."""
    left, _ = _left(topo)
    return int(left.sum()), int((~left).sum()) + topo.m * topo.l + 1


def _l2_sets(topo) -> tuple[int, int]:
    left, left_bs = _left(topo)
    return (int(left.sum()) + int(left_bs.sum()) * topo.l,
            int((~left).sum()) + int((~left_bs).sum()) * topo.l)
