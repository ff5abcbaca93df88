"""Host speed, sampled between ops by a fixed reference kernel.

The benchmark's host is a few vCPUs of a shared machine, and its speed
drifts: the same op in fresh processes a minute apart took 1.00-1.49 s,
with the process's own CPU time tracking its wall time.  The kernel
below does a fixed amount of the kinds of work the program does (argparse
and json in the interpreter, small-grid numpy arithmetic, a pass over a
buffer larger than the cache, a small LAPACK determinant) with stdlib and
numpy code only, so no change to the program changes its cost.  Its time,
sampled just before and just after an op, says how fast the host was
while the op ran; ``at_reference`` rescales a measured time to a host on
which one kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import time

import numpy as np

# a kernel's time on a calm stretch of a 2-vCPU 2.1 GHz Xeon KVM guest
REFERENCE_S = 0.0065
KERNELS_PER_SAMPLE = 4

_ARGV = ["--alpha", "3.0", "--beta", "0.5", "--gamma", "0.25", "--eta=0.0",
         "--power", "100.0", "--sizes", "1024", "2048", "4096", "--json"]


@functools.cache
def _inputs():
    """The kernel's inputs, built on first use so that importing this
    module adds nothing to the set-up probes."""
    rng = np.random.default_rng(20140210)
    big = rng.random(1 << 20)                 # 8 MiB, past the cache
    grid = rng.random((100, 100))
    square = rng.random((64, 64)) + 64.0 * np.eye(64)
    parser = argparse.ArgumentParser(prog="reference")
    for name in ("--alpha", "--beta", "--gamma", "--eta", "--power"):
        parser.add_argument(name, type=float, required=True)
    parser.add_argument("--sizes", type=int, nargs="+", required=True)
    parser.add_argument("--json", action="store_true")
    return parser, big, np.empty_like(big), grid, np.empty_like(grid), square


def _kernel() -> float:
    parser, big, big_out, grid, grid_out, square = _inputs()
    acc = 0.0
    for _ in range(25):
        ns = parser.parse_args(_ARGV)
        acc += len(json.dumps(vars(ns), sort_keys=True))
    x = 0.5
    for i in range(4000):
        x = x * 0.999 + (i % 7) * 1e-3
    for _ in range(40):
        np.multiply(grid, 1.5, out=grid_out)
        np.minimum(grid_out, grid, out=grid_out)
        np.log1p(grid_out, out=grid_out)
        acc += float(grid_out.max())
    np.multiply(big, 1.0001, out=big_out)
    np.add(big_out, big, out=big_out)
    acc += float(big_out.sum())
    acc += float(np.linalg.slogdet(square)[1])
    return acc + x


def sample() -> float:
    """Median seconds of KERNELS_PER_SAMPLE kernels, after one more that
    warms the caches an op has just emptied."""
    _kernel()
    times = []
    for _ in range(KERNELS_PER_SAMPLE):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between samples ``before`` and ``after``, rescaled
    to the reference host."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
