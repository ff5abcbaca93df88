"""Seeded inputs of the three workloads.

Op r of a run is built from the pair (seed, r) alone, so one seed gives the
same inputs in every run, and no two ops of a run share their inputs.  An
op is a list of argv lists for ``hybridscale.cli.main``; ``check`` is what
the benchmark verifies about the outputs of those calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("adhoc_sweep", "infra_sweep", "analytic")

POWER = 100.0

# (sizes, (alpha, beta, gamma, eta), schemes)
SWEEPS = {
    # one BS with one antenna: pure ad hoc, MH and HC only; about 2 s an op
    "adhoc_sweep": ((512, 1024, 2048), (3.0, 0.0, 0.0, math.inf), ("MH", "HC")),
    # R_BS = n^0 = 1, regime B~: IMH and ISH only (m=64, l=8 at n=4096);
    # about 3 s an op
    "infra_sweep": ((1024, 2048, 4096), (3.0, 0.5, 0.25, 0.0), ("IMH", "ISH")),
}

# An analytic op is 7 regime-maps, 2 min-backhauls and 2 exponent batches,
# about 1.1 s on a 2-core 2.1 GHz Xeon VM; each part takes 0.08-0.12 s.
MAP_STEPS = 100          # regime-map grid is MAP_STEPS x MAP_STEPS
BACKHAUL_STEPS = 100     # min-backhaul grid
EXPONENT_BATCH = 48      # exponent --json calls per batch, 8 per regime
MAP_ETA_BANDS = ((-math.inf, -math.inf), (-1.5, -0.5), (-0.5, 0.0), (0.0, 0.5),
                 (0.5, 1.0), (1.0, 1.5), (math.inf, math.inf))
REGIMES = ("A", "B", "C", "D", "B~", "D~")


@dataclass
class Op:
    calls: list[list[str]]
    check: Callable[[list[str]], list[str]]


def _arg(x: float) -> str:
    return repr(float(x))


def _simulate_op(workload: str, instance_seed: int) -> Op:
    sizes, (alpha, beta, gamma, eta), schemes = SWEEPS[workload]
    argv = ["simulate", "--sizes", *map(str, sizes), "--seeds", str(instance_seed),
            "--alpha", _arg(alpha), "--beta", _arg(beta), "--gamma", _arg(gamma),
            f"--eta={_arg(eta)}", "--schemes", *schemes, "--power", _arg(POWER)]
    return Op([argv],
              lambda outs: checks.check_simulate(outs[0], sizes, schemes))


def _grid(rng, steps: int) -> tuple[float, float, float]:
    # jittered ends, so no two ops share a grid
    return (float(rng.uniform(0.0, 0.01)), float(rng.uniform(0.94, 0.95)), float(steps))


def _regime_map_op(rng, band) -> Op:
    lo, hi = band
    eta = lo if lo == hi else float(rng.uniform(lo, hi))
    bg, gg = _grid(rng, MAP_STEPS), _grid(rng, MAP_STEPS)
    alphas = [float(a) for a in np.sort(rng.uniform(2.05, 6.0, 3))]
    check_rng = np.random.default_rng(rng.integers(2**63))
    argv = ["regime-map", f"--eta={_arg(eta)}", "--alphas", *map(_arg, alphas),
            "--beta-grid", *map(_arg, bg), "--gamma-grid", *map(_arg, gg)]
    return Op([argv],
              lambda outs: checks.check_regime_map(outs[0], (bg, gg), eta, alphas,
                                                   check_rng))


def _min_backhaul_op(rng) -> Op:
    bg, gg = _grid(rng, BACKHAUL_STEPS), _grid(rng, BACKHAUL_STEPS)
    check_rng = np.random.default_rng(rng.integers(2**63))
    argv = ["min-backhaul", "--beta-grid", *map(_arg, bg), "--gamma-grid", *map(_arg, gg)]
    return Op([argv],
              lambda outs: checks.check_min_backhaul(outs[0], (bg, gg), check_rng))


def _candidates(rng, k: int):
    """k points (beta, gamma, eta): half over the whole domain, half near
    the gamma = 1 - beta edge at 0 <= eta < 0.9, where the thin D~ region
    lies."""
    beta = rng.uniform(0.0, 0.95, k)
    gamma = rng.uniform(0.0, 1.0, k) * np.minimum(0.95, 1.0 - beta)
    eta = np.where(rng.uniform(size=k) < 0.25, math.inf, rng.uniform(-1.0, 1.2, k))
    h = k // 2
    eta[h:] = rng.uniform(0.0, 0.9, k - h)
    beta[h:] = rng.uniform(0.05, 1.0, k - h) * (1.0 - eta[h:])
    top = 1.0 - beta[h:]
    gamma[h:] = rng.uniform(np.clip(beta[h:] ** 2 + (eta[h:] - 2.0) * beta[h:] + 1.0,
                                    0.0, top), top)
    return beta, gamma, eta


def _exponent_op(rng) -> Op:
    """EXPONENT_BATCH points, the same number in each of the six regimes,
    every one away from a regime boundary."""
    per = EXPONENT_BATCH // len(REGIMES)
    picked = {lab: [] for lab in REGIMES}
    while min(len(v) for v in picked.values()) < per:
        beta, gamma, eta = _candidates(rng, 256)
        for i, lab in enumerate(checks.stable_labels(beta, gamma, eta)):
            if lab is not None and len(picked[lab]) < per:
                alpha = float(rng.uniform(2.05, 6.0))
                picked[lab].append((alpha, float(beta[i]), float(gamma[i]), float(eta[i])))
    queries = [q for lab in REGIMES for q in picked[lab]]
    labels = [lab for lab in REGIMES for _ in picked[lab]]
    calls = [["exponent", "--alpha", _arg(a), "--beta", _arg(b), "--gamma", _arg(g),
              f"--eta={_arg(e)}", "--json"] for a, b, g, e in queries]
    return Op(calls,
              lambda outs: checks.check_exponents(outs, queries, labels))


def _joined(parts: list[Op]) -> Op:
    def check(outs):
        errors, i = [], 0
        for part in parts:
            errors += part.check(outs[i:i + len(part.calls)])
            i += len(part.calls)
        return errors
    return Op([c for part in parts for c in part.calls], check)


def build_op(workload: str, seed: int, r: int) -> Op:
    """Op r of a run; the same (workload, seed, r) gives the same op."""
    rng = np.random.default_rng([seed, r, WORKLOADS.index(workload)])
    if workload in SWEEPS:
        return _simulate_op(workload, int(rng.integers(2**31)))
    if workload == "analytic":
        return _joined([_regime_map_op(rng, band) for band in MAP_ETA_BANDS]
                       + [_min_backhaul_op(rng) for _ in range(2)]
                       + [_exponent_op(rng) for _ in range(2)])
    raise ValueError(f"unknown workload {workload!r}")
