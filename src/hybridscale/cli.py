"""Command-line front end for the analyzer and the simulator.

Five flat subcommands: ``exponent`` prints the scaling report for one
operating point, ``regime-map`` and ``min-backhaul`` sweep the (beta,
gamma) plane into CSV, ``simulate`` runs the seeded Monte Carlo schemes
and fits log-log slopes, and ``bound`` evaluates the cut-set upper
bounds.  A JSON config file (``--config``, ``schema_version`` 1) may
supply any option; explicit flags win.  All randomness flows from the
seeds given on the command line or in the config — there is no
wall-clock seeding anywhere.

``simulate`` and ``bound`` split each (n, seed) instance into units (its
cut bound, and each requested scheme) and run them on forked worker
processes, largest n first: every usable core when BLAS runs on one
thread (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, is 1), and
one process otherwise, where BLAS threads would oversubscribe the cores.
A unit is plain data: it builds its instance, runs, drops the instance
and sends back only the scalars the rows need.  Rows, checks and slopes
are put together in serial order, so the output bytes do not depend on
the worker count.

CSV files start with ``# key=value`` comment lines carrying the full
effective configuration (sorted by key), so re-running the embedded
configuration reproduces the file byte for byte.  Exit codes: 0 on
success, 1 when a worker process died, 2 for invalid configuration,
usage or geometry, or a rate or cut that is not finite, 3 when a run
detects an invariant violation (a simulated aggregate exceeding the
cut-set bound).  An error is the first one in serial order.

Simulation CSV columns: scheme,n,m,l,R_BS,alpha,seed,aggregate,access,
backhaul,exit — one row per (scheme, n, seed) plus a MIN_CUT row per
(n, seed); stage cells are empty for schemes without stages.  Fitted
slopes are appended as trailing ``# slope_<scheme>=...`` comments.
Bound CSV columns: n,m,l,R_BS,alpha,seed,cut,D1,D2,D3,wired,total.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .channel import ChannelRealization, ZeroDistanceError
# bound_l1 and bound_l2 are not called here, but perfbench/tracing.py reads
# and restores them among the names it wraps
from .cutset import bound_l1, bound_l2, cut_bounds
from .protocols import RUNNERS as _RUNNERS
from .protocols import (
    EmptyRoutingCellError,
    NonFiniteRateError,
    SimConfig,
    fit_scaling_exponent,
)
from .scaling import (
    INF,
    InvalidPointError,
    ScalingPoint,
    _check_eta,
    achievable_exponent_grid,
    classify_regime_3d,
    map_finite_n,
    min_backhaul_exponent,
    min_backhaul_exponent_grid,
    regime_label_grid,
)
from .topology import InfeasibleGeometryError, TopologyConfig, generate_topology

SCHEMA_VERSION = 1

SIM_COLUMNS = (
    "scheme", "n", "m", "l", "R_BS", "alpha", "seed",
    "aggregate", "access", "backhaul", "exit",
)
BOUND_COLUMNS = (
    "n", "m", "l", "R_BS", "alpha", "seed",
    "cut", "D1", "D2", "D3", "wired", "total",
)

#: SimConfig fields that only ``simulate`` sets; their defaults are SimConfig's
_SIM_KNOBS = ("tdma_k", "hc_cluster_exponent", "hc_quant_bits")

#: the default of each optional flag by destination, the same in every
#: subcommand that has the flag; a flag not listed here is required
_DEFAULTS = {
    "json": False, "output": None, "format": "csv",
    "beta_grid": (0.0, 0.95, 20), "gamma_grid": (0.0, 0.95, 20),
    "alphas": (2.5, 3.0, 5.0),
    "seeds": None, "num_seeds": None, "seed_base": 0, "power": 100.0,
    "schemes": tuple(_RUNNERS), **{k: getattr(SimConfig, k) for k in _SIM_KNOBS},
}


class ConfigError(Exception):
    """Bad config file, bad flag combination, or bad parameter value."""


class WorkerDiedError(Exception):
    """A pool worker ended before it returned the result of its unit."""


# ---------------------------------------------------------------------------
# Option plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, "
            f"got {raw.get('schema_version')!r}"
        )
    return {k: v for k, v in raw.items() if k != "schema_version"}


def _typed(action: argparse.Action, value):
    """A config value checked and converted as its flag's parser would."""
    bad = ConfigError(f"config key {action.dest} has a bad value: {value!r}")
    if action.nargs == 0:  # a store_true flag
        if not isinstance(value, bool):
            raise bad
        return value
    items = value if isinstance(value, list) else [value]
    if ((action.nargs is None) == isinstance(value, list)
            or (action.nargs == "+" and not items)
            or (isinstance(action.nargs, int) and len(items) != action.nargs)):
        raise bad
    if action.type is None:
        if not all(isinstance(v, str) for v in items):
            raise bad
    else:
        try:
            items = [action.type(str(v)) for v in items]
        except ValueError:
            raise bad from None
    if action.choices and not set(items) <= set(action.choices):
        raise bad
    return items if action.nargs is not None else items[0]


def _effective(args: argparse.Namespace) -> dict:
    """Merge defaults < config file < explicit flags (flags parse to None).

    The subcommand's flags are its options, and its only config keys."""
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    actions = [a for a in args.parser._actions if a.dest != "help"]
    unknown = set(config) - {a.dest for a in actions}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for action in actions:
        key, flag = action.dest, getattr(args, action.dest)
        if flag is not None:
            out[key] = flag
        elif key in config:
            out[key] = _typed(action, config[key])
        elif key in _DEFAULTS:
            out[key] = _DEFAULTS[key]
        else:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return out


def _resolve_seeds(opts: dict) -> list[int]:
    seeds, count = opts["seeds"], opts["num_seeds"]
    if seeds is not None and count is not None:
        raise ConfigError("give either --seeds or --num-seeds, not both")
    if seeds is None:
        if count is None:
            raise ConfigError("simulation commands need explicit seeds")
        if count < 1:
            raise ConfigError(f"--num-seeds must be positive, got {count}")
        seeds = list(range(opts["seed_base"], opts["seed_base"] + count))
    if not seeds:
        raise ConfigError("at least one seed is required")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be non-negative, got {min(seeds)}")
    return seeds


def _grid(spec, name: str) -> np.ndarray:
    lo, hi, steps = spec
    if not all(map(math.isfinite, spec)):
        raise ConfigError(f"{name} grid must be finite, got {' '.join(map(str, spec))}")
    if steps != int(steps) or int(steps) < 1:
        raise ConfigError(f"{name} steps must be a positive integer, got {steps}")
    if hi < lo:
        raise ConfigError(f"{name} grid has max < min")
    return np.linspace(float(lo), float(hi), int(steps))


def _fmt(v) -> str:
    """Stable cell text: the shortest repr for floats, str otherwise, '' for
    None.  In a CSV column whose cells are all floats, ``_fmt_column`` computes
    that repr once per distinct bit pattern of the column."""
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _fmt_column(cells) -> list[str]:
    """``_fmt`` of each cell.  A column of Python floats is formatted once per
    distinct bit pattern, not per distinct value: 0.0 == -0.0 but their
    texts differ, and nan != nan.  A column of Python strs is its own text;
    any other column goes through ``_fmt`` cell by cell."""
    kinds = set(map(type, cells))
    if kinds == {str}:
        return list(cells)
    if kinds != {float}:
        return [_fmt(c) for c in cells]
    bits, where = np.unique(np.array(cells, dtype=float).view(np.int64),
                            return_inverse=True)
    texts = np.array([float.__repr__(v) for v in bits.view(float).tolist()],
                     dtype=object)
    return texts[where].tolist()


def _emit(opts: dict, header: dict, columns, rows, trailers, extra: dict) -> None:
    """Write one table as CSV (default) or a JSON mirror of the same values.

    The CSV body is formatted column by column (``_fmt_column``): a float
    cell is its shortest repr, computed once per distinct bit pattern of its
    column."""
    header = dict(header)
    header["schema_version"] = SCHEMA_VERSION
    header["tool"] = f"hybridscale {__version__}"
    if opts["format"] == "json":
        payload = {
            "header": {k: header[k] for k in sorted(header)},
            "columns": list(columns),
            "rows": [list(r) for r in rows],
            **extra,
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"# {k}={_fmt(header[k])}" for k in sorted(header)]
        lines.append(",".join(columns))
        cells = [_fmt_column(col) for col in zip(*rows)]
        lines.extend(map(",".join, zip(*cells)))
        lines.extend(trailers)
        text = "\n".join(lines) + "\n"
    if opts["output"]:
        with _open_output(opts["output"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _open_output(path: str, mode: str):
    try:
        return open(path, mode, encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _point(opts: dict) -> ScalingPoint:
    return ScalingPoint(opts["alpha"], opts["beta"], opts["gamma"], opts["eta"])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_exponent(opts: dict) -> int:
    p = _point(opts)
    report = classify_regime_3d(p.beta, p.gamma, p.eta, alpha=p.alpha)
    eta_star = min_backhaul_exponent(p.beta, p.gamma, report.label2d)
    if opts["json"]:
        blob = report.to_dict()
        blob["min_backhaul_exponent"] = eta_star
        blob["point"] = {"alpha": p.alpha, "beta": p.beta,
                         "gamma": p.gamma, "eta": p.eta}
        sys.stdout.write(json.dumps(blob, sort_keys=True) + "\n")
        return 0
    lines = [
        f"point: alpha={_fmt(p.alpha)} beta={_fmt(p.beta)} "
        f"gamma={_fmt(p.gamma)} eta={_fmt(p.eta)}",
        f"exponent: {_fmt(report.exponent)}",
        f"best_scheme: {report.best_scheme}",
        f"regime_2d: {report.label2d}",
        f"regime_3d: {report.label3d}",
        f"dof_limited: {str(report.dof_limited).lower()}",
        f"infra_limited: {str(report.infra_limited).lower()}",
        f"min_backhaul_exponent: {_fmt(eta_star)}",
        "alpha_breakpoints:",
    ]
    lines += [
        f"  ({_fmt(seg.alpha_min)}, {_fmt(seg.alpha_max)}): "
        f"{seg.scheme}  e = {seg.formula}"
        for seg in report.alpha_breakpoints
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _sweep(opts: dict) -> tuple[np.ndarray, np.ndarray, dict]:
    """Beta and gamma of the grid points inside the simplex, beta-major, and
    the grids' header."""
    beta, gamma = np.meshgrid(_grid(opts["beta_grid"], "beta"),
                              _grid(opts["gamma_grid"], "gamma"), indexing="ij")
    inside = ((0.0 <= beta) & (beta < 1.0) & (0.0 <= gamma) & (gamma < 1.0)
              & (beta + gamma <= 1.0))
    grids = {k: " ".join(_fmt(v) for v in opts[k])
             for k in ("beta_grid", "gamma_grid")}
    return beta[inside], gamma[inside], grids


def _cmd_regime_map(opts: dict) -> int:
    eta, alphas = opts["eta"], opts["alphas"]
    if not all(math.isfinite(a) and a > 2.0 for a in alphas):
        raise ConfigError("reference alphas must be finite and exceed 2")
    beta, gamma, grids = _sweep(opts)
    _check_eta(eta)
    columns = ["beta", "gamma", "label3d"] + [f"e_alpha_{_fmt(a)}" for a in alphas]
    es = achievable_exponent_grid(np.array(alphas)[None, :], beta[:, None],
                                  gamma[:, None], eta).tolist()
    rows = [[b, g, label, *e] for b, g, label, e in
            zip(beta.tolist(), gamma.tolist(),
                regime_label_grid(beta, gamma, eta).tolist(), es)]
    header = {"command": "regime-map", "eta": eta,
              "alphas": " ".join(_fmt(a) for a in alphas), **grids}
    _emit(opts, header, columns, rows, [], {})
    return 0


def _cmd_min_backhaul(opts: dict) -> int:
    beta, gamma, grids = _sweep(opts)
    labels = regime_label_grid(beta, gamma, INF)
    eta_star = min_backhaul_exponent_grid(beta, gamma, labels)
    negligible = ~(eta_star > 0.0)  # covers eta* = -inf as well
    rows = [[b, g, label, e, str(neg).lower()] for b, g, label, e, neg in
            zip(beta.tolist(), gamma.tolist(), labels.tolist(),
                eta_star.tolist(), negligible.tolist())]
    _emit(opts, {"command": "min-backhaul", **grids},
          ["beta", "gamma", "regime", "eta_star", "negligible"], rows, [], {})
    return 0


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(units: int) -> int:
    """Worker processes for ``units`` units: every usable core when BLAS runs
    on one thread (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, is 1),
    else 1, where BLAS's own threads would oversubscribe the cores; never
    more than the units."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    cores = _usable_cores() if blas == "1" else 1
    return max(1, min(cores, units))


def _plans(opts: dict, p: ScalingPoint, seeds: list[int]):
    """The (n, seed, fm, cfg) of each instance in serial order, up to the
    first one whose size or configuration is invalid, and that error (None
    when every instance was planned)."""
    path = opts["output"]
    if path:  # an unwritable -o fails before any Monte Carlo
        existed = os.path.lexists(path)
        _open_output(path, "a").close()
        if not existed:  # so a run that fails leaves no file behind
            os.remove(path)
    plans = []
    for n in opts["sizes"]:
        for seed in seeds:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    fm = map_finite_n(n, p)
                cfg = SimConfig(p=opts["power"], r_bs=fm.r_bs,
                                **{k: opts[k] for k in _SIM_KNOBS if k in opts})
            except ValueError as exc:  # n < 4, n^eta overflow, tdma_k, bad power
                return plans, ConfigError(str(exc))
            plans.append((n, seed, fm, cfg))
    return plans, None


def _unit(alpha: float, plan: tuple, name: str):
    """One unit of the instance ``plan`` at path-loss exponent ``alpha``: its
    (L1, L2, min cut) for ``name`` "cut", else scheme ``name``'s (aggregate,
    stage rates).  The unit builds the instance's topology and channel
    first, so their errors come first, and drops them when it returns, so a
    process holds one instance at a time.  A min cut or aggregate that is
    not finite is an error; an overflow on the way warns nothing, because
    it either ends in that error or does not reach the result."""
    n, seed, fm, cfg = plan
    topo = generate_topology(TopologyConfig(n=n, m=fm.m, l=fm.l, seed=seed))
    ch = ChannelRealization(topo, alpha=alpha, phase_seed=seed)
    with np.errstate(over="ignore"):
        if name == "cut":
            b1, b2 = cut_bounds(topo, ch, cfg)
            result = b1, b2, min(b1.total, b2.total)
            value, name = result[2], "MIN_CUT"
        else:
            res = _RUNNERS[name](topo, ch, cfg)
            value = res.aggregate_throughput
            result = value, res.stage_rates
    if not math.isfinite(value):
        raise NonFiniteRateError(f"{name} is {_fmt(value)} at n={n} seed={seed}, "
                                 f"power {_fmt(cfg.p)}; a rate must be finite")
    return result


def _run_units(units: list) -> list:
    """``_unit(*u)`` of each u in ``units``, in their order; the error raised
    is the first one in that order.

    With one worker, or without ``fork``, the units run here one by one.
    Otherwise they run on a pool of forked workers.  A unit is plain data;
    the runners and the channel class it uses are ``cli``'s names, which a
    worker inherits through the fork, so nothing that cannot be pickled (a
    closure, a class defined in a function) ever has to be."""
    workers = _worker_count(len(units))
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            return _pool_run(units, workers, multiprocessing.get_context("fork"))
    return [_unit(*u) for u in units]


def _pool_run(units: list, workers: int, context) -> list:
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=context)
    try:
        # largest n first, in serial order within each n (sorted is stable)
        order = sorted(range(len(units)), key=lambda i: -units[i][1][0])
        futures = {i: pool.submit(_unit, *units[i]) for i in order}
        return [futures[i].result() for i in range(len(units))]
    except BrokenProcessPool as exc:
        raise WorkerDiedError(f"a worker process died ({exc}); rerun on one core "
                              "(e.g. under taskset -c 0) to run in one process") from None
    finally:
        pool.shutdown(cancel_futures=True)


def _evaluate(opts: dict, p: ScalingPoint, seeds: list[int], schemes) -> list:
    """Each planned (n, seed, fm, cfg) with the results of its units, in
    serial order: (L1, L2, min cut), then one (aggregate, stage rates) per
    scheme.  The error raised is the first in serial order: a unit's, or
    else the one that stopped the planning."""
    plans, failure = _plans(opts, p, seeds)
    names = ("cut", *schemes)
    results = iter(_run_units([(p.alpha, plan, name) for plan in plans for name in names]))
    if failure is not None:
        raise failure
    return [(plan, [next(results) for _ in names]) for plan in plans]


def _run_header(command: str, p: ScalingPoint, opts: dict, seeds: list[int]) -> dict:
    return {"command": command, "alpha": p.alpha, "beta": p.beta, "gamma": p.gamma,
            "eta": p.eta, "power": opts["power"],
            "sizes": " ".join(map(str, opts["sizes"])), "seeds": " ".join(map(str, seeds))}


def _cmd_simulate(opts: dict) -> int:
    seeds = _resolve_seeds(opts)
    schemes = [s.upper() for s in opts["schemes"]]
    bad = [s for s in schemes if s not in _RUNNERS]
    if bad:
        raise ConfigError(f"unknown schemes {bad}; choose from {list(_RUNNERS)}")
    schemes = [s for s in _RUNNERS if s in schemes]
    p = _point(opts)

    rows = []
    agg: dict[str, dict[int, list[float]]] = {s: {} for s in schemes}
    violations = []
    for (n, seed, fm, _), ((_, _, cut), *runs) in _evaluate(opts, p, seeds, schemes):
        for scheme, (aggregate, stages) in zip(schemes, runs):
            rows.append([
                scheme, n, fm.m, fm.l, fm.r_bs, p.alpha, seed, aggregate,
                stages.access if stages else None,
                stages.backhaul if stages else None,
                stages.exit if stages else None,
            ])
            agg[scheme].setdefault(n, []).append(aggregate)
            if aggregate > cut + 1e-9:
                violations.append(f"{scheme} n={n} seed={seed} "
                                  f"aggregate={_fmt(aggregate)} cut={_fmt(cut)}")
        rows.append(["MIN_CUT", n, fm.m, fm.l, fm.r_bs, p.alpha, seed,
                     cut, None, None, None])

    slopes = {}
    for scheme in schemes:
        means = [(n, float(np.mean(v))) for n, v in sorted(agg[scheme].items())]
        if len(means) >= 3 and all(t > 0.0 for _, t in means):
            slope, stderr = fit_scaling_exponent(means)
            slopes[scheme] = {"slope": slope, "stderr": stderr}
    trailers = [
        f"# slope_{s}={_fmt(slopes[s]['slope'])} "
        f"stderr={_fmt(slopes[s]['stderr'])}"
        for s in sorted(slopes)
    ]

    header = {**_run_header("simulate", p, opts, seeds),
              "schemes": " ".join(schemes), **{k: opts[k] for k in _SIM_KNOBS}}
    _emit(opts, header, SIM_COLUMNS, rows, trailers, {"slopes": slopes})
    if violations:
        print(f"invariant violation: {len(violations)} row(s) exceed the cut-set "
              f"bound: {'; '.join(violations)}", file=sys.stderr)
        return 3
    return 0


def _cmd_bound(opts: dict) -> int:
    seeds = _resolve_seeds(opts)
    p = _point(opts)
    rows = []
    for (n, seed, fm, _), [(b1, b2, cut)] in _evaluate(opts, p, seeds, ()):
        base = [n, fm.m, fm.l, fm.r_bs, p.alpha, seed]
        for b in (b1, b2):
            rows.append(base + [b.cut, b.wireless_terms["D1"],
                                b.wireless_terms["D2"], b.wireless_terms["D3"],
                                b.wired_term, b.total])
        rows.append(base + ["MIN", None, None, None, None, cut])
    _emit(opts, _run_header("bound", p, opts, seeds), BOUND_COLUMNS, rows, [], {})
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_point_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alpha", type=float, help="path-loss exponent (> 2)")
    sp.add_argument("--beta", type=float, help="BS density exponent, m = n^beta")
    sp.add_argument("--gamma", type=float, help="antenna exponent, l = n^gamma")
    sp.add_argument("--eta", type=float,
                    help="backhaul exponent, R_BS = n^eta (inf/-inf allowed)")


def _add_io_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--output", "-o", help="output path (default: stdout)")
    sp.add_argument("--format", choices=("csv", "json"),
                    help="output format (default csv)")


def _add_seed_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seeds", type=int, nargs="*",
                    help="explicit seed list (exclusive with --num-seeds)")
    sp.add_argument("--num-seeds", type=int, help="run seeds base..base+count-1")
    sp.add_argument("--seed-base", type=int, help="first seed for --num-seeds")


def _add_grid_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--beta-grid", type=float, nargs=3,
                    metavar=("MIN", "MAX", "STEPS"))
    sp.add_argument("--gamma-grid", type=float, nargs=3,
                    metavar=("MIN", "MAX", "STEPS"))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later one;
    parsing keeps all per-call state in the returned namespace."""
    parser = argparse.ArgumentParser(
        prog="hybridscale",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", help="JSON config file (schema_version 1); "
                                         "flags override config values")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("exponent", help="scaling report for one operating point")
    _add_point_flags(sp)
    sp.add_argument("--json", action="store_true", default=None,
                    help="machine-readable report")
    sp.set_defaults(func=_cmd_exponent)

    sp = sub.add_parser("regime-map",
                        help="sweep (beta, gamma) into labeled CSV rows")
    sp.add_argument("--eta", type=float)
    sp.add_argument("--alphas", type=float, nargs="+",
                    help="reference alphas for the exponent columns")
    _add_grid_flags(sp)
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_regime_map)

    sp = sub.add_parser("min-backhaul",
                        help="minimum backhaul exponent eta* over (beta, gamma)")
    _add_grid_flags(sp)
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_min_backhaul)

    sp = sub.add_parser("simulate",
                        help="seeded Monte Carlo of the schemes plus cut bounds")
    sp.add_argument("--sizes", type=int, nargs="+", help="network sizes n")
    _add_point_flags(sp)
    _add_seed_flags(sp)
    sp.add_argument("--schemes", nargs="+", help="subset of MH HC IMH ISH")
    sp.add_argument("--power", type=float, help="per-node transmit power P")
    sp.add_argument("--tdma-k", type=int, help="spatial reuse factor")
    sp.add_argument("--hc-cluster-exponent", type=float)
    sp.add_argument("--hc-quant-bits", type=int)
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("bound", help="cut-set bounds per instance")
    sp.add_argument("--sizes", type=int, nargs="+", help="network sizes n")
    _add_point_flags(sp)
    _add_seed_flags(sp)
    sp.add_argument("--power", type=float, help="per-node transmit power P")
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_bound)
    for sp in sub.choices.values():  # config values are typed by these flags
        sp.set_defaults(parser=sp)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(_effective(args))
    except (ConfigError, InvalidPointError, InfeasibleGeometryError,
            EmptyRoutingCellError, ZeroDistanceError, NonFiniteRateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkerDiedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
