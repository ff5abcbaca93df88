"""Benchmark of hybridscale through its command line, one workload a process.

    python3 perfbench/run.py --workload adhoc_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload's ops (seeded, see
workloads.py) go through ``hybridscale.cli.main`` in this process, one
after another, until their summed time reaches ``--seconds``; every op is
timed and then checked (checks.py).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and the metrics, which are the
end-to-end ones with ``--trace 0`` and the per-layer ones (tracing.py)
with ``--trace 1``.  The traced run also writes them to perfbench/out/.

The timed metrics are given at the reference host speed of hostspeed.py:
each op's time, and each set-up probe's, is rescaled by a reference kernel
sampled just before and just after it, so that the shared host's drifting
speed does not read as a change of the program.  The measured wall times
are printed beside them on the summary line.
"""

import os

# One BLAS thread, set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from hybridscale import cli  # noqa: E402
from hybridscale.topology import TopologyConfig, generate_topology  # noqa: E402
from tracing import Tracer  # noqa: E402

# Fresh processes that each time set-up; setup_s is their median.
SETUP_PROBES = 5
OUT_DIR = HERE / "out"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="build op 0, print the monotonic clock and exit")
    return ap.parse_args(argv)


def _call(main, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"exit code {rc} from {' '.join(argv)}")
    return out.getvalue()


def _run_op(op, main):
    """(seconds, outputs or None, errors) of one op; checks run after timing."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        outs = [_call(main, argv) for argv in op.calls]
    except Exception:
        return time.perf_counter() - t0, None, [traceback.format_exc()]
    return time.perf_counter() - t0, outs, []


def _check(op, outs) -> list[str]:
    """The op's check; output it cannot parse fails the op."""
    try:
        return op.check(outs)
    except (ValueError, KeyError, IndexError):
        return [f"unreadable output: {traceback.format_exc()}"]


def _setup_seconds(args) -> tuple[list[float], list[float]]:
    """Process start to built inputs, measured on fresh interpreters: the
    wall times, and the same at the reference host speed."""
    samples, scaled = [], []
    speed = hostspeed.sample()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(done.stdout.split()[-1]) - t0)
        before, speed = speed, hostspeed.sample()
        scaled.append(hostspeed.at_reference(samples[-1], before, speed))
    return samples, scaled


def _min_cut_errors(text: str) -> list[str]:
    """MIN_CUT of every instance in ``text`` against the plain cut sums."""
    errors = []
    for n, m, l, r_bs, alpha, seed, cut in checks.min_cut_rows(text):
        topo = generate_topology(TopologyConfig(n=n, m=m, l=l, seed=seed))
        own = checks.plain_min_cut(topo, alpha, workloads.POWER, r_bs)
        if not abs(own - cut) <= 1e-9 * max(1.0, abs(own)):
            errors.append(f"MIN_CUT {cut!r} at n={n} seed={seed}, plain sum {own!r}")
    return errors


def main(argv=None) -> int:
    args = _parse(argv)
    op = workloads.build_op(args.workload, args.seed, 0)
    if args.setup_probe:
        print(repr(time.perf_counter()))
        return 0

    tracer = Tracer() if args.trace else None
    main_call = cli.main
    if tracer is not None:
        main_call = tracer.wrap("cli.main", cli.main)

    times, scaled, errors_by_op, broken = [], [], [], set()
    hostspeed.sample()
    speed = hostspeed.sample()
    with tracer.installed(cli) if tracer else contextlib.nullcontext():
        while not times or sum(times) < args.seconds:
            if times:
                op = workloads.build_op(args.workload, args.seed, len(times))
            dt, outs, errs = _run_op(op, main_call)
            before, speed = speed, hostspeed.sample()
            if tracer is not None:
                tracer.settle_counts()
            times.append(dt)
            scaled.append(hostspeed.at_reference(dt, before, speed))
            if errs:
                broken.add(len(times) - 1)
            errors_by_op.append(errs or _check(op, outs))
            if len(times) == 1:
                first_out = outs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = sum(times)

    # MIN_CUT of the first op's instances from plain sums, once it parsed
    if args.workload in workloads.SWEEPS and not errors_by_op[0]:
        errors_by_op[0] += _min_cut_errors(first_out[0])

    # the last op again, untraced: same bytes, and the tracing overhead
    before = hostspeed.sample()
    repeat_seconds, again, errs = _run_op(op, cli.main)
    repeat_scaled = hostspeed.at_reference(repeat_seconds, before, hostspeed.sample())
    if outs is not None and again != outs:
        errors_by_op[-1].append("repeated op output differs: "
                                + (errs[0] if errs else "bytes changed"))

    failed = sum(1 for e in errors_by_op if e)
    # ops that raised are failed ops; a wrong output makes the run incorrect
    correct = not any(e for i, e in enumerate(errors_by_op) if i not in broken)
    for i, errs in enumerate(errors_by_op):
        for e in errs[:3]:
            print(f"op {i}: {e}", file=sys.stderr)

    if tracer is not None:
        metrics = tracer.metrics(len(times))
        overhead = scaled[-1] - repeat_scaled
        metrics["trace.overhead_ms"] = {"value": overhead * 1e3, "unit": "ms"}
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "ops": len(times), "op_seconds": times,
                        "op_seconds_at_reference": scaled,
                        "per_layer": metrics}, indent=1) + "\n")
    else:
        setup_wall, setup_scaled = _setup_seconds(args)
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"{args.workload} seed={args.seed}: {len(times)} ops; at reference "
              f"speed {metrics['ops_per_s']['value']:.4f} ops/s, op p50 "
              f"{metrics['op_p50_ms']['value']:.1f} ms (n={len(times)}), setup "
              f"{metrics['setup_s']['value']:.3f} s; wall {timed:.2f} s, "
              f"{len(times) / timed:.4f} ops/s, op p50 {statistics.median(times) * 1e3:.1f} ms, "
              f"setup {statistics.median(setup_wall):.3f} s; peak RSS {peak_rss_mb:.0f} MB")

    print(json.dumps({"correct": correct, "attempted": len(times),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
