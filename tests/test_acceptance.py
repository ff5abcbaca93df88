"""End-to-end acceptance gate: ten pinned criteria, one PASS line each.

Criteria 5-8 drive the command-line interface so that criterion 10 can
re-run the identical commands and compare output bytes.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import json
import math
import time

import numpy as np
import pytest

from hybridscale import cli

pytestmark = pytest.mark.acceptance
from hybridscale.scaling import (
    ScalingPoint,
    achievable_exponent,
    achievable_exponent_grid,
    classify_regime_3d,
    min_backhaul_exponent,
    upper_bound_exponent_grid,
)
from hybridscale.topology import (
    TopologyConfig,
    concentration_ok,
    generate_topology,
    max_nodes_unit_square,
)

SIZES = ["256", "512", "1024", "2048", "4096"]

C5_ARGV = ["simulate", "--sizes", *SIZES, "--alpha", "3", "--beta", "0",
           "--gamma", "0", "--eta", "inf", "--num-seeds", "20",
           "--schemes", "MH", "--power", "1e8", "--tdma-k", "289"]
C6_ARGV = ["simulate", "--sizes", *SIZES, "--alpha", "5", "--beta", "0.5",
           "--gamma", "0.25", "--eta", "inf", "--num-seeds", "20",
           "--schemes", "IMH", "--power", "1e3"]
C7_ARGV = ["simulate", "--sizes", *SIZES, "--alpha", "5", "--beta", "0.5",
           "--gamma", "0.25", "--eta", "0", "--num-seeds", "20",
           "--schemes", "IMH", "--power", "1e3"]
# six operating points x 17 seeds = 102 instances for the dominance check
C8_POINTS = [
    ("adhoc", "3.0", "0.0", "0.0", "inf", "100"),
    ("regime_b", "5.0", "0.5", "0.25", "inf", "1000"),
    ("capped_b", "3.0", "0.3", "0.3", "0.2", "1000"),
    ("regime_c", "2.5", "0.6", "0.25", "inf", "10"),
    ("regime_d", "2.4", "0.6", "0.3", "inf", "10"),
    ("starved", "3.0", "0.5", "0.25", "-0.4", "100"),
]


def _c8_argv(alpha, beta, gamma, eta, power):
    return ["simulate", "--sizes", "256", "--alpha", alpha, "--beta", beta,
            "--gamma", gamma, "--eta", eta, "--num-seeds", "17",
            "--power", power]


def _run(argv, path):
    t0 = time.perf_counter()
    rc = cli.main([*argv, "-o", str(path)])
    return rc, time.perf_counter() - t0


def _rows(path):
    lines = path.read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#")]
    return data[0].split(","), [l.split(",") for l in data[1:]]


def _slope(path, scheme):
    for line in path.read_text().splitlines():
        if line.startswith(f"# slope_{scheme}="):
            head, stderr = line.split(" stderr=")
            return float(head.split("=", 1)[1]), float(stderr)
    raise AssertionError(f"no fitted slope for {scheme} in {path}")


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def c5_run(outdir):
    path = outdir / "c5.csv"
    rc, elapsed = _run(C5_ARGV, path)
    return rc, elapsed, path


@pytest.fixture(scope="module")
def c6_run(outdir):
    path = outdir / "c6.csv"
    rc, elapsed = _run(C6_ARGV, path)
    return rc, elapsed, path


@pytest.fixture(scope="module")
def c7_run(outdir):
    path = outdir / "c7.csv"
    rc, elapsed = _run(C7_ARGV, path)
    return rc, elapsed, path


@pytest.fixture(scope="module")
def c8_runs(outdir):
    runs = []
    for name, *params in C8_POINTS:
        path = outdir / f"c8_{name}.csv"
        rc, _ = _run(_c8_argv(*params), path)
        runs.append((name, params, rc, path))
    return runs


def test_criterion_01_exponent_identity():
    """Achievable == upper bound on a 50^4 grid, tol 1e-12, < 10 s."""
    t0 = time.perf_counter()
    alphas = np.linspace(2.02, 10.0, 50)
    betas = np.linspace(0.0, 0.98, 50)
    gfrac = np.linspace(0.0, 1.0, 50)
    etas = np.concatenate([[-np.inf], np.linspace(-1.0, 1.6, 48), [np.inf]])
    gamma = gfrac[None, :] * (1.0 - betas[:, None]) * 0.999999
    b3, g3, e3 = betas[:, None, None], gamma[:, :, None], etas[None, None, :]
    worst, count = 0.0, 0
    for a in alphas:
        ach = achievable_exponent_grid(a, b3, g3, e3)
        up = upper_bound_exponent_grid(a, b3, g3, e3)
        worst = max(worst, float(np.max(np.abs(ach - up))))
        count += ach.size
    elapsed = time.perf_counter() - t0
    assert count == 50**4
    assert worst <= 1e-12
    assert elapsed < 10.0
    print(f"CRITERION 1: PASS - identity on {count} points, "
          f"max deviation {worst:.1e}, {elapsed:.2f}s")


def test_criterion_02_best_scheme_table(capsys):
    """Twelve operating points reproduce the known scheme/exponent table."""
    table = [
        # alpha, beta, gamma, scheme, exponent (same arithmetic as the code)
        (2.5, 0.0, 0.0, "HC", 2.0 - 2.5 / 2.0),
        (3.0, 0.2, 0.1, "MH", 0.5),
        (4.0, 0.1, 0.2, "MH", 0.5),
        (2.2, 0.3, 0.3, "HC", 2.0 - 2.2 / 2.0),
        (3.0, 0.3, 0.3, "IMH", 0.3 + 0.3),
        (5.0, 0.45, 0.1, "IMH", 0.45 + 0.1),
        (2.3, 0.6, 0.25, "HC", 2.0 - 2.3 / 2.0),
        (2.5, 0.6, 0.25, "IMH", 0.6 + (1.0 - 0.6) / 2.0),
        (8.0, 0.5, 0.26, "IMH", 0.5 + (1.0 - 0.5) / 2.0),
        (2.2, 0.6, 0.3, "HC", 2.0 - 2.2 / 2.0),
        (2.4, 0.6, 0.3, "ISH", 1.0 + 0.3 - 2.4 * (1.0 - 0.6) / 2.0),
        (3.0, 0.6, 0.3, "IMH", 0.6 + (1.0 - 0.6) / 2.0),
    ]
    for alpha, beta, gamma, scheme, exponent in table:
        rc = cli.main(["exponent", "--alpha", repr(alpha), "--beta", repr(beta),
                       "--gamma", repr(gamma), "--eta", "inf", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["best_scheme"] == scheme, (alpha, beta, gamma)
        assert report["exponent"] == exponent, (alpha, beta, gamma)
    print(f"CRITERION 2: PASS - all {len(table)} table points exact")


def test_criterion_03_regime_examples(outdir):
    """Named regime examples, the all-A weak-backhaul map, eta=1 == eta=inf."""
    for beta, gamma in [(0.0, 0.0), (0.3, 0.1), (0.5, 0.45), (0.7, 0.25)]:
        assert classify_regime_3d(beta, gamma, -0.6).label3d == "A"

    report = classify_regime_3d(0.3, 0.3, 0.2)
    assert report.label3d == "B~"
    segs = report.alpha_breakpoints
    assert [(s.alpha_min, s.alpha_max, s.scheme) for s in segs] == [
        (2.0, 3.0, "HC"), (3.0, math.inf, "IMH"),
    ]
    assert segs[1].formula == "beta + eta"
    assert achievable_exponent(ScalingPoint(4.0, 0.3, 0.3, 0.2)) == (0.3 + 0.2, "IMH")

    assert classify_regime_3d(0.6, 0.4, 0.2).label3d == "D~"

    grid = ["--beta-grid", "0", "0.95", "40", "--gamma-grid", "0", "0.95", "40"]
    weak = outdir / "map_weak.csv"
    assert cli.main(["regime-map", "--eta", "-0.6", *grid, "-o", str(weak)]) == 0
    _, rows = _rows(weak)
    assert rows and all(r[2] == "A" for r in rows)

    one, inf_ = outdir / "map_eta1.csv", outdir / "map_etainf.csv"
    assert cli.main(["regime-map", "--eta", "1", *grid, "-o", str(one)]) == 0
    assert cli.main(["regime-map", "--eta", "inf", *grid, "-o", str(inf_)]) == 0
    assert _rows(one) == _rows(inf_)
    print(f"CRITERION 3: PASS - labels, {len(rows)} all-A points, "
          "eta=1 map equals eta=inf map")


def test_criterion_04_min_backhaul_sufficiency():
    """eta* recovers the uncapped exponent exactly; eta*-0.05 strictly loses."""
    t0 = time.perf_counter()
    axis = np.linspace(0.01, 0.97, 40)
    alpha_grid = np.linspace(2.01, 8.0, 100)
    checked = 0
    for beta in axis:
        for gamma in axis:
            if beta + gamma > 0.98:
                continue
            checked += 1
            star = min_backhaul_exponent(beta, gamma)
            e_inf = achievable_exponent_grid(alpha_grid, beta, gamma, np.inf)
            e_star = achievable_exponent_grid(alpha_grid, beta, gamma, star)
            assert np.array_equal(e_star, e_inf), (beta, gamma)
            if star > -np.inf:
                e_less = achievable_exponent_grid(
                    alpha_grid, beta, gamma, star - 0.05
                )
                assert np.any(e_less < e_inf), (beta, gamma)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"CRITERION 4: PASS - sufficiency and minimality on {checked} "
          f"(beta, gamma) points, {elapsed:.2f}s")


def test_criterion_05_mh_slope(c5_run):
    rc, elapsed, path = c5_run
    assert rc == 0
    assert elapsed < 300.0
    slope, stderr = _slope(path, "MH")
    assert 0.35 <= slope <= 0.65
    print(f"CRITERION 5: PASS - MH slope {slope:.3f} (se {stderr:.3f}) "
          f"in [0.35, 0.65], {elapsed:.0f}s")


def test_criterion_06_imh_slope(c6_run):
    rc, elapsed, path = c6_run
    assert rc == 0
    assert elapsed < 300.0
    slope, stderr = _slope(path, "IMH")
    assert 0.6 <= slope <= 0.9
    print(f"CRITERION 6: PASS - IMH slope {slope:.3f} (se {stderr:.3f}) "
          f"in [0.6, 0.9], {elapsed:.0f}s")


def test_criterion_07_backhaul_clipping(c7_run):
    rc, elapsed, path = c7_run
    assert rc == 0
    _, rows = _rows(path)
    imh = [r for r in rows if r[0] == "IMH"]
    assert len(imh) == 100
    exercised = 0
    for r in imh:
        cap = int(r[2]) * float(r[4])      # m * R_BS, R_BS = n^0 = 1
        agg, access, backhaul = (float(r[k]) for k in (7, 8, 9))
        if access > cap:
            exercised += 1
            assert backhaul == cap, r
        assert agg <= cap + 1e-9, r
    assert exercised > 0
    print(f"CRITERION 7: PASS - backhaul stage == m*R_BS exactly on "
          f"{exercised}/{len(imh)} clip-exercised rows")


def test_criterion_08_cutset_dominance(c8_runs):
    instances = violations = 0
    for name, _, rc, path in c8_runs:
        assert rc == 0, f"{name}: CLI flagged a dominance violation"
        _, rows = _rows(path)
        cuts = {(r[1], r[6]): float(r[7]) for r in rows if r[0] == "MIN_CUT"}
        seen = set()
        for r in rows:
            if r[0] == "MIN_CUT":
                seen.add((r[1], r[6]))
                continue
            if float(r[7]) > cuts[(r[1], r[6])] + 1e-9:
                violations += 1
        instances += len(seen)
    assert instances >= 100
    assert violations == 0
    print(f"CRITERION 8: PASS - min_cut dominates all schemes on "
          f"{instances} instances, 0 violations")


def test_criterion_09_concentration():
    hits = sum(
        concentration_ok(generate_topology(TopologyConfig(n=1024, m=16, seed=s)))
        for s in range(200)
    )
    assert hits >= 190  # >= 95% of 200 seeds
    bound = 3.0 * math.log(4096)
    crowded_ok = sum(
        max_nodes_unit_square(generate_topology(TopologyConfig(n=4096, seed=s)))
        < bound
        for s in range(100)
    )
    assert crowded_ok >= 95
    print(f"CRITERION 9: PASS - per-cell concentration {hits}/200, "
          f"unit-square cap {crowded_ok}/100")


def test_criterion_10_byte_identical_reruns(outdir, c5_run, c6_run, c7_run,
                                            c8_runs):
    reruns = [(C5_ARGV, c5_run[2]), (C6_ARGV, c6_run[2]), (C7_ARGV, c7_run[2])]
    reruns += [(_c8_argv(*params), path) for _, params, _, path in c8_runs]
    for argv, first in reruns:
        again = outdir / (first.stem + "_again.csv")
        rc, _ = _run(argv, again)
        assert rc == 0
        assert again.read_bytes() == first.read_bytes(), first.name
    print(f"CRITERION 10: PASS - {len(reruns)} reruns byte-identical")
