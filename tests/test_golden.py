"""Golden outputs: the CLI reproduces committed output files byte for byte.

The files under ``tests/golden/`` pin the exact bytes of ``simulate`` (all
four schemes, R_BS = 0 and R_BS = inf with 16 BSs among them, and IMH and ISH
at a regime-D point with 25 BSs of 5 antennas, more than the 4 on each
boundary, so interior antennas and cells of unequal size occur; MH and HC
at the benchmark's sizes n = 1024 and 2048, and HC with many small clusters
of mixed shapes, cluster exponent 0.3) and ``bound``
(R_BS = inf with one BS on the midline, where the wired term is 0, and with
16 BSs, where it is inf) at small sizes; ``bound`` also at the infra
benchmark's sizes n = 1024-4096 with 25-64 BSs split by the midline and a
finite wired term, and at a regime-D point with up to 144 BSs of 12
antennas and an infinite wired term; and of the analytic subcommands
``regime-map`` (at seven backhaul exponents, among them the label edges
-0.5, 0 and 0.5, and on a grid with no point inside the simplex, which
gives the header alone), ``min-backhaul`` and ``exponent`` (text and JSON,
with its alpha-breakpoint table, among them one point on a rounded
breakpoint and one whose capped plateau changes scheme).  Every subcommand
is pinned as JSON too: ``simulate`` with its empty stage cells (null),
MIN_CUT rows and slopes, ``bound`` with its MIN rows and infinite wired
terms, ``regime-map``, ``min-backhaul`` with its -inf eta* cells, and
``exponent``.  A kernel rewrite that changes a
single floating-point rounding anywhere in MH, HC, IMH, ISH, the cut-set
bounds, the exponent formulas, the regime labels or the breakpoint table
fails here.
Regenerate a file only when an output change is intended, with the command
in its parametrization below.
"""

from pathlib import Path

import pytest

from hybridscale import cli

GOLDEN = Path(__file__).parent / "golden"

_SIZES_SEEDS = ["--sizes", "256", "512", "--seeds", "0", "1"]
_GRID_12 = ["--beta-grid", "0", "0.95", "12", "--gamma-grid", "0", "0.95", "12"]

# commands that write their output with -o
CASES = {
    "simulate_a3_b0_g0_etainf.csv": [
        "simulate", *_SIZES_SEEDS,
        "--alpha", "3", "--beta", "0", "--gamma", "0", "--eta=inf",
    ],
    "simulate_a3_b0.3_g0.3_eta0.2_k4.csv": [
        "simulate", *_SIZES_SEEDS,
        "--alpha", "3", "--beta", "0.3", "--gamma", "0.3", "--eta", "0.2",
        "--tdma-k", "4",
    ],
    # m = 16 BSs with no backhaul and with an unlimited one
    **{f"simulate_a3_b0.5_g0.25_eta{eta}.csv": [
        "simulate", *_SIZES_SEEDS,
        "--alpha", "3", "--beta", "0.5", "--gamma", "0.25", f"--eta={eta}",
    ] for eta in ("-inf", "inf")},
    # regime D: m = 25 and l = 5 at n = 256, m = 36 and l = 6 at n = 512
    "simulate_a2.4_b0.6_g0.3_etainf_ish.csv": [
        "simulate", *_SIZES_SEEDS,
        "--alpha", "2.4", "--beta", "0.6", "--gamma", "0.3", "--eta=inf",
        "--schemes", "IMH", "ISH", "--power", "10",
    ],
    # MH and HC at the sizes of the ad hoc benchmark sweep
    "simulate_a3_b0_g0_etainf_mh_hc_p100.csv": [
        "simulate", "--sizes", "1024", "2048", "--seeds", "0",
        "--alpha", "3", "--beta", "0", "--gamma", "0", "--eta=inf",
        "--schemes", "MH", "HC", "--power", "100",
    ],
    # many small HC clusters of mixed shapes
    "simulate_a2.5_b0_g0_etainf_hc_x0.3.csv": [
        "simulate", *_SIZES_SEEDS,
        "--alpha", "2.5", "--beta", "0", "--gamma", "0", "--eta=inf",
        "--schemes", "HC", "--power", "100", "--hc-cluster-exponent", "0.3",
    ],
    "bound_a3_b0.3_g0.3_eta0.2.csv": [
        "bound", *_SIZES_SEEDS,
        "--alpha", "3", "--beta", "0.3", "--gamma", "0.3", "--eta", "0.2",
    ],
    # unlimited backhaul: one BS on the midline (wired 0) and 16 BSs (wired inf)
    **{f"bound_a3_b{b}_g{g}_etainf.csv": [
        "bound", *_SIZES_SEEDS,
        "--alpha", "3", "--beta", b, "--gamma", g, "--eta=inf",
    ] for b, g in (("0", "0"), ("0.5", "0.25"))},
    # the cut at the infra sweep's sizes: 25-64 BSs split by the midline, R_BS = 1
    "bound_a3_b0.5_g0.25_eta0_n4096.csv": [
        "bound", "--sizes", "1024", "2048", "4096", "--seeds", "0", "1",
        "--alpha", "3", "--beta", "0.5", "--gamma", "0.25", "--eta", "0",
    ],
    # regime D: up to 144 BSs of 12 antennas, wired term inf
    "bound_a2.4_b0.6_g0.3_etainf_p10.csv": [
        "bound", "--sizes", "2048", "4096", "--seeds", "0",
        "--alpha", "2.4", "--beta", "0.6", "--gamma", "0.3", "--eta=inf",
        "--power", "10",
    ],
    # default 20 x 20 grid and reference alphas; eta = -inf is all A,
    # eta = -0.3 splits into A and B~, and -0.5, 0 and 0.5 sit on the edges
    # of the label ladder's cases
    **{f"regime_map_eta{eta}.csv": ["regime-map", f"--eta={eta}"]
       for eta in ("-inf", "-0.5", "-0.3", "0", "0.2", "0.5")},
    "regime_map_etainf.csv": ["regime-map", "--eta=inf", *_GRID_12,
                              "--alphas", "2.2", "2.8", "3.5", "6"],
    "regime_map_eta0.7.json": ["regime-map", "--eta", "0.7", *_GRID_12,
                               "--format", "json"],
    # no grid point lies inside the simplex: the header and no row
    **{f"regime_map_eta0.2_empty.{fmt}": [
        "regime-map", "--eta", "0.2", "--beta-grid", "0.96", "0.99", "3",
        "--gamma-grid", "0.5", "0.9", "3", "--format", fmt,
    ] for fmt in ("csv", "json")},
    "min_backhaul.csv": ["min-backhaul"],
    "min_backhaul.json": ["min-backhaul", "--format", "json"],
    # JSON of a table with null stage cells, MIN_CUT rows and slopes
    "simulate_a3_b0.5_g0.25_eta-inf.json": [
        "simulate", *_SIZES_SEEDS,
        "--alpha", "3", "--beta", "0.5", "--gamma", "0.25", "--eta=-inf",
        "--format", "json",
    ],
    # JSON of MIN rows with null cells, and of an infinite wired term and total
    "bound_a3_b0.5_g0.25_etainf.json": [
        "bound", *_SIZES_SEEDS,
        "--alpha", "3", "--beta", "0.5", "--gamma", "0.25", "--eta=inf",
        "--format", "json",
    ],
}

# exponent prints to stdout only: one point per best scheme, one on a rounded
# breakpoint (4 - 2(beta + gamma) is 2.5 on the default regime-map grid) and
# one B~ point whose capped plateau ISH holds before IMH does
_POINTS = {
    "a3_b0_g0_eta-inf": ["--alpha", "3", "--beta", "0", "--gamma", "0",
                         "--eta=-inf"],
    "a2.5_b0.3_g0.3_eta0.2": ["--alpha", "2.5", "--beta", "0.3", "--gamma", "0.3",
                              "--eta", "0.2"],
    "a2.5_b0.5_g0.45_etainf": ["--alpha", "2.5", "--beta", "0.5", "--gamma", "0.45",
                               "--eta=inf"],
    "a4_b0.5_g0.25_eta0.1": ["--alpha", "4", "--beta", "0.5", "--gamma", "0.25",
                             "--eta", "0.1"],
    "a2.5_b0.6499999999999999_g0.09999999999999999_eta0.2": [
        "--alpha", "2.5", "--beta", "0.6499999999999999",
        "--gamma", "0.09999999999999999", "--eta", "0.2"],
    "a2.6_b0.6_g0.35_eta0.1": ["--alpha", "2.6", "--beta", "0.6", "--gamma", "0.35",
                               "--eta", "0.1"],
}
STDOUT_CASES = {
    **{f"exponent_{k}.txt": ["exponent", *v] for k, v in _POINTS.items()},
    **{f"exponent_{k}.json": ["exponent", *v, "--json"] for k, v in _POINTS.items()},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert cli.main([*CASES[name], "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(k for k, v in CASES.items()
                                        if v[0] in ("simulate", "bound")))
def test_monte_carlo_output_matches_golden_on_any_cores(name, cores, tmp_path,
                                                        monkeypatch):
    """The same bytes in one process and from a pool of two or three forked
    workers; with three, HC's slices hold unequal numbers of pairs."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    out = tmp_path / name
    assert cli.main([*CASES[name], "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_tiny_network_on_three_workers_matches_one_process(tmp_path, monkeypatch):
    """At n = 4 HC has one cluster, so none of its three slices holds a
    pair; at n = 16 it has four clusters."""
    argv = ["simulate", "--sizes", "4", "16", "--seeds", "0", "1", "--alpha", "3",
            "--beta", "0", "--gamma", "0", "--eta=inf", "--schemes", "MH", "HC"]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    outputs = []
    for cores in (1, 3):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        out = tmp_path / f"cores{cores}.csv"
        assert cli.main([*argv, "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert b"\nHC,4,1,1," in outputs[0] and b"\nHC,16,1,1," in outputs[0]


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_cli_stdout_matches_golden(name, capsys):
    assert cli.main(STDOUT_CASES[name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / name).read_bytes()
