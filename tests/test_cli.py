"""CLI surface: reports, sweeps, reproducibility, exit codes."""

import importlib.util
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hybridscale import cli
from hybridscale.channel import ChannelRealization, ZeroDistanceError
from hybridscale.cutset import bound_l1, bound_l2
from hybridscale.protocols import SimConfig, SimResult
from hybridscale.scaling import (
    ScalingPoint,
    achievable_exponent,
    classify_regime_2d,
    classify_regime_3d,
    min_backhaul_exponent,
)
from hybridscale.topology import (
    InfeasibleGeometryError,
    TopologyConfig,
    generate_topology,
)


def _csv_rows(path):
    lines = path.read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#")]
    return data[0].split(","), [l.split(",") for l in data[1:]]


def _report(capsys, *argv):
    assert cli.main(["exponent", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_exponent_known_points(capsys):
    r = _report(capsys, "--alpha", "3", "--beta", "0", "--gamma", "0", "--eta", "0")
    assert r["exponent"] == 0.5
    assert r["best_scheme"] == "MH"
    assert r["label3d"] == "A"

    r = _report(capsys, "--alpha", "2.5", "--beta", "0", "--gamma", "0", "--eta", "0")
    assert r["exponent"] == 0.75
    assert r["best_scheme"] == "HC"

    r = _report(capsys, "--alpha", "3", "--beta", "0.3", "--gamma", "0.3",
                "--eta", "0.2")
    assert r["exponent"] == 0.5
    assert r["best_scheme"] == "IMH"
    assert r["label3d"] == "B~"
    assert r["infra_limited"] is True
    assert r["min_backhaul_exponent"] == pytest.approx(0.3)


def test_exponent_text_report(capsys):
    assert cli.main(["exponent", "--alpha", "4", "--beta", "0.5",
                     "--gamma", "0.25", "--eta", "inf"]) == 0
    out = capsys.readouterr().out
    assert "best_scheme: IMH" in out
    assert "alpha_breakpoints:" in out


def test_exponent_rejects_bad_alpha(capsys):
    assert cli.main(["exponent", "--alpha", "2", "--beta", "0",
                     "--gamma", "0", "--eta", "0"]) == 2


def test_regime_map_weak_backhaul_is_all_a(tmp_path):
    out = tmp_path / "map.csv"
    assert cli.main(["regime-map", "--eta", "-0.6", "--beta-grid", "0", "0.95",
                     "12", "--gamma-grid", "0", "0.95", "12",
                     "-o", str(out)]) == 0
    cols, rows = _csv_rows(out)
    assert cols[:3] == ["beta", "gamma", "label3d"]
    assert rows and all(r[2] == "A" for r in rows)


def test_regime_map_eta_one_equals_infinite(tmp_path):
    a, b = tmp_path / "one.csv", tmp_path / "inf.csv"
    grid = ["--beta-grid", "0", "0.95", "15", "--gamma-grid", "0", "0.95", "15"]
    assert cli.main(["regime-map", "--eta", "1", *grid, "-o", str(a)]) == 0
    assert cli.main(["regime-map", "--eta", "inf", *grid, "-o", str(b)]) == 0
    assert _csv_rows(a) == _csv_rows(b)


@pytest.mark.parametrize(
    "eta", [-math.inf, -0.5, -0.3, 0.0, 0.2, 0.45, 0.5, 0.7, 1.0, math.inf], ids=str)
def test_regime_map_cells_equal_achievable_exponent(tmp_path, eta):
    # each row's label and exponent cells are what `exponent` reports there
    out = tmp_path / "map.csv"
    assert cli.main(["regime-map", f"--eta={eta}", "-o", str(out)]) == 0
    cols, rows = _csv_rows(out)
    alphas = [float(c.removeprefix("e_alpha_")) for c in cols[3:]]
    assert rows
    for beta, gamma, label, *cells in rows:
        assert label == classify_regime_3d(float(beta), float(gamma), eta).label3d
        for alpha, cell in zip(alphas, cells):
            want, _ = achievable_exponent(
                ScalingPoint(alpha, float(beta), float(gamma), eta))
            assert float(cell) == want, (beta, gamma, alpha)


@pytest.mark.parametrize("alpha", ["2", "inf", "nan"])
def test_regime_map_rejects_bad_alpha(capsys, alpha):
    assert cli.main(["regime-map", "--eta", "0.2", "--alphas", alpha]) == 2
    err = capsys.readouterr().err
    assert err == "error: reference alphas must be finite and exceed 2\n"


def test_regime_map_rejects_nan_eta(capsys):
    assert cli.main(["regime-map", "--eta", "nan"]) == 2
    err = capsys.readouterr().err
    assert err == "error: eta must be a real number or +-inf, got nan\n"


def test_min_backhaul_matches_library(tmp_path):
    out = tmp_path / "mb.csv"
    assert cli.main(["min-backhaul", "--beta-grid", "0", "0.9", "7",
                     "--gamma-grid", "0", "0.9", "7", "-o", str(out)]) == 0
    cols, rows = _csv_rows(out)
    assert cols == ["beta", "gamma", "regime", "eta_star", "negligible"]
    for beta, gamma, regime, eta_star, negligible in rows:
        assert regime == classify_regime_2d(float(beta), float(gamma))
        want = min_backhaul_exponent(float(beta), float(gamma))
        assert float(eta_star) == want
        assert negligible == str(not want > 0.0).lower()


def test_subnormal_beta_prints_no_warning(capsys):
    # eta*'s regime-D value overflows at beta = 5e-324, where it is never
    # selected; neither command may print a numpy warning there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["exponent", "--alpha", "3", "--beta", "5e-324",
                         "--gamma", "0.9", "--eta=0.3"]) == 0
        assert "min_backhaul_exponent: 0.5\n" in capsys.readouterr().out
        assert cli.main(["min-backhaul", "--beta-grid", "5e-324", "0.5", "2",
                         "--gamma-grid", "0.9", "0.9", "1"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "5e-324,0.9,C,0.5,false"
    assert err == ""


@pytest.mark.parametrize("rows", [0, 1, 3])
def test_json_table_is_what_json_dumps_writes(capsys, rows):
    # the rows go through the C encoder; the text must be json.dumps' own
    columns = [np.array([0.1, -0.0, math.inf, -math.inf, math.nan, 1e-300])[:rows],
               ["A", "quote\" and\nnewline", "\u00e9\t\\"][:rows],
               [None, True, 7][:rows],
               np.array(["B~", "D~", "C"])[:rows]]
    names = ["x", "s", "o", "label"]
    extra = {"slopes": {"MH": {"slope": 0.5, "stderr": math.nan}}}
    cli._emit({"format": "json", "output": None}, {"command": "t", "eta": math.inf},
              names, columns, [], extra)
    header = {"command": "t", "eta": math.inf, "schema_version": cli.SCHEMA_VERSION,
              "tool": f"hybridscale {cli.__version__}"}
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    want = json.dumps({"header": header, "columns": names,
                       "rows": [list(r) for r in zip(*values)], **extra},
                      sort_keys=True, indent=2) + "\n"
    assert capsys.readouterr().out == want


def test_simulate_requires_seeds(capsys):
    base = ["simulate", "--sizes", "64", "--alpha", "3", "--beta", "0",
            "--gamma", "0", "--eta", "inf"]
    assert cli.main(base + ["--seeds"]) == 2
    assert cli.main(base) == 2
    assert cli.main(base + ["--num-seeds", "0"]) == 2
    assert cli.main(base + ["--seeds", "1", "--num-seeds", "2"]) == 2


@pytest.mark.parametrize("command", ["simulate", "bound"])
@pytest.mark.parametrize("seeds, bad", [(["--seeds", "-1"], -1),
                                        (["--num-seeds", "1", "--seed-base", "-5"], -5)])
def test_negative_seed_is_one_line_error(capsys, command, seeds, bad):
    assert cli.main([command, "--sizes", "64", *seeds, "--alpha", "3", "--beta", "0",
                     "--gamma", "0", "--eta", "0.2"]) == 2
    assert capsys.readouterr().err == f"error: seeds must be non-negative, got {bad}\n"


def test_simulate_rejects_unknown_scheme():
    assert cli.main(["simulate", "--sizes", "64", "--alpha", "3", "--beta", "0",
                     "--gamma", "0", "--eta", "inf", "--seeds", "0",
                     "--schemes", "XYZ"]) == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sizes", "3"], "n must be at least 4"),
        (["--sizes", "256", "--tdma-k", "8"], "tdma_k must be a perfect square"),
    ],
)
def test_simulate_bad_instance_is_one_line_error(capsys, flags, message):
    argv = ["simulate", *flags, "--seeds", "0", "--alpha", "3", "--beta", "0",
            "--gamma", "0", "--eta=inf"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


_OVERFLOW = ["--alpha", "3", "--beta", "0.5", "--gamma", "0.25", "--schemes", "IMH"]


@pytest.mark.parametrize("argv, config, n, eta", [
    (["bound", "--sizes", "64", "--seeds", "0", "--alpha", "3", "--beta", "0",
      "--gamma", "0", "--eta", "171"], {}, 64, 171),
    (["simulate", "--sizes", "1024", "2048", "4096", "--seeds", "0", *_OVERFLOW,
      "--eta", "100"], {}, 2048, 100),
    (["simulate", "--sizes", "1024", "2048", "4096", "--seeds", "0", *_OVERFLOW],
     {"eta": 500}, 1024, 500),
])
def test_overflowing_backhaul_is_one_line_error(tmp_path, capsys, argv, config, n, eta):
    """R_BS = n^eta past the largest float fails at the first such n in
    serial order; eta = 170 at n = 64 (R_BS = 2^1020) still runs."""
    if config:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, **config}))
        argv = ["--config", str(path), *argv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: R_BS = n^eta overflows a float at n={n}, eta={eta}; "
        "--eta=inf means unlimited backhaul\n")
    assert cli.main(["bound", "--sizes", "64", "--seeds", "0", "--alpha", "3",
                     "--beta", "0", "--gamma", "0", "--eta", "170"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_import_loads_no_scipy():
    code = ("import sys, hybridscale.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_simulate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--sizes", "256", "--alpha", "3", "--beta", "0.5",
            "--gamma", "0.25", "--eta", "0", "--seeds", "0", "1",
            "--power", "1000", "--schemes", "IMH"]
    assert cli.main(argv + ["-o", str(a)]) == 0
    assert cli.main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_num_seeds_expansion(tmp_path):
    out = tmp_path / "n.csv"
    assert cli.main(["simulate", "--sizes", "256", "--alpha", "3", "--beta",
                     "0", "--gamma", "0", "--eta", "inf", "--num-seeds", "2",
                     "--seed-base", "5", "--schemes", "MH",
                     "-o", str(out)]) == 0
    _, rows = _csv_rows(out)
    assert {r[6] for r in rows} == {"5", "6"}
    assert {r[0] for r in rows} == {"MH", "MIN_CUT"}


def test_simulate_csv_and_json_agree(tmp_path):
    c, j = tmp_path / "r.csv", tmp_path / "r.json"
    argv = ["simulate", "--sizes", "256", "--alpha", "3", "--beta", "0.5",
            "--gamma", "0.25", "--eta", "inf", "--seeds", "0",
            "--power", "1000", "--schemes", "IMH", "ISH"]
    assert cli.main(argv + ["-o", str(c)]) == 0
    assert cli.main(argv + ["--format", "json", "-o", str(j)]) == 0
    cols, rows = _csv_rows(c)
    blob = json.loads(j.read_text())
    assert blob["columns"] == list(cols)
    assert len(blob["rows"]) == len(rows)
    for jr, cr in zip(blob["rows"], rows):
        for jv, cv in zip(jr, cr):
            if isinstance(jv, float):
                assert float(cv) == jv
            elif jv is None:
                assert cv == ""
            else:
                assert str(jv) == cv


def test_simulate_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "sizes": [256], "alpha": 3.0, "beta": 0.5,
        "gamma": 0.25, "eta": 0.0, "seeds": [0], "power": 1000.0,
        "schemes": ["IMH"],
    }))
    out = tmp_path / "o.csv"
    assert cli.main(["--config", str(cfg), "simulate", "--power", "10",
                     "-o", str(out)]) == 0
    head = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert "# power=10.0" in head
    assert "# eta=0.0" in head


def test_config_rejects_bad_schema_and_keys(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 9, "alpha": 3.0}))
    assert cli.main(["--config", str(bad), "exponent"]) == 2
    bad.write_text(json.dumps({"schema_version": 1, "alpa": 3.0}))
    assert cli.main(["--config", str(bad), "exponent"]) == 2


def test_bound_matches_library(tmp_path):
    out = tmp_path / "b.csv"
    assert cli.main(["bound", "--sizes", "256", "--alpha", "3", "--beta", "0.5",
                     "--gamma", "0.25", "--eta", "0", "--seeds", "3",
                     "--power", "10", "-o", str(out)]) == 0
    cols, rows = _csv_rows(out)
    assert cols == list(cli.BOUND_COLUMNS)
    topo = generate_topology(TopologyConfig(n=256, m=16, l=4, seed=3))
    ch = ChannelRealization(topo, alpha=3.0, phase_seed=3)
    cfg = SimConfig(p=10.0, r_bs=1.0)
    want = {"L1": bound_l1(topo, ch, cfg), "L2": bound_l2(topo, ch, cfg)}
    by_cut = {r[6]: r for r in rows}
    for cut, b in want.items():
        assert float(by_cut[cut][11]) == b.total
    assert float(by_cut["MIN"][11]) == min(b.total for b in want.values())


_SIM_POINT = ["simulate", "--sizes", "256", "--seeds", "0", "--alpha", "3",
              "--beta", "0", "--gamma", "0", "--eta=inf", "--schemes", "MH"]


@pytest.mark.parametrize(
    "key, value",
    [("sizes", "55"), ("schemes", "MH"), ("seeds", 0), ("sizes", "abc"),
     ("alpha", "x")],
)
def test_config_value_must_match_its_flag(tmp_path, capsys, key, value):
    cfg = {"schema_version": 1, "sizes": [256], "alpha": 3.0, "beta": 0.0,
           "gamma": 0.0, "eta": 0.0, "seeds": [0], "schemes": ["MH"]}
    cfg[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "simulate",
                     "-o", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key} ") and err.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()


def test_unwritable_output_is_one_line_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert cli.main([*_SIM_POINT, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1


@pytest.mark.parametrize("scheme", ["MH", "IMH"])
def test_routing_through_a_bs_footprint_is_one_line_error(capsys, scheme):
    # The single BS's footprint (side 8) swallows 4 of the 8 x 8 routing cells.
    assert cli.main(["simulate", "--sizes", "1024", "--seeds", "0", "--alpha", "3",
                     "--beta", "0", "--gamma", "0.5", "--eta=inf",
                     "--schemes", scheme]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 4 empty routing cell(s) at n=1024")
    assert err.count("\n") == 1


@pytest.mark.parametrize("error", [ZeroDistanceError, InfeasibleGeometryError])
def test_geometry_error_is_one_line_error(capsys, monkeypatch, error):
    def fail(topo, ch, cfg):
        raise error("bad geometry")

    monkeypatch.setitem(cli._RUNNERS, "MH", fail)
    assert cli.main(_SIM_POINT) == 2
    assert capsys.readouterr().err == "error: bad geometry\n"


_FAILING_RUNS = [
    ["simulate", "--sizes", "3", "--seeds", "0", "--alpha", "3", "--beta", "0",
     "--gamma", "0", "--eta", "inf"],
    ["simulate", "--sizes", "1024", "--seeds", "0", "--alpha", "3", "--beta", "0",
     "--gamma", "0.5", "--eta", "inf", "--schemes", "MH"],
]


@pytest.mark.parametrize("argv", _FAILING_RUNS)
def test_failed_run_leaves_the_output_path_as_it_was(tmp_path, capsys, argv):
    """The early probe of -o makes no file that outlives a failed run, and a
    file that was there keeps its bytes."""
    out = tmp_path / "new.csv"
    assert cli.main([*argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    out.write_bytes(b"kept\n")
    assert cli.main([*argv, "-o", str(out)]) == 2
    assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("command", ["simulate", "bound"])
def test_unwritable_output_fails_before_any_instance(command, tmp_path, capsys,
                                                     monkeypatch):
    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        raise AssertionError("an instance was built")

    monkeypatch.setitem(cli._RUNNERS, "MH", record)
    monkeypatch.setattr(cli, "generate_topology", record)
    out = tmp_path / "missing" / "x.csv"
    assert cli.main([command, *_SIM_POINT[1:-2], "-o", str(out)]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1


def test_cut_violation_exits_3_and_names_the_row(tmp_path, capsys, monkeypatch):
    def too_fast(topo, ch, cfg):
        return SimResult("MH", 1e9, np.full(topo.n, 1e9 / topo.n))

    monkeypatch.setitem(cli._RUNNERS, "MH", too_fast)
    out = tmp_path / "v.csv"
    assert cli.main([*_SIM_POINT, "-o", str(out)]) == 3
    _, rows = _csv_rows(out)
    assert [r[0] for r in rows] == ["MH", "MIN_CUT"]
    assert float(rows[0][7]) == 1e9
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"MH n=256 seed=0 aggregate=1000000000.0 cut={rows[1][7]}" in err


@pytest.mark.xfail(strict=True, reason=(
    "known false exit 3 at tiny n (CHANGES.md FOUND line on cli._cmd_simulate): "
    "every node lies right of the midline, so the cut is 0, yet the aggregate "
    "it is compared with counts flows that never cross the cut"))
def test_tiny_network_with_no_crossing_flow_is_not_a_violation(tmp_path):
    out = tmp_path / "tiny.csv"
    assert cli.main(["simulate", "--sizes", "4", "--seeds", "10", "--alpha", "6",
                     "--beta", "0", "--gamma", "0.1", "--eta=-1", "--power", "1",
                     "-o", str(out)]) == 0


def test_import_builds_no_parser():
    code = ("import hybridscale.cli as c; "
            "print(c.build_parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0"


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    # one process, one cached parser: each call's exit code, stdout and
    # stderr equal those of the same call made alone with a fresh parser
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "alpha": 3.0, "beta": 0.3,
                               "gamma": 0.3, "eta": 0.2, "json": True}))
    calls = [
        ["exponent", "--alpha", "x"],
        ["--config", str(cfg), "exponent"],
        ["exponent", "--alpha", "4", "--beta", "0.5", "--gamma", "0.25",
         "--eta", "inf"],
        ["regime-map", "--eta", "0.2", "--beta-grid", "0", "0.9", "4",
         "--gamma-grid", "0", "0.9", "4"],
    ]

    def run(argv):
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        return rc, out, err

    cli.build_parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert cli.build_parser.cache_info().hits == len(calls) - 1
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    assert shared == alone
    assert [rc for rc, _, _ in shared] == [2, 0, 0, 0]
    assert "invalid float value: 'x'" in shared[0][2]
    assert json.loads(shared[1][1])["point"]["eta"] == 0.2
    # the flags-only run sees neither the config's point nor its --json
    assert shared[2][1].startswith("point: alpha=4.0 beta=0.5 gamma=0.25 eta=inf\n")
    assert shared[3][1].startswith("# alphas=2.5 3.0 5.0\n")


_SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1 + 0.2]


@pytest.mark.parametrize("cells", [
    _SPECIAL_FLOATS * 3 + _SPECIAL_FLOATS[::-1],
    [-math.nan, math.nan, -0.0, 0.0, -0.0, -5e-324, 5e-324],
    [0.5, None, 0.25, None, 0.5],               # simulate's stage cells
    [1.5, 2.5, "MIN", 1.5, 2.5, "MIN"],         # bound's cut column
    [None, None],
    [256, 512, 256],
    ["A", "B~", "A"],
    [np.float64(0.5), np.float64(0.5), 0.5],    # repr, not float.__repr__
    [True, 1.0, False],
    # numpy columns, as regime-map and min-backhaul pass them
    np.array(_SPECIAL_FLOATS * 3 + _SPECIAL_FLOATS[::-1]),
    np.array([-math.nan, math.nan, -0.0, 0.0, -0.0, -5e-324, 5e-324]),
    # one strided row of es.T, es being regime-map's (points, alphas) array
    np.array(list(zip(_SPECIAL_FLOATS, _SPECIAL_FLOATS[::-1], _SPECIAL_FLOATS))).T[1],
    np.array(["A", "B~", "D~", "A", "true"]),
    np.array([], dtype=float),
    np.array([], dtype=str),
], ids=["special", "signed", "stages", "min", "none", "int", "str", "np", "bool",
        "arr-special", "arr-signed", "arr-strided", "arr-str", "arr-empty-float",
        "arr-empty-str"])
def test_column_formatter_matches_per_cell_fmt(cells):
    """An array is compared with ``_fmt`` of its ``.tolist()``, Python floats
    and strs: ``_fmt`` of an ``np.float64`` is numpy's repr, not the cell text."""
    python = cells.tolist() if isinstance(cells, np.ndarray) else cells
    assert cli._fmt_column(cells) == [cli._fmt(c) for c in python]


def test_str_column_is_its_own_text_and_mixed_columns_go_through_fmt(monkeypatch):
    calls, fmt = [], cli._fmt

    def counting_fmt(v):
        calls.append(v)
        return fmt(v)

    monkeypatch.setattr(cli, "_fmt", counting_fmt)
    labels = ["A", "B~", "D~", "A", "true"]
    assert cli._fmt_column(labels) == labels
    assert calls == []
    mixed = ["MIN", 1.5, None, "A"]
    assert cli._fmt_column(mixed) == ["MIN", "1.5", "", "A"]
    assert calls == mixed
    assert cli._fmt_column([None, None]) == ["", ""]


def test_emit_csv_body_matches_per_cell_fmt(capsys):
    sim = [
        ["MH", 256, 1, 1, math.inf, 3.0, 0, 0.0, None, None, None],
        ["IMH", 256, 4, 2, 1.0, 3.0, 0, -0.0, -0.0, math.nan, 5e-324],
        ["MIN_CUT", 256, 1, 1, math.inf, 3.0, 0, 1e16, None, None, None],
    ]
    bound = [
        [256, 4, 2, 1.0, 3.0, 0, 0.3, 0.1, 0.2, 0.0, 0.5, 0.8],
        [256, 4, 2, 1.0, 3.0, 0, 0.7, 0.1, 0.2, -0.0, 0.5, 0.30000000000000004],
        [256, 4, 2, 1.0, 3.0, 0, "MIN", None, None, None, None, 0.30000000000000004],
    ]
    for columns, rows in ((cli.SIM_COLUMNS, sim), (cli.BOUND_COLUMNS, bound),
                          (cli.BOUND_COLUMNS, [])):
        cli._emit({"format": "csv", "output": None}, {"command": "test"},
                  columns, list(zip(*rows)), ["# trailer"], {})
        lines = capsys.readouterr().out.splitlines()
        assert lines[-len(rows) - 2] == ",".join(columns)
        assert lines[-len(rows) - 1:] == [",".join(map(cli._fmt, r)) for r in rows] + [
            "# trailer"]


# ---------------------------------------------------------------------------
# Option schema: each subcommand's flags are exactly its config keys
# ---------------------------------------------------------------------------

_GRID = [0.0, 0.5, 3]
# every flag of each subcommand, keyed by its config key, with a value the
# flag accepts; the required ones come first, in the order they are checked
_OPTIONS = {
    "exponent": {"alpha": 3.0, "beta": 0.0, "gamma": 0.0, "eta": 0.0, "json": True},
    "regime-map": {"eta": 0.2, "alphas": [3.0], "beta_grid": _GRID,
                   "gamma_grid": _GRID, "output": None, "format": "json"},
    "min-backhaul": {"beta_grid": _GRID, "gamma_grid": _GRID, "output": None,
                     "format": "json"},
    "simulate": {"sizes": [64], "alpha": 3.0, "beta": 0.0, "gamma": 0.0, "eta": 0.0,
                 "seeds": [0], "num_seeds": 1, "seed_base": 1, "schemes": ["MH"],
                 "power": 10.0, "tdma_k": 4, "hc_cluster_exponent": 0.5,
                 "hc_quant_bits": 4, "output": None, "format": "json"},
    "bound": {"sizes": [64], "alpha": 3.0, "beta": 0.0, "gamma": 0.0, "eta": 0.0,
              "seeds": [0], "num_seeds": 1, "seed_base": 1, "power": 10.0,
              "output": None, "format": "json"},
}
_REQUIRED = {
    "exponent": ["alpha", "beta", "gamma", "eta"],
    "regime-map": ["eta"],
    "min-backhaul": [],
    "simulate": ["sizes", "alpha", "beta", "gamma", "eta"],
    "bound": ["sizes", "alpha", "beta", "gamma", "eta"],
}


def _base_config(command):
    """The required keys, plus the seeds and the one scheme a run needs."""
    cfg = {k: _OPTIONS[command][k] for k in _REQUIRED[command]}
    if command in ("simulate", "bound"):
        cfg["seeds"] = [0]
    if command == "simulate":
        cfg["schemes"] = ["MH"]
    return cfg


def _run_config(tmp_path, capsys, cfg, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, **cfg}))
    rc = cli.main(["--config", str(path), command])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("command", list(_OPTIONS))
def test_config_keys_are_the_flags_of_each_subcommand(command):
    sub = cli.build_parser().parse_args([command]).parser
    assert [a.dest for a in sub._actions if a.dest != "help"] == list(_OPTIONS[command])


@pytest.mark.parametrize("command, key", [(c, k) for c, keys in _OPTIONS.items()
                                          for k in keys])
def test_each_flag_is_accepted_as_a_config_key(tmp_path, capsys, command, key):
    cfg = _base_config(command)
    value = _OPTIONS[command][key]
    if key == "output":
        value = str(tmp_path / "out")
    if key in ("num_seeds", "seed_base"):  # --num-seeds excludes --seeds
        del cfg["seeds"]
        cfg["num_seeds"] = 1
    cfg[key] = value
    assert _run_config(tmp_path, capsys, cfg, command) == (0, "")
    if key == "output":
        assert (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key", [(c, k) for c, keys in _REQUIRED.items()
                                          for k in keys])
def test_missing_required_option_is_one_line_error(capsys, command, key):
    argv = [command]
    for k, v in _base_config(command).items():
        if k != key:
            argv += [f"--{k}", *map(str, v if isinstance(v, list) else [v])]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: missing required option --{key}\n"


@pytest.mark.parametrize("command", [c for c in _REQUIRED if _REQUIRED[c]])
def test_first_missing_required_option_is_named(capsys, command):
    assert cli.main([command]) == 2
    first = _REQUIRED[command][0]
    assert capsys.readouterr().err == f"error: missing required option --{first}\n"


@pytest.mark.parametrize("command, key", [
    ("exponent", "sizes"), ("exponent", "output"), ("regime-map", "alpha"),
    ("min-backhaul", "eta"), ("simulate", "json"), ("simulate", "alphas"),
    ("bound", "alphas"), ("bound", "schemes"), ("bound", "tdma_k"),
])
def test_config_key_of_another_subcommand_is_rejected(tmp_path, capsys, command, key):
    value = next(o[key] for o in _OPTIONS.values() if key in o)
    cfg = {**_base_config(command), key: value}
    assert _run_config(tmp_path, capsys, cfg, command) == (
        2, f"error: unknown config keys: ['{key}']\n")


# a "-inf" token after a grid flag reads as an option to argparse, which
# rejects it with its usage text, so -inf reaches a grid only from a config
_NON_FINITE_GRIDS = [
    (command, grid, slot, value, source)
    for command in ("regime-map", "min-backhaul")
    for grid in ("beta", "gamma")
    for slot in range(3)
    for value in (math.nan, math.inf, -math.inf)
    for source in ("flag", "config")
    if not (source == "flag" and value < 0)
]


@pytest.mark.parametrize("command, grid, slot, value, source", _NON_FINITE_GRIDS)
def test_non_finite_grid_spec_is_one_line_error(tmp_path, capsys, command, grid,
                                                slot, value, source):
    spec = list(_GRID)
    spec[slot] = value
    out = tmp_path / "o.csv"
    argv = [command, "-o", str(out)]
    if command == "regime-map":
        argv += ["--eta", "0"]
    if source == "flag":
        argv += [f"--{grid}-grid", *map(str, spec)]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, f"{grid}_grid": spec}))
        argv = ["--config", str(path), *argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {grid} grid must be finite, got ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["regime-map", "min-backhaul"])
@pytest.mark.parametrize("steps, err", [
    # the 728 TiB meshgrid is refused at its allocation, past the two 80 MB axes
    (("1e7", "1e7"), "a beta x gamma grid of 10000000 x 10000000 steps "
                     "does not fit in memory"),
    # both specs are checked before either axis is allocated
    (("1e12", "nan"), "gamma grid must be finite, got 0.0 0.95 nan"),
], ids=["1e7x1e7", "1e12xnan"])
def test_oversized_grid_is_one_line_error(capsys, command, steps, err):
    """A grid too large to allocate exits 2 as a bad value, not with a
    traceback and exit 1."""
    argv = [command, "--beta-grid", "0", "0.95", steps[0],
            "--gamma-grid", "0", "0.95", steps[1]]
    if command == "regime-map":
        argv += ["--eta", "0.2"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def _tracing():
    """The benchmark's tracer module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_call_runs_and_puts_every_patched_name_back(capsys):
    """The benchmark's tracer swaps names of ``cli`` for timed wrappers."""
    tracing = _tracing()
    before = {name: getattr(cli, name) for name in tracing._PATCHED}
    runners = dict(cli._RUNNERS)
    with tracing.Tracer().installed(cli):
        assert cli.main(["bound", "--sizes", "64", "--seeds", "0", "--alpha", "3",
                         "--beta", "0", "--gamma", "0", "--eta", "0"]) == 0
    assert capsys.readouterr().err == ""
    assert all(getattr(cli, name) is fn for name, fn in before.items())
    assert cli._RUNNERS == runners


# ---------------------------------------------------------------------------
# Units on a process pool: the bytes, the errors and the workers' lifetime
# ---------------------------------------------------------------------------

_POOL_POINT = ["--sizes", "128", "256", "--seeds", "1", "0", "--alpha", "3",
               "--beta", "0", "--gamma", "0", "--eta=inf"]
_POOL_RUN = ["simulate", *_POOL_POINT, "--schemes", "MH", "HC"]


def _cores(monkeypatch, cores):
    """``cores`` usable cores with BLAS on one thread, whatever the host has,
    so the run forks that many workers (one runs in this process)."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)


@pytest.fixture
def two_cores(monkeypatch):
    _cores(monkeypatch, 2)


def _run(capsys, argv):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_pool_inherits_what_cannot_be_pickled(capsys, monkeypatch):
    """The tracer's shape: a channel class defined in a function and a
    closure runner.  The workers run the closure; only results come back."""
    class LocalChannel(ChannelRealization):
        pass

    real, here = cli._RUNNERS["MH"], []

    def mh(topo, ch, cfg):
        assert type(ch) is LocalChannel
        here.append(os.getpid())
        return real(topo, ch, cfg)

    monkeypatch.setattr(cli, "ChannelRealization", LocalChannel)
    monkeypatch.setitem(cli._RUNNERS, "MH", mh)
    _cores(monkeypatch, 2)
    pooled = _run(capsys, _POOL_RUN)
    assert here == []
    _cores(monkeypatch, 1)
    serial = _run(capsys, _POOL_RUN)
    assert here == [os.getpid()] * 4
    assert pooled == serial and pooled[0] == 0


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("hc_fails, sizes, err", [
    (True, "256", "n=128 seed=1"),   # the pool runs n=256 first
    (True, "3", "n=128 seed=1"),     # a failing unit before an unplannable instance
    (False, "3", "n must be at least 4, got 3"),
])
def test_first_error_in_serial_order_is_reported(capsys, monkeypatch, cores,
                                                 hc_fails, sizes, err):
    """HC's failure is injected into its slices, which ``cli`` runs in
    place of the ``HC`` runner."""
    def fail(topo, ch, cfg, part, parts):
        raise ZeroDistanceError(f"n={topo.n} seed={topo.config.seed}")

    if hc_fails:
        monkeypatch.setattr(cli, "hc_slice", fail)
    _cores(monkeypatch, cores)
    argv = list(_POOL_RUN)
    argv[3] = sizes
    assert _run(capsys, argv) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("hc_fails_at, err", [
    ((128, 1), "HC at n=128 seed=1"),   # an earlier instance's unit
    ((256, 0), "no layout at n=256"),   # a later instance's unit
])
def test_unbuildable_instance_fails_in_serial_order(capsys, monkeypatch, cores,
                                                    hc_fails_at, err):
    """The instance (n=256, seed=1) cannot be laid out.  Every unit of it
    builds it, and its first unit fails first, so its error comes after
    those of the instances before it and before those of the instances
    after it.  HC fails in its last slice, which the pool takes early."""
    real_topology, real_slice = cli.generate_topology, cli.hc_slice

    def generate(config):
        if (config.n, config.seed) == (256, 1):
            raise InfeasibleGeometryError(f"no layout at n={config.n}")
        return real_topology(config)

    def hc(topo, ch, cfg, part, parts):
        if (topo.n, topo.config.seed) == hc_fails_at and part == parts - 1:
            raise ZeroDistanceError(f"HC at n={topo.n} seed={topo.config.seed}")
        return real_slice(topo, ch, cfg, part, parts)

    monkeypatch.setattr(cli, "generate_topology", generate)
    monkeypatch.setattr(cli, "hc_slice", hc)
    _cores(monkeypatch, cores)
    assert _run(capsys, _POOL_RUN) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("fault, err", [
    ("raises", "HC at n=128 seed=1"),
    ("inf", "HC is inf at n=128 seed=1, power 100.0; a rate must be finite"),
])
def test_hc_slice_fails_before_a_later_instance_does(capsys, monkeypatch, cores,
                                                     fault, err):
    """HC of the first instance (n=128, seed=1) and MH of a later one (n=256,
    which the pool runs first) both fail.  HC's last slice raises, or its
    slices' rates make HC's aggregate inf, which only the join of the
    slices finds; either way HC's error is the one reported."""
    real_slice, real_mh = cli.hc_slice, cli._RUNNERS["MH"]

    def hc(topo, ch, cfg, part, parts):
        frame, rates = real_slice(topo, ch, cfg, part, parts)
        if (topo.n, topo.config.seed) != (128, 1):
            return frame, rates
        if fault == "raises":
            if part == parts - 1:
                raise ZeroDistanceError(f"HC at n={topo.n} seed={topo.config.seed}")
            return frame, rates
        # every hop infinitely fast: no time adds up
        if frame is not None:  # the first slice's
            frame = frame._replace(nn_rate=np.full(frame.nn_rate.shape, math.inf))
        return frame, np.full(rates.shape, math.inf)

    def mh(topo, ch, cfg):
        if topo.n == 256:
            raise ZeroDistanceError(f"MH at n={topo.n}")
        return real_mh(topo, ch, cfg)

    monkeypatch.setattr(cli, "hc_slice", hc)
    monkeypatch.setitem(cli._RUNNERS, "MH", mh)
    _cores(monkeypatch, cores)
    assert _run(capsys, _POOL_RUN) == (2, "", f"error: {err}\n")


def test_pool_takes_the_largest_n_first_and_its_heaviest_units_first():
    """HC's slices and ISH go before the cut bound, MH and IMH of their n;
    otherwise the pool keeps the serial order."""
    names = [("cut", 0), ("MH", 0), ("HC", 0), ("HC", 1), ("IMH", 0), ("ISH", 0)]
    units = [(3.0, (n, seed, None, None), name, part, 2 if name == "HC" else 1)
             for n in (128, 512, 256) for seed in (0, 1) for name, part in names]
    order = [(units[i][1][:2], *units[i][2:4]) for i in cli._submit_order(units)]
    want = []
    for n in (512, 256, 128):
        for heavy in (True, False):
            want += [((n, seed), name, part) for seed in (0, 1) for name, part in names
                     if (name in ("HC", "ISH")) == heavy]
    assert order == want
    assert sorted(cli._submit_order(units)) == list(range(len(units)))


def _killed(topo, ch, cfg):
    if os.getpid() == _TEST_PID:  # never kill the test process itself
        raise AssertionError("a unit ran in the test process")
    os.kill(os.getpid(), signal.SIGKILL)


_TEST_PID = os.getpid()


def _too_fast(topo, ch, cfg):
    return SimResult("MH", 1e9, np.full(topo.n, 1e9 / topo.n))


def _bad_geometry(topo, ch, cfg):
    raise ZeroDistanceError("bad geometry")


@pytest.mark.parametrize("runner, rc", [(None, 0), (_killed, 1), (_bad_geometry, 2),
                                        (_too_fast, 3)])
def test_no_worker_outlives_main(two_cores, capsys, monkeypatch, runner, rc):
    if runner is not None:
        monkeypatch.setitem(cli._RUNNERS, "MH", runner)
    got, out, err = _run(capsys, _POOL_RUN)
    assert got == rc
    assert multiprocessing.active_children() == []
    assert err.count("\n") == (rc != 0)
    if rc == 1:
        assert err.startswith("error: a worker process died") and "one core" in err
        assert out == ""


@pytest.mark.parametrize("openblas, omp, cores, units, workers", [
    ("1", None, 2, 12, 2), ("1", None, 8, 3, 3), ("1", None, 1, 12, 1),
    ("1", None, 4, 0, 1), (None, "1", 6, 12, 6), ("1", "4", 6, 12, 6),
    ("2", "1", 6, 12, 1), (None, None, 6, 12, 1), ("4", None, 6, 12, 1),
])
def test_workers_are_the_cores_only_with_one_blas_thread(monkeypatch, openblas, omp,
                                                         cores, units, workers):
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    assert cli._worker_count(units) == workers


_TRACED_RUN = ["simulate", "--sizes", "64", "128", "--seeds", "0", "--alpha", "3",
               "--beta", "0.5", "--gamma", "0.25", "--eta", "0"]


@pytest.mark.parametrize("cores", [1, 2])
def test_traced_simulate_of_every_scheme_matches_the_untraced_one(capsys, monkeypatch,
                                                                  cores):
    """The tracer's function-local channel class and closure runners reach
    every unit, in this process or in forked workers, at points with m > 1."""
    tracing = _tracing()
    _cores(monkeypatch, cores)
    plain = _run(capsys, _TRACED_RUN)
    before = {name: getattr(cli, name) for name in tracing._PATCHED}
    runners = dict(cli._RUNNERS)
    with tracing.Tracer().installed(cli) as tracer:
        traced = _run(capsys, _TRACED_RUN)
    assert traced == plain and plain[0] == 0 and plain[2] == ""
    assert "\nISH,64,4,3," in plain[1] and "\nISH,128,9,3," in plain[1]
    assert all(getattr(cli, name) is fn for name, fn in before.items())
    assert cli._RUNNERS == runners
    if cores == 1:  # forked workers time their units in their own copies
        assert tracer.seconds["topology.generate"] > 0.0
        assert tracer.seconds["protocols.ish"] > 0.0


def test_serial_run_loads_no_pool_modules():
    code = ("import sys; from hybridscale import cli; rc = cli.main(sys.argv[1:]); "
            "print(rc, sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    out = subprocess.run([sys.executable, "-c", code, *_POOL_RUN, "-o", os.devnull],
                         capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "0 []"


def _peak_bytes(argv) -> int:
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_serial_memory_does_not_grow_with_the_seeds(monkeypatch, tmp_path):
    """One process holds one instance at a time, built and dropped by each
    unit, and keeps only the scalars of each unit.  Each extra seed adds its plan, units and output rows,
    about 4 KB, where holding its n=1024 topology and per-pair rates would
    add over 40 KB."""
    _cores(monkeypatch, 1)
    argv = ["simulate", "--sizes", "1024", "--alpha", "3", "--beta", "0", "--gamma",
            "0", "--eta=inf", "--schemes", "MH", "-o", str(tmp_path / "out")]
    _peak_bytes([*argv, "--num-seeds", "2"])  # the first call's one-time costs
    few = _peak_bytes([*argv, "--num-seeds", "2"])
    many = _peak_bytes([*argv, "--num-seeds", "12"])
    assert many < few + 10 * 8 * 2**10


_OVERFLOW = ["simulate", "--sizes", "64", "--seeds", "0", "--alpha", "3", "--beta", "0",
             "--gamma", "0", "--eta", "inf", "--power", "1e308", "--schemes", "MH", "HC"]


@pytest.mark.parametrize("cores", [1, 2])
def test_overflowing_cut_is_one_line_error(capsys, monkeypatch, cores):
    _cores(monkeypatch, cores)
    assert _run(capsys, _OVERFLOW) == (
        2, "", "error: MIN_CUT is inf at n=64 seed=0, power 1e+308; "
               "a rate must be finite\n")


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("power", [1e18, 1e300])
def test_extreme_power_is_one_line_error(capsys, monkeypatch, cores, power):
    """At high power ISH's SIC downdates lose their precision, so a SINR
    comes out 0 or less and its rate nan.  The nan rate is one line on
    stderr, with no traceback and no numpy warning, in one process and in
    the pool's workers."""
    _cores(monkeypatch, cores)
    argv = ["simulate", "--sizes", "64", "--seeds", "0", "--alpha", "3", "--beta", "0",
            "--gamma", "0", "--eta=inf", "--power", repr(power)]
    assert _run(capsys, argv) == (
        2, "", f"error: ISH is nan at n=64 seed=0, power {power!r}; "
               "a rate must be finite\n")


@pytest.mark.parametrize("cores", [1, 2])
def test_ish_noise_boost_keeps_its_one_at_high_power(capsys, monkeypatch, cores):
    """With one BS, ISH's downlink noise boost is 1 plus no foreign power.
    Built as 1 plus every BS's term minus the node's own, it lost the 1 once
    the own term passed 2^53 (5.5e16 at n=64, p=1e14) and divided by zero."""
    _cores(monkeypatch, cores)
    argv = ["simulate", "--sizes", "64", "128", "256", "--seeds", "0", "--alpha", "3",
            "--beta", "0", "--gamma", "0", "--eta=inf", "--schemes", "ISH",
            "--power", "1e14", "--format", "json"]
    rc, out, err = _run(capsys, argv)
    assert (rc, err) == (0, "")
    rows = [row for row in json.loads(out)["rows"] if row[0] == "ISH"]
    assert [row[1] for row in rows] == [64, 128, 256]
    assert all(math.isfinite(x) and x > 0.0 for row in rows for x in row[7:])


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_scheme_rate_is_one_line_error(capsys, monkeypatch, value):
    def broken(topo, ch, cfg):
        return SimResult("MH", value, np.full(topo.n, value))

    monkeypatch.setitem(cli._RUNNERS, "MH", broken)
    _cores(monkeypatch, 1)
    assert _run(capsys, _SIM_POINT) == (
        2, "", f"error: MH is {value!r} at n=256 seed=0, power 100.0; "
               "a rate must be finite\n")
