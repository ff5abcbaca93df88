"""Golden outputs: the CLI reproduces committed CSV files byte for byte.

The files under ``tests/golden/`` pin the exact bytes of ``simulate`` (all
four schemes) and ``bound`` at small sizes.  A kernel rewrite that changes a
single floating-point rounding anywhere in MH, HC, IMH, ISH or the cut-set
bounds fails here.  Regenerate a file only when an output change is
intended, with the command in its parametrization below.
"""

from pathlib import Path

import pytest

from hybridscale import cli

GOLDEN = Path(__file__).parent / "golden"

_SIZES_SEEDS = ["--sizes", "256", "512", "--seeds", "0", "1"]

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
    "bound_a3_b0.3_g0.3_eta0.2.csv": [
        "bound", *_SIZES_SEEDS,
        "--alpha", "3", "--beta", "0.3", "--gamma", "0.3", "--eta", "0.2",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert cli.main([*CASES[name], "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
