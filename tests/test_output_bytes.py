"""sha256 of every output file of the analysis commands on small generated days.

A change to what a command writes, down to the last byte, shows here; the
manifest rerun of acceptance criterion 9 only compares two runs of the same
code.  A change that alters outputs on purpose records the new digests.
"""
import csv
import hashlib
import json

import pytest
from click.testing import CliRunner

from uncross.cli import main
from uncross.events import write_events
from uncross.flowgen import FlowConfig, generate

GRID = ["--tick", "0.01", "--ref", "100.0"]
SEEDS = (7, 8, 9)


def invoke(args):
    res = CliRunner().invoke(main, [str(a) for a in args])
    assert res.exit_code == 0, res.output


@pytest.fixture(scope="module")
def days(tmp_path_factory):
    """Three small piecewise days and their merged ``regime --full-metrics`` rows."""
    root = tmp_path_factory.mktemp("pinned")
    metrics = []
    for seed in SEEDS:
        cfg = FlowConfig(seed=seed, shape="piecewise", total_shares_per_side=20_000,
                         buy_peak_mass=0.02 * seed, sell_peak_mass=0.02 * seed, n_levels=80,
                         delta_star_bp=5.0 * seed,
                         mean_order_size=100, cancellation_rate=0.5,
                         market_shares_per_side=1_000)
        events, _, _ = generate(cfg)
        write_events(root / f"day{seed}.csv", events)
        invoke(["regime", root / f"day{seed}.csv", *GRID, "--full-metrics",
                "--out-dir", root / "fits"])
        rows = (root / "fits" / f"day{seed}_metrics.csv").read_text().splitlines(keepends=True)
        metrics += rows if not metrics else rows[1:]
    (root / "metrics.csv").write_text("".join(metrics))
    return root


@pytest.mark.parametrize("command, args, digests", [
    ("replay", ["day7.csv", *GRID], {
        "day7_clearing.json":
            "28f90882b2d7e4bb6edbd98282aa4b21119a2c660a26217d54656b8dbc6be975",
        "day7_book.csv":
            "fb80db333c2d12aded79c6d63c73ef274c8e2efb82d4e58e1215d84b4b870826",
    }),
    ("impact", ["day7.csv", *GRID], {
        "day7_impact_B.csv":
            "98b96d73c5fe7234a8ccc25d0b42232871ecd4e126d254ba3f88b240ccc08503",
        "day7_impact_S.csv":
            "d970fff747d6a135b2a5bc83ae4211f9665070afb8cf4eb129e810e767948faf",
        "day7_impact_signed.csv":
            "587a899e138aa7078ea647cdd2eec36f09493f2aa32e48df525bf97a0444372a",
    }),
    ("regime", ["day7.csv", *GRID, "--full-metrics"], {
        "day7_regime.csv":
            "a39a2511f97d3e9faf932c6d2bc2c72e457a7a6eb03aefb2542f8d615b90076b",
        "day7_metrics.csv":
            "2d163ab68489418d9213ea00b1547d1b3952f38b3b130d8f0737260d6f4693fa",
    }),
    ("response", ["day7.csv", *GRID, "--warmup", "10"], {
        "day7_response.csv":
            "b58bd3fc9d1618ed9d7795b0b17eb51219e369673007aa334fa68082c3cf5050",
    }),
    ("series", ["day7.csv", *GRID, "--interval", "30", "--min-points", "5"], {
        "day7_indicative.csv":
            "ed5d071623b422d37ce7643ee42141e7ec007fee4bc728571fcbf8ab5a0a9ffe",
        "day7_liquidity.csv":
            "ff0295debec94d8051df6f29d89dbd90d78d92da48423fff95677cde0b778b84",
    }),
    ("density", ["day7.csv", "day8.csv", "day9.csv", *GRID, "--group", "latency"], {
        "density_profile.csv":
            "5a95b6300afaa37edb7f5e863df5d1ed639d6fb94f72ec3cce3c6ac4e1c87b4d",
    }),
    ("density", ["day7.csv", "day8.csv", "day9.csv", *GRID], {
        "density_profile.csv":
            "becadcd4b48aa9461e2f4d45dbc8e7b36b9caa29f630d9fbf7205cbc2546d15e",
    }),
    ("stats", ["metrics.csv", "--rcdf", "omega0", "--kde", "l_cash"], {
        "stats_report.json":
            "aeab3f819812e39c2887bcbfc14ee1d24c4e209621b594dbe526a18216ad7e5c",
        "stats_rcdf_omega0.csv":
            "6fb859eb57b86cb3db99da404c03e3e281ba0df4cb00e77c2989cc63c32bb57a",
        "stats_kde_l_cash.csv":
            "d502f4202d9c8fc30db279a14e99c744b331f75b9ca200607bb2341101413c4d",
    }),
], ids=["replay", "impact", "regime", "response", "series", "density", "density-ungrouped",
        "stats"])
def test_output_bytes_are_pinned(days, tmp_path, command, args, digests):
    args = [days / a if a.endswith(".csv") else a for a in args]
    invoke([command, *args, "--out-dir", tmp_path])
    outputs = json.loads((tmp_path / f"{command}.manifest.json").read_text())["outputs"]
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in outputs}
    assert got == digests


# the ``beta_theo`` that the former ``regime --approx-slope`` wrote on the pinned
# days, on both sides; it took the clearing price for the first occupied tick past it
CLEARING_PRICE_BETA_THEO = {"day7": "0.0014901960784313726", "day8": "0.0017460825071953943",
                            "day9": "0.002018952618453865"}


def test_clearing_price_slope_is_read_from_the_metrics_rows(days):
    """``1 / (p_a * l_tilde)`` of a ``regime --full-metrics`` row is the
    clearing-price slope, to the last digit."""
    with open(days / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2 * len(SEEDS)
    for row in rows:
        slope = 1 / (float(row["p_a"]) * float(row["l_tilde"]))
        assert repr(slope) == CLEARING_PRICE_BETA_THEO[row["date"]], row
