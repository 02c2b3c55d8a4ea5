import ast
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import uncross
from uncross.book import AuctionBook
from uncross.cli import EXIT_NOCROSS, EXIT_OTHER, EXIT_PARSE, EXIT_TOOFEW, main
from uncross.errors import UncrossError
from uncross.events import CSV_HEADER, OrderEvent, read_events, write_events
from uncross.flowgen import FlowConfig, generate
from uncross.grid import PriceGrid
from uncross.regime import fit_regime
from uncross.stats import DayMetrics, day_metrics_to_csv, ks_two_sample, spearman


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated day log plus grid metadata, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = FlowConfig(
        seed=4,
        tick_size=0.01,
        fundamental_price=100.0,
        shape="piecewise",
        total_shares_per_side=120_000,
        buy_peak_mass=0.2,
        sell_peak_mass=0.2,
        n_levels=200,
        delta_star_bp=50.0,
        decay=400.0,
        cancellation_rate=0.2,
        market_shares_per_side=8_000,
    )
    (root / "config.json").write_text(cfg.to_json())
    runner = CliRunner()
    res = runner.invoke(
        main, ["gen", str(root / "config.json"), "--name", "day", "--out-dir", str(root)]
    )
    assert res.exit_code == 0, res.output
    return root


def run(args):
    return CliRunner().invoke(main, args)


@pytest.fixture(scope="module")
def grid_file(tmp_path_factory):
    """A grid file of 0.1 ticks through the reference price 10.0."""
    path = tmp_path_factory.mktemp("grid") / "grid.json"
    path.write_text('{"tick_size": 0.1, "anchor": 10.0, "reference_price": 10.0}')
    return str(path)


def test_gen_outputs(workspace):
    truth = json.loads((workspace / "day_truth.json").read_text())
    assert sorted(truth) == ["clear_time_us", "delta_star_bp", "l_star", "peak_mass"]
    meta = json.loads((workspace / "day_meta.json").read_text())
    assert meta["tick_size"] == 0.01
    assert (workspace / "gen.manifest.json").exists()


def test_replay_outputs(workspace):
    res = run(["replay", str(workspace / "day.csv"),
               "--grid", str(workspace / "day_meta.json"),
               "--out-dir", str(workspace)])
    assert res.exit_code == 0, res.output
    rec = json.loads((workspace / "day_clearing.json").read_text())
    assert set(rec) == {"p_a", "q_a", "imbalance", "vbm", "vbr", "vsm", "vsr"}
    meta = json.loads((workspace / "day_meta.json").read_text())
    assert rec["p_a"] == meta["p_a"]
    assert rec["q_a"] == meta["q_a"]
    book_lines = (workspace / "day_book.csv").read_text().strip().split("\n")
    assert book_lines[0] == "price,buy_shares,sell_shares"
    assert book_lines[-1].startswith("MARKET,")


def test_impact_outputs(workspace):
    res = run(["impact", str(workspace / "day.csv"),
               "--grid", str(workspace / "day_meta.json"),
               "--out-dir", str(workspace)])
    assert res.exit_code == 0, res.output
    for side in "BS":
        lines = (workspace / f"day_impact_{side}.csv").read_text().strip().split("\n")
        assert lines[0] == "side,i,omega_num,omega_den,price,impact_log"
        assert len(lines) > 5
    signed = (workspace / "day_impact_signed.csv").read_text().strip().split("\n")
    assert signed[0] == "eps_omega,eps_impact"
    xs = [float(l.split(",")[0]) for l in signed[1:]]
    assert xs == sorted(xs)


def test_regime_and_stats(workspace):
    res = run(["regime", str(workspace / "day.csv"),
               "--grid", str(workspace / "day_meta.json"),
               "--date", "2017-05-05", "--full-metrics",
               "--out-dir", str(workspace)])
    assert res.exit_code == 0, res.output
    lines = (workspace / "day_regime.csv").read_text().strip().split("\n")
    assert lines[0] == "date,side,delta_bp,l_tilde,omega_max,beta_emp,beta_theo,n_points"
    assert len(lines) == 3  # one row per side
    res2 = run(["stats", str(workspace / "day_metrics.csv"),
                "--rcdf", "omega0", "--out-dir", str(workspace)])
    assert res2.exit_code == 0, res2.output
    report = json.loads((workspace / "stats_report.json").read_text())
    assert report["n_rows"] == 2
    assert 0.0 <= report["p_zero_impact"]["fraction"] <= 1.0
    rcdf_lines = (workspace / "stats_rcdf_omega0.csv").read_text().strip().split("\n")
    assert rcdf_lines[0] == "value,fraction_ge"


def _metrics_csv(path, pairs):
    """A per-day metrics CSV with a B and an S row per (omega0 B, omega0 S) pair."""
    rows = [DayMetrics(date=f"2017-05-{i + 1:02d}", side=side, p_a=100.0 + i, q_a=1000 * (i + 1),
                       omega0=w, delta=0.004, l_tilde=0.5 + 0.1 * i + 0.03 * (side == "S"),
                       omega_max=0.3, beta_emp=0.02, beta_theo=0.021)
            for i, pair in enumerate(pairs) for side, w in zip("BS", pair)]
    path.write_text(day_metrics_to_csv(rows))
    return path


def test_stats_over_paired_days(tmp_path):
    pairs = [(0.01, 0.02), (0.05, 0.03), (0.02, 0.07), (0.04, 0.04)]
    metrics = _metrics_csv(tmp_path / "metrics.csv", pairs)
    out = tmp_path / "out"
    res = run(["stats", str(metrics), "--kde", "l_cash", "--rcdf", "omega0",
               "--out-dir", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads((out / "stats_report.json").read_text())
    xs, ys = zip(*pairs)
    sp, ks = spearman(xs, ys), ks_two_sample(xs, ys)
    assert report["n_days_paired"] == 4
    assert report["spearman_omega0"] == {"rho": sp.rho, "p_value": sp.p_value, "stars": sp.stars}
    assert report["ks_omega0"] == {"statistic": ks.statistic, "p_value": ks.p_value}
    kde = (out / "stats_kde_l_cash.csv").read_text().splitlines()
    assert kde[0] == "value,density" and len(kde) == 1 + 256
    rcdf = (out / "stats_rcdf_omega0.csv").read_text().splitlines()
    assert rcdf[0] == "value,fraction_ge" and len(rcdf) == 1 + len(set(xs + ys))
    for line in kde[1:] + rcdf[1:]:
        cells = [float(c) for c in line.split(",")]  # plain numbers, not np.float64(...)
        assert len(cells) == 2 and all(math.isfinite(c) for c in cells), line


def test_stats_reports_a_spearman_it_cannot_compute(tmp_path):
    metrics = _metrics_csv(tmp_path / "metrics.csv", [(0.02, 0.02)] * 3)
    res = run(["stats", str(metrics), "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "stats_report.json").read_text())
    assert report["spearman_omega0"] == {"error": "constant sample has no rank correlation"}
    assert report["ks_omega0"]["statistic"] == 0.0


@pytest.mark.parametrize("field, value", [
    ("omega0", "nan"), ("omega0", "inf"), ("omega0", "-0.1"), ("l_tilde", "inf"),
    ("delta_bp", "nan"), ("beta_emp", "-inf"), ("p_a", "nan"), ("p_a", "0.0"), ("p_a", "-1.0"),
    ("q_a", "0"), ("q_a", "-5"), (None, "short-row"), (None, "no-optional-cells"),
    (None, "extra-cell"), ("q_a", "1_000"), ("p_a", "1_0.0"), ("p_a", " 10.0 "),
    ("q_a", "\u0663"), ("l_cash", "junk"), ("l_cash", "nan"), ("l_cash", "1.5"),
    ("l_cash", ""), ("l_tilde", ""),
])
def test_bad_day_metrics_row_is_parse_error(tmp_path, field, value):
    metrics = _metrics_csv(tmp_path / "metrics.csv", [(0.01, 0.02)])
    header, first, second = metrics.read_text().splitlines()
    cells = second.split(",")
    if value == "short-row":
        cells = cells[:3]
    elif value == "no-optional-cells":  # date..omega0 only: read with the rest empty
        cells = cells[:5]
    elif value == "extra-cell":  # filed under no column and read as the 11 before it
        cells.append("junk")
    else:
        cells[header.split(",").index(field)] = value
    metrics.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
    res = run(["stats", str(metrics), "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == EXIT_PARSE, res.output
    assert f"{metrics}:3: bad day metrics row" in res.output
    assert not (tmp_path / "out").exists()


def test_metrics_row_repeating_a_day_and_side_is_parse_error(tmp_path):
    """Two rows for one (date, side) would be merged in the paired statistics."""
    metrics = _metrics_csv(tmp_path / "metrics.csv", [(0.01, 0.02), (0.03, 0.04)])
    header, *rows = metrics.read_text().splitlines()
    metrics.write_text("\n".join([header, *rows, rows[0]]) + "\n")
    res = run(["stats", str(metrics), "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == EXIT_PARSE, res.output
    assert (f"{metrics}:6: bad day metrics row: date '2017-05-01' side B repeats line 2"
            in res.output)
    assert not (tmp_path / "out").exists()


def test_metrics_row_on_an_unknown_side_is_parse_error(tmp_path):
    metrics = _metrics_csv(tmp_path / "metrics.csv", [(0.01, 0.02), (0.03, 0.04)])
    header, *rows = metrics.read_text().splitlines()
    rows[3] = rows[3].replace(",S,", ",X,", 1)
    metrics.write_text("\n".join([header, *rows]) + "\n")
    res = run(["stats", str(metrics), "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == EXIT_PARSE, res.output
    assert f"{metrics}:5: bad day metrics row: side must be B or S, got 'X'" in res.output
    assert not (tmp_path / "out").exists()


def test_metrics_row_after_a_blank_line_is_blamed_on_its_own_line(tmp_path):
    metrics = _metrics_csv(tmp_path / "metrics.csv", [(0.01, 0.02)])
    header, first, second = metrics.read_text().splitlines()
    metrics.write_text("\n".join([header, first, "", second.replace(",S,", ",X,", 1)]) + "\n")
    res = run(["stats", str(metrics), "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == EXIT_PARSE, res.output
    assert f"{metrics}:4: bad day metrics row: side must be B or S, got 'X'" in res.output


@pytest.mark.parametrize("rows, args, code", [
    (1, ["--rcdf", "omega0"], EXIT_TOOFEW),
    (2, ["--rcdf", "omega0", "--kde", "l_cash"], EXIT_OTHER),
])
def test_a_command_that_fails_writes_nothing(tmp_path, rows, args, code):
    """The report is ready before the reverse CDF fails on one row, and the
    report and reverse CDF before the density fails on one day whose sides share
    ``l_cash``; the prelude writes a command's files only once it has succeeded."""
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(day_metrics_to_csv([
        DayMetrics(date="2017-05-01", side=side, p_a=100.0, q_a=1000, omega0=w, l_tilde=0.5)
        for side, w in zip("BS", (0.01, 0.02))][:rows]))
    out = tmp_path / "out"
    res = run(["stats", str(metrics), *args, "--out-dir", str(out)])
    assert res.exit_code == code, res.output
    assert not out.exists()


def test_out_dir_is_not_read_from_the_environment(workspace, tmp_path, monkeypatch):
    """``--out-dir`` is the one way to place outputs: ``UNCROSS_OUT`` is not read,
    so the files land in the default, the working directory."""
    monkeypatch.chdir(tmp_path)
    res = CliRunner().invoke(
        main, ["replay", str(workspace / "day.csv"), "--grid", str(workspace / "day_meta.json")],
        env={"UNCROSS_OUT": str(tmp_path / "from_env")})
    assert res.exit_code == 0, res.output
    assert not (tmp_path / "from_env").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "day_book.csv", "day_clearing.json", "replay.manifest.json"]


def test_series_rows_without_a_fit_keep_price_and_volume(workspace, tmp_path):
    res = run(["series", str(workspace / "day.csv"), "--grid", str(workspace / "day_meta.json"),
               "--interval", "60", "--min-points", "1000000", "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    ind = [r.split(",") for r in (tmp_path / "day_indicative.csv").read_text().splitlines()[1:]]
    liq = [r.split(",") for r in (tmp_path / "day_liquidity.csv").read_text().splitlines()[1:]]
    assert any(p for _, p, _ in ind)
    # every fit fails: each side's row keeps t, p_ind and q_ind and leaves the fit empty
    assert liq == [[t, side, p, q, "", "", "", ""] for t, p, q in ind for side in "BS"]


def test_series_liquidity_rows_equal_a_fit_of_a_fresh_replay(workspace, tmp_path):
    """Each snapshot's fits describe the book of the events up to its instant."""
    log, meta = workspace / "day.csv", json.loads((workspace / "day_meta.json").read_text())
    res = run(["series", str(log), "--grid", str(workspace / "day_meta.json"),
               "--interval", "60", "--min-points", "5", "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    grid = PriceGrid(meta["tick_size"], meta["anchor"], meta["reference_price"])
    events = list(read_events(log))
    points = [r.split(",") for r in (tmp_path / "day_indicative.csv").read_text().splitlines()[1:]]
    want = []
    for t, p_ind, q_ind in points:
        book = AuctionBook(grid).replay(e for e in events if e.timestamp <= int(t))
        for side in "BS":
            if not p_ind:
                want.append(f"{t},{side},,,,,,")
                continue
            try:
                fit = fit_regime(book, side, max_x=0.02, min_points=5)
            except UncrossError:
                want.append(f"{t},{side},{p_ind},{q_ind},,,,")
                continue
            q = int(q_ind)
            want.append(f"{t},{side},{p_ind},{q_ind},{fit.l_tilde!r},{fit.l_tilde * q!r},"
                        f"{fit.omega_max!r},{fit.omega_max * q!r}")
    assert sum(1 for _, p_ind, _ in points if p_ind) >= 3
    assert (tmp_path / "day_liquidity.csv").read_text().splitlines()[1:] == want


def test_series_of_a_log_without_events_writes_only_headers(tmp_path, grid_file):
    log = tmp_path / "day.csv"
    log.write_text(HEADER)
    res = run(["series", str(log), "--grid", grid_file, "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "day_indicative.csv").read_text() == "t_us,p_ind,q_ind\n"
    assert ((tmp_path / "day_liquidity.csv").read_text()
            == "t_us,side,p_ind,q_ind,l_tilde,l_abs,omega_max,q_max\n")


def test_response_and_series(workspace):
    res = run(["response", str(workspace / "day.csv"),
               "--grid", str(workspace / "day_meta.json"),
               "--warmup", "10", "--out-dir", str(workspace)])
    assert res.exit_code == 0, res.output
    lines = (workspace / "day_response.csv").read_text().strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,r1,rm,count"
    res2 = run(["series", str(workspace / "day.csv"),
                "--grid", str(workspace / "day_meta.json"),
                "--interval", "60", "--out-dir", str(workspace)])
    assert res2.exit_code == 0, res2.output
    ind = (workspace / "day_indicative.csv").read_text().strip().split("\n")
    assert ind[0] == "t_us,p_ind,q_ind"
    liq = (workspace / "day_liquidity.csv").read_text().strip().split("\n")
    assert liq[0] == "t_us,side,p_ind,q_ind,l_tilde,l_abs,omega_max,q_max"


def test_density_multi_day(tmp_path):
    paths = []
    for seed in (1, 2):
        cfg = FlowConfig(seed=seed, shape="bell", total_shares_per_side=40_000,
                         buy_peak_mass=0.2, sell_peak_mass=0.2, n_levels=80)
        events, _, meta = generate(cfg)
        p = tmp_path / f"d{seed}.csv"
        write_events(p, events)
        paths.append(str(p))
    (tmp_path / "d_meta.json").write_text(json.dumps(meta))  # both days share the grid
    res = run(["density", *paths, "--grid", str(tmp_path / "d_meta.json"),
               "--group", "latency", "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "density_profile.csv").read_text().strip().split("\n")
    assert lines[0] == "x_bp,rho_buy,rho_sell,n_days,group"
    assert {l.split(",")[-1] for l in lines[1:]} == {"HFT", "MIX", "NON"}


HEADER = ",".join(CSV_HEADER) + "\n"


def submit_at(price):
    return HEADER + f"0,a,SUBMIT,B,LIMIT,{price},5,HFT,OWN\n"


@pytest.mark.parametrize("text, where", [
    (submit_at("nope"), "2: bad price 'nope'"),
    (submit_at("nan"), "2: price must be positive and finite, got nan"),
    (submit_at("inf"), "2: price must be positive and finite, got inf"),
    (submit_at("1e400"), "2: price must be positive and finite, got inf"),  # parses as inf
    ("", "1: empty file"),
    (HEADER + "soon,a,SUBMIT,B,LIMIT,10.0,5,HFT,OWN\n", "2: bad timestamp_us 'soon'"),
], ids=["not-a-number", "nan", "inf", "beyond-float-range", "empty-file", "bad-timestamp"])
def test_exit_code_parse_error(tmp_path, text, where, grid_file):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    res = run(["replay", str(bad), "--grid", grid_file,
               "--out-dir", str(tmp_path)])
    assert res.exit_code == EXIT_PARSE, res.output
    assert f"bad.csv:{where}" in res.output


@pytest.mark.parametrize("command", ["replay", "response", "series"])
@pytest.mark.parametrize("row, where", [
    ("1_000,a,SUBMIT,B,LIMIT, 1_0.0 ,\u0663,HFT,OWN", "bad timestamp_us '1_000'"),
    ("0,a,SUBMIT,B,LIMIT, 1_0.0 ,\u0663,HFT,OWN", "bad price ' 1_0.0 '"),
    ("0,a,SUBMIT,B,LIMIT,10.0,\u0663,HFT,OWN", "bad qty '\u0663'"),
    ("0,a,SUBMIT,B,LIMIT,10.0 ,5,HFT,OWN", "bad price '10.0 '"),
    ("\t0,a,SUBMIT,B,LIMIT,10.0,5,HFT,OWN", "bad timestamp_us '\\t0'"),
    ("0,a,SUBMIT,B,LIMIT,1_0.0,5,HFT,OWN", "bad price '1_0.0'"),
], ids=["every-cell", "spaced-price", "arabic-indic-qty", "trailing-space", "tab", "underscore"])
def test_number_cell_in_a_python_only_form_is_parse_error(tmp_path, command, row, where,
                                                          grid_file):
    """A number cell with an underscore, surrounding whitespace or a non-ASCII
    digit is a bad cell, although ``int``/``float`` would read it."""
    log = tmp_path / "bad.csv"
    log.write_text(HEADER + row + "\n" + CROSSED.replace("0,a,", "0,z,"), encoding="utf-8")
    res = run([command, str(log), "--grid", grid_file,
               "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == EXIT_PARSE, res.output
    assert f"bad.csv:2: {where}" in res.output


def test_signed_and_exponent_number_cells_are_read(tmp_path, grid_file):
    plain = HEADER + CROSSED + "2,c,SUBMIT,S,LIMIT,10.1,5,HFT,OWN\n3,c,CANCEL,S,LIMIT,,-3,HFT,OWN\n"
    signed = (HEADER + "+0,a,SUBMIT,B,LIMIT,1.000000e+01,+5,HFT,OWN\n"
              "1,b,SUBMIT,S,LIMIT,1E1,5,HFT,OWN\n2,c,SUBMIT,S,LIMIT,+10.10,05,HFT,OWN\n"
              "3,c,CANCEL,S,LIMIT,,-3,HFT,OWN\n")
    for name, text in (("plain", plain), ("signed", signed)):
        (tmp_path / f"{name}.csv").write_text(text)
        res = run(["replay", str(tmp_path / f"{name}.csv"), "--grid", grid_file,
                   "--out-dir", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
    for suffix in ("clearing.json", "book.csv"):
        got = (tmp_path / "signed" / f"signed_{suffix}").read_bytes()
        assert got == (tmp_path / "plain" / f"plain_{suffix}").read_bytes(), suffix


def test_blank_lines_in_a_log_are_skipped(tmp_path, grid_file):
    rows = CROSSED.splitlines(keepends=True)
    for name, text in (("tight", HEADER + CROSSED), ("loose", HEADER + "\n" + "\n\n".join(rows))):
        (tmp_path / f"{name}.csv").write_text(text)
        res = run(["replay", str(tmp_path / f"{name}.csv"), "--grid", grid_file,
                   "--out-dir", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
    for suffix in ("clearing.json", "book.csv"):
        loose = (tmp_path / "loose" / f"loose_{suffix}").read_bytes()
        assert loose == (tmp_path / "tight" / f"tight_{suffix}").read_bytes(), suffix


def test_exit_code_out_of_order_timestamps(tmp_path, grid_file):
    log = tmp_path / "late.csv"
    log.write_text(",".join(CSV_HEADER) + "\n"
                   "9,a,SUBMIT,B,LIMIT,10.0,5,HFT,OWN\n"
                   "1,b,SUBMIT,S,LIMIT,10.0,5,HFT,OWN\n")
    res = run(["series", str(log), "--grid", grid_file,
               "--out-dir", str(tmp_path)])
    assert res.exit_code == EXIT_PARSE
    assert "late.csv:3: timestamp_us 1 is earlier" in res.output
    assert not (tmp_path / "late_indicative.csv").exists()


CROSSED = "0,a,SUBMIT,B,LIMIT,10.0,5,HFT,OWN\n1,b,SUBMIT,S,LIMIT,10.0,5,HFT,OWN\n"


def test_log_row_after_a_quoted_line_break_is_blamed_on_its_own_line(tmp_path, grid_file):
    log = tmp_path / "bad.csv"
    log.write_text(HEADER + CROSSED.replace(",b,", ',"b\nc",')
                   + "2,d,SUBMIT,Q,LIMIT,10.0,5,HFT,OWN\n")
    res = run(["replay", str(log), "--grid", grid_file,
               "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == EXIT_PARSE, res.output
    assert "bad.csv:5: unknown side 'Q'" in res.output


@pytest.mark.parametrize("command", ["replay", "response", "stats"])
def test_file_that_is_not_utf8_is_parse_error_naming_it(tmp_path, command, grid_file):
    if command == "stats":
        path = _metrics_csv(tmp_path / "metrics.csv", [(0.01, 0.02)])
        path.write_bytes(path.read_bytes().replace(b"2017-05-01", b"2017-05-\xff1", 1))
        grid = []
    else:
        path = tmp_path / "day.csv"
        path.write_bytes((HEADER + CROSSED).replace(",b,", ",b\xff,").encode("latin-1"))
        grid = ["--grid", grid_file]
    res = run([command, str(path), *grid, "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == EXIT_PARSE, res.output
    assert f"{path}: not UTF-8 text: invalid start byte 0xff" in res.output
# two rows that leave the book without a cross
APART = "0,a,SUBMIT,B,LIMIT,9.9,5,HFT,OWN\n1,b,SUBMIT,S,LIMIT,10.1,5,HFT,OWN\n"


@pytest.mark.parametrize("command, prefix, row, message", [
    ("replay", CROSSED, "2,a,SUBMIT,S,LIMIT,10.0,5,HFT,OWN", "order id 'a' is already live"),
    ("series", CROSSED, "2,zz,CANCEL,S,LIMIT,10.0,5,HFT,OWN",
     "CANCEL of unknown or dead order 'zz'"),
    ("density", CROSSED, "2,zz,MODIFY,B,LIMIT,10.0,5,HFT,OWN",
     "MODIFY of unknown or dead order 'zz'"),
    # measured after the warm-up, so classified against the indicative price first
    ("response", CROSSED, "40000000,c,SUBMIT,B,LIMIT,10.05,5,HFT,OWN",
     "price 10.05 is not on the grid"),
    # measured after the warm-up, but without a cross: only the skip tally looks at it
    ("response", APART, "40000000,c,SUBMIT,B,LIMIT,10.05,5,HFT,OWN",
     "price 10.05 is not on the grid"),
    ("replay", CROSSED, "2,a,CANCEL,S,MARKET,,999,NON,CLIENT",
     "CANCEL of order 'a' on side S; it is live on side B"),
    ("series", CROSSED, "2,a,CANCEL,B,MARKET,,5,HFT,OWN",
     "CANCEL of order 'a' as MARKET; it is live as LIMIT"),
    ("density", CROSSED, "2,b,CANCEL,S,LIMIT,10.1,5,HFT,OWN",
     "CANCEL of order 'b' at price 10.1; it is live at 10"),
    ("replay", CROSSED, "2,b,MODIFY,B,LIMIT,10.0,5,HFT,OWN",
     "MODIFY of order 'b' on side B; it is live on side S"),
    # so far out that one tick no longer moves the price
    ("replay", CROSSED, "2,c,SUBMIT,B,LIMIT,1e300,5,HFT,OWN",
     "price 1e+300 is not on the grid"),
    ("replay", CROSSED, "2,a,MODIFY,B,LIMIT,10.0,0,HFT,OWN", "quantity must be >= 1, got 0"),
    # positive, but it snaps to tick -100, below the lowest positive tick -99
    ("replay", CROSSED, "2,c,SUBMIT,S,LIMIT,1e-09,7,HFT,OWN",
     "price 1e-09 snaps to tick -100, whose price 0.0 is not positive"),
], ids=["duplicate-submit", "unknown-cancel", "unknown-modify", "off-grid-price",
        "off-grid-price-before-cross", "cancel-other-side", "cancel-other-type",
        "cancel-other-price", "modify-other-side", "price-beyond-float-ticks",
        "modify-to-zero", "price-below-the-lowest-tick"])
def test_book_reject_in_log_is_line_numbered_parse_error(tmp_path, command, prefix, row,
                                                         message, grid_file):
    log = tmp_path / "bad.csv"
    log.write_text(",".join(CSV_HEADER) + "\n" + prefix + row + "\n")
    res = run([command, str(log), "--grid", grid_file,
               "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == EXIT_PARSE, res.output
    assert f"bad.csv:4: {message}" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ('{"tick_size": 0.1, "reference_price": 10.0}', "grid file lacks the key 'anchor'"),
    ("tick_size=0.1", "bad grid file: Expecting value"),
    ('{"tick_size": 0.1, "anchor": 10.0, "reference_price": 10.05}',
     "bad grid file: price 10.05 is not on the grid"),
    ('{"tick_size": 1e-300, "anchor": 1e300, "reference_price": 1}',
     "bad grid file: anchor 1e+300 lies 2**52 ticks or more from zero"),
    ('{"tick_size": 1, "anchor": 1e300, "reference_price": 1e300}',
     "bad grid file: anchor 1e+300 lies 2**52 ticks or more from zero"),
    ('{"tick_size": 0.1, "anchor": NaN, "reference_price": 10.0}',
     "bad grid file: anchor nan lies 2**52 ticks or more from zero"),
    ('{"tick_size": 1e-10, "anchor": 10.0, "reference_price": 1e300}',
     "bad grid file: price 1e+300 is not on the grid"),
    ('{"tick_size": Infinity, "anchor": 10.0, "reference_price": 10.0}',
     "bad grid file: tick_size must be positive and finite, got inf"),
    ('{"tick_size": 0.1, "anchor": 10.0, "reference_price": true}',
     "bad grid file: reference_price must be a number, got True"),
    ('{"tick_size": -0.1, "anchor": 10.0, "reference_price": 10.0}',
     "bad grid file: tick_size must be positive and finite, got -0.1"),
    ('{"tick_size": NaN, "anchor": 10.0, "reference_price": 10.0}',
     "bad grid file: tick_size must be positive and finite, got nan"),
    ('{"tick_size": 0.1, "anchor": 10.0, "reference_price": 0}',
     "bad grid file: reference_price must be positive, got 0"),
    ('{"tick_size": 0.1, "anchor": 10.0, "reference_price": NaN}',
     "bad grid file: reference_price must be positive, got nan"),
    ('{"tick_size": 0.01, "anchor": 100.0, "reference_price": 1e-09}',
     "bad grid file: price 1e-09 snaps to tick -10000, whose price 0.0 is not positive"),
    # the anchor lies 1e301 ticks from zero
    ('{"tick_size": 1e-300, "anchor": 10.0, "reference_price": 10.0}',
     "bad grid file: anchor 10.0 lies 2**52 ticks or more from zero"),
], ids=["missing-key", "not-json", "off-grid-ref", "ticks-overflow", "anchor-too-far",
        "nan-anchor", "ref-beyond-float-ticks", "infinite-tick", "boolean-ref",
        "negative-tick", "nan-tick", "zero-ref", "nan-ref", "ref-below-the-lowest-tick",
        "tick-too-fine"])
def test_bad_grid_file_is_parse_error(tmp_path, text, message):
    log = tmp_path / "day.csv"
    log.write_text(",".join(CSV_HEADER) + "\n" + CROSSED)
    grid = tmp_path / "grid.json"
    grid.write_text(text)
    res = run(["replay", str(log), "--grid", str(grid), "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == EXIT_PARSE, res.output
    assert f"{grid}: {message}" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,message", [
    ("seed=1", "bad config file: Expecting value"),
    ('{"seed": 1, "bogus": 2}',
     "bad config file: unknown config fields: ['bogus']"),
    ('{"n_levels": "many"}',
     "bad config file: config field 'n_levels' must be int, got 'many'"),
    ("[1, 2]", "bad config file: a config must be a JSON object"),
    ('{"market_size_min": 1.0}',
     "bad config file: config field 'market_size_min' must be int, got 1.0"),
    # well formed but unsatisfiable: a config that cannot be built is malformed input too
    ('{"shape": "triangle"}', "bad config file: shape must be one of"),
    # fields that are constants of the generator, not knobs
    ('{"start_us": 0}', "bad config file: unknown config fields: ['start_us']"),
    ('{"bell_mode_ticks": 25}',
     "bad config file: unknown config fields: ['bell_mode_ticks']"),
    ('{"buy_total_shares": 1000}',
     "bad config file: unknown config fields: ['buy_total_shares']"),
    # market order sizes are drawn from [lo, hi]; a size below 1 never ends the draws
    ('{"market_shares_per_side": 100, "market_size_min": 5, "market_size_max": 1}',
     "bad config file: need 1 <= market_size_min <= market_size_max, got 5 and 1"),
    ('{"market_shares_per_side": 100, "market_size_min": 0, "market_size_max": 0}',
     "bad config file: need 1 <= market_size_min <= market_size_max, got 0 and 0"),
    ('{"market_shares_per_side": 100, "market_size_min": -3, "market_size_max": -1}',
     "bad config file: need 1 <= market_size_min <= market_size_max, got -3 and -1"),
    # json reads these literals as floats, but no field takes them
    ('{"tick_size": NaN}',
     "bad config file: config field 'tick_size' must be float, got nan"),
    ('{"delta_star_bp": Infinity}',
     "bad config file: config field 'delta_star_bp' must be float, got inf"),
    ('{"cancellation_rate": -Infinity}',
     "bad config file: config field 'cancellation_rate' must be float, got -inf"),
    ('{"decay": NaN}', "bad config file: config field 'decay' must be float, got nan"),
    ('{"buy_peak_mass": 1e400}',
     "bad config file: config field 'buy_peak_mass' must be float, got inf"),
    # each side's peak mass is its own field: no shared value, no null fallback
    ('{"peak_mass": 0.2}', "bad config file: unknown config fields: ['peak_mass']"),
    # the market order size bounds are two int fields, not a pair
    ('{"market_size_range": [1, 2000]}',
     "bad config file: unknown config fields: ['market_size_range']"),
    ('{"sell_peak_mass": null}',
     "bad config file: config field 'sell_peak_mass' must be float, got None"),
    # the participant flag weights are constants of the generator
    ('{"latency_weights": {"HFT": 1.0}}',
     "bad config file: unknown config fields: ['latency_weights']"),
    ('{"account_weights": {"OWN": 1.0}}',
     "bad config file: unknown config fields: ['account_weights']"),
    # level weights that all underflow, or overflow, leave no share layout
    ('{"shape": "piecewise", "delta_star_bp": 0.0, "decay": 1e8}',
     "bad config file: the piecewise level weights overflow or all underflow"),
    ('{"shape": "piecewise", "decay": -1e6}',
     "bad config file: the piecewise level weights overflow or all underflow"),
], ids=["not-json", "unknown-field", "wrong-type", "not-an-object",
        "wrong-range-element", "infeasible", "start_us", "bell_mode_ticks",
        "buy_total_shares", "range-reversed", "range-zero", "range-negative", "nan-tick",
        "infinite-delta", "negative-infinite-churn", "nan-decay", "overflowing-peak-mass",
        "peak_mass", "market_size_range", "null-peak-mass", "latency_weights", "account_weights",
        "weights-underflow", "weights-overflow"])
def test_bad_gen_config_is_parse_error(tmp_path, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    res = run(["gen", str(config), "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == EXIT_PARSE, res.output
    assert f"{config}: {message}" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,message", [
    ("command=impact", "bad manifest: Expecting value"),
    ('{"command": "impact", "params": {}}', "manifest lacks the key 'inputs'"),
    ('{"command": "nope", "inputs": {}, "params": {}}', "unknown command 'nope'"),
    ('{"command": "rerun", "inputs": {}, "params": {}}', "unknown command 'rerun'"),
    ('{"command": "replay", "inputs": {}, "params": {"log": LOG, "grid": GRID, "bogus": 1}}',
     "params do not fit replay: unknown ['bogus'], missing []"),
    ('{"command": "replay", "inputs": {}, "params": {"log": LOG}}',
     "params do not fit replay: unknown [], missing ['grid']"),
    ('{"command": "regime", "inputs": {}, "params": {"log": LOG, "date": null, '
     '"min_points": 20, "max_x": "abc", "full_metrics": false, "grid": GRID}}',
     "bad param 'max_x': 'abc' is not a valid float"),
    ('{"command": "impact", "inputs": {}, "params": {"log": LOG, "max_x": null, "grid": GRID}}',
     "bad param 'max_x': null is not one of its values"),
    ('{"command": "impact", "inputs": {}, "params": {"log": LOG, "max_x": 0, "grid": GRID}}',
     "bad param 'max_x': 0.0 is not in the range x>0"),
    ('{"command": "series", "inputs": {}, "params": {"log": LOG, "interval": NaN, '
     '"min_points": 20, "max_x": 200.0, "grid": GRID}}',
     "bad param 'interval': nan is not a finite number"),
    ('{"command": "regime", "inputs": {}, "params": {"log": LOG, "date": null, '
     '"min_points": 1, "max_x": 200.0, "full_metrics": false, "grid": GRID}}',
     "bad param 'min_points': 1 is not in the range x>=2"),
    # parameters of an older version, which the commands no longer take
    ('{"command": "impact", "inputs": {}, "params": {"log": LOG, "side": "both", '
     '"max_x": 200.0, "grid": GRID}}',
     "params do not fit impact: unknown ['side'], missing []"),
    ('{"command": "regime", "inputs": {}, "params": {"log": LOG, "date": null, '
     '"min_points": 20, "max_x": 200.0, "approx_slope": false, "full_metrics": false, '
     '"grid": GRID}}',
     "params do not fit regime: unknown ['approx_slope'], missing []"),
    ('{"command": "replay", "inputs": {}, "params": {"log": LOG, '
     '"tick": 0.1, "ref": 10.0, "anchor": null, "grid_file": null}}',
     "params do not fit replay: unknown ['anchor', 'grid_file', 'ref', 'tick'], "
     "missing ['grid']"),
    ('{"command": "impact", "inputs": {}, "params": {"log": LOG, '
     '"max_x": 200.0, "tick": null, "ref": null, "anchor": null, "grid_file": GRID}}',
     "params do not fit impact: unknown ['anchor', 'grid_file', 'ref', 'tick'], "
     "missing ['grid']"),
], ids=["not-json", "missing-key", "unknown-command", "rerun-itself", "unknown-param",
        "missing-param", "bad-param-value", "null-param-value", "param-out-of-range",
        "param-not-finite", "too-few-min-points", "impact-side", "regime-approx-slope",
        "grid-options", "grid-file-beside-grid-options"])
def test_rerun_of_a_non_manifest_is_parse_error(tmp_path, grid_file, text, message):
    log = tmp_path / "day.csv"
    log.write_text(",".join(CSV_HEADER) + "\n" + CROSSED)
    manifest = tmp_path / "impact.manifest.json"
    manifest.write_text(text.replace("LOG", json.dumps(str(log)))
                        .replace("GRID", json.dumps(grid_file)))
    res = run(["rerun", str(manifest), "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == EXIT_PARSE, res.output
    assert f"{manifest}: {message}" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["replay", "impact", "density", "regime", "response",
                                     "series"])
def test_the_grid_is_given_by_a_grid_file_alone(tmp_path, grid_file, command):
    """``--grid`` is required, and there are no numeric grid options beside it."""
    shown = run([command, "--help"]).output
    assert "--grid" in shown
    assert not [o for o in ("--tick", "--ref", "--anchor") if o in shown]
    log = tmp_path / "day.csv"
    log.write_text(HEADER + CROSSED)
    out = tmp_path / "out"
    res = run([command, str(log), "--out-dir", str(out)])
    assert res.exit_code == 2, res.output
    assert "Missing option '--grid'" in res.output
    for option in ("--tick", "--ref", "--anchor"):
        res = run([command, str(log), "--grid", grid_file, option, "10.0", "--out-dir", str(out)])
        assert res.exit_code == 2, res.output
        assert "No such option" in res.output and option in res.output
    assert not out.exists()


@pytest.mark.parametrize("name", ["sub/x", "", "x/"])
def test_gen_name_that_is_not_a_bare_file_name_is_usage_error(tmp_path, name):
    (tmp_path / "cfg.json").write_text("{}")
    out = tmp_path / "out"
    res = run(["gen", str(tmp_path / "cfg.json"), "--name", name, "--out-dir", str(out)])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--name'" in res.output
    assert not out.exists()


@pytest.mark.parametrize("command, option, value", [
    ("impact", "--max-x", "0"),
    ("impact", "--max-x", "nan"),
    ("regime", "--max-x", "nan"),
    ("density", "--dx", "0"),
    ("stats", "--threshold", "0"),
    ("stats", "--threshold", "nan"),
    ("response", "--omega-lo", "0"),
    ("response", "--omega-lo", "1"),  # not below the default --omega-hi 1
    ("response", "--omega-hi", "nan"),
    ("response", "--bins", "0"),
    ("response", "--bins", "-3"),
    ("response", "--warmup", "nan"),
    ("response", "--warmup", "-inf"),
    ("series", "--interval", "0"),
    ("series", "--interval", "-5"),
    ("series", "--interval", "1e-7"),  # rounds below one microsecond
    ("series", "--interval", "nan"),
    ("regime", "--min-points", "-5"),
    ("regime", "--min-points", "0"),
    ("regime", "--min-points", "1"),  # a change point needs two samples
    ("series", "--min-points", "1"),
])
def test_option_outside_its_domain_is_usage_error(tmp_path, command, option, value, grid_file):
    log = tmp_path / "day.csv"
    log.write_text(",".join(CSV_HEADER) + "\n" + CROSSED)
    grid = [] if command == "stats" else ["--grid", grid_file]
    out = tmp_path / "out"
    res = run([command, str(log), *grid, option, value, "--out-dir", str(out)])
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{option}'" in res.output
    assert not out.exists()


def test_bins_too_narrow_to_tell_apart_are_usage_error(tmp_path, grid_file):
    log = tmp_path / "day.csv"
    log.write_text(HEADER + CROSSED)
    out = tmp_path / "out"
    res = run(["response", str(log), "--grid", grid_file, "--omega-lo", "1",
               "--omega-hi", "1.0000000000000002", "--bins", "40", "--out-dir", str(out)])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--bins'" in res.output
    assert not out.exists()


# a header naming omega0 twice: a reader going by name would take the last copy, 0.9
# in every row, and not the real omega0 column
_TWICE_OMEGA0 = ("date,side,p_a,q_a,omega0,delta_bp,l_tilde,omega_max,beta_emp,beta_theo,"
                 "l_cash,omega0\n" + "".join(f"2017-05-0{i},{side},100.0,1000,0.0{i},,,,,,,0.9\n"
                                           for i in range(1, 4) for side in "BS"))
# the writer's columns in another order: every row is well formed under its header
_REORDERED = ("side,date,p_a,q_a,omega0,delta_bp,l_tilde,omega_max,beta_emp,beta_theo,"
              "l_cash\n" + "".join(f"{side},2017-05-0{i},100.0,1000,0.0{i},,,,,,\n"
                                    for i in range(1, 4) for side in "BS"))
# the writer's columns plus one it never writes
_EXTRA = ("date,side,p_a,q_a,omega0,delta_bp,l_tilde,omega_max,beta_emp,beta_theo,l_cash,"
          "note\n" + "".join(f"2017-05-0{i},{side},100.0,1000,0.0{i},,,,,,,x\n"
                              for i in range(1, 4) for side in "BS"))


@pytest.mark.parametrize("text", ["date,side,p_a\n2017-05-01,B,100.0\n", "", _TWICE_OMEGA0,
                                  _REORDERED, _EXTRA],
                         ids=["missing-columns", "empty-file", "a-column-twice",
                              "reordered-columns", "extra-column"])
def test_metrics_csv_without_its_columns_is_parse_error(tmp_path, text):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(text)
    res = run(["stats", str(metrics), "--out-dir", str(tmp_path / "out")])
    assert res.exit_code == EXIT_PARSE, res.output
    assert (f"{metrics}:1: day metrics header must be exactly "
            "'date,side,p_a,q_a,omega0,delta_bp,l_tilde,omega_max,beta_emp,beta_theo,l_cash'"
            in res.output)
    assert not (tmp_path / "out").exists()


def test_exit_code_no_cross(tmp_path, grid_file):
    log = tmp_path / "nocross.csv"
    log.write_text(
        ",".join(CSV_HEADER)
        + "\n0,a,SUBMIT,B,LIMIT,9.9,5,HFT,OWN\n1,b,SUBMIT,S,LIMIT,10.1,5,HFT,OWN\n"
    )
    for command in (["replay"], ["regime"], ["regime", "--full-metrics"]):
        res = run([*command, str(log), "--grid", grid_file,
                   "--out-dir", str(tmp_path)])
        assert res.exit_code == EXIT_NOCROSS, command


def test_exit_code_too_few_points(tmp_path, grid_file):
    log = tmp_path / "thin.csv"
    log.write_text(
        ",".join(CSV_HEADER)
        + "\n0,a,SUBMIT,B,LIMIT,10.0,5,HFT,OWN\n1,b,SUBMIT,S,LIMIT,10.0,5,HFT,OWN\n"
    )
    res = run(["regime", str(log), "--grid", grid_file,
               "--out-dir", str(tmp_path)])
    assert res.exit_code == EXIT_TOOFEW


def test_unknown_flag_values_enumerated(tmp_path, grid_file):
    res = run(["density", "--group", "X", "--grid", grid_file, "."])
    assert res.exit_code == 2
    assert "'latency', 'account'" in res.output or "latency, account" in res.output.replace("'", "")


def test_rerun_reproduces_bytes(workspace, tmp_path):
    # fresh run in one directory
    out1 = tmp_path / "run1"
    res = run(["impact", str(workspace / "day.csv"),
               "--grid", str(workspace / "day_meta.json"), "--out-dir", str(out1)])
    assert res.exit_code == 0, res.output
    assert_rerun_reproduces(out1, tmp_path / "run2", "impact")


def assert_rerun_reproduces(out1, out2, command):
    """Rerun the manifest in ``out1`` into ``out2`` and compare; returns the manifest."""
    res = run(["rerun", str(out1 / f"{command}.manifest.json"), "--out-dir", str(out2)])
    assert res.exit_code == 0, res.output
    rec = json.loads((out1 / f"{command}.manifest.json").read_text())
    for name in rec["outputs"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    # the rerun manifest differs only in its recorded output directory
    rec2 = json.loads((out2 / f"{command}.manifest.json").read_text())
    assert {k: v for k, v in rec.items() if k != "out_dir"} == {
        k: v for k, v in rec2.items() if k != "out_dir"
    }
    return rec


def test_gen_determinism_via_rerun(tmp_path):
    cfg = FlowConfig(seed=11, shape="constant", total_shares_per_side=20_000,
                     buy_peak_mass=0.3, sell_peak_mass=0.3, n_levels=40, cancellation_rate=0.5)
    (tmp_path / "cfg.json").write_text(cfg.to_json())
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    res = run(["gen", str(tmp_path / "cfg.json"), "--out-dir", str(out1)])
    assert res.exit_code == 0, res.output
    res2 = run(["rerun", str(out1 / "gen.manifest.json"), "--out-dir", str(out2)])
    assert res2.exit_code == 0, res2.output
    for name in ("flow.csv", "flow_truth.json", "flow_meta.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("args", [
    ["response", "--warmup", "10", "--no-cancels"],
    ["regime", "--full-metrics"],
])
def test_rerun_passes_flags_back(workspace, tmp_path, args):
    command, *options = args
    out1 = tmp_path / "run1"
    res = run([command, str(workspace / "day.csv"), "--grid", str(workspace / "day_meta.json"),
               *options, "--out-dir", str(out1)])
    assert res.exit_code == 0, res.output
    rec = assert_rerun_reproduces(out1, tmp_path / "run2", command)
    flags = {"with_cancels": False} if command == "response" else {"full_metrics": True}
    assert flags.items() <= rec["params"].items()
    assert len(rec["outputs"]) == (1 if command == "response" else 2)


def test_rerun_refuses_changed_or_missing_input(workspace, tmp_path):
    log = tmp_path / "day.csv"
    log.write_bytes((workspace / "day.csv").read_bytes())
    out1 = tmp_path / "run1"
    res = run(["impact", str(log), "--grid", str(workspace / "day_meta.json"),
               "--out-dir", str(out1)])
    assert res.exit_code == 0, res.output
    recorded = json.loads((out1 / "impact.manifest.json").read_text())["inputs"][str(log)]
    with log.open("a") as fh:
        fh.write("999999999,late,SUBMIT,B,MARKET,,1,NON,CLIENT\n")
    out2 = tmp_path / "run2"
    res2 = run(["rerun", str(out1 / "impact.manifest.json"), "--out-dir", str(out2)])
    assert res2.exit_code == EXIT_OTHER, res2.output
    assert str(log) in res2.output and recorded in res2.output
    assert uncross.cli._sha256(str(log)) in res2.output
    assert not out2.exists()
    log.unlink()
    res3 = run(["rerun", str(out1 / "impact.manifest.json"), "--out-dir", str(out2)])
    assert res3.exit_code == EXIT_OTHER, res3.output
    assert f"{recorded} then, missing now" in res3.output
    assert not out2.exists()


def _python(*args, cwd):
    """Run a fresh interpreter that imports this checkout's ``uncross``."""
    src = str(Path(uncross.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_m_runs_the_cli(tmp_path, monkeypatch, capsys):
    version = _python("-m", "uncross", "--version", cwd=tmp_path)
    assert version.returncode == 0, version.stderr
    assert "0.1.0" in version.stdout
    # the same module run in this process, where a coverage tracer sees it
    monkeypatch.setattr(sys, "argv", ["uncross", "--version"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("uncross", run_name="__main__")
    assert exited.value.code == 0
    assert capsys.readouterr().out == "uncross, version 0.1.0\n"
    missing = _python("-m", "uncross.cli", "replay", "missing.csv", cwd=tmp_path)
    assert missing.returncode == 2
    assert "missing.csv" in missing.stderr


def test_importing_the_cli_leaves_scipy_unloaded(tmp_path):
    """The package needs no scipy: neither importing the CLI nor ``stats`` with a
    Spearman p-value below 1 loads it."""
    loaded = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    res = _python("-c", f"import sys, uncross.cli; {loaded}", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
    _metrics_csv(tmp_path / "metrics.csv", [(0.01, 0.02), (0.05, 0.03), (0.02, 0.07)])
    args = ["stats", "metrics.csv", "--rcdf", "omega0", "--kde", "l_cash", "--out-dir", "out"]
    res = _python("-c", f"import sys, uncross.cli\ntry:\n    uncross.cli.main({args!r})\n"
                  f"finally:\n    {loaded}", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"
    report = json.loads((tmp_path / "out" / "stats_report.json").read_text())
    assert abs(report["spearman_omega0"]["rho"]) < 1
    assert 0 < report["spearman_omega0"]["p_value"] < 1


def test_series_interval_in_seconds_steps_whole_microseconds(tmp_path, grid_file):
    """4.1 s is 4,099,999.9999999995 µs in floating point: the step rounds to
    4,100,000 µs instead of truncating to 4,099,999."""
    log = tmp_path / "day.csv"
    log.write_text(HEADER + CROSSED + "10000000,c,SUBMIT,B,LIMIT,10.0,5,HFT,OWN\n")
    res = run(["series", str(log), "--grid", grid_file, "--interval", "4.1",
               "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rows = (tmp_path / "day_indicative.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == [0, 4_100_000, 8_200_000, 10_000_000]


def test_response_warmup_in_seconds_ends_on_its_whole_microsecond(tmp_path, grid_file):
    """With ``--warmup 4.1`` the cut is t0 + 4,100,000 µs: a market buy one
    microsecond before it is applied but not measured, one exactly at it is."""
    log = tmp_path / "day.csv"
    log.write_text(HEADER + "0,a,SUBMIT,B,LIMIT,10.0,100,HFT,OWN\n"
                   "1,b,SUBMIT,S,LIMIT,10.0,100,HFT,OWN\n"
                   "4099999,c,SUBMIT,B,MARKET,,10,HFT,OWN\n"
                   "4100000,d,SUBMIT,B,MARKET,,20,HFT,OWN\n")
    res = run(["response", str(log), "--grid", grid_file, "--warmup", "4.1",
               "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rows = [r.split(",") for r in (tmp_path / "day_response.csv").read_text().splitlines()[1:]]
    counted = [(float(lo), float(hi)) for lo, hi, _, _, count in rows if int(count)]
    assert sum(int(r[-1]) for r in rows) == 1
    assert counted[0][0] < 20 / 100 <= counted[0][1]  # d: 20 shares against q 100


LABEL_REFUSED = ("Invalid value for '--date'",
                 "without --date the label is the log's file name stem")


@pytest.mark.parametrize("label", ["x,y", 'x"y', "x\ry", "x\ny"])
def test_regime_refuses_a_date_label_that_breaks_csv_rows(workspace, tmp_path, label):
    out = tmp_path / "out"
    res = run(["regime", str(workspace / "day.csv"), "--grid", str(workspace / "day_meta.json"),
               "--date", label, "--full-metrics", "--out-dir", str(out)])
    assert res.exit_code == 2, res.output
    assert all(part in res.output for part in LABEL_REFUSED), res.output
    assert not out.exists()


def test_regime_refuses_a_log_name_that_breaks_csv_rows(workspace, tmp_path):
    """Without ``--date`` the label is the log's stem, which is refused the same way."""
    log = tmp_path / "x,y.csv"
    log.write_bytes((workspace / "day.csv").read_bytes())
    out = tmp_path / "out"
    res = run(["regime", str(log), "--grid", str(workspace / "day_meta.json"),
               "--full-metrics", "--out-dir", str(out)])
    assert res.exit_code == 2, res.output
    assert all(part in res.output for part in LABEL_REFUSED), res.output
    assert not out.exists()


def test_only_response_and_series_read_a_log_event_by_event():
    """``response`` and ``series`` act between events, so they alone read a log
    through ``read_events``; every other command replays it with ``replay_log``."""
    tree = ast.parse(Path(uncross.cli.__file__).read_text())
    callers = {
        fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and "read_events" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert callers == {"response", "series"}


@pytest.mark.parametrize("command", ["replay", "impact", "density", "regime", "response",
                                     "series"])
def test_only_events_reach_apply(workspace, tmp_path, monkeypatch, command):
    """``AuctionBook.apply`` is handed events, never the field tuples of a log's
    rows: the benchmark's tracer counts submits, cancels and modifies by reading
    ``.action`` of apply's argument."""
    apply, handed = AuctionBook.apply, set()

    def recorded(book, ev):
        handed.add(type(ev))
        return apply(book, ev)

    monkeypatch.setattr(AuctionBook, "apply", recorded)
    res = run([command, str(workspace / "day.csv"), "--grid", str(workspace / "day_meta.json"),
               "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert handed <= {OrderEvent}
    assert handed or command not in ("response", "series")  # those two apply each event


@pytest.mark.parametrize("command, name, default", [
    ("impact", "max_x", 200.0), ("regime", "max_x", 200.0), ("series", "max_x", 200.0),
    ("regime", "min_points", 20), ("series", "min_points", 20), ("density", "dx", 1.0),
    ("response", "warmup", 30.0), ("stats", "threshold", 0.01),
])
def test_option_defaults_are_the_library_defaults_in_cli_units(command, name, default):
    """Each default is read from the library constant it mirrors; the value shown
    in ``--help`` and recorded in a manifest stays the one earlier versions wrote."""
    param = next(p for p in main.commands[command].params if p.name == name)
    assert repr(param.default) == repr(default)
    shown = " ".join(run([command, "--help"]).output.split())
    assert f"--{name.replace('_', '-')}" in shown and f"[default: {default};" in shown
