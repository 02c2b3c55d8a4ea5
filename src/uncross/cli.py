"""Command line surface: replay, impact, density, regime, response, series, stats, gen.

Every command drops a ``<name>.manifest.json`` next to its outputs recording
the command, parameters, and inputs; ``uncross rerun manifest.json`` replays it
and reproduces the outputs byte for byte.

Exit codes: 0 success, 65 malformed input, 66 no cross, 67 too few points,
70 other package errors (click itself uses 2 for usage errors).
"""
from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click

from . import __version__
from .book import AuctionBook
from .clearing import _snapshots, clear, series_to_csv
from .density import average_density, day_profile, profiles_to_csv
from .errors import NoCross, ParseError, TooFewPoints, UncrossError
from .events import format_price, read_events, write_events
from .flowgen import FlowConfig, generate
from .grid import PriceGrid
from .impact import impact_curve, signed_curve_csv
from .regime import fit_regime, fits_to_csv
from .response import DEFAULT_BINS, DEFAULT_OMEGA_RANGE, log_bins, response_curves
from .stats import (
    DayMetrics,
    day_metrics_to_csv,
    distribution_report,
    ks_two_sample,
    read_day_metrics,
    spearman,
    zero_impact_probability,
)

EXIT_PARSE = 65
EXIT_NOCROSS = 66
EXIT_TOOFEW = 67
EXIT_OTHER = 70


def _fail(exc: UncrossError) -> None:
    click.echo(f"error: {exc}", err=True)
    if isinstance(exc, ParseError):
        sys.exit(EXIT_PARSE)
    if isinstance(exc, NoCross):
        sys.exit(EXIT_NOCROSS)
    if isinstance(exc, TooFewPoints):
        sys.exit(EXIT_TOOFEW)
    sys.exit(EXIT_OTHER)


def _write(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))


def _manifest(out_dir: Path, command: str, params: dict, inputs: list[str],
              outputs: list[str], seed: int | None = None) -> None:
    rec = {
        "tool": "uncross",
        "version": __version__,
        "command": command,
        "params": params,
        "inputs": inputs,
        "outputs": outputs,
        "out_dir": str(out_dir),
        "seed": seed,
    }
    _write(out_dir / f"{command}.manifest.json",
           json.dumps(rec, sort_keys=True, indent=2) + "\n")


def _grid_from(tick: float | None, ref: float | None, anchor: float | None,
               grid_file: str | None) -> PriceGrid:
    if grid_file is not None:
        meta = json.loads(Path(grid_file).read_text())
        return PriceGrid(meta["tick_size"], meta["anchor"], meta["reference_price"])
    if tick is None or ref is None:
        raise click.UsageError("provide --grid FILE or both --tick and --ref")
    return PriceGrid(tick, anchor if anchor is not None else ref, ref)


def _grid_options(fn):
    fn = click.option("--tick", type=float, default=None, help="Tick size.")(fn)
    fn = click.option("--ref", type=float, default=None, help="Reference (last traded) price.")(fn)
    fn = click.option("--anchor", type=float, default=None,
                      help="A price known to be on the grid; defaults to --ref.")(fn)
    fn = click.option("--grid", "grid_file", type=click.Path(exists=True), default=None,
                      help="JSON file with tick_size/anchor/reference_price (see gen output).")(fn)
    return fn


out_dir_option = click.option(
    "--out-dir", type=click.Path(file_okay=False), default=".",
    envvar="UNCROSS_OUT", show_default=True, help="Output directory.",
)


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Auction order book replay, clearing, and price impact analytics."""


@main.command()
@click.argument("log", type=click.Path(exists=True))
@_grid_options
@out_dir_option
def replay(log, tick, ref, anchor, grid_file, out_dir):
    """Replay an event log, uncross it, and dump the clearing and final book."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(log).stem
    try:
        grid = _grid_from(tick, ref, anchor, grid_file)
        book = AuctionBook(grid).replay(read_events(log))
        clearing = clear(book)
        _write(out / f"{stem}_clearing.json", clearing.to_json() + "\n")
        lines = ["price,buy_shares,sell_shares"]
        for k in book.nonempty_indices():
            vb, vs = book.volume_at(k)
            lines.append(f"{format_price(grid.price_at(k))},{vb},{vs}")
        lines.append(f"MARKET,{book.buy_market_total},{book.sell_market_total}")
        _write(out / f"{stem}_book.csv", "\n".join(lines) + "\n")
    except UncrossError as exc:
        _fail(exc)
    _manifest(out, "replay",
              {"tick": tick, "ref": ref, "anchor": anchor, "grid_file": grid_file},
              [log], [f"{stem}_clearing.json", f"{stem}_book.csv"])
    click.echo(f"p_a={clearing.p_a} q_a={clearing.q_a}")


@main.command()
@click.argument("log", type=click.Path(exists=True))
@click.option("--side", type=click.Choice(["B", "S", "both"]), default="both",
              show_default=True)
@click.option("--max-x", type=float, default=200.0, show_default=True,
              help="Truncation distance in basis points.")
@_grid_options
@out_dir_option
def impact(log, side, max_x, tick, ref, anchor, grid_file, out_dir):
    """Exact impact curve(s) of the replayed book, plus signed plot data."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(log).stem
    outputs = []
    try:
        grid = _grid_from(tick, ref, anchor, grid_file)
        book = AuctionBook(grid).replay(read_events(log))
        clearing = clear(book)
        sides = ("B", "S") if side == "both" else (side,)
        curves = {}
        for s in sides:
            curves[s] = impact_curve(book, clearing, s, max_x=max_x * 1e-4)
            name = f"{stem}_impact_{s}.csv"
            _write(out / name, curves[s].to_csv())
            outputs.append(name)
        if side == "both":
            name = f"{stem}_impact_signed.csv"
            _write(out / name, signed_curve_csv(curves["B"], curves["S"]))
            outputs.append(name)
    except UncrossError as exc:
        _fail(exc)
    _manifest(out, "impact",
              {"side": side, "max_x": max_x, "tick": tick, "ref": ref,
               "anchor": anchor, "grid_file": grid_file},
              [log], outputs)
    click.echo(f"wrote {', '.join(outputs)}")


def _one_profile(args):
    path, tick, ref, anchor, grid_file, dx, group = args
    grid = _grid_from(tick, ref, anchor, grid_file)
    book = AuctionBook(grid).replay(read_events(path))
    clearing = clear(book)
    return day_profile(book, clearing.p_a, clearing.q_a, dx=dx, group_by=group)


@main.command()
@click.argument("logs", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--dx", type=float, default=1.0, show_default=True,
              help="Bin width in basis points.")
@click.option("--group", type=click.Choice(["latency", "account"]), default=None,
              help="Split profiles by participant flag.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Process this many logs in parallel.")
@_grid_options
@out_dir_option
def density(logs, dx, group, threads, tick, ref, anchor, grid_file, out_dir):
    """Average scaled book density across one or more day logs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        args = [(p, tick, ref, anchor, grid_file, dx * 1e-4, group) for p in logs]
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                daily = list(pool.map(_one_profile, args))
        else:
            daily = [_one_profile(a) for a in args]
        keys = sorted(daily[0].keys(), key=lambda k: (k is None, k))
        averaged = [average_density([d[k] for d in daily]) for k in keys]
        name = "density_profile.csv"
        _write(out / name, profiles_to_csv(averaged))
    except UncrossError as exc:
        _fail(exc)
    _manifest(out, "density",
              {"dx": dx, "group": group, "threads": threads, "tick": tick,
               "ref": ref, "anchor": anchor, "grid_file": grid_file},
              list(logs), [name])
    click.echo(f"wrote {name} ({len(logs)} day(s))")


@main.command()
@click.argument("log", type=click.Path(exists=True))
@click.option("--date", default=None, help="Date label for output rows (default: log stem).")
@click.option("--min-points", type=int, default=20, show_default=True)
@click.option("--max-x", type=float, default=200.0, show_default=True,
              help="Truncation distance in basis points.")
@click.option("--approx-slope", is_flag=True,
              help="Use the clearing price instead of the first occupied tick in the slope.")
@click.option("--full-metrics", is_flag=True,
              help="Also write the extended per-day metrics CSV for the stats command.")
@_grid_options
@out_dir_option
def regime(log, date, min_points, max_x, approx_slope, full_metrics,
           tick, ref, anchor, grid_file, out_dir):
    """Constant-density window, liquidity, and impact slopes per side."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(log).stem
    date = date or stem
    outputs = []
    try:
        grid = _grid_from(tick, ref, anchor, grid_file)
        book = AuctionBook(grid).replay(read_events(log))
        clearing = clear(book)
        fits = [
            (date, fit_regime(book, clearing, s, max_x=max_x * 1e-4,
                              min_points=min_points,
                              slope_from_auction_price=approx_slope))
            for s in ("B", "S")
        ]
        name = f"{stem}_regime.csv"
        _write(out / name, fits_to_csv(fits))
        outputs.append(name)
        if full_metrics:
            rows = []
            for _, fit in fits:
                curve = impact_curve(book, clearing, fit.side, max_x=max_x * 1e-4)
                rows.append(DayMetrics(
                    date=date, side=fit.side, p_a=clearing.p_a, q_a=clearing.q_a,
                    omega0=float(curve.omega0), delta=fit.delta, l_tilde=fit.l_tilde,
                    omega_max=fit.omega_max, beta_emp=fit.beta_emp,
                    beta_theo=fit.beta_theo,
                ))
            name = f"{stem}_metrics.csv"
            _write(out / name, day_metrics_to_csv(rows))
            outputs.append(name)
    except UncrossError as exc:
        _fail(exc)
    _manifest(out, "regime",
              {"date": date, "min_points": min_points, "max_x": max_x,
               "approx_slope": approx_slope, "full_metrics": full_metrics,
               "tick": tick, "ref": ref, "anchor": anchor, "grid_file": grid_file},
              [log], outputs)
    click.echo(f"wrote {', '.join(outputs)}")


@main.command()
@click.argument("log", type=click.Path(exists=True))
@click.option("--warmup", type=float, default=30.0, show_default=True,
              help="Seconds discarded at the start of the log.")
@click.option("--with-cancels/--no-cancels", default=True, show_default=True,
              help="Include marketable cancellations.")
@click.option("--bins", type=int, default=DEFAULT_BINS, show_default=True)
@click.option("--omega-lo", type=float, default=DEFAULT_OMEGA_RANGE[0], show_default=True)
@click.option("--omega-hi", type=float, default=DEFAULT_OMEGA_RANGE[1], show_default=True)
@_grid_options
@out_dir_option
def response(log, warmup, with_cancels, bins, omega_lo, omega_hi,
             tick, ref, anchor, grid_file, out_dir):
    """One-lag and mechanical responses of the indicative price."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(log).stem
    try:
        grid = _grid_from(tick, ref, anchor, grid_file)
        curve = response_curves(
            read_events(log), grid,
            bins=log_bins(omega_lo, omega_hi, bins),
            warmup_us=int(warmup * 1e6),
            with_cancels=with_cancels,
        )
        name = f"{stem}_response.csv"
        _write(out / name, curve.to_csv())
    except UncrossError as exc:
        _fail(exc)
    _manifest(out, "response",
              {"warmup": warmup, "with_cancels": with_cancels, "bins": bins,
               "omega_lo": omega_lo, "omega_hi": omega_hi, "tick": tick,
               "ref": ref, "anchor": anchor, "grid_file": grid_file},
              [log], [name])
    click.echo(f"wrote {name} ({curve.skipped_no_cross} events skipped without a cross)")


@main.command()
@click.argument("log", type=click.Path(exists=True))
@click.option("--interval", type=float, default=5.0, show_default=True,
              help="Snapshot interval in seconds.")
@click.option("--min-points", type=int, default=20, show_default=True)
@click.option("--max-x", type=float, default=200.0, show_default=True)
@_grid_options
@out_dir_option
def series(log, interval, min_points, max_x, tick, ref, anchor, grid_file, out_dir):
    """Indicative price/volume snapshots plus liquidity and max linear volume."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(log).stem
    interval_us = int(interval * 1e6)
    try:
        grid = _grid_from(tick, ref, anchor, grid_file)
        book = AuctionBook(grid)
        points = []
        liq_rows: list[str] = []
        for pt in _snapshots(read_events(log), book, interval_us):
            points.append(pt)
            t, q_ind = pt.t, pt.q_ind
            if not pt.crossed:
                for s in ("B", "S"):
                    liq_rows.append(f"{t},{s},,,,,,")
                continue
            p_ind = format_price(grid.price_at(pt.price_index))
            snap_clearing = clear(book)
            for s in ("B", "S"):
                try:
                    fit = fit_regime(book, snap_clearing, s, max_x=max_x * 1e-4,
                                     min_points=min_points)
                    l_abs = fit.l_tilde * q_ind
                    q_max = fit.omega_max * q_ind
                    liq_rows.append(
                        f"{t},{s},{p_ind},{q_ind},"
                        f"{fit.l_tilde!r},{l_abs!r},{fit.omega_max!r},{q_max!r}"
                    )
                except UncrossError:
                    liq_rows.append(f"{t},{s},{p_ind},{q_ind},,,,")

        name_ind = f"{stem}_indicative.csv"
        _write(out / name_ind, series_to_csv(points, grid))
        name_liq = f"{stem}_liquidity.csv"
        header = "t_us,side,p_ind,q_ind,l_tilde,l_abs,omega_max,q_max\n"
        _write(out / name_liq, header + "\n".join(liq_rows) + "\n")
    except UncrossError as exc:
        _fail(exc)
    _manifest(out, "series",
              {"interval": interval, "min_points": min_points, "max_x": max_x,
               "tick": tick, "ref": ref, "anchor": anchor, "grid_file": grid_file},
              [log], [name_ind, name_liq])
    click.echo(f"wrote {name_ind}, {name_liq} ({len(points)} snapshots)")


@main.command()
@click.argument("metrics", type=click.Path(exists=True))
@click.option("--threshold", type=float, default=0.01, show_default=True,
              help="Scaled size for the zero-impact probability.")
@click.option("--rcdf", "rcdf_col",
              type=click.Choice(["omega0", "l_cash", "beta_emp", "beta_theo"]),
              default=None, help="Also write a reverse-CDF table of this column.")
@click.option("--kde", "kde_col",
              type=click.Choice(["omega0", "l_cash", "beta_emp", "beta_theo"]),
              default=None, help="Also write a smoothed histogram of this column.")
@out_dir_option
def stats(metrics, threshold, rcdf_col, kde_col, out_dir):
    """Batch report over a per-day metrics CSV (see regime --full-metrics)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    try:
        rows = read_day_metrics(metrics)
        by_date: dict[str, dict[str, DayMetrics]] = {}
        for r in rows:
            by_date.setdefault(r.date, {})[r.side] = r
        paired = [(d["B"].omega0, d["S"].omega0) for d in by_date.values()
                  if "B" in d and "S" in d]
        report: dict = {
            "n_rows": len(rows),
            "n_days_paired": len(paired),
            "p_zero_impact": {
                "threshold": threshold,
                "fraction": zero_impact_probability(rows, threshold),
            },
        }
        if len(paired) >= 3:
            xs = [p[0] for p in paired]
            ys = [p[1] for p in paired]
            try:
                sp = spearman(xs, ys)
                report["spearman_omega0"] = {"rho": sp.rho, "p_value": sp.p_value,
                                             "stars": sp.stars}
            except UncrossError as exc:
                report["spearman_omega0"] = {"error": str(exc)}
            ks = ks_two_sample(xs, ys)
            report["ks_omega0"] = {"statistic": ks.statistic, "p_value": ks.p_value}
        name = "stats_report.json"
        _write(out / name, json.dumps(report, sort_keys=True, indent=2) + "\n")
        outputs.append(name)

        def column(col: str) -> list[float]:
            vals = [getattr(r, col) for r in rows]
            return [v for v in vals if v is not None]

        if rcdf_col:
            name = f"stats_rcdf_{rcdf_col}.csv"
            _write(out / name, distribution_report(column(rcdf_col), "rcdf"))
            outputs.append(name)
        if kde_col:
            name = f"stats_kde_{kde_col}.csv"
            _write(out / name, distribution_report(column(kde_col), "histogram-smoothed"))
            outputs.append(name)
    except UncrossError as exc:
        _fail(exc)
    _manifest(out, "stats",
              {"threshold": threshold, "rcdf": rcdf_col, "kde": kde_col},
              [metrics], outputs)
    click.echo(f"wrote {', '.join(outputs)}")


@main.command()
@click.argument("config", type=click.Path(exists=True))
@click.option("--name", default="flow", show_default=True, help="Output file stem.")
@out_dir_option
def gen(config, name, out_dir):
    """Generate a synthetic auction log from a JSON config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = FlowConfig.from_json(Path(config).read_text())
        events, truth, meta = generate(cfg)
        log_name = f"{name}.csv"
        write_events(out / log_name, events)
        truth_name = f"{name}_truth.json"
        _write(out / truth_name, json.dumps(truth, sort_keys=True, indent=2) + "\n")
        meta_name = f"{name}_meta.json"
        _write(out / meta_name, json.dumps(meta, sort_keys=True, indent=2) + "\n")
    except UncrossError as exc:
        _fail(exc)
    _manifest(out, "gen", {"config": str(config), "name": name}, [str(config)],
              [log_name, truth_name, meta_name], seed=cfg.seed)
    click.echo(f"wrote {log_name} ({len(events)} events), {truth_name}, {meta_name}")


@main.command()
@click.argument("manifest", type=click.Path(exists=True))
@out_dir_option
def rerun(manifest, out_dir):
    """Re-execute the command recorded in a manifest file."""
    rec = json.loads(Path(manifest).read_text())
    cmd = rec["command"]
    params = rec["params"]
    argv: list[str] = [cmd]
    argv.extend(rec["inputs"])
    option_names = {"grid_file": "--grid"}
    for key, val in sorted(params.items()):
        if val is None or key == "config":
            continue
        if key == "with_cancels":
            argv.append("--with-cancels" if val else "--no-cancels")
            continue
        name = option_names.get(key, "--" + key.replace("_", "-"))
        if isinstance(val, bool):
            if val:
                argv.append(name)
            continue
        argv.extend([name, str(val)])
    argv.extend(["--out-dir", out_dir])
    main.main(args=argv, standalone_mode=False)
