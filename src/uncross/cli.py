"""Command line surface: replay, impact, density, regime, response, series, stats, gen, rerun.

Each analysis command is a thin wrapper over library calls that returns its
files' texts and a one-line summary; ``_command`` gives them one shared
prelude.  It builds the price grid from ``--tick``/``--ref`` (with
``--anchor``) or ``--grid FILE``, creates ``--out-dir`` and maps package
errors to exit codes.  Only once the command has succeeded does it write the
files, then ``<command>.manifest.json`` beside them, and echo the summary: a
command that fails writes nothing.

A manifest records ``command``; ``params``, the parameters as click parsed
them, ``--out-dir`` aside; ``inputs``, the sha256 of every input file keyed by
its path as given (logs, the ``--grid`` file, the ``gen`` config, the
``stats`` metrics CSV); ``outputs``, the names of exactly the files written
beside it; and ``out_dir``.
``uncross rerun manifest.json --out-dir DIR`` checks the inputs' hashes and
then calls the recorded command with the recorded parameters, reproducing the
outputs byte for byte.

Exit codes: 0 success; 65 malformed input, named by file and line (a bad row,
a log event the book rejects) or by file (a log or metrics file that is not
UTF-8, a bad grid file, a ``gen`` config that is not a JSON object of known,
well-typed, finite fields, a ``rerun`` file that is not a manifest or whose
params the command does not take); 66 no cross; 67 too few points; 70 other package errors, and a rerun whose inputs
are missing or changed.  Click itself uses 2 for usage errors.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import NoReturn

import click

from . import __version__
from .book import AuctionBook
from .clearing import _snapshots, clear, series_to_csv
from .density import DEFAULT_DX, average_density, day_profile, profiles_to_csv
from .errors import NoCross, OffGridPrice, ParseError, TooFewPoints, UncrossError
from .events import csv_table, events_csv, format_price, read_events
from .flowgen import FlowConfig, generate
from .grid import PriceGrid
from .impact import DEFAULT_MAX_X, impact_curve, signed_curve_csv
from .regime import DEFAULT_MIN_POINTS, fit_regime, fits_to_csv
from .response import (DEFAULT_BINS, DEFAULT_OMEGA_RANGE, DEFAULT_WARMUP_US, log_bins,
                       response_curves)
from .stats import (DEFAULT_THRESHOLD, batch_report, csv_label, day_metrics_to_csv, kde_csv,
                    rcdf_csv, read_day_metrics)

EXIT_PARSE = 65
EXIT_NOCROSS = 66
EXIT_TOOFEW = 67
EXIT_OTHER = 70

def _fail(exc: UncrossError) -> NoReturn:
    click.echo(f"error: {exc}", err=True)
    if isinstance(exc, ParseError):
        sys.exit(EXIT_PARSE)
    if isinstance(exc, NoCross):
        sys.exit(EXIT_NOCROSS)
    if isinstance(exc, TooFewPoints):
        sys.exit(EXIT_TOOFEW)
    sys.exit(EXIT_OTHER)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _input_paths(command: click.Command, params: dict) -> list[str]:
    """The paths given to the command's ``click.Path(exists=True)`` parameters."""
    paths = []
    for p in command.params:
        value = params.get(p.name)
        if isinstance(p.type, click.Path) and p.type.exists and value is not None:
            paths.extend(value if isinstance(value, (list, tuple)) else [value])
    return paths


@contextlib.contextmanager
def _parsing(path: str, what: str):
    """Report a malformed ``what`` file as a ``ParseError`` naming it."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{what} lacks the key {exc}", path=path) from None
    except (ValueError, TypeError, UncrossError) as exc:
        raise ParseError(f"bad {what}: {exc}", path=path) from None


def _grid_from(tick: float | None, ref: float | None, anchor: float | None,
               grid_file: str | None) -> PriceGrid:
    if grid_file is not None:
        given = [name for name, v in (("--tick", tick), ("--ref", ref), ("--anchor", anchor))
                 if v is not None]
        if given:
            raise click.UsageError(f"give either --grid or {'/'.join(given)}, not both")
        with _parsing(grid_file, "grid file"):
            meta = json.loads(Path(grid_file).read_text())
            keys = ("tick_size", "anchor", "reference_price")
            for key in keys:
                if type(meta[key]) not in (int, float):  # a JSON number, not true or "1"
                    raise TypeError(f"{key} must be a number, got {json.dumps(meta[key])}")
            return PriceGrid(*(meta[key] for key in keys))
    if tick is None or ref is None:
        raise click.UsageError("provide --grid FILE or both --tick and --ref")
    try:
        return PriceGrid(tick, anchor if anchor is not None else ref, ref)
    except OffGridPrice as exc:
        raise click.BadParameter(str(exc), param_hint="'--ref'") from None


def _cleared(log: str, grid: PriceGrid):
    """The book replayed from a log, and its clearing."""
    book = AuctionBook(grid).replay_log(log)
    return book, clear(book)


class _Finite(click.FloatRange):
    """A ``FloatRange`` that also refuses NaN and infinities, which ``FloatRange`` lets through."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value} is not a finite number.", param, ctx)
        return value

    def _describe_range(self) -> str:
        bounded = self.min is not None or self.max is not None
        return super()._describe_range() if bounded else "finite"


FINITE = _Finite()
POSITIVE = _Finite(min=0, min_open=True)
STATS_COLUMN = click.Choice(["omega0", "l_cash", "beta_emp", "beta_theo"])

# options shared by several commands; each default is the library's, in CLI units
max_x_option = click.option("--max-x", type=POSITIVE, default=DEFAULT_MAX_X * 1e4,
                            show_default=True, help="Truncation distance in basis points.")
min_points_option = click.option(  # a change point needs two density samples
    "--min-points", type=click.IntRange(min=2), default=DEFAULT_MIN_POINTS, show_default=True)


def _grid_options(fn):
    fn = click.option("--tick", type=POSITIVE, default=None, help="Tick size.")(fn)
    fn = click.option("--ref", type=POSITIVE, default=None,
                      help="Reference (last traded) price.")(fn)
    fn = click.option("--anchor", type=FINITE, default=None,
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


def _command(body):
    """Register ``body`` as a command of ``main``, inside the shared prelude.

    ``body`` takes its own parameters and, in place of the grid options,
    ``grid``; it writes nothing and returns ``({file name: text}, summary)``.
    Once it has returned, the prelude writes each file into ``--out-dir``, then
    the manifest naming them, and echoes the summary.
    """
    @functools.wraps(body)
    def run(out_dir, **params):
        command = click.get_current_context().command
        inputs = {path: _sha256(path) for path in _input_paths(command, params)}
        args = dict(params)
        out = Path(out_dir)
        try:
            if "grid_file" in args:
                grid_args = [args.pop(k) for k in ("tick", "ref", "anchor", "grid_file")]
                args["grid"] = _grid_from(*grid_args)
            out.mkdir(parents=True, exist_ok=True)
            files, summary = body(**args)
        except UncrossError as exc:
            _fail(exc)
        files[f"{command.name}.manifest.json"] = _json_text({
            "tool": "uncross", "version": __version__, "command": command.name,
            "params": params, "inputs": inputs, "outputs": list(files), "out_dir": str(out),
        })
        for name, text in files.items():
            (out / name).write_bytes(text.encode("utf-8"))
        click.echo(summary)

    return out_dir_option(main.command()(run))


@_command
@click.argument("log", type=click.Path(exists=True))
@_grid_options
def replay(log, grid):
    """Replay an event log, uncross it, and dump the clearing and final book."""
    stem = Path(log).stem
    book, clearing = _cleared(log, grid)
    rows = [(format_price(grid.price_at(k)), *book.volume_at(k)) for k in book.nonempty_indices()]
    rows.append(("MARKET", book.buy_market_total, book.sell_market_total))
    return ({f"{stem}_clearing.json": clearing.to_json() + "\n",
             f"{stem}_book.csv": csv_table("price,buy_shares,sell_shares", rows)},
            f"p_a={clearing.p_a} q_a={clearing.q_a}")


@_command
@click.argument("log", type=click.Path(exists=True))
@max_x_option
@_grid_options
def impact(log, max_x, grid):
    """Exact impact curves of both sides of the replayed book, plus signed plot data."""
    stem = Path(log).stem
    book, clearing = _cleared(log, grid)
    buy, sell = (impact_curve(book, clearing, s, max_x=max_x * 1e-4) for s in ("B", "S"))
    files = {f"{stem}_impact_B.csv": buy.to_csv(), f"{stem}_impact_S.csv": sell.to_csv(),
             f"{stem}_impact_signed.csv": signed_curve_csv(buy, sell)}
    return files, f"wrote {', '.join(files)}"


@_command
@click.argument("logs", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--dx", type=POSITIVE, default=DEFAULT_DX * 1e4, show_default=True,
              help="Bin width in basis points.")
@click.option("--group", type=click.Choice(["latency", "account"]), default=None,
              help="Split profiles by participant flag.")
@_grid_options
def density(logs, dx, group, grid):
    """Average scaled book density across one or more day logs."""
    daily = []
    for log in logs:
        book = AuctionBook(grid).replay_log(log)
        daily.append(day_profile(book, dx=dx * 1e-4, group_by=group))
    keys = sorted(daily[0].keys(), key=lambda k: (k is None, k))
    averaged = [average_density([d[k] for d in daily]) for k in keys]
    name = "density_profile.csv"
    return {name: profiles_to_csv(averaged)}, f"wrote {name} ({len(logs)} day(s))"


@_command
@click.argument("log", type=click.Path(exists=True))
@click.option("--date", default=None, help="Date label for output rows (default: log stem).")
@min_points_option
@max_x_option
@click.option("--full-metrics", is_flag=True,
              help="Also write the extended per-day metrics CSV for the stats command.")
@_grid_options
def regime(log, date, min_points, max_x, full_metrics, grid):
    """Constant-density window, liquidity, and impact slopes per side."""
    stem = Path(log).stem
    try:
        date = csv_label(date or stem)
    except ValueError as exc:
        raise click.BadParameter(f"{exc}; without --date the label is the log's file name stem.",
                                 param_hint="'--date'") from None
    book = AuctionBook(grid).replay_log(log)
    fits = [
        (date, fit_regime(book, s, max_x=max_x * 1e-4, min_points=min_points))
        for s in ("B", "S")
    ]
    files = {f"{stem}_regime.csv": fits_to_csv(fits)}
    if full_metrics:
        files[f"{stem}_metrics.csv"] = day_metrics_to_csv([fit.metrics(date) for _, fit in fits])
    return files, f"wrote {', '.join(files)}"


@_command
@click.argument("log", type=click.Path(exists=True))
@click.option("--warmup", type=FINITE, default=DEFAULT_WARMUP_US / 1e6, show_default=True,
              help="Seconds discarded at the start of the log.")
@click.option("--with-cancels/--no-cancels", default=True, show_default=True,
              help="Include marketable cancellations.")
@click.option("--bins", type=click.IntRange(min=1), default=DEFAULT_BINS, show_default=True)
@click.option("--omega-lo", type=POSITIVE, default=DEFAULT_OMEGA_RANGE[0], show_default=True,
              help="Lower edge of the scaled-size bins; below --omega-hi.")
@click.option("--omega-hi", type=POSITIVE, default=DEFAULT_OMEGA_RANGE[1], show_default=True)
@_grid_options
def response(log, warmup, with_cancels, bins, omega_lo, omega_hi, grid):
    """One-lag and mechanical responses of the indicative price."""
    if not omega_lo < omega_hi:
        raise click.BadParameter(f"{omega_lo} is not below --omega-hi {omega_hi}.",
                                 param_hint="'--omega-lo'")
    try:
        edges = log_bins(omega_lo, omega_hi, bins)
    except ValueError as exc:  # bins too narrow to tell their edges apart
        raise click.BadParameter(str(exc), param_hint="'--bins'") from None
    curve = response_curves(
        read_events(log), grid,
        bins=edges,
        warmup_us=round(warmup * 1e6),
        with_cancels=with_cancels,
    )
    name = f"{Path(log).stem}_response.csv"
    return ({name: curve.to_csv()},
            f"wrote {name} ({curve.skipped_no_cross} events skipped without a cross)")


@_command
@click.argument("log", type=click.Path(exists=True))
@click.option("--interval", type=_Finite(min=1e-6), default=5.0, show_default=True,
              help="Snapshot interval in seconds, at least one microsecond.")
@min_points_option
@max_x_option
@_grid_options
def series(log, interval, min_points, max_x, grid):
    """Indicative price/volume snapshots plus liquidity and max linear volume."""
    stem = Path(log).stem
    book = AuctionBook(grid)
    points = []
    liq_rows = []
    for pt in _snapshots(read_events(log), book, round(interval * 1e6)):
        points.append(pt)
        t, q_ind = pt.t, pt.q_ind
        if not pt.crossed:
            liq_rows += [(t, s, None, None, None, None, None, None) for s in ("B", "S")]
            continue
        p_ind = format_price(grid.price_at(pt.price_index))
        for s in ("B", "S"):
            try:
                fit = fit_regime(book, s, max_x=max_x * 1e-4, min_points=min_points)
                liq_rows.append((t, s, p_ind, q_ind, fit.l_tilde, fit.l_tilde * q_ind,
                                 fit.omega_max, fit.omega_max * q_ind))
            except UncrossError:
                liq_rows.append((t, s, p_ind, q_ind, None, None, None, None))

    files = {f"{stem}_indicative.csv": series_to_csv(points, grid),
             f"{stem}_liquidity.csv": csv_table(
                 "t_us,side,p_ind,q_ind,l_tilde,l_abs,omega_max,q_max", liq_rows)}
    return files, f"wrote {', '.join(files)} ({len(points)} snapshots)"


@_command
@click.argument("metrics", type=click.Path(exists=True))
@click.option("--threshold", type=POSITIVE, default=DEFAULT_THRESHOLD, show_default=True,
              help="Scaled size for the zero-impact probability.")
@click.option("--rcdf", "rcdf_col", type=STATS_COLUMN, default=None,
              help="Also write a reverse-CDF table of this column.")
@click.option("--kde", "kde_col", type=STATS_COLUMN, default=None,
              help="Also write a smoothed histogram of this column.")
def stats(metrics, threshold, rcdf_col, kde_col):
    """Batch report over a per-day metrics CSV (see regime --full-metrics)."""
    rows = read_day_metrics(metrics)
    files = {"stats_report.json": _json_text(batch_report(rows, threshold))}

    def column(col: str) -> list[float]:
        vals = [getattr(r, col) for r in rows]
        return [v for v in vals if v is not None]

    if rcdf_col:
        files[f"stats_rcdf_{rcdf_col}.csv"] = rcdf_csv(column(rcdf_col))
    if kde_col:
        files[f"stats_kde_{kde_col}.csv"] = kde_csv(column(kde_col))
    return files, f"wrote {', '.join(files)}"


def _bare_name(ctx, param, name: str) -> str:
    if not name or Path(name).name != name:
        raise click.BadParameter(f"{name!r} is not a bare file name.")
    return name


@_command
@click.argument("config", type=click.Path(exists=True))
@click.option("--name", default="flow", show_default=True, callback=_bare_name,
              help="Output file stem, a bare file name.")
def gen(config, name):
    """Generate a synthetic auction log from a JSON config."""
    with _parsing(config, "config file"):
        cfg = FlowConfig.from_json(Path(config).read_text())
    events, truth, meta = generate(cfg)
    files = {f"{name}.csv": events_csv(events), f"{name}_truth.json": _json_text(truth),
             f"{name}_meta.json": _json_text(meta)}
    log_name, truth_name, meta_name = files
    return files, f"wrote {log_name} ({len(events)} events), {truth_name}, {meta_name}"


@main.command()
@click.argument("manifest", type=click.Path(exists=True))
@out_dir_option
def rerun(manifest, out_dir):
    """Re-execute the command recorded in a manifest file, after checking its inputs."""
    try:
        with _parsing(manifest, "manifest"):
            rec = json.loads(Path(manifest).read_text())
            name, inputs, params = rec["command"], dict(rec["inputs"]), dict(rec["params"])
            command = main.commands.get(name)
        if command is None or command is rerun:
            raise ParseError(f"unknown command {name!r}", path=manifest)
        for path, recorded in sorted(inputs.items()):
            now = _sha256(path) if Path(path).is_file() else "missing"
            if now != recorded:
                raise UncrossError(f"input {path} changed since the manifest was written: "
                                   f"sha256 {recorded} then, {now} now")
        params = _recorded_params(command, params, manifest)
    except UncrossError as exc:
        _fail(exc)
    click.get_current_context().invoke(command, **params, out_dir=out_dir)


def _recorded_params(command: click.Command, params: dict, manifest: str) -> dict:
    """A manifest's params as the command's own parameters convert them."""
    own = {p.name: p for p in command.params if p.name != "out_dir"}
    unknown, missing = sorted(params.keys() - own.keys()), sorted(own.keys() - params.keys())
    if unknown or missing:
        raise ParseError(f"params do not fit {command.name}: unknown {unknown}, "
                         f"missing {missing}", path=manifest)
    ctx = click.Context(command)
    converted = {}
    for name, value in params.items():
        try:
            if value is None and own[name].default is not None:
                raise TypeError("null is not one of its values")
            converted[name] = own[name].process_value(ctx, value)
        except (click.BadParameter, TypeError) as exc:
            raise ParseError(f"bad param {name!r}: {exc}", path=manifest) from None
    return converted


if __name__ == "__main__":
    main()
