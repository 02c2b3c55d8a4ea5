"""Workload inputs, set-up and passes.

Every workload is built from the seed alone: set-up writes one ``FlowConfig``
JSON per day and runs ``uncross gen`` on it.  A pass starts from the logs on
disk and ends with every result computed, written and checked.  Layer
functions are looked up on their modules at call time, so the tracer's
rebinding reaches the calls made here too.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
from dataclasses import asdict
from pathlib import Path
from time import perf_counter, process_time

import checks

# ``uncross`` re-exports functions under some module names (``uncross.density``
# is the function), so the modules are taken from the import system directly.
cli_mod, clearing_mod, events_mod, flowgen_mod, grid_mod, impact_mod, response_mod = (
    importlib.import_module(f"uncross.{m}") for m in (
        "cli", "clearing", "events", "flowgen", "grid", "impact", "response"))

WORKLOADS = ("accum_medium", "batch_small")
SERIES_INTERVAL_S = 10
ACCUM_DAYS = 6
BATCH_DAYS = 25
# a run repeats the 25-day batch at least four times, so that its 90th
# percentile day latency has at least ten samples beyond it
MIN_PASSES = {"batch_small": 4}


def _batch_day(seed: int) -> dict:
    """The per-day config of ``scripts/run_pipeline.py``'s ``run_day``."""
    return dict(
        seed=seed, tick_size=0.01, fundamental_price=100.0, shape="piecewise",
        total_shares_per_side=150_000,
        buy_peak_mass=0.12 + 0.12 * ((seed * 2654435761) % 100) / 100.0,
        sell_peak_mass=0.12 + 0.12 * ((seed * 40503) % 100) / 100.0,
        n_levels=200, delta_star_bp=40.0 + (seed * 40503) % 30, decay=400.0,
        cancellation_rate=0.3, market_shares_per_side=10_000,
    )


def configs(workload: str, seed: int, tiny: bool = False) -> list[tuple[str, dict]]:
    """(log stem, FlowConfig fields) for every day of a workload.

    ``tiny`` shrinks every day, and the workload to two or five days, for smoke tests.
    """
    if workload == "accum_medium":
        # an 80 s accumulation phase: the series at 10 s takes about 10 snapshots
        size = dict(total_shares_per_side=30_000, n_levels=400, market_shares_per_side=1_500)
        if tiny:
            size = dict(total_shares_per_side=5_000, n_levels=60, market_shares_per_side=250)
        days = 2 if tiny else ACCUM_DAYS
        return [(f"accum_{i:03d}",
                 dict(seed=seed + i, shape="piecewise", mean_order_size=50,
                      cancellation_rate=1.0, earliest_clear_us=80_000_000,
                      latest_clear_us=88_000_000, **size))
                for i in range(days)]
    if workload == "batch_small":
        days = 5 if tiny else BATCH_DAYS
        return [(f"day_{i:03d}", _batch_day(seed + i)) for i in range(days)]
    raise ValueError(f"unknown workload {workload!r}")


def full_config(cfg: dict) -> dict:
    """Every FlowConfig field, defaults included, as recorded with a result."""
    return asdict(flowgen_mod.FlowConfig(**cfg))


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -------------------------------------------------------------- operations


class Failed(Exception):
    """A layer call or CLI command failed; the pass cannot go on."""


class Ops:
    """Counts operations (layer calls, CLI commands, output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 50:
            self.errors.append(what)

    def call(self, what: str, fn, /, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            raise Failed(what) from exc

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self._fail(f"check failed: {what}")
        return ok

    def cli(self, *args) -> None:
        """Run one ``uncross`` command in-process, discarding what it prints."""
        self.attempted += 1
        argv = [str(a) for a in args]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli_mod.main.main(args=argv, prog_name="uncross", standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                self._fail(f"uncross {' '.join(argv)}: exit {exc.code}")
                raise Failed(argv[0]) from exc
        except Exception as exc:
            self._fail(f"uncross {' '.join(argv)}: {type(exc).__name__}: {exc}")
            raise Failed(argv[0]) from exc


# ------------------------------------------------------------------- set-up


def setup(workload: str, seed: int, dest: Path, ops: Ops, tiny: bool = False) -> None:
    """Write the workload's configs and generate its logs with ``uncross gen``."""
    cfg_dir = dest / "configs"
    cfg_dir.mkdir(parents=True)
    for stem, cfg in configs(workload, seed, tiny):
        path = cfg_dir / f"{stem}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        ops.cli("gen", path, "--name", stem, "--out-dir", dest / "logs")


# ------------------------------------------------------------------- passes


class Context:
    """What a pass needs: inputs, an output directory, counters and samples."""

    def __init__(self, logs: Path, out: Path, ops: Ops, stems: list[str]):
        self.logs = logs
        self.out = out
        self.ops = ops
        self.stems = stems
        self.tracer = None  # set once the traced passes start
        self.days: list[dict] = []  # wall and CPU seconds of each day's commands
        self.info: dict = {}
        self.pass_index = 0  # numbers the passes of a run, for trace ids

    def log(self, stem: str) -> Path:
        return self.logs / f"{stem}.csv"

    def meta(self, stem: str) -> Path:
        return self.logs / f"{stem}_meta.json"

    def grid(self, stem: str):
        meta = json.loads(self.meta(stem).read_text())
        return grid_mod.PriceGrid(meta["tick_size"], meta["anchor"], meta["reference_price"])

    def span(self, name: str, trace: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, trace)


def check_clear(ops: Ops, book, result, label: str) -> None:
    buy, sell = checks.book_levels(book)
    grid = book.grid
    want = checks.exhaustive_uncross(buy, sell, book.buy_market_total, book.sell_market_total,
                                     grid.reference_index, grid.min_price_index)
    got = (result.price_index, result.q_a, result.imbalance)
    ops.check(f"{label}: clear {got} equals exhaustive scan {want}", got == want)


def accum_pass(ctx: Context) -> None:
    ops, out = ctx.ops, ctx.out
    for i, stem in enumerate(ctx.stems):
        grid = ctx.grid(stem)
        with ctx.span("day", f"p{ctx.pass_index}/d{i}"):
            t0, c0 = perf_counter(), process_time()
            events = ops.call("read_events", lambda: list(events_mod.read_events(ctx.log(stem))))
            book, points = ops.call("indicative_series", clearing_mod.indicative_series, events,
                                    grid, SERIES_INTERVAL_S * 1_000_000)
            curve = ops.call("response_curves", response_mod.response_curves, events, grid)
            res = ops.call("clear", clearing_mod.clear, book)
            del events
            ops.cli("series", ctx.log(stem), "--grid", ctx.meta(stem),
                    "--interval", SERIES_INTERVAL_S, "--out-dir", out / "cli")
            lib_csv = clearing_mod.series_to_csv(points, grid)
            (out / f"{stem}_indicative.csv").write_text(lib_csv)
            (out / f"{stem}_response.csv").write_text(curve.to_csv())
            ctx.days.append({"wall": perf_counter() - t0, "cpu": process_time() - c0})
        check_accum_day(ops, stem, book, res, points, lib_csv, out / "cli" / f"{stem}_indicative.csv")
        ctx.info[stem] = dict(
            live_orders=len(book.orders), occupied_ticks=len(book.nonempty_indices()),
            snapshots=len(points), marketable_binned=sum(curve.counts),
            marketable_skipped_no_cross=curve.skipped_no_cross)


def check_accum_day(ops: Ops, stem: str, book, res, points, lib_csv: str, cli_csv: Path) -> None:
    grid = book.grid
    check_clear(ops, book, res, stem)
    for s in "BS":
        impact = ops.call(f"impact_curve {s}", impact_mod.impact_curve, book, res, s)
        bps = [(bp.omega_num, bp.target_index) for bp in impact.breakpoints]
        # every occupied tick carries volume, so the jump volumes strictly increase
        ops.check(f"{stem}: impact {s} jump volumes increase",
                  all(q0 < q1 for (q0, _), (q1, _) in zip(bps, bps[1:])))
        for q, want in checks.impact_midpoints(bps):
            price = ops.call(f"inject_and_reclear {s} {q}", impact_mod.inject_and_reclear, book, s, q)
            ops.check(f"{stem}: inject {s} {q} lands on tick {want}", grid.index_of(price) == want)
    last = points[-1]
    ops.check(f"{stem}: last indicative point ({last.price_index}, {last.q_ind}) equals the "
              f"final clear ({res.price_index}, {res.q_a})",
              (last.price_index, last.q_ind) == (res.price_index, res.q_a))
    ops.check(f"{stem}: CLI series CSV equals series_to_csv", cli_csv.read_text() == lib_csv)


def batch_pass(ctx: Context) -> None:
    ops, out = ctx.ops, ctx.out
    grid = ctx.grid(ctx.stems[0])
    for i, stem in enumerate(ctx.stems):
        day = out / stem
        log, meta = ctx.log(stem), ctx.meta(stem)
        with ctx.span("day", f"p{ctx.pass_index}/d{i}"):
            t0, c0 = perf_counter(), process_time()
            ops.cli("replay", log, "--grid", meta, "--out-dir", day)
            ops.cli("impact", log, "--grid", meta, "--out-dir", day)
            ops.cli("regime", log, "--grid", meta, "--full-metrics", "--out-dir", day)
            ctx.days.append({"wall": perf_counter() - t0, "cpu": process_time() - c0})
        cleared = json.loads((day / f"{stem}_clearing.json").read_text())
        buy, sell, mb, ms = checks.parse_book_csv((day / f"{stem}_book.csv").read_text(), grid)
        want = checks.exhaustive_uncross(buy, sell, mb, ms, grid.reference_index,
                                         grid.min_price_index)
        got = (grid.index_of(cleared["p_a"]), cleared["q_a"], cleared["imbalance"])
        ops.check(f"{stem}: CLI clearing {got} equals exhaustive scan {want}", got == want)

    ops.cli("density", *[ctx.log(s) for s in ctx.stems], "--grid", ctx.meta(ctx.stems[0]),
            "--group", "latency", "--out-dir", out / "density")
    lines = []
    for stem in ctx.stems:
        rows = (out / stem / f"{stem}_metrics.csv").read_text().splitlines(keepends=True)
        lines += rows if not lines else rows[1:]
    (out / "metrics.csv").write_text("".join(lines))
    ops.cli("stats", out / "metrics.csv", "--rcdf", "omega0", "--kde", "l_cash",
            "--out-dir", out / "stats")

    last = out / ctx.stems[-1]
    manifest = json.loads((last / "regime.manifest.json").read_text())
    ops.cli("rerun", last / "regime.manifest.json", "--out-dir", out / "rerun")
    same = all((out / "rerun" / n).is_file()
               and (last / n).read_bytes() == (out / "rerun" / n).read_bytes()
               for n in manifest["outputs"])
    ops.check(f"rerun of {ctx.stems[-1]} regime is byte-identical", same)


PASSES = {"accum_medium": accum_pass, "batch_small": batch_pass}
