#!/usr/bin/env python3
"""End-to-end demo: generate a synthetic batch of auction days, fit each one,
and report batch statistics.

Produces, under --out-dir:
    days/day_<i>.csv           generated event logs
    metrics.csv                per-(day, side) metrics table (regime --full-metrics rows)
    report.json                the batch report of `uncross stats` on metrics.csv
    density_profile.csv        batch-averaged book density

Any --days of 1 or more works; the rank statistics need 3 days.

Usage:
    python scripts/run_pipeline.py --days 20 --seed 7 --out-dir /tmp/uncross_demo
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

from uncross.book import AuctionBook
from uncross.density import average_density, day_profile, profiles_to_csv
from uncross.events import write_events
from uncross.flowgen import FlowConfig, generate
from uncross.grid import PriceGrid
from uncross.regime import fit_regime
from uncross.stats import DEFAULT_THRESHOLD, DayMetrics, batch_report, day_metrics_to_csv


def run_day(i: int, seed: int, out: Path) -> tuple[list[DayMetrics], dict]:
    cfg = FlowConfig(
        seed=seed,
        tick_size=0.01,
        fundamental_price=100.0,
        shape="piecewise",
        total_shares_per_side=150_000,
        buy_peak_mass=0.12 + 0.12 * ((seed * 2654435761) % 100) / 100.0,
        sell_peak_mass=0.12 + 0.12 * ((seed * 40503) % 100) / 100.0,
        n_levels=200,
        delta_star_bp=40.0 + (seed * 40503) % 30,
        decay=400.0,
        cancellation_rate=0.3,
        market_shares_per_side=10_000,
    )
    events, truth, meta = generate(cfg)
    write_events(out / "days" / f"day_{i}.csv", events)

    grid = PriceGrid(meta["tick_size"], meta["anchor"], meta["reference_price"])
    book = AuctionBook(grid).replay(events)
    fits = [fit_regime(book, side) for side in "BS"]
    profile = day_profile(book)[None]
    return [fit.metrics(f"day_{i}") for fit in fits], {"truth": truth, "profile": profile}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--days", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out-dir", type=Path, default=Path("pipeline_out"))
    args = ap.parse_args()
    if args.days < 1:
        ap.error(f"argument --days: {args.days} is not at least 1")

    out = args.out_dir
    (out / "days").mkdir(parents=True, exist_ok=True)

    all_rows: list[DayMetrics] = []
    profiles = []
    for i in range(args.days):
        rows, extra = run_day(i, args.seed + i, out)
        all_rows.extend(rows)
        profiles.append(extra["profile"])
        print(
            f"day_{i}: p_a={rows[0].p_a:.2f} q_a={rows[0].q_a} "
            f"omega0_B={rows[0].omega0:.4f} omega0_S={rows[1].omega0:.4f} "
            f"delta_B={rows[0].delta * 1e4:.1f}bp (target {extra['truth']['delta_star_bp']:.1f}bp)"
        )

    (out / "metrics.csv").write_text(day_metrics_to_csv(all_rows))
    (out / "density_profile.csv").write_text(profiles_to_csv([average_density(profiles)]))

    report = json.dumps(batch_report(all_rows, DEFAULT_THRESHOLD), indent=2, sort_keys=True) + "\n"
    (out / "report.json").write_text(report)
    print(report, end="")
    above_half = sum(1 for r in all_rows if r.omega_max is not None and r.omega_max > 0.5)
    print(f"omega_max > 0.5 on {above_half / len(all_rows)!r} of the (day, side) rows")


if __name__ == "__main__":
    main()
