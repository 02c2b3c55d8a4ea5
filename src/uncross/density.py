"""Binned book density profiles and their cross-day average.

Each day's resting limit volume is binned by log-price distance from the
book's own clearing price in fixed bins of width ``dx`` and scaled by its
auction volume, so profiles of different days average bin by bin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .book import AuctionBook
from .clearing import uncross_values
from .errors import MismatchedBinning
from .events import ACCOUNT_TYPES, LATENCY_FLAGS, csv_table

DEFAULT_DX = 1e-4  # 1 basis point bins
# per ``group_by``: the order record's flag field, and the profile keys
_GROUPS = {None: (None, (None,)), "latency": ("latency_flag", LATENCY_FLAGS),
           "account": ("account_type", ACCOUNT_TYPES)}


@dataclass
class DensityProfile:
    """Scaled buy/sell densities on centered bins of width ``dx`` (log units).

    Bin k covers ((k - 1/2) dx, (k + 1/2) dx]; ``rho_buy[k]`` maps bin index to
    shares per log-price unit per auction volume.  ``n_days`` is the number of
    days aggregated (1 for a raw day profile).
    """

    dx: float
    rho_buy: dict[int, float]
    rho_sell: dict[int, float]
    n_days: int = 1
    group: str | None = None

    def bin_range(self) -> range:
        keys = self.rho_buy.keys() | self.rho_sell.keys()
        if not keys:
            return range(0, 0)
        return range(min(keys), max(keys) + 1)


def day_profile(
    book: AuctionBook, dx: float = DEFAULT_DX, group_by: str | None = None
) -> dict[str | None, DensityProfile]:
    """Bin one day's book into density profiles, optionally split by a flag.

    The profile uncrosses the book itself (NoCross without a cross) and bins
    around its clearing price, scaled by its auction volume.  ``group_by`` is
    ``"latency"`` or ``"account"``; None gives a single profile keyed by None.
    Grouped profiles sum to the ungrouped one bin by bin.
    """
    if dx <= 0:
        raise ValueError(f"dx must be positive, got {dx}")
    if group_by not in _GROUPS:
        raise ValueError(f"group_by must be None, 'latency' or 'account', got {group_by!r}")
    grid = book.grid
    k_a, q_a, _, _ = uncross_values(book)
    auction_price = grid.price_at(k_a)

    flag, keys = _GROUPS[group_by]
    shares_b: dict[str | None, dict[int, int]] = {k: {} for k in keys}
    shares_s: dict[str | None, dict[int, int]] = {k: {} for k in keys}

    for rec in book.live_resting_orders():
        if rec.is_market:
            continue  # unpriced volume has no log-price coordinate
        key = getattr(rec, flag) if flag else None
        x = math.log(grid.price_at(rec.price_index) / auction_price)
        b = round(x / dx)
        dest = shares_b if rec.side == "B" else shares_s
        dest[key][b] = dest[key].get(b, 0) + rec.quantity

    return {
        key: DensityProfile(
            dx=dx,
            rho_buy={b: v / (q_a * dx) for b, v in sorted(shares_b[key].items())},
            rho_sell={b: v / (q_a * dx) for b, v in sorted(shares_s[key].items())},
            n_days=1,
            group=key,
        )
        for key in keys
    }


def average_density(profiles: Sequence[DensityProfile]) -> DensityProfile:
    """Per-bin arithmetic mean across day profiles sharing one bin width.

    Bins missing from a day count as zero density for that day, so every day
    enters every bin's mean with the same weight.
    """
    if not profiles:
        raise ValueError("no profiles to average")
    dx = profiles[0].dx
    group = profiles[0].group
    for p in profiles[1:]:
        if p.dx != dx:
            raise MismatchedBinning(f"bin widths differ: {p.dx} vs {dx}")
    n = sum(p.n_days for p in profiles)
    acc_b: dict[int, float] = {}
    acc_s: dict[int, float] = {}
    for p in profiles:
        for b, v in p.rho_buy.items():
            acc_b[b] = acc_b.get(b, 0.0) + v * p.n_days
        for b, v in p.rho_sell.items():
            acc_s[b] = acc_s.get(b, 0.0) + v * p.n_days
    return DensityProfile(
        dx=dx,
        rho_buy={b: v / n for b, v in sorted(acc_b.items())},
        rho_sell={b: v / n for b, v in sorted(acc_s.items())},
        n_days=n,
        group=group,
    )


def profiles_to_csv(profiles: Sequence[DensityProfile]) -> str:
    """CSV rows ``x_bp,rho_buy,rho_sell,n_days[,group]`` over each profile's bins."""
    grouped = any(p.group is not None for p in profiles)
    width = 5 if grouped else 4  # the group column only when a profile has a group
    return csv_table("x_bp,rho_buy,rho_sell,n_days" + (",group" if grouped else ""), (
        (b * p.dx * 1e4, p.rho_buy.get(b, 0.0), p.rho_sell.get(b, 0.0), p.n_days, p.group)[:width]
        for p in profiles for b in p.bin_range()))
