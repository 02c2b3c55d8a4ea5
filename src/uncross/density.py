"""Binned book density profiles and their cross-day average.

Each day's resting limit volume is binned by log-price distance from the
book's own clearing price in fixed bins of width ``dx`` and scaled by its
auction volume, so profiles of different days average bin by bin.  Each
distinct tick of the book's levels (or of one flag's live orders) is binned once.
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
_GROUPS = {"latency": ("latency_flag", LATENCY_FLAGS), "account": ("account_type", ACCOUNT_TYPES)}


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
    around its clearing price, scaled by its auction volume.  None for ``group_by``
    gives one profile keyed by None, from the levels; ``"latency"`` or ``"account"``
    one per flag value, from its live orders.  Grouped profiles sum to the ungrouped one.
    """
    if not 0 < dx < math.inf:  # NaN fails too
        raise ValueError(f"dx must be positive and finite, got {dx}")
    if group_by is not None and group_by not in _GROUPS:
        raise ValueError(f"group_by must be None, 'latency' or 'account', got {group_by!r}")
    k_a, q_a, _, _ = uncross_values(book)
    if group_by is None:
        return _binned({None: (book.buy_volume, book.sell_volume)}, book.grid, k_a, q_a, dx)
    flag, keys = _GROUPS[group_by]
    levels = {key: ({}, {}) for key in keys}
    for rec in book.live_resting_orders():
        if not rec.is_market:  # unpriced volume has no log-price coordinate
            dest = levels[getattr(rec, flag)][rec.side == "S"]
            dest[rec.price_index] = dest.get(rec.price_index, 0) + rec.quantity
    return _binned(levels, book.grid, k_a, q_a, dx)


def _binned(levels, grid, k_a, q_a, dx) -> dict[str | None, DensityProfile]:
    """A profile per key of ``levels``, ``{key: (buy, sell)}`` of ``{tick: shares}``:
    each distinct tick is binned once, and the shares per bin scaled by ``q_a * dx``."""
    p_a = grid.price_at(k_a)
    ticks = {k for sides in levels.values() for shares in sides for k in shares}
    bin_of = {k: round(math.log(grid.price_at(k) / p_a) / dx) for k in ticks}

    def rho(shares) -> dict[int, float]:
        per_bin: dict[int, int] = {}
        for k, v in shares.items():
            per_bin[bin_of[k]] = per_bin.get(bin_of[k], 0) + v
        return {b: v / (q_a * dx) for b, v in sorted(per_bin.items())}

    return {key: DensityProfile(dx, *map(rho, sides), group=key) for key, sides in levels.items()}


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
        for acc, rho in ((acc_b, p.rho_buy), (acc_s, p.rho_sell)):
            for b, v in rho.items():
                acc[b] = acc.get(b, 0.0) + v * p.n_days
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
