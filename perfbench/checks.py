"""Independent output checks: an exhaustive uncrossing scan and its uses.

The scan works from plain per-tick volumes and market totals, so it can check
both library results (volumes from ``nonempty_indices``/``volume_at``) and CLI
outputs (volumes parsed back from the ``<stem>_book.csv`` snapshot).
"""
from __future__ import annotations

import csv
import io


def exhaustive_uncross(
    buy: dict[int, int],
    sell: dict[int, int],
    buy_market: int,
    sell_market: int,
    ref_index: int,
    min_index: int,
) -> tuple[int, int, int] | None:
    """(tick, volume, S - D) by the full rule chain, or None when nothing crosses.

    Every tick from one below the lowest to one above the highest occupied tick,
    widened to the reference tick and kept at positive prices, is a candidate.
    The winner has the largest executable volume, then the smallest absolute
    imbalance, then the smallest distance to the reference, then the lower price.
    """
    occupied = sorted(buy.keys() | sell.keys())
    if occupied:
        lo, hi = min(occupied[0] - 1, ref_index), max(occupied[-1] + 1, ref_index)
    else:
        lo = hi = ref_index
    lo = max(lo, min_index)
    hi = max(hi, lo)
    # S(k) counts sells at or below k, D(k) buys at or above k; levels outside
    # [lo, hi] only ever sit below lo, where they count in S everywhere
    s = sell_market + sum(v for i, v in sell.items() if i < lo)
    d = buy_market + sum(v for i, v in buy.items() if i >= lo)
    best = None
    for k in range(lo, hi + 1):
        s += sell.get(k, 0)
        if k > lo:
            d -= buy.get(k - 1, 0)
        q = min(s, d)
        key = (-q, abs(s - d), abs(k - ref_index), k)
        if best is None or key < best[0]:
            best = (key, k, q, s - d)
    if best is None or best[2] <= 0:
        return None
    return best[1], best[2], best[3]


def book_levels(book) -> tuple[dict[int, int], dict[int, int]]:
    """Per-tick buy and sell volume read through the book's query methods."""
    buy, sell = {}, {}
    for k in book.nonempty_indices():
        vb, vs = book.volume_at(k)
        if vb:
            buy[k] = vb
        if vs:
            sell[k] = vs
    return buy, sell


def parse_book_csv(text: str, grid) -> tuple[dict[int, int], dict[int, int], int, int]:
    """Levels and market totals from the ``replay`` command's book snapshot."""
    buy, sell = {}, {}
    mb = ms = 0
    rows = csv.reader(io.StringIO(text))
    next(rows)
    for price, vb, vs in rows:
        if price == "MARKET":
            mb, ms = int(vb), int(vs)
            continue
        k = grid.index_of(float(price))
        if int(vb):
            buy[k] = int(vb)
        if int(vs):
            sell[k] = int(vs)
    return buy, sell, mb, ms


def impact_midpoints(breakpoints) -> list[tuple[int, int]]:
    """(interior volume, expected tick) strictly between consecutive breakpoints.

    ``breakpoints`` is a sequence of (shares, target tick); an order of the
    midpoint size has passed the first jump but not the second.
    """
    out = []
    for (q0, k0), (q1, _) in zip(breakpoints, breakpoints[1:]):
        if q1 - q0 >= 2:
            out.append(((q0 + q1) // 2, k0))
    return out
