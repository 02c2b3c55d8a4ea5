"""Auction uncrossing: price, volume, tie-breaks, and fill allocation.

The clearing price maximizes the executable volume ``min(S(p), D(p))``.
Among maximizers it minimizes the absolute imbalance ``|S(p) - D(p)|``, then
the distance to the reference price, and finally takes the lower price, which
makes the outcome fully deterministic.

Candidate prices are the ticks of the book's level window, which always holds
the reference tick and every non-empty tick, plus an empty sentinel tick beyond
the lowest and the highest (``AuctionBook._slot``).  Outside the window both
curves are flat, so any price there ties with the window's edge tick and loses
the distance tie-break to it.

Each side fills ``q_a`` shares in priority order: market orders first, then
limit orders through the price, then limit orders at the price.  The clearing
record (matched and remaining shares at the price, unfilled market volume,
spillover) follows from the level sums alone.  ``fills`` is the per-order
price-time allocation of the same shares: within a price, in the book
registry's time priority (``AuctionBook.orders``).  The shorter side always
fills completely.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .book import AuctionBook, OrderRecord
from .errors import AllocationInvariantError, NoCross
from .events import csv_table, format_price
from .grid import PriceGrid


def uncross_values(
    book: AuctionBook, side: str | None = None, market_delta: int = 0
) -> tuple[int, int, int, int]:
    """Run the full rule chain over the book's level arrays.

    ``market_delta`` shares are added to the market total of ``side`` (removed
    when negative) for this scan only.  The scan covers the book's tick window,
    which holds the reference tick and never reaches below the smallest
    positive-price tick: an auction cannot clear at a non-positive price.

    Returns (clearing tick index, cleared volume q, signed imbalance S - D,
    margin): q minus the most any other tick executes, 0 when ticks tie at q.
    Raises NoCross when the maximal executable volume is zero.
    """
    lo_index = book.lo_index
    supply = (book.sell_market_total + (market_delta if side == "S" else 0)
              + np.cumsum(book.sell_levels))
    demand = (book.buy_market_total + (market_delta if side == "B" else 0)
              + np.cumsum(book.buy_levels[::-1])[::-1])
    executable = np.minimum(supply, demand)
    q = int(executable.max())
    if q <= 0:
        raise NoCross("supply and demand do not cross")
    imbalance = supply - demand
    candidates = np.nonzero(executable == q)[0]
    executable[candidates[0]] = 0  # the best other tick executes q again on a tie
    margin = q - int(executable.max())
    abs_imb = np.abs(imbalance[candidates])
    candidates = candidates[abs_imb == abs_imb.min()]
    dist = np.abs(candidates + lo_index - book.grid.reference_index)
    candidates = candidates[dist == dist.min()]
    k = int(candidates[0])  # lowest price among remaining ties
    return k + lo_index, q, int(imbalance[k]), margin


@dataclass(frozen=True)
class ClearingResult:
    """Outcome of one uncrossing.

    ``vbm``/``vbr`` (``vsm``/``vsr``) split the limit volume resting exactly at
    the clearing price into matched and remaining shares.  The rationed side's
    remainder can also sit elsewhere: unpriced market volume that could not
    execute goes to ``market_buy_unfilled``/``market_sell_unfilled``, and when
    a tie chain lands the price on a tick below (above) unfilled buy (sell)
    limits, that volume goes to ``buy_spillover``/``sell_spillover``.

    Construction checks the accounting identities
    ``q_a = S(p_a) - remainder_sell = D(p_a) - remainder_buy`` with each
    remainder the sum of its three parts, and that at most one side carries
    any remainder.  On books without market rationing or tie spillover these
    reduce to the strict per-price form ``q_a = S(p_a) - vsr = D(p_a) - vbr``.
    """

    grid: PriceGrid
    price_index: int
    q_a: int
    imbalance: int  # S(p_a) - D(p_a), signed
    vbm: int
    vbr: int
    vsm: int
    vsr: int
    fills: dict[str, int]  # order_id -> filled shares (non-zero entries only)
    supply_at: int
    demand_at: int
    market_buy_unfilled: int = 0
    market_sell_unfilled: int = 0
    buy_spillover: int = 0
    sell_spillover: int = 0

    def __post_init__(self):
        rem_s = self.vsr + self.market_sell_unfilled + self.sell_spillover
        rem_b = self.vbr + self.market_buy_unfilled + self.buy_spillover
        ok = (
            self.q_a == self.supply_at - rem_s
            and self.q_a == self.demand_at - rem_b
            and rem_s * rem_b == 0
            and self.imbalance == self.supply_at - self.demand_at
            and min(self.vbm, self.vbr, self.vsm, self.vsr,
                    self.market_buy_unfilled, self.market_sell_unfilled,
                    self.buy_spillover, self.sell_spillover) >= 0
        )
        if not ok:
            raise AllocationInvariantError(
                "matched/remaining accounting broke at the clearing price: "
                f"q_a={self.q_a} S={self.supply_at} D={self.demand_at} imbalance={self.imbalance} "
                f"vbm={self.vbm} vbr={self.vbr} vsm={self.vsm} vsr={self.vsr} "
                f"mbu={self.market_buy_unfilled} msu={self.market_sell_unfilled} "
                f"spill_b={self.buy_spillover} spill_s={self.sell_spillover}"
            )

    @property
    def p_a(self) -> float:
        return self.grid.price_at(self.price_index)

    def to_json(self) -> str:
        rec = {
            "p_a": self.p_a,
            "q_a": self.q_a,
            "imbalance": self.imbalance,
            "vbm": self.vbm,
            "vbr": self.vbr,
            "vsm": self.vsm,
            "vsr": self.vsr,
        }
        return json.dumps(rec, sort_keys=True)


def _priority_key(rec: OrderRecord):
    # market orders first, then price aggressiveness
    if rec.is_market:
        return (0, 0)
    return (1, -rec.price_index if rec.side == "B" else rec.price_index)


def _allocate(book: AuctionBook, price_index: int, q_a: int) -> dict[str, int]:
    """Fill ``q_a`` shares of each side order by order, in ``_priority_key`` order;
    the stable sort keeps the registry's time priority among equal keys."""
    fills: dict[str, int] = {}
    for side, sign in (("B", 1), ("S", -1)):
        eligible = sorted(
            (r for r in book.live_resting_orders()
             if r.side == side and (r.is_market or sign * (r.price_index - price_index) >= 0)),
            key=_priority_key,
        )
        left = q_a
        for rec in eligible:
            if left <= 0:
                break
            fills[rec.order_id] = take = min(rec.quantity, left)
            left -= take
    return fills


def _fill_side(eligible: int, market: int, at: int, q_a: int) -> tuple[int, int, int]:
    """Split one side's ``q_a`` fill over its levels in priority order.

    ``eligible`` is D(p_a) for buys, S(p_a) for sells: ``market`` shares,
    ``at`` limit shares at the price and the rest through it.  Market volume fills first, then limits
    through the price, then limits at the price.  Returns (matched at the
    price, unfilled market, unfilled through-price limits).
    """
    through = eligible - market - at
    market_fill = min(market, q_a)
    through_fill = min(through, q_a - market_fill)
    return q_a - market_fill - through_fill, market - market_fill, through - through_fill


def clear(book: AuctionBook) -> ClearingResult:
    """Uncross the book, allocate fills, and return the full clearing record."""
    k_a, q_a, imb, _ = uncross_values(book)
    vb_at, vs_at = book.volume_at(k_a)
    # q_a = min(S, D) and imb = S - D at the clearing tick
    supply_at, demand_at = q_a + max(imb, 0), q_a + max(-imb, 0)
    vbm, mbu, spill_b = _fill_side(demand_at, book.buy_market_total, vb_at, q_a)
    vsm, msu, spill_s = _fill_side(supply_at, book.sell_market_total, vs_at, q_a)
    return ClearingResult(
        grid=book.grid, price_index=k_a, q_a=q_a, imbalance=imb,
        vbm=vbm, vbr=vb_at - vbm, vsm=vsm, vsr=vs_at - vsm,
        fills=_allocate(book, k_a, q_a), supply_at=supply_at, demand_at=demand_at,
        market_buy_unfilled=mbu, market_sell_unfilled=msu,
        buy_spillover=spill_b, sell_spillover=spill_s,
    )


# ---------------------------------------------------------------- indicative


@dataclass(frozen=True)
class IndicativePoint:
    """Hypothetical clearing outcome if the auction uncrossed at time t."""

    t: int  # microseconds
    price_index: int | None
    q_ind: int

    @property
    def crossed(self) -> bool:
        return self.price_index is not None


def _indicative(book: AuctionBook) -> tuple[int, int, int] | None:
    """Current (price index, volume, imbalance) of the book, or None without a cross."""
    try:
        return uncross_values(book)[:3]
    except NoCross:
        return None


def _snapshots(events: Iterable, book: AuctionBook, interval_us: int) -> Iterator[IndicativePoint]:
    """Replay a time-sorted event log into ``book``, yielding indicative points.

    Yields one point per interval boundary from the first event on, plus a
    final point at the last event's timestamp.  While a point is being
    consumed, ``book`` holds exactly the events before its instant.
    """
    if type(interval_us) is not int or interval_us < 1:  # a bool, float or NaN too
        raise ValueError(f"interval_us must be at least 1 and an int, got {interval_us!r}")
    next_t: int | None = None
    last_t: int | None = None

    def point(t: int) -> IndicativePoint:
        res = _indicative(book)
        if res is None:
            return IndicativePoint(t, None, 0)
        return IndicativePoint(t, res[0], res[1])

    for ev in events:
        if next_t is None:
            next_t = ev.timestamp
        while ev.timestamp > next_t:
            yield point(next_t)
            next_t += interval_us
        book.apply(ev)
        last_t = ev.timestamp
    if last_t is not None:  # the loop above leaves no boundary before last_t
        yield point(last_t)


def indicative_series(
    events: Iterable, grid: PriceGrid, interval_us: int
) -> tuple[AuctionBook, list[IndicativePoint]]:
    """Replay a time-sorted event log, uncrossing at fixed interval boundaries.

    Emits one point per boundary from the first event on, plus a final point at
    the last event's timestamp, which by construction equals the auction
    clearing of the finished book.  Instants with no cross yield a point with
    ``price_index=None`` rather than failing.
    """
    book = AuctionBook(grid)
    points = list(_snapshots(events, book, interval_us))
    return book, points


def series_to_csv(points: Sequence[IndicativePoint], grid: PriceGrid) -> str:
    return csv_table("t_us,p_ind,q_ind", (
        (pt.t, format_price(grid.price_at(pt.price_index)), pt.q_ind) if pt.crossed
        else (pt.t, None, None) for pt in points))
