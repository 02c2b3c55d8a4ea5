"""Response of the indicative price to marketable order flow.

An event is marketable when it adds or removes shares that would execute at
the indicative tick k if the auction uncrossed now: market orders, limit buys
at or above k, limit sells at or below it.  Its signed size is its change to
D(k) - S(k): +q for a buy submission or a sell cancellation, -q for a sell
submission or a buy cancellation.  The certified reader ``_Indicative`` alone
decides this, as it keeps S(k) and D(k) between scans of the book: it rescans
once the events since the last scan have spent the margin by which k led.
Modifications are not measured.

Two one-lag responses are measured per event, conditioned on the scaled size
``omega = shares / indicative volume``:

* mechanical: indicative price right after the event minus right before;
* one-lag: indicative price just before the *next* marketable event minus
  right before this one (the final clearing price closes the last lag).

Event time advances only at marketable events; everything else just moves the
book.  Events arriving before the warmup cutoff or while the book does not
cross are applied but not measured.  Market orders added or removed without a
cross count as skipped, as do marketable events that leave the book without one.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .book import AuctionBook, OrderRecord
from .clearing import uncross_values
from .errors import NoCross
from .events import OrderEvent, csv_table
from .grid import PriceGrid

DEFAULT_WARMUP_US = 30_000_000  # first 30 seconds carry validity-driven noise
DEFAULT_BINS = 30
DEFAULT_OMEGA_RANGE = (1e-5, 1.0)


@dataclass(frozen=True)
class MarketableEvent:
    t: int
    sign: int  # +1 buy submit / sell cancel, -1 sell submit / buy cancel
    omega: float  # shares / indicative volume at arrival
    shares: int
    kind: str  # SUBMIT or CANCEL
    p_before: float
    p_after_mech: float
    p_next: float | None = None  # filled once the next marketable event arrives


@dataclass
class ResponseCurve:
    """Binned one-lag and mechanical responses, in price units."""

    bin_edges: list[float]  # len = n_bins + 1, log-spaced omega edges
    r1: list[float | None]
    rm: list[float | None]
    counts: list[int]
    se_diff: list[float | None]  # standard error of each bin's mean r1 - rm
    skipped_no_cross: int = 0

    def to_csv(self) -> str:
        return csv_table("bin_lo,bin_hi,r1,rm,count", zip(
            self.bin_edges, self.bin_edges[1:], self.r1, self.rm, self.counts))


def log_bins(lo: float, hi: float, n: int) -> list[float]:
    """The ``n + 1`` edges of ``n`` log-spaced bins from ``lo`` to ``hi``."""
    if not (0 < lo < hi and math.isfinite(hi) and n >= 1):
        raise ValueError(f"log bins need finite 0 < lo < hi and n >= 1, got {lo}, {hi}, {n}")
    step = (math.log(hi) - math.log(lo)) / n
    return _edges([lo * math.exp(i * step) for i in range(n + 1)])


def _edges(bins: Iterable[float]) -> list[float]:
    """``bins`` as a list, refusing fewer than 2 strictly increasing finite edges."""
    edges = list(bins)
    if (len(edges) < 2 or not all(math.isfinite(e) for e in edges)
            or any(a >= b for a, b in zip(edges, edges[1:]))):
        raise ValueError(f"bin edges must be at least 2 strictly increasing finite "
                         f"numbers, got {edges}")
    return edges


class _Indicative:
    """The book's indicative (price tick, volume, imbalance), told of every event.

    A scan gives the tick k, S(k), D(k) and the margin M by which
    exec(k) = min(S(k), D(k)) leads exec(j) at any other tick j.  The x shares of one
    order move S (a sell) or D (a buy) by one signed amount at every tick they reach
    and by 0 elsewhere, so each exec moves by 0 to that amount and each gap
    exec(k) - exec(j) by at most x.  That holds at the ticks the window grows to hold
    too: they copied its empty edge ticks, and an edge k ties its neighbour (M = 0).
    So each event spends its resting shares (a MODIFY its old plus its new ones) from
    a budget that starts at M, and while some is left k is still the unique maximum
    and S(k), D(k) stay exact.  The factor 1 is tight: cancelling x sells below a
    supply-bound k lowers exec(k) by x and leaves a demand-bound exec(j) above k alone.
    ``apply`` returns each event's change to D(k) - S(k): its marketable shares.
    """

    def __init__(self, book: AuctionBook):
        self.book = book
        self.k: int | None = None  # None: the next read scans; set with S(k), D(k), budget

    def read(self) -> tuple[int, int, int] | None:
        """(price tick, volume, imbalance S - D) now, or None without a cross."""
        if self.k is None:
            try:
                self.k, q, imb, self.budget = uncross_values(self.book)
            except NoCross:
                return None
            self.supply, self.demand = q + max(imb, 0), q + max(-imb, 0)
        return self.k, min(self.supply, self.demand), self.supply - self.demand

    def apply(self, ev: OrderEvent) -> int:
        """Apply ``ev`` to the book and return the change it made to D(k) - S(k) at
        the tick k of the last read, 0 without one; a rejected event leaves the next
        read to scan."""
        k, self.k, orders = self.k, None, self.book.orders
        if k is None:
            self.book.apply(ev)
            return 0
        balance = self.demand - self.supply
        if (old := orders.get(ev.order_id)) is not None:  # before a MODIFY rewrites it
            self._shift(k, old, -old.quantity)
        self.book.apply(ev)
        if (new := orders.get(ev.order_id)) is not None:
            self._shift(k, new, new.quantity)
        if self.budget > 0:
            self.k = k
        return self.demand - self.supply - balance

    def _shift(self, k: int, rec: OrderRecord, qty: int) -> None:
        """Add ``qty`` of ``rec``'s shares (negative: remove) to S(k) or D(k)."""
        if not rec.is_resting:
            return  # a dormant STOP holds no book volume
        self.budget -= abs(qty)
        if rec.side == "B":
            self.demand += qty if rec.price_index is None or rec.price_index >= k else 0
        else:
            self.supply += qty if rec.price_index is None or rec.price_index <= k else 0


def collect_marketable(
    events: Iterable[OrderEvent],
    grid: PriceGrid,
    warmup_us: int = DEFAULT_WARMUP_US,
    with_cancels: bool = True,
) -> tuple[list[MarketableEvent], int]:
    """Replay a log and record every measured marketable event.

    Returns the events (with ``p_next`` resolved, the last one against the
    final clearing) and the count skipped for lack of a cross.
    """
    if type(warmup_us) is not int:  # a bool, float or NaN too
        raise ValueError(f"warmup_us must be an int, got {warmup_us!r}")
    book = AuctionBook(grid)
    indicative = _Indicative(book)
    recorded: list[MarketableEvent] = []
    skipped = 0
    t0: int | None = None

    for ev in events:
        if t0 is None:
            t0 = ev.timestamp
        measured = (ev.timestamp >= t0 + warmup_us and ev.action != "MODIFY"
                    and (with_cancels or ev.action != "CANCEL"))
        pre = indicative.read() if measured else None
        market = book.buy_market_total - book.sell_market_total
        moved = indicative.apply(ev)
        if pre is None:  # no price to measure against: count market flow as skipped
            skipped += measured and market != book.buy_market_total - book.sell_market_total
            continue
        if not moved:
            continue
        post = indicative.read()
        p_before = grid.price_at(pre[0])
        _backfill(recorded, p_before)
        if post is None:
            skipped += 1  # the event itself removed the cross: no price to move to
            continue
        recorded.append(MarketableEvent(ev.timestamp, 1 if moved > 0 else -1,
                                        abs(moved) / pre[1], abs(moved), ev.action,
                                        p_before, grid.price_at(post[0])))
    if (final := indicative.read()) is not None:
        _backfill(recorded, grid.price_at(final[0]))
    return recorded, skipped


def _backfill(recorded: list[MarketableEvent], p_next: float) -> None:
    if recorded and recorded[-1].p_next is None:
        recorded[-1] = replace(recorded[-1], p_next=p_next)


def response_curves(
    events: Iterable[OrderEvent],
    grid: PriceGrid,
    bins: Sequence[float] | None = None,
    warmup_us: int = DEFAULT_WARMUP_US,
    with_cancels: bool = True,
) -> ResponseCurve:
    """One-lag and mechanical response per log-spaced size bin.

    Explicit ``bins`` must be at least 2 strictly increasing finite edges; an
    omega on an inner edge falls in the bin below it.
    """
    edges = log_bins(*DEFAULT_OMEGA_RANGE, DEFAULT_BINS) if bins is None else _edges(bins)
    recorded, skipped = collect_marketable(events, grid, warmup_us, with_cancels)

    acc: list[list[tuple[float, float]]] = [[] for _ in edges[1:]]
    for me in recorded:
        b = bisect.bisect_left(edges, me.omega, 1) - 1
        if me.p_next is not None and edges[0] <= me.omega and b < len(acc):
            acc[b].append((me.sign * (me.p_next - me.p_before),
                           me.sign * (me.p_after_mech - me.p_before)))
    r1, rm, se_diff = (list(col) for col in zip(*map(_bin_stats, acc)))
    return ResponseCurve(bin_edges=edges, r1=r1, rm=rm, counts=[len(v) for v in acc],
                         se_diff=se_diff, skipped_no_cross=skipped)


def _bin_stats(vals: list[tuple[float, float]]) -> tuple[float | None, ...]:
    """(r1, rm, se_diff) of one bin's (one-lag, mechanical) responses."""
    if not vals:
        return None, None, None
    return _mean([v[0] for v in vals]), _mean([v[1] for v in vals]), _sem([u - v for u, v in vals])


def _mean(vals: list[float]) -> float:
    return sum(vals) / len(vals)


def _sem(vals: list[float]) -> float:
    n = len(vals)
    if n < 2:
        return 0.0
    m = _mean(vals)
    var = sum((v - m) ** 2 for v in vals) / (n - 1)
    return math.sqrt(var / n)
