"""Response of the indicative price to marketable order flow.

A submission is marketable when it would execute if the auction uncrossed now:
market orders always, limit buys priced at or through the indicative price,
limit sells at or below it.  A cancellation is marketable when the dying order
is itself marketable at that instant.  Signs follow the direction the event
pushes the price: +1 for buy submissions and sell cancellations, -1 for sell
submissions and buy cancellations.

Two one-lag responses are measured per event, conditioned on the scaled size
``omega = shares / indicative volume``:

* mechanical: indicative price right after the event minus right before;
* one-lag: indicative price just before the *next* marketable event minus
  right before this one (the final clearing price closes the last lag).

Event time advances only at marketable events; everything else just moves the
book.  Events arriving before the warmup cutoff or while the book does not
cross are applied but not measured; so are marketable events that leave the
book without a cross, which count as skipped like those arriving without one.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .book import AuctionBook
from .clearing import _indicative
from .errors import UncrossError
from .events import OrderEvent, _located
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


def classify_marketable(
    ev: OrderEvent, book: AuctionBook, indicative_index: int | None
) -> tuple[int, int] | None:
    """Return (sign, shares) when the event is marketable, else None.

    ``indicative_index`` is the indicative price tick just before the event;
    None (no cross yet) makes nothing marketable.
    """
    if indicative_index is None:
        return None
    if ev.action == "SUBMIT":
        if ev.order_type == "MARKET":
            return (1 if ev.side == "B" else -1), ev.quantity
        if ev.order_type == "STOP":
            return None
        k = book.grid.index_of(ev.price)
        if ev.side == "B" and k >= indicative_index:
            return 1, ev.quantity
        if ev.side == "S" and k <= indicative_index:
            return -1, ev.quantity
        return None
    if ev.action == "CANCEL":
        rec = book.orders.get(ev.order_id)
        if rec is None or not rec.is_resting:
            return None
        if rec.is_market:
            marketable = True
        elif rec.side == "B":
            marketable = rec.price_index >= indicative_index
        else:
            marketable = rec.price_index <= indicative_index
        if not marketable:
            return None
        # removing marketable volume pushes the price the opposite way
        return (1 if rec.side == "S" else -1), rec.quantity
    return None  # modifications are not classified


@dataclass
class ResponseCurve:
    """Binned one-lag and mechanical responses, in price units."""

    bin_edges: list[float]  # len = n_bins + 1, log-spaced omega edges
    r1: list[float | None]
    rm: list[float | None]
    counts: list[int]
    se_r1: list[float | None] = field(default_factory=list)
    se_rm: list[float | None] = field(default_factory=list)
    se_diff: list[float | None] = field(default_factory=list)
    skipped_no_cross: int = 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("bin_lo,bin_hi,r1,rm,count\n")
        for i, c in enumerate(self.counts):
            lo, hi = self.bin_edges[i], self.bin_edges[i + 1]
            r1 = "" if self.r1[i] is None else repr(self.r1[i])
            rm = "" if self.rm[i] is None else repr(self.rm[i])
            buf.write(f"{lo!r},{hi!r},{r1},{rm},{c}\n")
        return buf.getvalue()


def log_bins(lo: float, hi: float, n: int) -> list[float]:
    step = (math.log(hi) - math.log(lo)) / n
    return [lo * math.exp(i * step) for i in range(n + 1)]


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
    book = AuctionBook(grid)
    recorded: list[MarketableEvent] = []
    skipped = 0
    t0: int | None = None

    for ev in events:
        if t0 is None:
            t0 = ev.timestamp
        measured = ev.timestamp >= t0 + warmup_us and (with_cancels or ev.action != "CANCEL")
        pre = _indicative(book) if measured else None
        cls = None
        if measured:
            if pre is not None:
                try:
                    cls = classify_marketable(ev, book, pre[0])
                except UncrossError as exc:
                    raise _located(ev, exc) from None
            elif _unconditionally_marketable(ev, book):
                skipped += 1  # marketable but no indicative price to measure against
        book.apply(ev)
        if cls is None:
            continue
        sign, shares = cls
        k_ind, q_ind, _ = pre
        p_before = grid.price_at(k_ind)
        if recorded:
            _backfill(recorded, p_before)
        post = _indicative(book)
        if post is None:
            skipped += 1  # the event itself removed the cross: no price to move to
            continue
        recorded.append(
            MarketableEvent(
                t=ev.timestamp,
                sign=sign,
                omega=shares / q_ind,
                shares=shares,
                kind=ev.action,
                p_before=p_before,
                p_after_mech=grid.price_at(post[0]),
            )
        )
    final = _indicative(book)
    if recorded and final is not None:
        _backfill(recorded, grid.price_at(final[0]))
    return recorded, skipped


def _unconditionally_marketable(ev: OrderEvent, book: AuctionBook) -> bool:
    """Marketable regardless of the indicative price (pure market-order flow)."""
    if ev.action == "SUBMIT":
        return ev.order_type == "MARKET"
    if ev.action == "CANCEL":
        rec = book.orders.get(ev.order_id)
        return rec is not None and rec.is_market
    return False


def _backfill(recorded: list[MarketableEvent], p_next: float) -> None:
    last = recorded[-1]
    if last.p_next is None:
        recorded[-1] = MarketableEvent(
            t=last.t,
            sign=last.sign,
            omega=last.omega,
            shares=last.shares,
            kind=last.kind,
            p_before=last.p_before,
            p_after_mech=last.p_after_mech,
            p_next=p_next,
        )


def response_curves(
    events: Iterable[OrderEvent],
    grid: PriceGrid,
    bins: Sequence[float] | None = None,
    warmup_us: int = DEFAULT_WARMUP_US,
    with_cancels: bool = True,
) -> ResponseCurve:
    """One-lag and mechanical response per log-spaced size bin."""
    if bins is None:
        bins = log_bins(*DEFAULT_OMEGA_RANGE, DEFAULT_BINS)
    edges = list(bins)
    n = len(edges) - 1
    recorded, skipped = collect_marketable(events, grid, warmup_us, with_cancels)

    acc: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    for me in recorded:
        if me.p_next is None:
            continue
        b = _bin_of(me.omega, edges)
        if b is None:
            continue
        acc[b].append((me.sign * (me.p_next - me.p_before), me.sign * (me.p_after_mech - me.p_before)))

    r1: list[float | None] = []
    rm: list[float | None] = []
    counts: list[int] = []
    se_r1: list[float | None] = []
    se_rm: list[float | None] = []
    se_diff: list[float | None] = []
    for b in range(n):
        vals = acc[b]
        counts.append(len(vals))
        if not vals:
            r1.append(None)
            rm.append(None)
            se_r1.append(None)
            se_rm.append(None)
            se_diff.append(None)
            continue
        a1 = [v[0] for v in vals]
        am = [v[1] for v in vals]
        r1.append(_mean(a1))
        rm.append(_mean(am))
        se_r1.append(_sem(a1))
        se_rm.append(_sem(am))
        se_diff.append(_sem([u - v for u, v in vals]))
    return ResponseCurve(
        bin_edges=edges,
        r1=r1,
        rm=rm,
        counts=counts,
        se_r1=se_r1,
        se_rm=se_rm,
        se_diff=se_diff,
        skipped_no_cross=skipped,
    )


def _bin_of(omega: float, edges: Sequence[float]) -> int | None:
    if omega < edges[0] or omega > edges[-1]:
        return None
    for b in range(len(edges) - 1):
        if omega <= edges[b + 1]:
            return b
    return None


def _mean(vals: list[float]) -> float:
    return sum(vals) / len(vals)


def _sem(vals: list[float]) -> float:
    n = len(vals)
    if n < 2:
        return 0.0
    m = _mean(vals)
    var = sum((v - m) ** 2 for v in vals) / (n - 1)
    return math.sqrt(var / n)
