"""Auction order book reconstructed by replaying an event log.

The book keeps two mutually consistent views:

* the price levels: dense per-tick resting limit volume, one int64 array per
  side over a window of ticks that starts around the reference tick and grows
  on demand, plus the unpriced market-order share totals per side;
* a registry of live orders preserving arrival order, used for time-priority
  allocation at the clearing price and for flag breakdowns.

The impact curve, the regime fit's density samples and its window all read
the occupied ticks past the clearing price through one walk,
``levels_past``: buy+sell volume per tick, nearest first, with each tick's
log-price distance from the price.  The ungrouped density profile reads all
the occupied levels at once, as ``buy_volume``/``sell_volume``.

Supply at a price counts all sell volume at or below it plus all sell market
orders; demand counts buy volume at or above plus buy market orders.  Market
orders have no price, so they participate in the sums at every price, which
mirrors their unconditional priority in the uncrossing.

A log replays event by event, ``replay(read_events(path))``, for callers that
act between events, or straight from its rows, ``replay_log(path)``, to the
same book.  Both read the rows through one loop, ``events._log_fields``,
which checks each row and yields its fields; ``replay`` takes those fields
or events alike, through one SUBMIT/CANCEL/MODIFY dispatch.  Each book
snaps a price to its tick once, through a ``{price: tick}`` memo of the
on-grid positive prices it has seen.

Replaying is strictly sequential (single writer per auction); completed books
are treated as immutable snapshots and may be shared freely across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import (
    ContradictsLiveOrder,
    DuplicateOrderId,
    NonPositiveQuantity,
    UncrossError,
    UnknownOrderId,
)
from .events import OrderEvent, _check_side, _located, _log_fields, format_price
from .grid import PriceGrid

# Ticks of slack on each side of the reference tick in a new book's level
# window, and beyond a level the window grows to reach.
_PAD = 64


@dataclass(slots=True)
class OrderRecord:
    """A live order in the registry.

    ``priority_ts``/``priority_seq`` implement price-time priority: a price
    change or a quantity increase resets them to the modifying event, a pure
    quantity decrease keeps the original slot.
    """

    order_id: str
    side: str
    order_type: str
    price_index: int | None  # None for MARKET; a STOP keeps its price's tick
    quantity: int
    priority_ts: int
    priority_seq: int
    latency_flag: str
    account_type: str

    @property
    def is_market(self) -> bool:
        return self.order_type == "MARKET"

    @property
    def is_resting(self) -> bool:
        """True when the order contributes volume to the book."""
        return self.order_type != "STOP"


class AuctionBook:
    """Book state; ``buy_levels[i]``/``sell_levels[i]`` rest at tick ``lo_index + i``."""

    def __init__(self, grid: PriceGrid):
        """An empty book whose level window opens around the reference tick, whose
        price is positive; ``_slot`` only grows the window, so it holds that tick
        for the book's life."""
        self.grid = grid
        self.buy_market_total = 0
        self.sell_market_total = 0
        self.orders: dict[str, OrderRecord] = {}
        self._seq = 0
        self._ticks: dict[float, int] = {}  # price -> tick, on-grid prices only
        ref = grid.reference_index
        self.lo_index = max(ref - _PAD, grid.min_price_index)
        n = ref + _PAD - self.lo_index + 1
        self.buy_levels = np.zeros(n, dtype=np.int64)
        self.sell_levels = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ mutation

    def apply(self, ev: OrderEvent) -> "AuctionBook":
        """Apply one event and return the (mutated) book.

        A reject of an event read from a log is raised as a ParseError at its line.
        """
        return self.replay((ev,))

    def replay(self, events) -> "AuctionBook":
        """Apply events, or the field tuples ``events._log_fields`` yields, in order
        and return the book; a reject of a row read from a log is a ParseError at
        its line."""
        ticks, index_of = self._ticks, self.grid.index_of
        submit, cancel, modify = self._submit, self._cancel, self._modify
        for ev in events:
            ts, oid, action, side, otype, price, qty, lat, acct, _, _ = ev
            try:
                if price is None:
                    tick = None
                elif (tick := ticks.get(price)) is None:
                    tick = ticks[price] = index_of(price)
                if action == "SUBMIT":
                    submit(oid, side, otype, tick, qty, ts, lat, acct)
                elif action == "CANCEL":
                    cancel(oid, side, otype, price, tick)
                else:
                    modify(oid, side, otype, price, tick, qty, ts)
            except UncrossError as exc:
                raise _located(ev, exc) from None
        return self

    def replay_log(self, path: str | Path) -> "AuctionBook":
        """Replay a CSV event log into the book and return the book.

        The result, and every ParseError with its line, equal those of
        ``self.replay(read_events(path))``: both read the rows through
        ``events._log_fields``; this one builds no ``OrderEvent``.
        """
        return self.replay(_log_fields(path))

    def _submit(self, order_id: str, side: str, order_type: str, tick: int | None,
                quantity: int, timestamp: int, latency_flag: str, account_type: str) -> None:
        if order_id in self.orders:
            raise DuplicateOrderId(f"order id {order_id!r} is already live")
        if quantity < 1:
            raise NonPositiveQuantity(f"quantity must be >= 1, got {quantity}")
        self._seq += 1
        rec = OrderRecord(order_id, side, order_type, tick, quantity, timestamp, self._seq,
                          latency_flag, account_type)
        self.orders[order_id] = rec
        self._shift_volume(rec, quantity)

    def _live(self, order_id: str, action: str, side: str, order_type: str,
              price: float | None, tick: int | None) -> OrderRecord:
        """The live order a CANCEL or MODIFY names, refusing fields that contradict it.

        An order never changes side, and a CANCEL repeats its type and, when it
        gives one, its price, snapped to ``tick``; a CANCEL's quantity is informational.
        """
        rec = self.orders.get(order_id)
        if rec is None:
            raise UnknownOrderId(f"{action} of unknown or dead order {order_id!r}")
        cancel = action == "CANCEL"
        if side != rec.side:
            wrong = f"on side {side}; it is live on side {rec.side}"
        elif cancel and order_type != rec.order_type:
            wrong = f"as {order_type}; it is live as {rec.order_type}"
        elif cancel and tick is not None and tick != rec.price_index:
            wrong = (f"at price {format_price(price)}; it is live at "
                     f"{format_price(self.grid.price_at(rec.price_index))}")
        else:
            return rec
        raise ContradictsLiveOrder(f"{action} of order {order_id!r} {wrong}")

    def _cancel(self, order_id: str, side: str, order_type: str, price: float | None,
                tick: int | None) -> None:
        rec = self._live(order_id, "CANCEL", side, order_type, price, tick)
        self._shift_volume(rec, -rec.quantity)
        del self.orders[order_id]

    def _modify(self, order_id: str, side: str, order_type: str, price: float | None,
                tick: int | None, quantity: int, timestamp: int) -> None:
        rec = self._live(order_id, "MODIFY", side, order_type, price, tick)
        if quantity < 1:
            raise NonPositiveQuantity(f"quantity must be >= 1, got {quantity}")

        price_changed = tick != rec.price_index or order_type != rec.order_type
        qty_up = quantity > rec.quantity

        self._shift_volume(rec, -rec.quantity)
        rec.order_type = order_type
        rec.price_index = tick
        rec.quantity = quantity
        if price_changed or qty_up:
            self._seq += 1
            rec.priority_ts = timestamp
            rec.priority_seq = self._seq
        self._shift_volume(rec, rec.quantity)

    def _shift_volume(self, rec: OrderRecord, qty: int) -> None:
        """Add ``qty`` of the order's shares to the book (negative ``qty`` removes)."""
        order_type = rec.order_type
        if order_type == "STOP":
            return  # dormant stop orders carry no book volume
        if order_type == "MARKET":
            if rec.side == "B":
                self.buy_market_total += qty
            else:
                self.sell_market_total += qty
            return
        i = rec.price_index - self.lo_index
        if not 0 < i < len(self.buy_levels) - 1:  # inside, neither edge: no growth due
            i = self._slot(rec.price_index)
        levels = self.buy_levels if rec.side == "B" else self.sell_levels
        levels[i] += qty

    def _slot(self, index: int) -> int:
        """Array position of a tick, growing the window when the tick is not inside it.

        The window keeps at least one empty tick beyond every level it holds
        (the uncrossing's sentinel ticks), except at the smallest positive-price
        tick, below which it never reaches.  Growth is at least half the current
        width, so it costs amortized O(1) per event.  It never shrinks, so it
        keeps the reference tick it opened on.
        """
        n = len(self.buy_levels)
        if index <= self.lo_index and self.lo_index > self.grid.min_price_index:
            grow = max(self.lo_index - index + _PAD, n // 2)
            grow = min(grow, self.lo_index - self.grid.min_price_index)
            pad = np.zeros(grow, dtype=np.int64)
            self.buy_levels = np.concatenate([pad, self.buy_levels])
            self.sell_levels = np.concatenate([pad, self.sell_levels])
            self.lo_index -= grow
        elif index >= self.lo_index + n - 1:
            grow = max(index - (self.lo_index + n) + _PAD + 1, n // 2)
            pad = np.zeros(grow, dtype=np.int64)
            self.buy_levels = np.concatenate([self.buy_levels, pad])
            self.sell_levels = np.concatenate([self.sell_levels, pad])
        return index - self.lo_index

    # ------------------------------------------------------------------ queries

    @property
    def buy_volume(self) -> MappingProxyType:
        """Read-only ``{tick index: shares}`` over the occupied buy levels."""
        return self._level_map(self.buy_levels)

    @property
    def sell_volume(self) -> MappingProxyType:
        """Read-only ``{tick index: shares}`` over the occupied sell levels."""
        return self._level_map(self.sell_levels)

    def _level_map(self, levels: np.ndarray) -> MappingProxyType:
        pos = np.flatnonzero(levels)
        return MappingProxyType(dict(zip((pos + self.lo_index).tolist(), levels[pos].tolist())))

    def volume_at(self, index: int) -> tuple[int, int]:
        i = index - self.lo_index
        if 0 <= i < len(self.buy_levels):
            return int(self.buy_levels[i]), int(self.sell_levels[i])
        return 0, 0

    def nonempty_indices(self) -> list[int]:
        """Sorted tick indices carrying buy or sell volume."""
        return (np.flatnonzero(self.buy_levels | self.sell_levels) + self.lo_index).tolist()

    def levels_past(self, index: int, side: str, max_x: float) -> list[tuple[int, float, int]]:
        """Occupied ticks past ``index`` as ``(tick, x, buy+sell shares)``, nearest first.

        The walk goes up from ``index`` for ``"B"`` and down for ``"S"``;
        ``x = |log(price / price at index)|``.  It ends with the first tick
        farther than ``max_x``, which is kept so callers can see the gap to it.
        """
        _check_side(side)
        if not max_x > 0:  # NaN fails too
            raise ValueError("max_x must be positive")
        i = index - self.lo_index
        lo = max(i + 1, 0) if side == "B" else 0
        hi = None if side == "B" else max(i, 0)
        joint = self.buy_levels[lo:hi] + self.sell_levels[lo:hi]
        pos = np.flatnonzero(joint)
        p = self.grid.price_at(index)
        out = []
        for j in (pos if side == "B" else pos[::-1]).tolist():
            k = self.lo_index + lo + j
            x = abs(math.log(self.grid.price_at(k) / p))
            out.append((k, x, int(joint[j])))
            if x > max_x:
                break
        return out

    def live_resting_orders(self):
        """Live orders that contribute volume, in arrival order."""
        return [r for r in self.orders.values() if r.is_resting]
