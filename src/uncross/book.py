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
log-price distance from the price.

Supply at a price counts all sell volume at or below it plus all sell market
orders; demand counts buy volume at or above plus buy market orders.  Market
orders have no price, so they participate in the sums at every price, which
mirrors their unconditional priority in the uncrossing.

A log replays event by event, ``replay(read_events(path))``, for callers that
act between events, or straight from its rows, ``replay_log(path)``, to the
same book.  The row replay hands a SUBMIT or CANCEL row that passes every
check of ``read_events`` and of the book to the book's rules without building
an event.  Every other row, a MODIFY or a row some check refuses, falls back
to its ``OrderEvent`` and ``apply``, so each reject and its line come from the
event path.  Within one ``replay_log`` call a dict local to it snaps each
distinct price cell to its tick once; it holds only on-grid positive prices.

Replaying is strictly sequential (single writer per auction); completed books
are treated as immutable snapshots and may be shared freely across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .events import (
    _ACCOUNT_SET,
    _LATENCY_SET,
    _SIDE_SET,
    _TYPE_SET,
    OrderEvent,
    _located,
    _log_rows,
    _row_event,
    format_price,
)
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
    price_index: int | None  # None for MARKET (and dormant STOP)
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


@dataclass
class AuctionBook:
    """Book state; ``buy_levels[i]``/``sell_levels[i]`` rest at tick ``lo_index + i``."""

    grid: PriceGrid
    buy_market_total: int = field(default=0, init=False)
    sell_market_total: int = field(default=0, init=False)
    orders: dict[str, OrderRecord] = field(default_factory=dict, init=False)
    _seq: int = field(default=0, init=False)
    lo_index: int = field(init=False, repr=False, compare=False)
    buy_levels: np.ndarray = field(init=False, repr=False, compare=False)
    sell_levels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Open the level window around the reference tick, whose price is positive;
        ``_slot`` only grows the window, so it holds that tick for the book's life."""
        ref = self.grid.reference_index
        self.lo_index = max(ref - _PAD, self.grid.min_price_index)
        n = ref + _PAD - self.lo_index + 1
        self.buy_levels = np.zeros(n, dtype=np.int64)
        self.sell_levels = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ mutation

    def apply(self, ev: OrderEvent) -> "AuctionBook":
        """Apply one event and return the (mutated) book.

        A reject of an event read from a log is raised as a ParseError at its line.
        """
        try:
            tick = None if ev.price is None else self.grid.index_of(ev.price)
            if ev.action == "SUBMIT":
                self._submit(ev.order_id, ev.side, ev.order_type, tick, ev.quantity,
                             ev.timestamp, ev.latency_flag, ev.account_type)
            elif ev.action == "CANCEL":
                self._cancel(ev.order_id, ev.side, ev.order_type, ev.price, tick)
            else:
                self._modify(ev, tick)
        except UncrossError as exc:
            raise _located(ev, exc) from None
        return self

    def replay(self, events) -> "AuctionBook":
        for ev in events:
            self.apply(ev)
        return self

    def replay_log(self, path: str | Path) -> "AuctionBook":
        """Replay a CSV event log into the book and return the book.

        The result, and every ParseError with its line, equal those of
        ``self.replay(read_events(path))``.  A SUBMIT or CANCEL row that passes
        every check goes to the book's rules without an ``OrderEvent``; every
        other row, a MODIFY or a row some check refuses, is read into its event
        and applied, so its reject comes from ``read_events`` and ``apply``.
        """
        name = str(path)
        ticks: dict[str, int] = {}  # price cell -> its tick, for on-grid prices only
        index_of, submit, cancel = self.grid.index_of, self._submit, self._cancel
        last_ts = None
        with _log_rows(path) as reader:
            for row in reader:
                if not row:
                    continue
                try:
                    ts_s, oid, action, side, otype, price_s, qty_s, lat, acct = row
                    ts, qty = int(ts_s), int(qty_s)
                    price = float(price_s) if price_s else None
                except ValueError:  # a wrong cell count or a bad number
                    fits = False
                else:  # the checks of OrderEvent.validate and of the timestamp order
                    fits = ((action == "SUBMIT" or action == "CANCEL") and side in _SIDE_SET
                            and otype in _TYPE_SET and lat in _LATENCY_SET
                            and acct in _ACCOUNT_SET and (last_ts is None or last_ts <= ts)
                            and ((otype == "MARKET" or action == "CANCEL") if price is None
                                 else otype != "MARKET" and 0 < price < math.inf))
                if fits:
                    try:
                        if price is None:
                            tick = None
                        elif (tick := ticks.get(price_s)) is None:
                            tick = ticks[price_s] = index_of(price)
                        if action == "SUBMIT":
                            submit(oid, side, otype, tick, qty, ts, lat, acct)
                        else:
                            cancel(oid, side, otype, price, tick)
                    except UncrossError:  # raised before the book changed
                        fits = False
                if not fits:
                    ev = _row_event(row, reader.line_num, name, last_ts)
                    self.apply(ev)
                    ts = ev.timestamp
                last_ts = ts
        return self

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

    def _modify(self, ev: OrderEvent, tick: int | None) -> None:
        rec = self._live(ev.order_id, "MODIFY", ev.side, ev.order_type, ev.price, tick)
        if ev.quantity < 1:
            raise NonPositiveQuantity(f"quantity must be >= 1, got {ev.quantity}")
        new_type = ev.order_type

        price_changed = tick != rec.price_index or new_type != rec.order_type
        qty_up = ev.quantity > rec.quantity

        self._shift_volume(rec, -rec.quantity)
        rec.order_type = new_type
        rec.price_index = tick
        rec.quantity = ev.quantity
        if price_changed or qty_up:
            self._seq += 1
            rec.priority_ts = ev.timestamp
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
