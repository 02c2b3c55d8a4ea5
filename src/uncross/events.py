"""Order event model and the CSV log schema.

One event per row, header required::

    timestamp_us,order_id,action,side,order_type,price,qty,latency_flag,account_type

``price`` is empty for MARKET orders.  Files are UTF-8 with LF line endings.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ParseError, UncrossError

ACTIONS = ("SUBMIT", "MODIFY", "CANCEL")
SIDES = ("B", "S")
ORDER_TYPES = ("LIMIT", "MARKET", "VALID_FOR_AUCTION", "VALID_FOR_CLOSING", "STOP")
LATENCY_FLAGS = ("HFT", "MIX", "NON")
ACCOUNT_TYPES = ("OWN", "CLIENT", "MARKET_MAKER", "PARENT", "RMO", "RLP")

CSV_HEADER = [
    "timestamp_us",
    "order_id",
    "action",
    "side",
    "order_type",
    "price",
    "qty",
    "latency_flag",
    "account_type",
]

# (field, allowed values) of every enumerated event field, in validation order
_ENUMS = (("action", ACTIONS), ("side", SIDES), ("order_type", ORDER_TYPES),
          ("latency_flag", LATENCY_FLAGS), ("account_type", ACCOUNT_TYPES))


@dataclass(frozen=True)
class OrderEvent:
    """A single submit/modify/cancel message.

    An event is validated once, when it is built.  For MODIFY,
    ``price``/``quantity``/``order_type`` carry the new values; a MODIFY that
    changes a STOP order's type to LIMIT or MARKET activates it.  A CANCEL or
    MODIFY must name the live order's side, and a CANCEL its type and (when
    given) its price; a CANCEL's quantity is informational.
    ``path``/``line`` locate an event read from a log; they are None for an
    event built by hand and take no part in comparisons.
    """

    timestamp: int  # microseconds
    order_id: str
    action: str
    side: str
    order_type: str
    price: float | None  # None for MARKET
    quantity: int
    latency_flag: str = "NON"
    account_type: str = "CLIENT"
    path: str | None = field(default=None, compare=False, repr=False, kw_only=True)
    line: int | None = field(default=None, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name, allowed in _ENUMS:
            value = getattr(self, name)
            if value not in allowed:
                raise ParseError(f"unknown {name} {value!r}; expected one of {allowed}")
        if self.order_type == "MARKET":
            if self.price is not None:
                raise ParseError("MARKET order must not carry a price")
        elif self.price is None and self.action != "CANCEL":
            # cancels only need the order id; price/qty are informational
            raise ParseError(f"{self.order_type} order requires a price")
        if self.price is not None and not 0 < self.price < math.inf:  # NaN fails too
            raise ParseError(f"price must be positive and finite, got {self.price}")


def _parse_row(row: list[str], line: int, path: str | None) -> OrderEvent:
    if len(row) != len(CSV_HEADER):
        raise ParseError(
            f"expected {len(CSV_HEADER)} fields, got {len(row)}", line=line, path=path
        )
    ts, oid, action, side, otype, price_s, qty_s, lat, acct = row
    try:
        timestamp = int(ts)
    except ValueError:
        raise ParseError(f"bad timestamp_us {ts!r}", line=line, path=path) from None
    price: float | None
    if price_s == "":
        price = None
    else:
        try:
            price = float(price_s)
        except ValueError:
            raise ParseError(f"bad price {price_s!r}", line=line, path=path) from None
    try:
        qty = int(qty_s)
    except ValueError:
        raise ParseError(f"bad qty {qty_s!r}", line=line, path=path) from None
    try:
        return OrderEvent(timestamp, oid, action, side, otype, price, qty, lat, acct,
                          path=path, line=line)
    except ParseError as exc:
        raise ParseError(str(exc), line=line, path=path) from None


def _located(ev: OrderEvent, exc: UncrossError) -> UncrossError:
    """``exc`` as a ParseError at ``ev``'s log line; unchanged for a hand-built event."""
    if ev.line is None:
        return exc
    return ParseError(str(exc), line=ev.line, path=ev.path)


def read_events(path: str | Path) -> Iterator[OrderEvent]:
    """Stream events from a CSV log, raising line-numbered ParseError on bad rows.

    Timestamps must be nondecreasing: a row earlier than the one before it is
    a bad row.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1, path=str(path)) from None
        if header != CSV_HEADER:
            raise ParseError(
                f"bad header {header!r}; expected {CSV_HEADER!r}", line=1, path=str(path)
            )
        last_ts: int | None = None
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            ev = _parse_row(row, line_no, str(path))
            if last_ts is not None and ev.timestamp < last_ts:
                raise ParseError(
                    f"timestamp_us {ev.timestamp} is earlier than the previous row's {last_ts}",
                    line=line_no, path=str(path),
                )
            last_ts = ev.timestamp
            yield ev


def format_event(ev: OrderEvent) -> list[str]:
    return [
        str(ev.timestamp),
        ev.order_id,
        ev.action,
        ev.side,
        ev.order_type,
        "" if ev.price is None else format_price(ev.price),
        str(ev.quantity),
        ev.latency_flag,
        ev.account_type,
    ]


def write_events(path: str | Path, events: Iterable[OrderEvent]) -> None:
    """Write an event log; output is byte-deterministic for a fixed event sequence."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for ev in events:
        writer.writerow(format_event(ev))
    Path(path).write_bytes(buf.getvalue().encode("utf-8"))


def format_price(p: float) -> str:
    # 12 significant digits: lossless for realistic price grids, no repr noise
    return f"{p:.12g}"
