"""Order event model and the CSV log schema.

One event per row, header required::

    timestamp_us,order_id,action,side,order_type,price,qty,latency_flag,account_type

``price`` is empty for MARKET orders.  Files are UTF-8 with LF line endings.

Every other table the package writes goes through ``csv_table`` and its one
cell rule, ``_cell``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

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
_ACTION_SET, _SIDE_SET, _TYPE_SET, _LATENCY_SET, _ACCOUNT_SET = (
    frozenset(allowed) for _, allowed in _ENUMS)


def _check_side(side: str) -> None:
    """The side rule of the book's walks and of impact re-clearing."""
    if side not in SIDES:
        raise ValueError(f"side must be 'B' or 'S', got {side!r}")


class _EventFields(NamedTuple):
    timestamp: int  # microseconds
    order_id: str
    action: str
    side: str
    order_type: str
    price: float | None  # None for MARKET
    quantity: int
    latency_flag: str = "NON"
    account_type: str = "CLIENT"
    path: str | None = None
    line: int | None = None


class OrderEvent(_EventFields):
    """A single submit/modify/cancel message: an immutable, tuple-backed record.

    An event is validated when it is built (``_make``/``_replace`` too), its
    timestamp and quantity as ``int``s, and cannot change.  For MODIFY,
    ``price``/``quantity``/``order_type`` carry the new values; a MODIFY that
    changes a STOP order's type to LIMIT or MARKET activates it.  A CANCEL or MODIFY must name the live order's side,
    and a CANCEL its type and (when given) its price; a CANCEL's quantity is
    informational.  ``path``/``line``, the last two fields and keyword-only,
    locate an event read from a log; they are None for a hand-built event and
    take no part in ``==`` or repr, which read the first nine.
    """

    __slots__ = ()

    def __new__(cls, timestamp, order_id, action, side, order_type, price, quantity,
                latency_flag="NON", account_type="CLIENT", *, path=None, line=None):
        self = tuple.__new__(cls, (timestamp, order_id, action, side, order_type, price,
                                   quantity, latency_flag, account_type, path, line))
        self.validate()
        return self

    @classmethod
    def _make(cls, iterable):
        self = super()._make(iterable)
        self.validate()
        return self

    def __getnewargs_ex__(self):
        return tuple(self[:9]), {"path": self.path, "line": self.line}

    def __eq__(self, other):
        return self[:9] == other[:9] if other.__class__ is self.__class__ else NotImplemented

    def __ne__(self, other):
        return self[:9] != other[:9] if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self[:9])

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:9], self))
        return f"{self.__class__.__qualname__}({fields})"

    def validate(self) -> None:
        ts, qty = self.timestamp, self.quantity
        if type(ts) is not int or type(qty) is not int:  # a bool, float or NaN too
            raise ParseError(f"timestamp and quantity must be ints, got {ts!r} and {qty!r}")
        fault = _event_fault(self.action, self.side, self.order_type, self.price,
                             self.latency_flag, self.account_type)
        if fault:
            raise ParseError(fault)


def _event_fault(action, side, otype, price, lat, acct) -> str | None:
    """The first broken event rule, or None: each enumerated field in column order,
    then the price rules.  ``OrderEvent.validate`` and the log reader both ask it."""
    try:
        known = (action in _ACTION_SET and side in _SIDE_SET and otype in _TYPE_SET
                 and lat in _LATENCY_SET and acct in _ACCOUNT_SET)
    except TypeError:  # an unhashable value is in no set
        known = False
    if not known:
        for (name, allowed), value in zip(_ENUMS, (action, side, otype, lat, acct)):
            if value not in allowed:
                return f"unknown {name} {value!r}; expected one of {allowed}"
    if price is None:
        if otype != "MARKET" and action != "CANCEL":  # a CANCEL needs only its id
            return f"{otype} order requires a price"
    elif otype == "MARKET":
        return "MARKET order must not carry a price"
    elif not 0 < price < math.inf:  # NaN fails too
        return f"price must be positive and finite, got {price}"
    return None


def _located(ev: tuple, exc: UncrossError) -> UncrossError:
    """``exc`` as a ParseError at the log line of ``ev``, an event or its eleven
    fields; unchanged for a hand-built event."""
    if ev[10] is None:
        return exc
    return ParseError(str(exc), line=ev[10], path=ev[9])


def read_events(path: str | Path) -> Iterator[OrderEvent]:
    """Stream events from a CSV log, raising ParseError on bad rows.

    A row's line is its physical line in the file, the last one of a row with
    a quoted line break.  Timestamps must be nondecreasing: a row earlier than
    the one before it is a bad row.  A file that is not UTF-8 is a ParseError
    naming it.  ``_log_fields`` has checked every row, so no event is
    validated a second time.
    """
    for fields in _log_fields(path):
        yield tuple.__new__(OrderEvent, fields)


def _log_fields(path: str | Path) -> Iterator[tuple]:
    """The eleven ``OrderEvent`` fields of each row of a log, path and line last:
    the one loop over a log's rows, behind ``read_events`` and ``replay_log``.

    Each row is checked once, and the first fault raises a ParseError at its
    line: the cell count, the number cells (``_cell_fault``), the event rules
    (``_event_fault``), then the timestamp order.
    """
    name = str(path)
    last_ts = -math.inf
    with _csv_rows(path) as (header, reader):
        if header is None:
            raise ParseError("empty file", line=1, path=name)
        if header != CSV_HEADER:
            raise ParseError(f"bad header {header!r}; expected {CSV_HEADER!r}", line=1,
                             path=name)
        for row in reader:
            if not row:
                continue
            try:
                ts_s, oid, action, side, otype, price_s, qty_s, lat, acct = row
                ts, qty = int(ts_s), int(qty_s)
                price = float(price_s) if price_s else None
                plain = _plain(ts_s + price_s + qty_s)
            except ValueError:  # a wrong cell count or a number int/float refuses
                plain = False
            fault = (_event_fault(action, side, otype, price, lat, acct) if plain
                     else _cell_fault(row))
            if fault is None and ts < last_ts:
                fault = f"timestamp_us {ts} is earlier than the previous row's {last_ts}"
            if fault:
                raise ParseError(fault, line=reader.line_num, path=name)
            last_ts = ts
            yield ts, oid, action, side, otype, price, qty, lat, acct, name, reader.line_num


@contextlib.contextmanager
def _csv_rows(path: str | Path) -> Iterator[tuple[list[str] | None, Iterator[list[str]]]]:
    """The header (None for an empty file) and a ``csv.reader`` over the rows past
    it, blank ones included: the one prelude of the event log and day metrics
    readers.  A non-UTF-8 byte read inside the block is a ParseError naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            yield next(reader, None), reader
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason} 0x{exc.object[exc.start]:02x}",
                             path=str(path)) from None


def _plain(cells: str) -> bool:
    """True when number cells hold only printable ASCII and no space or underscore:
    ``int``/``float`` also read ``1_000``, `` 5 `` and non-ASCII digits such as ``٣``."""
    return cells.isascii() and cells.isprintable() and "_" not in cells and " " not in cells


def _cell_fault(row: list[str]) -> str:
    """The first fault of a refused row's cells: a wrong cell count, else the first
    number cell, in column order, that ``_plain`` or ``int``/``float`` refuses."""
    if len(row) != len(CSV_HEADER):
        return f"expected {len(CSV_HEADER)} fields, got {len(row)}"
    for i, kind in ((0, int), (5, float), (6, int)):
        cell = row[i]
        if i == 5 and not cell:
            continue  # no price: the event rules judge it
        try:
            if _plain(cell):
                kind(cell)
                continue
        except ValueError:
            pass
        return f"bad {CSV_HEADER[i]} {cell!r}"


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


def events_csv(events: Iterable[OrderEvent]) -> str:
    """An event log's text; byte-deterministic for a fixed event sequence."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for ev in events:
        writer.writerow(format_event(ev))
    return buf.getvalue()


def write_events(path: str | Path, events: Iterable[OrderEvent]) -> None:
    """Write an event log, ``events_csv(events)`` in UTF-8."""
    Path(path).write_bytes(events_csv(events).encode("utf-8"))


def format_price(p: float) -> str:
    # 12 significant digits: lossless for realistic price grids, no repr noise
    return f"{p:.12g}"


def _cell(value) -> str:
    """A table cell: empty for None, a float in shortest round-trip form, anything
    else as ``str``.  ``np.float64`` is a float; ``float()`` drops its NumPy repr."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def csv_table(header: str, rows: Iterable[Iterable]) -> str:
    """``header`` and one comma-joined line of cells per row, each line ending in LF.

    Cells are not quoted: a text cell must hold no comma, quote or line break
    (``stats.csv_label`` checks a label).
    """
    return "".join([header, "\n", *[",".join(map(_cell, row)) + "\n" for row in rows]])
