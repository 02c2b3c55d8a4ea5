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

    An event is validated when it is built (``_make``/``_replace`` too) and
    cannot change.  For MODIFY, ``price``/``quantity``/``order_type`` carry
    the new values; a MODIFY that changes a STOP order's type to LIMIT or
    MARKET activates it.  A CANCEL or MODIFY must name the live order's side,
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
        try:
            known = (self.action in _ACTION_SET and self.side in _SIDE_SET
                     and self.order_type in _TYPE_SET and self.latency_flag in _LATENCY_SET
                     and self.account_type in _ACCOUNT_SET)
        except TypeError:  # an unhashable value is in no set
            known = False
        if not known:  # name the first bad field
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

    A row that passes the quick check below, which holds every check of
    ``_row_event`` (its cells, ``OrderEvent.validate`` and the timestamp order),
    is yielded as parsed.  Any other row goes to ``_row_event``, which names its
    fault, and whose event is yielded should it accept the row.
    """
    name = str(path)
    last_ts = None
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
            except ValueError:  # a wrong cell count or a bad number
                fits = False
            else:
                fits = (_plain(ts_s + price_s + qty_s) and action in _ACTION_SET
                        and side in _SIDE_SET and otype in _TYPE_SET and lat in _LATENCY_SET
                        and acct in _ACCOUNT_SET and (last_ts is None or last_ts <= ts)
                        and ((otype == "MARKET" or action == "CANCEL") if price is None
                             else otype != "MARKET" and 0 < price < math.inf))
            if fits:
                fields = (ts, oid, action, side, otype, price, qty, lat, acct,
                          name, reader.line_num)
            else:
                fields = _row_event(row, reader.line_num, name, last_ts)
            last_ts = fields[0]
            yield fields


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


def _number(kind, cell: str, field: str, line_no: int, name: str):
    """``kind(cell)`` of a plain number cell; a ParseError naming ``field`` otherwise."""
    try:
        if _plain(cell):
            return kind(cell)
    except ValueError:
        pass
    raise ParseError(f"bad {field} {cell!r}", line=line_no, path=name)


def _row_event(row: list[str], line_no: int, name: str, last_ts: int | None) -> OrderEvent:
    """The validated event of one non-blank log row at ``line_no``, whose timestamp
    must not be earlier than ``last_ts``, the previous row's; ParseError otherwise."""
    if len(row) != len(CSV_HEADER):
        raise ParseError(f"expected {len(CSV_HEADER)} fields, got {len(row)}",
                         line=line_no, path=name)
    ts, oid, action, side, otype, price_s, qty_s, lat, acct = row
    timestamp = _number(int, ts, "timestamp_us", line_no, name)
    price = _number(float, price_s, "price", line_no, name) if price_s else None
    qty = _number(int, qty_s, "qty", line_no, name)
    try:
        ev = OrderEvent(timestamp, oid, action, side, otype, price, qty, lat, acct,
                        path=name, line=line_no)
    except ParseError as exc:
        raise ParseError(str(exc), line=line_no, path=name) from None
    if last_ts is not None and timestamp < last_ts:
        raise ParseError(f"timestamp_us {timestamp} is earlier than the previous "
                         f"row's {last_ts}", line=line_no, path=name)
    return ev


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
