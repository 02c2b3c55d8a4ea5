import ast
import csv
import io
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uncross
from uncross.book import AuctionBook
from uncross.errors import (
    ContradictsLiveOrder,
    DuplicateOrderId,
    NonPositiveQuantity,
    OffGridPrice,
    ParseError,
    UnknownOrderId,
)
from uncross.events import ACCOUNT_TYPES, CSV_HEADER, LATENCY_FLAGS, OrderEvent, read_events
from uncross.grid import PriceGrid

from conftest import make_book
from oracles import book_demand, book_supply, naive_read_events, total_resting


def grid10():
    return PriceGrid(0.1, 10.0, 10.0)


def test_single_insertion():
    book = AuctionBook(grid10())
    book.apply(OrderEvent(1, "a", "SUBMIT", "B", "LIMIT", 10.0, 50))
    assert book.volume_at(0) == (50, 0)
    assert book.volume_at(10**6) == book.volume_at(-10**6) == (0, 0)  # outside the window


def test_insert_then_cancel_is_identity():
    book = AuctionBook(grid10())
    book.apply(OrderEvent(1, "7", "SUBMIT", "S", "LIMIT", 10.1, 40))
    book.apply(OrderEvent(2, "7", "CANCEL", "S", "LIMIT", 10.1, 40))
    assert book.volume_at(1) == (0, 0)
    assert book.sell_volume == {}


def test_supply_demand_direct_sums():
    book = make_book(sells=[(10.0, 30), (10.1, 40), (10.2, 50)])
    assert book_supply(book, 10.1) == 70
    book2 = make_book(buys=[(10.1, 60), (10.0, 20), (9.9, 10)])
    assert book_demand(book2, 10.0) == 80
    book3 = make_book(buys=[(10.1, 60), (10.0, 20), (9.9, 10)], buy_market=15)
    assert book_demand(book3, 10.2) == 15


def test_off_grid_price_rejected():
    book = AuctionBook(grid10())
    with pytest.raises(OffGridPrice):
        book.apply(OrderEvent(1, "a", "SUBMIT", "B", "LIMIT", 10.05, 10))
    with pytest.raises(OffGridPrice):
        book_supply(book, 10.037)


def test_unknown_and_duplicate_ids():
    book = AuctionBook(grid10())
    with pytest.raises(UnknownOrderId):
        book.apply(OrderEvent(1, "nope", "CANCEL", "B", "LIMIT", 10.0, 1))
    book.apply(OrderEvent(2, "a", "SUBMIT", "B", "LIMIT", 10.0, 5))
    with pytest.raises(DuplicateOrderId):
        book.apply(OrderEvent(3, "a", "SUBMIT", "B", "LIMIT", 10.0, 5))
    with pytest.raises(NonPositiveQuantity):
        book.apply(OrderEvent(4, "b", "SUBMIT", "B", "LIMIT", 10.0, 0))


def test_cancel_or_modify_contradicting_the_live_order_is_rejected():
    book = make_book(buys=[(10.0, 5)], sell_market=7)
    for ev in (
        OrderEvent(1, "B0", "CANCEL", "S", "LIMIT", 10.0, 5),  # other side
        OrderEvent(1, "B0", "CANCEL", "B", "MARKET", None, 5),  # other type
        OrderEvent(1, "B0", "CANCEL", "B", "LIMIT", 10.1, 5),  # other price
        OrderEvent(1, "SM", "CANCEL", "S", "LIMIT", 10.0, 7),
        OrderEvent(1, "B0", "MODIFY", "S", "LIMIT", 10.0, 5),  # an order never changes side
    ):
        with pytest.raises(ContradictsLiveOrder):
            book.apply(ev)
    assert book.buy_volume == {0: 5} and book.sell_market_total == 7
    # the quantity is informational, and the price may be left out
    book.apply(OrderEvent(2, "B0", "CANCEL", "B", "LIMIT", 10.0, 999))
    book.apply(OrderEvent(3, "SM", "CANCEL", "S", "MARKET", None, 1))
    assert book.orders == {}


def test_levels_past_walks_outward_and_keeps_the_first_tick_beyond():
    book = make_book(buys=[(9.9, 10), (9.5, 20), (9.0, 30), (10.2, 1)],
                     sells=[(10.1, 40), (10.2, 5), (10.9, 50)])
    up = book.levels_past(0, "B", 0.02)
    assert [(k, v) for k, _, v in up] == [(1, 40), (2, 6), (9, 50)]
    assert up[0][1] == abs(math.log(10.1 / 10.0)) and up[-1][1] > 0.02 >= up[-2][1]
    assert [(k, v) for k, _, v in book.levels_past(0, "S", 0.02)] == [(-1, 10), (-5, 20)]
    # a walk from beyond the level window is empty or covers every occupied tick
    assert book.levels_past(1000, "B", 10.0) == [] == book.levels_past(-90, "S", 10.0)
    assert [k for k, _, _ in book.levels_past(1000, "S", 10.0)] == [9, 2, 1, -1, -5, -10]
    assert [k for k, _, _ in book.levels_past(-90, "B", 10.0)] == [-10, -5, -1, 1, 2, 9]


def test_modify_quantity_decrease_keeps_priority():
    book = AuctionBook(grid10())
    book.apply(OrderEvent(1, "a", "SUBMIT", "B", "LIMIT", 10.0, 50))
    book.apply(OrderEvent(2, "b", "SUBMIT", "B", "LIMIT", 10.0, 50))
    book.apply(OrderEvent(9, "a", "MODIFY", "B", "LIMIT", 10.0, 30))
    assert list(book.orders) == ["a", "b"]
    assert book.volume_at(0) == (80, 0)


def test_modify_price_or_increase_resets_priority():
    book = AuctionBook(grid10())
    book.apply(OrderEvent(1, "a", "SUBMIT", "B", "LIMIT", 10.0, 50))
    book.apply(OrderEvent(2, "b", "SUBMIT", "B", "LIMIT", 10.1, 50))
    book.apply(OrderEvent(5, "a", "MODIFY", "B", "LIMIT", 10.1, 50))
    assert list(book.orders) == ["b", "a"]
    assert book.volume_at(0) == (0, 0) and book.volume_at(1) == (100, 0)
    book.apply(OrderEvent(6, "b", "MODIFY", "B", "LIMIT", 10.1, 80))
    assert list(book.orders) == ["a", "b"]
    book.apply(OrderEvent(7, "a", "MODIFY", "B", "VALID_FOR_AUCTION", 10.1, 50))
    assert list(book.orders) == ["b", "a"]
    assert book.volume_at(1) == (130, 0)


def test_stop_orders_inert_until_activated():
    book = AuctionBook(grid10())
    book.apply(OrderEvent(1, "x", "SUBMIT", "S", "STOP", 10.2, 40))
    assert total_resting(book, "S") == 0
    # activation arrives as a modify to a live type
    book.apply(OrderEvent(2, "x", "MODIFY", "S", "LIMIT", 10.2, 40))
    assert book.volume_at(2) == (0, 40)


def test_market_orders_go_to_totals():
    book = AuctionBook(grid10())
    book.apply(OrderEvent(1, "m", "SUBMIT", "B", "MARKET", None, 25))
    assert book.buy_market_total == 25
    book.apply(OrderEvent(2, "m", "CANCEL", "B", "MARKET", None, 25))
    assert book.buy_market_total == 0


def _random_events(seed, n=1000):
    """A replayable random event stream over a small grid."""
    rng = random.Random(seed)
    events = []
    live = {}
    next_id = 1
    for t in range(1, n + 1):
        action = rng.choices(["SUBMIT", "MODIFY", "CANCEL"], weights=[6, 2, 2])[0]
        if action == "SUBMIT" or not live:
            oid = f"o{next_id}"
            next_id += 1
            otype = rng.choices(["LIMIT", "MARKET", "VALID_FOR_AUCTION"], weights=[7, 2, 1])[0]
            price = None if otype == "MARKET" else 10.0 + 0.1 * rng.randint(-10, 10)
            qty = rng.randint(1, 500)
            side = rng.choice("BS")
            events.append(OrderEvent(t, oid, "SUBMIT", side, otype, price, qty))
            live[oid] = side, otype
        elif action == "CANCEL":
            oid = rng.choice(sorted(live))
            side, otype = live.pop(oid)
            events.append(OrderEvent(t, oid, "CANCEL", side, otype, None, 1))
        else:
            oid = rng.choice(sorted(live))
            side = live[oid][0]
            otype = rng.choices(["LIMIT", "MARKET"], weights=[8, 2])[0]
            price = None if otype == "MARKET" else 10.0 + 0.1 * rng.randint(-10, 10)
            events.append(OrderEvent(t, oid, "MODIFY", side, otype, price, rng.randint(1, 500)))
            live[oid] = side, otype
    return events


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replay_matches_naive_recount(seed):
    """Per-price totals must equal a from-scratch recount of live orders."""
    book = AuctionBook(grid10())
    for ev in _random_events(seed):
        book.apply(ev)
        buys, sells = {}, {}
        mb = ms = 0
        for rec in book.live_resting_orders():
            if rec.is_market:
                if rec.side == "B":
                    mb += rec.quantity
                else:
                    ms += rec.quantity
            elif rec.side == "B":
                buys[rec.price_index] = buys.get(rec.price_index, 0) + rec.quantity
            else:
                sells[rec.price_index] = sells.get(rec.price_index, 0) + rec.quantity
        assert buys == book.buy_volume
        assert sells == book.sell_volume
        assert (mb, ms) == (book.buy_market_total, book.sell_market_total)


def test_replay_determinism():
    events = _random_events(42)
    b1 = AuctionBook(grid10()).replay(events)
    b2 = AuctionBook(grid10()).replay(events)
    assert b1.buy_volume == b2.buy_volume
    assert b1.sell_volume == b2.sell_volume
    assert (b1.buy_market_total, b1.sell_market_total) == (
        b2.buy_market_total,
        b2.sell_market_total,
    )


def test_conservation_counters():
    """Resting shares equal those ever added minus those ever removed, recounted from the events."""
    book = AuctionBook(grid10())
    added = {"B": 0, "S": 0}
    removed = {"B": 0, "S": 0}
    live = {}
    for ev in _random_events(7):
        book.apply(ev)
        if ev.action != "SUBMIT":  # CANCEL and MODIFY take the live quantity off
            removed[ev.side] += live.pop(ev.order_id)
        if ev.action != "CANCEL":
            added[ev.side] += ev.quantity
            live[ev.order_id] = ev.quantity
    for side in "BS":
        assert total_resting(book, side) == added[side] - removed[side]


@given(
    st.lists(
        st.tuples(st.integers(-15, 15), st.integers(1, 300), st.sampled_from("BS")),
        min_size=1,
        max_size=40,
    ),
    st.integers(0, 400),
    st.integers(0, 400),
)
@settings(max_examples=200, deadline=None)
def test_supply_monotone_demand_antitone(levels, mb, ms):
    book = AuctionBook(grid10())
    t = 0
    for k, qty, side in levels:
        t += 1
        book.apply(OrderEvent(t, f"o{t}", "SUBMIT", side, "LIMIT", 10.0 + 0.1 * k, qty))
    if mb:
        book.apply(OrderEvent(t + 1, "mb", "SUBMIT", "B", "MARKET", None, mb))
    if ms:
        book.apply(OrderEvent(t + 2, "ms", "SUBMIT", "S", "MARKET", None, ms))
    prices = [10.0 + 0.1 * k for k in range(-16, 17)]
    supplies = [book_supply(book, p) for p in prices]
    demands = [book_demand(book, p) for p in prices]
    assert supplies == sorted(supplies)
    assert demands == sorted(demands, reverse=True)
    assert all(s >= 0 for s in supplies) and all(d >= 0 for d in demands)


@given(
    # (tick, anchor, reference): the last puts the reference five ticks above zero
    st.sampled_from([(0.1, 10.0, 10.0), (1.0, 1.0, 1.0), (0.5, 3.0, 200.0), (0.01, 0.0, 0.05)]),
    # a tick offset from the reference, or the window's current lowest/highest tick
    st.lists(st.tuples(st.sampled_from("BS"),
                       st.one_of(st.integers(-3000, 3000), st.sampled_from(["lo", "hi"])),
                       st.booleans()),
             max_size=30),
)
@example((0.1, 10.0, 10.0), [("B", "lo", False), ("S", "hi", False)])
@settings(max_examples=200, deadline=None)
def test_level_window_always_holds_the_reference_tick(grid_args, orders):
    """Clearing scans only the level window, so it must hold the reference tick
    after any replay, including far SUBMIT/CANCEL pairs that grow it.  The
    window's end ticks stay empty (the uncrossing's sentinels, on which the
    certified indicative reads rely), except at the smallest positive-price tick."""
    grid = PriceGrid(*grid_args)
    book = AuctionBook(grid)

    def holds_reference():
        return book.lo_index <= grid.reference_index < book.lo_index + len(book.buy_levels)

    def keeps_sentinels():
        low_empty = book.buy_levels[0] == book.sell_levels[0] == 0
        high_empty = book.buy_levels[-1] == book.sell_levels[-1] == 0
        return (low_empty or book.lo_index == grid.min_price_index) and high_empty

    assert holds_reference() and keeps_sentinels()
    for t, (side, offset, cancel) in enumerate(orders):
        if offset == "lo":
            k = book.lo_index
        elif offset == "hi":
            k = book.lo_index + len(book.buy_levels) - 1
        else:
            k = grid.reference_index + offset
        price = grid.price_at(max(k, grid.min_price_index))
        book.apply(OrderEvent(t, f"o{t}", "SUBMIT", side, "LIMIT", price, 5))
        assert holds_reference() and keeps_sentinels()
        if cancel:
            book.apply(OrderEvent(t, f"o{t}", "CANCEL", side, "LIMIT", price, 5))
            assert holds_reference() and keeps_sentinels()


@pytest.mark.parametrize("name", ["buy_market_total", "sell_market_total", "orders", "_ticks"])
def test_a_book_is_built_from_its_grid_alone(name):
    """A book's state comes from events only: an orderless book cannot be
    handed market volume or orders at construction."""
    with pytest.raises(TypeError):
        AuctionBook(grid10(), **{name: 1})


LEVEL_FORMAT = frozenset({"buy_levels", "sell_levels", "lo_index"})


def _reads(node, scope, names):
    """``scope`` of every attribute read (or ``getattr`` name) of ``names`` under ``node``."""
    if isinstance(node, ast.Attribute) and node.attr in names:
        yield scope, node.lineno
    if isinstance(node, ast.Constant) and node.value in names:
        yield scope, node.lineno
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, scope, names)


def test_only_the_book_and_the_scan_read_the_level_arrays():
    """Outside ``book.py`` the dense level arrays are read only by the one
    uncrossing scan, ``clearing.uncross_values``, so a change of the level
    format touches the book and that scan alone.  Prices are snapped to ticks
    only by the book, and by the grid for its own reference price, so no other
    path snaps a row's price a second time."""
    for names, scopes in ((LEVEL_FORMAT, {"clearing.uncross_values"}),
                          ({"index_of"}, {"grid.PriceGrid.__post_init__"})):
        reads = []
        for path in sorted(Path(uncross.__file__).parent.glob("*.py")):
            if path.name != "book.py":
                reads += _reads(ast.parse(path.read_text()), path.stem, names)
        assert {scope for scope, _ in reads} == scopes, reads


# ---------------------------------------------------------------- log replay

# Ways to write a price of the test grid: ``10.1``, ``10.10`` and ``1.010000e+01`` are one.
_PRICE_TEXTS = (lambda p: f"{p:.1f}", lambda p: f"{p:.2f}", lambda p: repr(p),
                lambda p: f"{p:e}")
_TYPES = ("LIMIT", "LIMIT", "MARKET", "VALID_FOR_AUCTION", "VALID_FOR_CLOSING", "STOP")
# every way a row can be refused, each placed once in a log of valid rows
_REJECTS = (
    "enum", "timestamp-cell", "price-cell", "qty-cell", "off-grid", "nan", "inf",
    "zero-price", "negative-price", "beyond-float-ticks", "market-with-price",
    "limit-without-price", "earlier-timestamp", "submit-duplicate", "submit-qty-0",
    "unknown-cancel", "unknown-modify", "cancel-other-side", "cancel-other-type",
    "cancel-other-price", "cancel-off-grid", "modify-other-side", "modify-qty-0",
    "too-few-cells", "too-many-cells", "not-utf8", "number-form",
)
# number forms ``int``/``float`` read that a log cell may not hold
_NUMBER_FORMS = (lambda c: f" {c}", lambda c: f"{c}\t", lambda c: f"1_{c}",
                 lambda c: c.translate({ord("0") + d: 0x660 + d for d in range(10)}))


def _random_log(rng: random.Random, reject: str | None) -> bytes:
    """A log of valid SUBMIT, CANCEL and MODIFY rows on ``grid10()``, with blank
    lines and quoted line breaks, and ``reject``'s bad row somewhere in it."""
    grid = grid10()
    live: dict[str, tuple[str, str, int | None]] = {}  # id -> side, type, tick
    dead: list[str] = []
    lines, t, bad_at = [], 0, rng.randrange(1, 40) if reject else None

    def price_text(k):
        return rng.choice(_PRICE_TEXTS)(grid.price_at(k))

    def tick():  # mostly near the reference, now and then far enough to grow the window
        return rng.randint(-12, 12) if rng.random() < 0.9 else rng.randint(-99, 400)

    def cells(ts, oid, action, side, otype, k, qty):
        return [str(ts), oid, action, side, otype, "" if k is None else price_text(k), str(qty),
                rng.choice(LATENCY_FLAGS), rng.choice(ACCOUNT_TYPES)]

    def valid(ts):
        n = len(lines)
        if not live or rng.random() < 0.55:
            oid = f"o{n}" if rng.random() < 0.9 else f'o{n}\nx'  # a quoted line break
            side, otype = rng.choice("BS"), rng.choice(_TYPES)
            k = None if otype == "MARKET" else tick()
            live[oid] = side, otype, k
            return cells(ts, oid, "SUBMIT", side, otype, k, rng.randint(1, 500))
        oid = rng.choice(sorted(live))
        side, otype, k = live[oid]
        if rng.random() < 0.6:
            del live[oid]
            dead.append(oid)
            k = None if rng.random() < 0.3 else k  # a CANCEL may leave its price out
            return cells(ts, oid, "CANCEL", side, otype, k, rng.randint(-5, 500))
        otype = rng.choice(_TYPES)
        k = None if otype == "MARKET" else tick()
        live[oid] = side, otype, k
        return cells(ts, oid, "MODIFY", side, otype, k, rng.randint(1, 500))

    def bad(ts):
        """``reject``'s row at ``ts``, or None while no live order can carry it."""
        if reject in ("enum", "timestamp-cell", "price-cell", "qty-cell", "earlier-timestamp",
                      "too-few-cells", "too-many-cells", "not-utf8", "number-form"):
            row = valid(ts)
        if reject == "enum":
            row[rng.choice([2, 3, 4, 7, 8])] = rng.choice(["X", "b", "limit", ""])
        elif reject in ("timestamp-cell", "price-cell", "qty-cell"):
            row[{"timestamp-cell": 0, "price-cell": 5, "qty-cell": 6}[reject]] = rng.choice(
                ["x", "1.5.0", "--1"] if reject == "price-cell" else ["x", "1.5", ""])
        elif reject == "number-form":
            at = rng.choice([i for i in (0, 5, 6) if row[i]])
            row[at] = rng.choice(_NUMBER_FORMS)(row[at])
        elif reject == "earlier-timestamp":
            row[0] = str(ts - 4 - rng.randrange(3))  # rows are at most 3 apart
        elif reject == "too-few-cells":
            row = row[:rng.randrange(1, 9)]
        elif reject == "too-many-cells":
            row = row + ["extra"]
        elif reject in ("off-grid", "nan", "inf", "zero-price", "negative-price",
                        "beyond-float-ticks"):
            row = cells(ts, f"n{ts}", "SUBMIT", "S", "LIMIT", 0, 5)
            row[5] = {"off-grid": "10.05", "nan": "nan", "inf": rng.choice(["inf", "-inf"]),
                      "zero-price": rng.choice(["0", "-0.0"]), "negative-price": "-10.0",
                      "beyond-float-ticks": "1e300"}[reject]
        elif reject == "market-with-price":
            row = cells(ts, f"n{ts}", "SUBMIT", "B", "MARKET", None, 5)
            row[5] = price_text(0)
        elif reject == "limit-without-price":
            row = cells(ts, f"n{ts}", rng.choice(["SUBMIT", "MODIFY"]), "B", "LIMIT", None, 5)
        elif reject == "submit-qty-0":
            row = cells(ts, f"n{ts}", "SUBMIT", "B", "LIMIT", 0, rng.choice([0, -3]))
        elif reject in ("unknown-cancel", "unknown-modify"):
            oid = rng.choice(dead) if dead and rng.random() < 0.5 else "never"
            row = cells(ts, oid, reject.split("-")[1].upper(), "B", "LIMIT", 0, 5)
        elif reject != "not-utf8":  # a row naming a live order
            priced = reject in ("cancel-other-price", "cancel-off-grid")
            ids = sorted(o for o, (_, _, k) in live.items() if k is not None or not priced)
            if not ids:
                return None
            oid = rng.choice(ids)
            side, otype, k = live[oid]
            action, what = reject.split("-", 1)
            if what == "other-side":
                side = "S" if side == "B" else "B"
            elif what == "other-type":
                otype = "MARKET" if otype != "MARKET" else "LIMIT"
                k = None if otype == "MARKET" else 0
            elif what == "other-price":
                k += rng.choice([-2, -1, 1, 2])
            row = cells(ts, oid, action.upper(), side, otype, k, 0 if what == "qty-0" else 5)
            if what == "off-grid":
                row[5] = "10.05"
        return row

    for i in range(80):
        t += rng.choice([0, 0, 1, 3])
        if rng.random() < 0.05:
            lines.append("\n")  # a blank line
        row = bad(t) if bad_at is not None and i >= bad_at else None
        if row is None:
            row = valid(t)
        else:
            bad_at = None
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(row)
        lines.append(buf.getvalue())
    assert bad_at is None
    data = (",".join(CSV_HEADER) + "\n" + "".join(lines)).encode("utf-8")
    if reject == "not-utf8":
        at = data.index(b"\n", rng.randrange(len(data) // 2, len(data) - 1))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _replayed(replay):
    """What a replay leaves: its levels, market totals and registry, or its error."""
    try:
        book = replay()
    except ParseError as exc:
        return str(exc), exc.line
    ticks = book.nonempty_indices()
    return (ticks, [book.volume_at(k) for k in ticks], book.buy_market_total,
            book.sell_market_total, list(book.orders.items()))


def _read(path, reader):
    """Every field of every event ``reader`` reads from ``path``, or its error."""
    try:
        return [(type(ev), tuple(ev)) for ev in reader(path)]
    except ParseError as exc:
        return str(exc), exc.line


@pytest.mark.parametrize("reject", [None, *_REJECTS])
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_log_replay_equals_the_event_replay(tmp_path_factory, reject, seed):
    """``read_events`` reads the events of the reference reader, ``path``/``line``
    included, and both log replays leave the book of those events, priorities
    included, or raise the reference reader's ParseError at the same line."""
    log = tmp_path_factory.mktemp("log") / "day.csv"
    log.write_bytes(_random_log(random.Random(seed), reject))
    assert _read(log, read_events) == _read(log, naive_read_events)
    want = _replayed(lambda: AuctionBook(grid10()).replay(naive_read_events(log)))
    assert _replayed(lambda: AuctionBook(grid10()).replay(read_events(log))) == want
    assert _replayed(lambda: AuctionBook(grid10()).replay_log(log)) == want
    if reject is not None:
        assert isinstance(want[0], str), want  # the bad row is refused
