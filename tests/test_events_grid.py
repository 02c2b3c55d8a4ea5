import ast
import copy
import inspect
import math
import pickle
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uncross
from uncross.book import AuctionBook
from uncross.clearing import indicative_series
from uncross.errors import OffGridPrice, ParseError
from uncross.events import (
    ACCOUNT_TYPES,
    ACTIONS,
    CSV_HEADER,
    LATENCY_FLAGS,
    ORDER_TYPES,
    SIDES,
    OrderEvent,
    csv_table,
    format_event,
    read_events,
    write_events,
)
from uncross.flowgen import FlowConfig, generate
from uncross.grid import PriceGrid
from uncross.response import collect_marketable

from oracles import naive_validate


class TestGrid:
    def test_index_round_trip(self):
        grid = PriceGrid(0.01, 100.0, 100.0)
        for k in (-5000, -1, 0, 3, 4999):
            assert grid.index_of(grid.price_at(k)) == k
        assert PriceGrid(np.float64(0.01), np.float64(100.0), 100) == grid  # numpy floats pass

    def test_off_grid_rejected(self):
        grid = PriceGrid(0.1, 10.0, 10.0)
        with pytest.raises(OffGridPrice):
            grid.index_of(10.05)

    def test_reference_must_be_on_grid(self):
        with pytest.raises(OffGridPrice):
            PriceGrid(0.1, 10.0, 10.03)

    def test_a_positive_price_below_the_lowest_positive_tick_is_refused(self):
        # 1e-09 snaps to tick -10000, whose price is 0.0
        grid = PriceGrid(0.01, 100.0, 100.0)
        message = "price 1e-09 snaps to tick -10000, whose price 0.0 is not positive"
        with pytest.raises(OffGridPrice, match=message):
            grid.index_of(1e-9)
        with pytest.raises(OffGridPrice, match=message):
            PriceGrid(0.01, 100.0, 1e-9)
        book = AuctionBook(grid)
        with pytest.raises(OffGridPrice, match=message):
            book.apply(OrderEvent(1, "s", "SUBMIT", "S", "LIMIT", 1e-9, 7))
        assert book.orders == {} and book.nonempty_indices() == []
        assert grid.index_of(0.01) == grid.min_price_index == -9999

    @pytest.mark.parametrize("tick, error, message", [
        (0.0, ValueError, "tick_size must be positive and finite, got 0.0"),
        (True, TypeError, "tick_size must be a number, got True"),
        ("0.01", TypeError, "tick_size must be a number, got '0.01'"),
    ], ids=["zero", "bool", "str"])
    def test_tick_must_be_positive(self, tick, error, message):
        with pytest.raises(error, match=message):
            PriceGrid(tick, 10.0, 10.0)

    @pytest.mark.parametrize("ref", [0.0, -10.0, math.nan])
    def test_reference_must_be_positive(self, ref):
        with pytest.raises(ValueError, match="reference_price must be positive"):
            PriceGrid(0.1, 10.0, ref)

    def test_tiny_ticks_snap_exactly(self):
        grid = PriceGrid(1e-5, 50.0, 50.0)
        assert grid.index_of(grid.price_at(123)) == 123
        assert grid.index_of(grid.price_at(-77)) == -77

    @pytest.mark.parametrize("tick, anchor, ref", [
        (0.01, 100.0, 100.0),
        (0.1, -3.05, 0.05),  # negative anchor
        (0.25, -1.0, 1.0),  # a tick lands exactly on price 0
        (0.03, 10.0, 10.0),  # the tick does not divide the anchor
        (0.07, 1.0, 1.0),
        (0.1, 0.3, 0.3),  # 0.3 - 3 * 0.1 rounds below zero
        # the closed form floor(-anchor / tick) + 1 is a tick off, and the guards step:
        (0.01, 0.07, 0.07),  # up from -7, whose price is 0.0, to -6
        (0.3, 0.9, 0.9),  # down from -2 to -3, whose price is 1.1e-16
        (0.5, 0.0, 1.0),
        (1e-5, 50.0, 50.0),
    ])
    def test_min_price_index_is_the_first_positive_tick(self, tick, anchor, ref):
        grid = PriceGrid(tick, anchor, ref)
        k = math.floor(-anchor / tick) - 3
        while grid.price_at(k) <= 0:
            k += 1
        assert grid.min_price_index == k
        assert grid.price_at(k - 1) <= 0 < grid.price_at(k)


class TestEventCsv:
    def test_round_trip(self, tmp_path):
        events = [
            OrderEvent(0, "a", "SUBMIT", "B", "LIMIT", 10.0, 5, "HFT", "OWN"),
            OrderEvent(1, "m", "SUBMIT", "S", "MARKET", None, 9, "NON", "CLIENT"),
            OrderEvent(2, "a", "MODIFY", "B", "LIMIT", 10.1, 7, "HFT", "OWN"),
            OrderEvent(3, "a", "CANCEL", "B", "LIMIT", 10.1, 7, "HFT", "OWN"),
        ]
        path = tmp_path / "log.csv"
        write_events(path, events)
        raw = path.read_bytes()
        assert raw.startswith(",".join(CSV_HEADER).encode())
        assert b"\r" not in raw  # LF endings
        back = list(read_events(path))
        assert [format_event(e) for e in back] == [format_event(e) for e in events]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(CSV_HEADER)
            + "\n0,a,SUBMIT,B,LIMIT,10.0,5,HFT,OWN\n1,b,SUBMIT,Q,LIMIT,10.0,5,HFT,OWN\n"
        )
        with pytest.raises(ParseError) as err:
            list(read_events(path))
        assert err.value.line == 3
        assert "side" in str(err.value)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ParseError) as err:
            list(read_events(path))
        assert err.value.line == 1

    def test_bad_qty_and_missing_fields(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n0,a,SUBMIT,B,LIMIT,10.0,x,HFT,OWN\n")
        with pytest.raises(ParseError):
            list(read_events(path))
        path.write_text(",".join(CSV_HEADER) + "\n0,a,SUBMIT\n")
        with pytest.raises(ParseError):
            list(read_events(path))

    def test_market_with_price_rejected(self):
        with pytest.raises(ParseError):
            OrderEvent(0, "a", "SUBMIT", "B", "MARKET", 10.0, 5).validate()

    def test_limit_without_price_rejected(self):
        with pytest.raises(ParseError):
            OrderEvent(0, "a", "SUBMIT", "B", "LIMIT", None, 5).validate()


class TestEventRecord:
    """An event stays valid because nothing can change it after it is built."""

    def event(self, **where):
        return OrderEvent(4, "a", "SUBMIT", "B", "LIMIT", 10.0, 5, "HFT", "OWN", **where)

    def test_fields_cannot_be_assigned(self):
        ev = self.event()
        with pytest.raises(AttributeError):
            ev.side = "X"
        with pytest.raises(AttributeError):
            ev.note = "anything"
        assert ev.side == "B"

    def test_location_takes_no_part_in_comparisons(self):
        read = self.event(path="day.csv", line=7)
        built = self.event()
        assert read == built and not read != built
        assert hash(read) == hash(built)
        assert len({read, built}) == 1
        assert read != self.event(path="day.csv", line=7)._replace(quantity=6)

    def test_repr_names_the_nine_columns(self):
        assert repr(self.event(path="day.csv", line=7)) == (
            "OrderEvent(timestamp=4, order_id='a', action='SUBMIT', side='B', "
            "order_type='LIMIT', price=10.0, quantity=5, latency_flag='HFT', "
            "account_type='OWN')"
        )

    @pytest.mark.parametrize("clone", [
        *(lambda ev, p=p: pickle.loads(pickle.dumps(ev, protocol=p))
          for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        copy.copy, copy.deepcopy,
    ])
    def test_pickle_and_copy_keep_the_location(self, clone):
        ev = self.event(path="day.csv", line=7)
        back = clone(ev)
        assert type(back) is OrderEvent and back == ev
        assert (back.path, back.line) == ("day.csv", 7)

    def test_make_and_replace_validate(self):
        ev = self.event(path="day.csv", line=7)
        with pytest.raises(ParseError, match="unknown side 'X'"):
            ev._replace(side="X")
        with pytest.raises(ParseError, match="MARKET order must not carry a price"):
            ev._replace(order_type="MARKET")
        with pytest.raises(ParseError, match="price must be positive"):
            OrderEvent._make([*ev[:5], -1.0, *ev[6:]])
        moved = ev._replace(price=10.1)
        assert moved.price == 10.1 and (moved.path, moved.line) == ("day.csv", 7)
        assert OrderEvent._make(ev) == ev

    @pytest.mark.parametrize("field, value", [
        ("quantity", 1.5), ("quantity", math.nan),
        ("timestamp", 1.5), ("timestamp", "x"), ("timestamp", None), ("timestamp", True),
    ])
    def test_a_timestamp_or_quantity_that_is_not_an_int_is_refused(self, field, value):
        # unguarded, a quantity of 1.5 rests as 1 share and nan fails inside int()
        with pytest.raises(ParseError, match="timestamp and quantity must be ints"):
            OrderEvent(**{**self.event()._asdict(), field: value})
        with pytest.raises(ParseError, match="timestamp and quantity must be ints"):
            self.event()._replace(**{field: value})


def _enum_values(valid):
    """Every valid value of one field plus values no field allows, an unhashable one included."""
    return st.sampled_from([*valid, "", "X", "b", "limit", None, 0, ("B",), ["B"]])


@given(
    action=_enum_values(ACTIONS),
    side=_enum_values(SIDES),
    order_type=_enum_values(ORDER_TYPES),
    latency_flag=_enum_values(LATENCY_FLAGS),
    account_type=_enum_values(ACCOUNT_TYPES),
    price=st.sampled_from([None, 0, 0.0, -1.0, -0.01, math.nan, math.inf, -math.inf,
                           0.01, 10.0, 7]),
)
@settings(max_examples=600, deadline=None)
def test_validation_matches_the_per_field_oracle(**fields):
    """The frozenset check accepts exactly what the per-field loop accepts and
    refuses the rest with the same message."""
    try:
        naive_validate(SimpleNamespace(**fields))
        want = None
    except ParseError as exc:
        want = str(exc)
    args = (1, "o1", fields["action"], fields["side"], fields["order_type"], fields["price"], 5,
            fields["latency_flag"], fields["account_type"])
    try:
        OrderEvent(*args, path="day.csv", line=2)
        got = None
    except ParseError as exc:
        got = str(exc)
    assert got == want


@pytest.mark.parametrize("replay", [
    pytest.param(lambda log, grid: AuctionBook(grid).replay(read_events(log)), id="replay"),
    pytest.param(lambda log, grid: AuctionBook(grid).replay_log(log), id="replay_log"),
    pytest.param(lambda log, grid: collect_marketable(read_events(log), grid, warmup_us=0),
                 id="response"),
    pytest.param(lambda log, grid: indicative_series(read_events(log), grid, 1_000_000),
                 id="series"),
])
def test_replay_snaps_each_priced_row_once(tmp_path, monkeypatch, replay):
    """Replaying a log, event by event or straight from its rows, to measure
    responses from its first event or to sample the indicative price, snaps each
    distinct price to its tick once: a second snap would show up here before it
    shows up in a timing."""
    cfg = FlowConfig(seed=5, total_shares_per_side=20_000, n_levels=60,
                     market_shares_per_side=1_000, cancellation_rate=0.5)
    events, _, meta = generate(cfg)
    log = tmp_path / "day.csv"
    write_events(log, events)
    calls = 0
    index_of = PriceGrid.index_of

    def counted(grid, price):
        nonlocal calls
        calls += 1
        return index_of(grid, price)

    grid = PriceGrid(meta["tick_size"], meta["anchor"], meta["reference_price"])
    monkeypatch.setattr(PriceGrid, "index_of", counted)
    replay(log, grid)
    assert any(ev.action == "CANCEL" and ev.price is not None for ev in events)
    assert calls == len({ev.price for ev in events if ev.price is not None})


def test_read_events_is_a_generator_function():
    """``read_events`` stays a generator function: the benchmark's tracer counts
    the events it yields (``events.rows``) only for a generator function."""
    assert inspect.isgeneratorfunction(read_events)


def test_csv_table_writes_every_cell_by_one_rule():
    rows = [(np.float64(0.1), None, 3, "B"), (1e-05, -0.0, np.int64(7), 2.0)]
    assert csv_table("a,b,c,d", rows) == "a,b,c,d\n0.1,,3,B\n1e-05,-0.0,7,2.0\n"
    assert csv_table("a,b", []) == "a,b\n"


def _csv_readers(node, scope):
    """``scope`` of every ``csv.reader``/``csv.DictReader`` call, or import of
    either name from ``csv``, under ``node``."""
    names = {"reader", "DictReader"}
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
            node.func.attr in names and getattr(node.func.value, "id", None) == "csv"):
        yield scope
    if isinstance(node, ast.ImportFrom) and node.module == "csv" and (
            names & {alias.name for alias in node.names}):
        yield scope
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    for child in ast.iter_child_nodes(node):
        yield from _csv_readers(child, scope)


def test_only_the_one_prelude_builds_a_csv_reader():
    """Both input tables, the event log and the day metrics, are read through
    ``events._csv_rows``: one open, one UTF-8 guard and one header read."""
    scopes = set()
    for path in sorted(Path(uncross.__file__).parent.glob("*.py")):
        scopes.update(_csv_readers(ast.parse(path.read_text()), path.stem))
    assert scopes == {"events._csv_rows"}
