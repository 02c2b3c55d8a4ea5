import math

import pytest

from uncross.errors import OffGridPrice, ParseError
from uncross.events import (
    CSV_HEADER,
    OrderEvent,
    format_event,
    read_events,
    write_events,
)
from uncross.grid import PriceGrid


class TestGrid:
    def test_index_round_trip(self):
        grid = PriceGrid(0.01, 100.0, 100.0)
        for k in (-5000, -1, 0, 3, 4999):
            assert grid.index_of(grid.price_at(k)) == k

    def test_off_grid_rejected(self):
        grid = PriceGrid(0.1, 10.0, 10.0)
        with pytest.raises(OffGridPrice):
            grid.index_of(10.05)

    def test_reference_must_be_on_grid(self):
        with pytest.raises(OffGridPrice):
            PriceGrid(0.1, 10.0, 10.03)

    def test_tick_must_be_positive(self):
        with pytest.raises(ValueError):
            PriceGrid(0.0, 10.0, 10.0)

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
