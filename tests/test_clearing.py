from dataclasses import replace

import pytest

from uncross.book import AuctionBook
from uncross.clearing import clear, indicative_series, uncross_values
from uncross.errors import AllocationInvariantError, NoCross
from uncross.events import OrderEvent
from uncross.grid import PriceGrid

from conftest import make_book
from oracles import (
    book_demand,
    book_to_spec,
    book_supply,
    dense_random_book,
    naive_clear,
    naive_demand,
    naive_margin,
    naive_supply,
    random_book,
    spec_to_book,
    total_resting,
)


def test_worked_example(worked_book):
    c = clear(worked_book)
    assert c.p_a == pytest.approx(10.1)
    assert c.q_a == 60
    assert c.vsr == 10 and c.vbr == 0
    assert c.vbm == 60 and c.vsm == 30
    assert c.imbalance == 10  # S(10.1)=70 vs D(10.1)=60


def test_symmetric_book_zero_imbalance():
    book = make_book(buys=[(10.0, 40)], sells=[(10.0, 40)])
    c = clear(book)
    assert c.p_a == pytest.approx(10.0)
    assert c.q_a == 40
    assert c.imbalance == 0
    assert c.vbr == 0 and c.vsr == 0


def test_imbalance_tiebreak_smaller_wins():
    # two volume maximizers; imbalances 60 and 50 -> the 50 one wins
    book = make_book(
        buys=[(9.9, 10), (10.0, 20), (10.1, 60)],
        sells=[(10.0, 30), (10.1, 40), (10.2, 50)],
        buy_market=70,
    )
    c = clear(book)
    assert min(book_supply(book, 10.1), book_demand(book, 10.1)) == min(
        book_supply(book, 10.2), book_demand(book, 10.2)
    )
    assert abs(book_supply(book, 10.1) - book_demand(book, 10.1)) == 60
    assert abs(book_supply(book, 10.2) - book_demand(book, 10.2)) == 50
    assert c.p_a == pytest.approx(10.2)


def test_reference_tiebreak():
    # flat region between the only buy and sell ticks: closest to reference wins
    book = make_book(ref=10.2, buys=[(10.4, 50)], sells=[(10.0, 50)])
    c = clear(book)
    assert c.p_a == pytest.approx(10.2)
    assert c.q_a == 50


def test_lower_price_final_tiebreak():
    # equidistant from the reference with identical executable and imbalance
    book = make_book(ref=10.2, buys=[(10.3, 50)], sells=[(10.1, 50)])
    c = clear(book)
    # maximizers 10.1..10.3 all q=50 imb=0; 10.2 is the unique closest to ref
    assert c.p_a == pytest.approx(10.2)
    book2 = make_book(ref=10.2, buys=[(10.4, 50)], sells=[(10.1, 50)])
    # now 10.1..10.4 tie and both 10.1/10.3... check distance logic via oracle instead
    c2 = clear(book2)
    spec_price, _, _ = naive_clear(book_to_spec(book2))
    assert c2.price_index == spec_price


def test_no_cross():
    book = make_book(buys=[(9.9, 10)], sells=[(10.1, 10)])
    with pytest.raises(NoCross):
        clear(book)


def test_market_orders_only_clears_at_reference():
    book = make_book(ref=10.3, buy_market=80, sell_market=50)
    c = clear(book)
    assert c.p_a == pytest.approx(10.3)
    assert c.q_a == 50


def test_penny_book_never_clears_at_nonpositive_price():
    # heavy sell pressure on a book one tick above zero: the candidate scan
    # must stop at the lowest positive tick, never walk onto price <= 0
    book = make_book(
        tick=1.0, anchor=1.0, ref=1.0, buys=[(1.0, 5)], sells=[(1.0, 5)],
        sell_market=500,
    )
    c = clear(book)
    assert c.p_a > 0
    from uncross.impact import impact_curve, inject_and_reclear

    assert inject_and_reclear(book, "S", 10_000) > 0
    curve = impact_curve(book, c, "S", max_x=2.0)
    # walking further down than the grid allows is out of the curve's domain
    assert all(book.grid.price_at(bp.target_index) > 0 for bp in curve.breakpoints)


def grow_window_far_out(book, far):
    """Submit and cancel one order at each tick of ``far``: the level window
    grows to reach them, and the book's volume is unchanged."""
    for i, (side, k) in enumerate(zip("SB", far)):
        price = book.grid.price_at(k)
        book.apply(OrderEvent(100 + i, f"far{i}", "SUBMIT", side, "LIMIT", price, 7))
        book.apply(OrderEvent(100 + i, f"far{i}", "CANCEL", side, "LIMIT", price, 7))


def test_margin_is_the_lead_over_the_best_other_tick():
    """``uncross_values``'s margin is q minus the most any other tick executes,
    and 0 whenever two ticks tie at q."""
    ties = 0
    for seed in range(300):
        for make in (random_book, dense_random_book):
            spec = make(seed)
            book = spec_to_book(spec)
            *_, margin = uncross_values(book)
            assert margin == naive_margin(spec) >= 0, (make.__name__, seed)
            q = naive_clear(spec)[1]
            n_best = sum(min(naive_supply(spec, j), naive_demand(spec, j)) == q
                         for j in range(book.lo_index, book.lo_index + len(book.buy_levels)))
            assert (margin == 0) == (n_best > 1), (make.__name__, seed)
            ties += n_best > 1
    assert 0 < ties < 600


def test_level_store_after_window_growth_matches_oracle():
    """Orders submitted and canceled far from a random book grow its level
    window past the occupied range; clearing, with the grid reference inside
    the occupied range and with references beyond the grown window, and the
    level views must not notice."""
    below_checked = 0
    for seed in range(200):
        spec = random_book(seed)
        book = spec_to_book(spec)
        grid = book.grid
        occupied = spec.buy.keys() | spec.sell.keys()
        far = (max(occupied) + 200, max(min(occupied) - 150, grid.min_price_index))
        grow_window_far_out(book, far)
        top = book.lo_index + len(book.buy_levels) - 1
        assert top > far[0] and book.lo_index <= far[1], seed

        assert book.buy_volume == spec.buy and book.sell_volume == spec.sell, seed
        values = [*book.buy_volume.values(), *book.sell_volume.values(),
                  *book.volume_at(min(occupied)), total_resting(book, "B")]
        assert all(type(v) is int for v in values), seed
        c = clear(book)
        assert (c.price_index, c.q_a, c.imbalance) == naive_clear(spec), seed

        outside = [top + 50]
        if book.lo_index - 50 >= grid.min_price_index:
            outside.append(book.lo_index - 50)
            below_checked += 1
        for ref in outside:
            moved = replace(spec, ref_index=ref)
            far_book = spec_to_book(moved)
            grow_window_far_out(far_book, far)
            c = clear(far_book)
            assert (c.price_index, c.q_a, c.imbalance) == naive_clear(moved), (seed, ref)
    assert below_checked > 50


@pytest.mark.parametrize("side", ["B", "S"])
def test_indicative_matches_clear_wherever_the_levels_sit(side):
    """The final indicative point equals the clearing when the only occupied
    tick lies anywhere around the edge of the book's initial level window.
    Market volume beyond all opposite supply makes the empty tick past the
    occupied one the clearing price, so that tick must always be scanned."""
    grid = PriceGrid(0.01, 10.0, 10.0)
    sign = 1 if side == "B" else -1
    for k in range(1, 200):
        price = grid.price_at(sign * k)
        events = [
            OrderEvent(1, "b", "SUBMIT", "B", "LIMIT", price, 5 if side == "B" else 10),
            OrderEvent(2, "s", "SUBMIT", "S", "LIMIT", price, 10 if side == "B" else 5),
            OrderEvent(3, "m", "SUBMIT", side, "MARKET", None, 50),
        ]
        book, points = indicative_series(events, grid, 1)
        c = clear(book)
        assert c.price_index == sign * (k + 1), k
        assert (points[-1].price_index, points[-1].q_ind) == (c.price_index, c.q_a), k


def test_allocation_time_priority(worked_book):
    c = clear(worked_book)
    # sell side is rationed at 10.1: s2 (40 shares) is the only order there,
    # filled 30 of 40 after s1's 30 at 10.0
    assert c.fills["s1"] == 30
    assert c.fills["s2"] == 30
    assert "s3" not in c.fills
    assert sum(
        f for oid, f in c.fills.items() if worked_book.orders[oid].side == "S"
    ) == c.q_a


def test_allocation_breaks_a_timestamp_tie_by_arrival():
    # two sells at t=5, rationed at the price, fill in arrival order, not by id
    book = AuctionBook(PriceGrid(0.1, 10.0, 10.0))
    book.apply(OrderEvent(5, "zz", "SUBMIT", "S", "LIMIT", 10.0, 30))
    book.apply(OrderEvent(5, "aa", "SUBMIT", "S", "LIMIT", 10.0, 30))
    book.apply(OrderEvent(6, "b", "SUBMIT", "B", "LIMIT", 10.0, 40))
    c = clear(book)
    assert (c.p_a, c.q_a) == (10.0, 40)
    assert c.fills == {"zz": 30, "aa": 10, "b": 40}


def test_allocation_market_orders_first():
    book = make_book(
        buys=[(10.0, 50)],
        sells=[(10.0, 30), (10.0, 40)][:1],  # one sell order
        sell_market=35,
    )
    # rebuild with explicit ids: market sell + limit sell at the price
    book = AuctionBook(PriceGrid(0.1, 10.0, 10.0))
    book.apply(OrderEvent(1, "lim", "SUBMIT", "S", "LIMIT", 10.0, 30))
    book.apply(OrderEvent(2, "mkt", "SUBMIT", "S", "MARKET", None, 35))
    book.apply(OrderEvent(3, "buy", "SUBMIT", "B", "LIMIT", 10.0, 50))
    c = clear(book)
    assert c.q_a == 50
    assert c.fills["mkt"] == 35  # market volume fills before the limit
    assert c.fills["lim"] == 15


def test_allocation_completeness_and_identities_on_random_books():
    """The closed-form record against the per-order fills, at the spec's
    reference and at a reference up to 300 ticks beyond the spec's level
    window, where the tie chain can leave volume unfilled past the price."""
    for seed in range(300):
        for make in (random_book, dense_random_book):
            spec = make(seed)
            book = spec_to_book(spec)
            top = book.lo_index + len(book.buy_levels) - 1
            away = 1 + seed % 300
            off = top + away if seed % 2 else max(book.lo_index - away,
                                                  book.grid.min_price_index)
            for moved in (spec, replace(spec, ref_index=off)):
                moved_book = spec_to_book(moved)
                assert_record_matches_fills(moved_book, clear(moved_book), naive_clear(moved),
                                            (make.__name__, seed, moved.ref_index))


def assert_record_matches_fills(book, c, oracle, where):
    assert oracle is not None
    assert (c.price_index, c.q_a, c.imbalance) == oracle, where
    # accounting identities: the rationed side's remainder may include
    # unfilled market volume and limit volume spilled past the price
    rem_s = c.vsr + c.market_sell_unfilled + c.sell_spillover
    rem_b = c.vbr + c.market_buy_unfilled + c.buy_spillover
    assert c.q_a == c.supply_at - rem_s == c.demand_at - rem_b, where
    assert rem_s * rem_b == 0, where
    if rem_s == c.vsr and rem_b == c.vbr:
        # the strict per-price form whenever nothing was rationed elsewhere
        assert c.q_a == c.supply_at - c.vsr == c.demand_at - c.vbr, where
    vb_at, vs_at = book.volume_at(c.price_index)
    assert c.vbm + c.vbr == vb_at, where
    assert c.vsm + c.vsr == vs_at, where
    # the reference: market fills, fills at the price and unfilled limits
    # through the price, summed over the per-order allocation
    for side, matched, market_unfilled, spillover in (
        ("B", c.vbm, c.market_buy_unfilled, c.buy_spillover),
        ("S", c.vsm, c.market_sell_unfilled, c.sell_spillover),
    ):
        sign = 1 if side == "B" else -1
        recs = [r for r in book.live_resting_orders() if r.side == side]
        market = [r for r in recs if r.is_market]
        limits = [r for r in recs if not r.is_market]
        through = [r for r in limits if sign * (r.price_index - c.price_index) > 0]
        assert sum(c.fills.get(r.order_id, 0) for r in recs) == c.q_a, where
        assert sum(c.fills.get(r.order_id, 0) for r in limits
                   if r.price_index == c.price_index) == matched, where
        assert sum(r.quantity - c.fills.get(r.order_id, 0) for r in market) \
            == market_unfilled, where
        assert sum(r.quantity - c.fills.get(r.order_id, 0) for r in through) \
            == spillover, where


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def small_book_specs(draw):
    from oracles import BookSpec

    n = draw(st.integers(3, 12))
    spec = BookSpec(tick=0.1, base=20.0)
    for k in range(n):
        b = draw(st.integers(0, 50))
        s = draw(st.integers(0, 50))
        if b:
            spec.buy[k] = b
        if s:
            spec.sell[k] = s
    spec.buy_market = draw(st.integers(0, 60))
    spec.sell_market = draw(st.integers(0, 60))
    spec.ref_index = draw(st.integers(0, n - 1))
    return spec


@given(small_book_specs())
@settings(max_examples=300, deadline=None)
def test_clear_always_matches_exhaustive_scan(spec):
    from uncross.errors import NoCross

    oracle = naive_clear(spec)
    if not (spec.buy or spec.sell or spec.buy_market or spec.sell_market):
        return
    book = spec_to_book(spec)
    try:
        c = clear(book)
    except NoCross:
        assert oracle is None
        return
    assert oracle is not None
    assert (c.price_index, c.q_a, c.imbalance) == oracle


def test_volume_maximality_on_random_books():
    for seed in range(50):
        spec = random_book(seed + 10_000)
        book = spec_to_book(spec)
        c = clear(book)
        lo = min(book.nonempty_indices()) - 2
        hi = max(book.nonempty_indices()) + 2
        for k in range(lo, hi + 1):
            p = book.grid.price_at(k)
            assert min(book_supply(book, p), book_demand(book, p)) <= c.q_a


def test_clearing_result_json(worked_book):
    import json

    rec = json.loads(clear(worked_book).to_json())
    assert rec == {
        "p_a": pytest.approx(10.1),
        "q_a": 60,
        "imbalance": 10,
        "vbm": 60,
        "vbr": 0,
        "vsm": 30,
        "vsr": 10,
    }


@pytest.mark.parametrize("change", [
    {"vbr": 1},
    {"supply_at": 1},
    {"buy_spillover": 1, "demand_at": 1},
    {"vbm": -61},
], ids=["buy-remainder", "supply", "both-sides-remain", "negative"])
def test_record_breaking_the_identities_is_refused(worked_book, change):
    """``clear`` meets the identities by construction; a record built any
    other way that breaks them is refused."""
    c = clear(worked_book)
    with pytest.raises(AllocationInvariantError):
        replace(c, **{k: getattr(c, k) + d for k, d in change.items()})


# ------------------------------------------------------------- indicative


def _ts_events():
    evs = [
        OrderEvent(0, "s1", "SUBMIT", "S", "LIMIT", 10.0, 50),
        OrderEvent(0, "b1", "SUBMIT", "B", "LIMIT", 10.0, 30),
        # 15 seconds of silence, then more demand
        OrderEvent(15_000_000, "b2", "SUBMIT", "B", "LIMIT", 10.1, 40),
        OrderEvent(16_000_000, "b3", "SUBMIT", "B", "LIMIT", 10.0, 5),
    ]
    return evs


def test_indicative_static_book_identical_points():
    grid = PriceGrid(0.1, 10.0, 10.0)
    _, points = indicative_series(_ts_events(), grid, 5_000_000)
    # boundaries at t=0, 5s, 10s sit in the silent stretch: identical outcomes
    assert [(p.price_index, p.q_ind) for p in points[:3]] == [(0, 30)] * 3


def test_indicative_final_point_equals_clearing():
    grid = PriceGrid(0.1, 10.0, 10.0)
    book, points = indicative_series(_ts_events(), grid, 5_000_000)
    c = clear(book)
    assert points[-1].price_index == c.price_index
    assert points[-1].q_ind == c.q_a


@pytest.mark.parametrize("interval_us", [0, -5_000_000])
def test_indicative_series_refuses_an_interval_below_one_microsecond(interval_us):
    grid = PriceGrid(0.1, 10.0, 10.0)
    with pytest.raises(ValueError, match="interval_us must be at least 1"):
        indicative_series(_ts_events(), grid, interval_us)


@pytest.mark.parametrize("interval_us", [1.5, 5e6, float("nan"), True])
def test_indicative_series_refuses_an_interval_that_is_not_an_int(interval_us):
    # 1.5 used to step the snapshots by fractional microseconds, written to t_us as floats
    grid = PriceGrid(0.1, 10.0, 10.0)
    with pytest.raises(ValueError, match="interval_us must be at least 1 and an int"):
        indicative_series(_ts_events(), grid, interval_us)


@pytest.mark.parametrize("last_ts", [1_400, 1_450], ids=["last-on-a-boundary", "last-off-a-boundary"])
def test_indicative_points_fall_on_boundaries_then_on_the_last_event(last_ts):
    grid = PriceGrid(0.1, 10.0, 10.0)
    evs = [
        OrderEvent(1_000, "s1", "SUBMIT", "S", "LIMIT", 10.0, 50),
        OrderEvent(1_050, "b1", "SUBMIT", "B", "LIMIT", 10.0, 30),
        # a gap that spans two boundaries
        OrderEvent(1_230, "b2", "SUBMIT", "B", "LIMIT", 10.1, 40),
        OrderEvent(last_ts, "b3", "SUBMIT", "B", "LIMIT", 10.0, 5),
    ]
    _, points = indicative_series(evs, grid, 100)
    # first_ts + i * interval for every boundary before the last event, then the last event once
    assert [p.t for p in points] == [*range(1_000, last_ts, 100), last_ts]


def test_indicative_no_cross_flagged_absent():
    grid = PriceGrid(0.1, 10.0, 10.0)
    evs = [
        OrderEvent(0, "s1", "SUBMIT", "S", "LIMIT", 10.2, 50),
        OrderEvent(10_000_000, "b1", "SUBMIT", "B", "LIMIT", 10.2, 30),
    ]
    _, points = indicative_series(evs, grid, 5_000_000)
    assert not points[0].crossed
    assert points[-1].crossed


def test_indicative_matches_fresh_replay_per_snapshot():
    """Each snapshot equals clearing a from-scratch replay cut at that instant."""
    import random as _random

    rng = _random.Random(5)
    events = []
    live = []
    for t in range(0, 2000):
        ts = t * 7919  # spread out timestamps
        if rng.random() < 0.75 or not live:
            oid = f"o{t}"
            side = rng.choice("BS")
            otype = "MARKET" if rng.random() < 0.1 else "LIMIT"
            price = None if otype == "MARKET" else 10.0 + 0.1 * rng.randint(-8, 8)
            events.append(OrderEvent(ts, oid, "SUBMIT", side, otype, price, rng.randint(1, 99)))
            live.append((oid, side, otype))
        else:
            oid, side, otype = live.pop(rng.randrange(len(live)))
            events.append(OrderEvent(ts, oid, "CANCEL", side, otype, None, 1))
    grid = PriceGrid(0.1, 10.0, 10.0)
    interval = 1_000_000
    _, points = indicative_series(events, grid, interval)
    for pt in points[:: max(1, len(points) // 10)]:
        partial = AuctionBook(grid).replay([e for e in events if e.timestamp <= pt.t])
        try:
            c = clear(partial)
            assert pt.crossed and (pt.price_index, pt.q_ind) == (c.price_index, c.q_a)
        except NoCross:
            assert not pt.crossed
