import hashlib
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from uncross.book import AuctionBook
from uncross.clearing import _indicative, clear
from uncross.events import OrderEvent
from uncross.grid import PriceGrid
from uncross.impact import impact_curve, inject_and_reclear
from uncross.response import (
    MarketableEvent,
    _Indicative,
    collect_marketable,
    log_bins,
    response_curves,
)

from conftest import make_book
from oracles import naive_marketable
from test_book import _random_events


def grid10():
    return PriceGrid(0.1, 10.0, 10.0)


class TestClassify:
    def setup_method(self):
        self.book = make_book(buys=[(10.0, 50)], sells=[(10.0, 50), (10.1, 30)])
        self.k_ind = 0  # indicative at 10.0

    def test_crossing_buy_limit_is_marketable(self):
        ev = OrderEvent(1, "x", "SUBMIT", "B", "LIMIT", 10.1, 7)
        assert naive_marketable(ev, self.book, self.k_ind) == (1, 7)

    def test_at_price_limit_is_marketable(self):
        ev = OrderEvent(1, "x", "SUBMIT", "B", "LIMIT", 10.0, 7)
        assert naive_marketable(ev, self.book, self.k_ind) == (1, 7)

    def test_passive_sell_limit_is_not(self):
        ev = OrderEvent(1, "x", "SUBMIT", "S", "LIMIT", 10.1, 7)
        assert naive_marketable(ev, self.book, self.k_ind) is None

    def test_market_orders_always(self):
        ev = OrderEvent(1, "x", "SUBMIT", "S", "MARKET", None, 9)
        assert naive_marketable(ev, self.book, self.k_ind) == (-1, 9)

    def test_cancel_of_marketable_sell_flips_sign(self):
        # S0 rests at 10.0 = indicative: marketable; canceling it acts like a buy
        assert naive_marketable(
            OrderEvent(9, "S0", "CANCEL", "S", "LIMIT", 10.0, 50), self.book, self.k_ind
        ) == (1, 50)

    def test_cancel_of_passive_order_ignored(self):
        assert naive_marketable(
            OrderEvent(9, "S1", "CANCEL", "S", "LIMIT", 10.1, 30), self.book, self.k_ind
        ) is None

    def test_no_indicative_price(self):
        ev = OrderEvent(1, "x", "SUBMIT", "B", "LIMIT", 10.1, 7)
        assert naive_marketable(ev, self.book, None) is None

    def test_stop_and_modify_ignored(self):
        assert naive_marketable(
            OrderEvent(1, "x", "SUBMIT", "B", "STOP", 10.1, 7), self.book, self.k_ind
        ) is None
        assert naive_marketable(
            OrderEvent(1, "S1", "MODIFY", "S", "LIMIT", 10.0, 30), self.book, self.k_ind
        ) is None


def _base_events():
    """A crossed book built at t=0, no warmup games: warmup_us=0 in tests."""
    return [
        OrderEvent(0, "b0", "SUBMIT", "B", "LIMIT", 10.0, 500),
        OrderEvent(0, "s0", "SUBMIT", "S", "LIMIT", 10.0, 500),
        OrderEvent(0, "s1", "SUBMIT", "S", "LIMIT", 10.1, 200),
        OrderEvent(0, "s2", "SUBMIT", "S", "LIMIT", 10.2, 200),
        OrderEvent(0, "b1", "SUBMIT", "B", "LIMIT", 9.9, 200),
        OrderEvent(0, "b2", "SUBMIT", "B", "LIMIT", 9.8, 200),
    ]


class TestCollect:
    @pytest.mark.parametrize("warmup_us", [math.nan, 1.5, 0.0, True])
    def test_a_warmup_that_is_not_an_int_is_refused(self, warmup_us):
        # NaN used to measure nothing and return ([], 0)
        events = _base_events() + [OrderEvent(1_000, "m1", "SUBMIT", "B", "MARKET", None, 600)]
        for call in (collect_marketable, response_curves):
            with pytest.raises(ValueError, match="warmup_us must be an int"):
                call(events, grid10(), warmup_us=warmup_us)

    def test_no_price_moves_means_zero_responses(self):
        events = _base_events() + [
            OrderEvent(1_000, "m1", "SUBMIT", "B", "MARKET", None, 10),
            OrderEvent(2_000, "m2", "SUBMIT", "S", "MARKET", None, 10),
            OrderEvent(3_000, "m3", "SUBMIT", "B", "MARKET", None, 10),
        ]
        curve = response_curves(events, grid10(), warmup_us=0)
        for r1, rm, c in zip(curve.r1, curve.rm, curve.counts):
            if c:
                assert r1 == 0.0 and rm == 0.0

    def test_single_moving_event_uses_final_clearing_for_next(self):
        # one buy market order big enough to lift the indicative price by a tick
        events = _base_events() + [
            OrderEvent(1_000, "m1", "SUBMIT", "B", "MARKET", None, 600),
        ]
        recorded, skipped = collect_marketable(events, grid10(), warmup_us=0)
        assert skipped == 0
        assert len(recorded) == 1
        me = recorded[0]
        assert me.sign == 1
        assert me.p_after_mech == pytest.approx(10.1)
        assert me.p_before == pytest.approx(10.0)
        # no later marketable event: the final clearing closes the lag
        assert me.p_next == pytest.approx(10.1)

    def test_mechanical_sign_consistency(self):
        events = _base_events() + [
            OrderEvent(1_000, "m1", "SUBMIT", "B", "MARKET", None, 550),
            OrderEvent(2_000, "m2", "SUBMIT", "S", "MARKET", None, 700),
            OrderEvent(3_000, "m3", "SUBMIT", "B", "MARKET", None, 100),
            OrderEvent(4_000, "m4", "SUBMIT", "S", "MARKET", None, 50),
        ]
        recorded, _ = collect_marketable(events, grid10(), warmup_us=0)
        assert len(recorded) == 4
        for me in recorded:
            assert me.sign * (me.p_after_mech - me.p_before) >= -1e-12

    def test_zero_impact_dominance(self):
        """Events smaller than the side's zero-impact volume never move the price."""
        events = _base_events()
        book = AuctionBook(grid10()).replay(events)
        c = clear(book)
        cb = impact_curve(book, c, "B")
        q_free = int(cb.omega0 * c.q_a) - 1
        assert q_free > 0
        moved = collect_marketable(
            events + [OrderEvent(1_000, "m", "SUBMIT", "B", "MARKET", None, q_free)],
            grid10(),
            warmup_us=0,
        )[0]
        assert moved[0].p_after_mech == moved[0].p_before

    def test_warmup_discards_early_events(self):
        events = _base_events() + [
            OrderEvent(1_000, "m1", "SUBMIT", "B", "MARKET", None, 600),
            OrderEvent(40_000_000, "m2", "SUBMIT", "S", "MARKET", None, 5),
        ]
        recorded, _ = collect_marketable(events, grid10(), warmup_us=30_000_000)
        assert [me.t for me in recorded] == [40_000_000]
        # the early event still moved the book
        assert recorded[0].p_before == pytest.approx(10.1)

    def test_cancel_flow_records_flipped_sign(self):
        events = _base_events() + [
            OrderEvent(1_000, "mm", "SUBMIT", "S", "MARKET", None, 300),
            OrderEvent(2_000, "mm", "CANCEL", "S", "MARKET", None, 300),
        ]
        recorded, _ = collect_marketable(events, grid10(), warmup_us=0)
        assert len(recorded) == 2
        assert recorded[0].sign == -1 and recorded[0].kind == "SUBMIT"
        assert recorded[1].sign == 1 and recorded[1].kind == "CANCEL"
        with_cancels_off, _ = collect_marketable(
            events, grid10(), warmup_us=0, with_cancels=False
        )
        assert [m.kind for m in with_cancels_off] == ["SUBMIT"]

    def test_mechanical_move_matches_virtual_injection(self):
        """For market submissions the mechanical move IS the virtual impact."""
        events = _base_events()
        book = AuctionBook(grid10()).replay(events)
        for q in (10, 300, 550, 720):
            virtual = inject_and_reclear(book, "B", q)
            recorded, _ = collect_marketable(
                events + [OrderEvent(1_000, "m", "SUBMIT", "B", "MARKET", None, q)],
                grid10(),
                warmup_us=0,
            )
            assert recorded[0].p_after_mech == pytest.approx(virtual)


def test_skip_tally_counts_uncrossed_market_flow():
    # a market order lands before any cross exists: applied but not measured
    events = [
        OrderEvent(0, "s1", "SUBMIT", "S", "LIMIT", 10.1, 50),
        OrderEvent(1, "m1", "SUBMIT", "B", "MARKET", None, 5),
        OrderEvent(2, "b1", "SUBMIT", "B", "LIMIT", 10.1, 50),
        OrderEvent(3, "m2", "SUBMIT", "B", "MARKET", None, 5),
    ]
    curve = response_curves(events, grid10(), warmup_us=0)
    assert curve.skipped_no_cross == 1


def test_event_that_removes_the_cross_is_skipped_not_recorded():
    # the cancel is marketable at 10.0 but leaves no cross: there is no
    # indicative price after it, so no mechanical move can be measured
    events = [
        OrderEvent(1, "s1", "SUBMIT", "S", "LIMIT", 10.0, 50),
        OrderEvent(2, "b1", "SUBMIT", "B", "LIMIT", 10.0, 50),
        OrderEvent(3, "b1", "CANCEL", "B", "LIMIT", 10.0, 50),
    ]
    recorded, skipped = collect_marketable(events, grid10(), warmup_us=0)
    assert recorded == []
    assert skipped == 1


def test_marketable_set_covers_marketable_price_changes():
    """With cancels included, every indicative move caused by market-order
    flow happens at a recorded marketable event."""
    from uncross.flowgen import FlowConfig, generate

    cfg = FlowConfig(
        seed=13,
        shape="bell",
        total_shares_per_side=80_000,
        buy_peak_mass=0.2,
        sell_peak_mass=0.2,
        n_levels=100,
        cancellation_rate=0.5,
        market_shares_per_side=30_000,
        market_size_range=(1, 2500),
    )
    events, _, meta = generate(cfg)
    grid = PriceGrid(meta["tick_size"], meta["anchor"], meta["reference_price"])
    recorded, _ = collect_marketable(events, grid, warmup_us=0)
    recorded_keys = {(m.t, m.kind) for m in recorded}

    book = AuctionBook(grid)
    uncovered = []
    market_moves = 0
    for ev in events:
        pre = _indicative(book)
        book.apply(ev)
        post = _indicative(book)
        if pre is None or post is None or pre[0] == post[0]:
            continue
        is_market_flow = ev.order_type == "MARKET" or (
            ev.action == "CANCEL" and ev.order_type == "MARKET"
        )
        if is_market_flow:
            market_moves += 1
            if (ev.timestamp, ev.action) not in recorded_keys:
                uncovered.append(ev)
    assert market_moves > 10
    assert not uncovered


class TestCurves:
    def test_log_bins_are_increasing(self):
        edges = log_bins(1e-5, 1.0, 30)
        assert len(edges) == 31
        assert edges == sorted(edges)
        assert edges[0] == pytest.approx(1e-5)
        assert edges[-1] == pytest.approx(1.0)

    def test_counts_and_empty_bins(self):
        events = _base_events() + [
            OrderEvent(1_000, "m1", "SUBMIT", "B", "MARKET", None, 10),
        ]
        curve = response_curves(events, grid10(), warmup_us=0)
        assert sum(curve.counts) == 1
        for i, c in enumerate(curve.counts):
            if c == 0:
                assert curve.r1[i] is None and curve.rm[i] is None

    def test_csv_columns(self):
        events = _base_events() + [
            OrderEvent(1_000, "m1", "SUBMIT", "B", "MARKET", None, 10),
        ]
        curve = response_curves(events, grid10(), warmup_us=0)
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,r1,rm,count"
        assert len(lines) == len(curve.counts) + 1


@pytest.mark.parametrize("lo, hi, n", [
    (0.0, 1.0, 3), (-1.0, 1.0, 3), (1.0, 1.0, 3), (1.0, 0.5, 3), (1e-5, math.inf, 3),
    (math.nan, 1.0, 3), (1e-5, math.nan, 3), (1e-5, 1.0, 0), (1e-5, 1.0, -3),
    (1.0, 1.0000000000000002, 5),  # edges too close to tell apart
])
def test_log_bins_refuse_malformed_ranges(lo, hi, n):
    with pytest.raises(ValueError):
        log_bins(lo, hi, n)


@pytest.mark.parametrize("bins", [
    [], [0.5], [0.1, 0.1], [0.3, 0.2, 0.4], [0.1, math.nan], [0.1, math.inf],
    [-math.inf, 0.1],
])
def test_response_curves_refuse_malformed_edges(bins):
    with pytest.raises(ValueError, match="strictly increasing finite"):
        response_curves(_base_events(), grid10(), bins=bins, warmup_us=0)


def test_bins_match_a_linear_scan_of_the_edges():
    """Each omega counts in the first bin whose upper edge reaches it, inner
    edges included, and nowhere when it lies outside the edges."""
    from uncross.flowgen import FlowConfig, generate

    cfg = FlowConfig(seed=21, shape="bell", total_shares_per_side=20_000, n_levels=60,
                     mean_order_size=40, cancellation_rate=0.5, market_shares_per_side=2_000)
    events, _, meta = generate(cfg)
    grid = PriceGrid(meta["tick_size"], meta["anchor"], meta["reference_price"])
    recorded, _ = collect_marketable(events, grid, warmup_us=0)
    omegas = [m.omega for m in recorded if m.p_next is not None]
    assert len(omegas) > 50
    rng = random.Random(4)
    for _ in range(10):
        # edges drawn partly from the omegas themselves, so that some sit on an edge
        edges = sorted(set(rng.sample(omegas, 3) + [rng.uniform(0, 0.2) for _ in range(4)]))
        expected = [0] * (len(edges) - 1)
        for w in omegas:
            if edges[0] <= w <= edges[-1]:
                expected[next(b for b in range(len(edges) - 1) if w <= edges[b + 1])] += 1
        curve = response_curves(events, grid, bins=edges, warmup_us=0)
        assert curve.counts == expected


def _odd_events(seed, n=1500):
    """A replayable stream with what generated days never hold: MODIFYs, STOP
    submissions, STOPs activated (and parked again) by MODIFY, cancels of
    STOPs, and orders 150-400 ticks out that grow the level window."""
    rng = random.Random(seed)
    events, live = [], {}  # live: order id -> (side, order type)

    def price():
        k = rng.randint(-6, 6)
        if rng.random() < 0.03:
            k = rng.choice((-1, 1)) * rng.randint(150, 400)
        return round(10.0 + 0.01 * k, 2)

    for t in range(1, n + 1):
        action = rng.choices(["SUBMIT", "MODIFY", "CANCEL"], weights=[6, 2, 2])[0]
        if action == "SUBMIT" or not live:
            oid, side = f"o{t}", rng.choice("BS")
            action, otype = "SUBMIT", rng.choices(
                ["LIMIT", "MARKET", "VALID_FOR_AUCTION", "STOP"], weights=[6, 1, 1, 2])[0]
        else:
            oid = rng.choice(sorted(live))
            side, otype = live[oid]
        if action == "CANCEL":
            del live[oid]
            events.append(OrderEvent(t, oid, "CANCEL", side, otype, None, 1))
            continue
        if action == "MODIFY":
            otype = rng.choices(["LIMIT", "MARKET", "STOP"], weights=[7, 2, 1])[0]
        live[oid] = side, otype
        events.append(OrderEvent(t, oid, action, side, otype,
                                 None if otype == "MARKET" else price(),
                                 rng.randint(1, 500 if rng.random() < 0.1 else 50)))
    return events


def grid001():
    return PriceGrid(0.01, 10.0, 10.0)


# sha256 of repr(collect_marketable(...)) on the streams above as a replay that
# scans the book for every read gives them; generated days never reach these
# paths, so only these digests hold the certified reads to it there
_ODD_DIGESTS = {
    (5, True): "e8c3b8c6099ec3838652886131a2008fbd8db374997082ca28d6509ff7e46231",
    (5, False): "18e8273dd4811f1d1ffd854e327b970f0b7ab278144fd96cb95e582066a332fd",
    (6, True): "40b42c1f04f3e5b59758093f3eb08c71a1dbe7ec6193902d8bebc49e099c240b",
    (6, False): "a7dcd19d55d02a8201198bb8652e366d211aa5b216b17b1141cae2a96587be3f",
}


@pytest.mark.parametrize("seed", range(7))
def test_odd_streams_hold_what_generated_days_lack(seed):
    """At least 5 each of SUBMIT, MODIFY, CANCEL, STOP submissions, MODIFYs to
    STOP, cancels of STOPs, STOP activations and far orders."""
    kinds, live = Counter(), {}
    for ev in _odd_events(seed):
        was = live.pop(ev.order_id, None)
        if ev.action != "CANCEL":
            live[ev.order_id] = ev.order_type
        far = ev.price is not None and abs(ev.price - 10.0) > 1.49
        kinds.update({ev.action: 1, f"{ev.action} STOP": ev.order_type == "STOP",
                      "activation": was == "STOP" and ev.order_type != "STOP", "far": far})
    assert min(kinds.values()) >= 5, kinds


@pytest.mark.parametrize("seed, with_cancels", sorted(_ODD_DIGESTS))
def test_records_on_modify_and_stop_streams_are_pinned(seed, with_cancels):
    out = collect_marketable(_odd_events(seed), grid001(), warmup_us=0,
                             with_cancels=with_cancels)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == _ODD_DIGESTS[seed, with_cancels]


_STREAMS = [(_random_events, grid10, seed) for seed in range(5)] + [
    (_odd_events, grid001, seed) for seed in range(5)]


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("make, grid, seed", _STREAMS)
def test_certified_reads_equal_a_full_scan(make, grid, seed, every):
    """Read after every event, or every 7th as during a warm-up, the reader's
    (tick, volume, imbalance) is a full scan's, or both find no cross."""
    book = AuctionBook(grid())
    reader = _Indicative(book)
    certified = 0
    for i, ev in enumerate(make(seed)):
        reader.apply(ev)
        if i % every == 0:
            certified += reader.k is not None
            assert reader.read() == _indicative(book), (seed, i)
    if every == 1:  # most reads come from the certificate, not a scan
        assert certified > 300


def _scanned_collect(events, grid, warmup_us, with_cancels):
    """``collect_marketable`` as a replay that scans the book before and after
    every event and classifies it with ``naive_marketable``; without a cross it
    counts a market order added or removed as skipped."""
    book = AuctionBook(grid)
    recorded, skipped = [], 0

    def backfill(tick):
        if recorded and recorded[-1].p_next is None:
            recorded[-1] = replace(recorded[-1], p_next=grid.price_at(tick))

    for ev in events:
        pre, cls = _indicative(book), None
        if (ev.timestamp >= events[0].timestamp + warmup_us
                and (with_cancels or ev.action != "CANCEL")):
            if pre is not None:
                cls = naive_marketable(ev, book, pre[0])
            elif ev.action != "MODIFY" and ev.order_type == "MARKET":
                skipped += 1
        book.apply(ev)
        if cls is None:
            continue
        backfill(pre[0])
        post = _indicative(book)
        if post is None:
            skipped += 1
            continue
        sign, shares = cls
        recorded.append(MarketableEvent(ev.timestamp, sign, shares / pre[1], shares, ev.action,
                                        grid.price_at(pre[0]), grid.price_at(post[0])))
    if (final := _indicative(book)) is not None:
        backfill(final[0])
    return recorded, skipped


@pytest.mark.parametrize("warmup_us", [0, 400])
@pytest.mark.parametrize("with_cancels", [True, False])
@pytest.mark.parametrize("make, grid, seed", _STREAMS)
def test_records_equal_a_scanned_replay_with_the_oracle(make, grid, seed, with_cancels,
                                                        warmup_us):
    """The reader's change to D(k) - S(k) marks exactly the events the oracle
    classifies from the event and the book, with the same sign and shares, and
    the records and the skip tally match a replay that scans for every read."""
    events = make(seed)
    got = collect_marketable(events, grid(), warmup_us=warmup_us, with_cancels=with_cancels)
    assert got == _scanned_collect(events, grid(), warmup_us, with_cancels)
    assert len(got[0]) > 20
