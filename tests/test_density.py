import math
import random
import sys

import pytest

import uncross
from uncross.book import AuctionBook
from uncross.clearing import clear
from uncross.density import average_density, day_profile, profiles_to_csv
from uncross.errors import MismatchedBinning, NoCross
from uncross.events import LATENCY_FLAGS, OrderEvent
from uncross.grid import PriceGrid
from uncross.regime import _density_samples

from conftest import make_book
from oracles import (
    book_to_spec, dense_random_book, naive_clear, random_book, spec_to_book, spec_to_events,
)
from test_response import _odd_events


def test_package_attribute_is_the_module():
    assert uncross.density is sys.modules["uncross.density"]


# ------------------------------------------------- gap-rule samples on a walk


def _samples(book, index, side, q_a, max_x=1.0):
    """Density samples of the ``levels_past`` walk from ``index`` (10.0 at index 0)."""
    walk = book.levels_past(index, side, max_x)
    return _density_samples(walk, book.grid.tick_size, q_a, max_x)


def test_adjacent_ticks_use_tick_gap():
    xs, rhos = _samples(make_book(buys=[(10.1, 50), (10.2, 50)]), 0, "B", 100)
    assert xs[0] == pytest.approx(math.log(10.1 / 10.0))
    # gap to the next occupied tick of the walk is one tick: 50 / (0.1 * 100) = 5.0
    assert rhos[0] == pytest.approx(5.0)


def test_gap_rule_spans_empty_ticks():
    # 10.4 lies inside max_x: the width of 10.1 is the three ticks up to it
    xs, rhos = _samples(make_book(buys=[(10.1, 50), (10.4, 50)]), 0, "B", 100, max_x=0.05)
    assert len(xs) == 2
    assert rhos[0] == pytest.approx(50 / (0.3 * 100))


def test_boundary_tick_uses_tick_size():
    # 10.4 has no occupied tick above it, so its width defaults to one tick
    _, rhos = _samples(make_book(buys=[(10.1, 50), (10.4, 50)]), 0, "B", 100)
    assert rhos[-1] == pytest.approx(50 / (0.1 * 100))


def test_sell_side_gap_runs_downward():
    # the sell walk goes down from 10.0 and sums both sides at each tick
    book = make_book(buys=[(9.7, 15)], sells=[(9.9, 30), (9.7, 25)])
    xs, rhos = _samples(book, 0, "S", 100)
    assert xs == pytest.approx([math.log(10.0 / 9.9), math.log(10.0 / 9.7)])
    assert rhos[0] == pytest.approx(30 / (0.2 * 100))
    assert rhos[1] == pytest.approx(40 / (0.1 * 100))  # book edge below


def test_density_integrates_back_to_shares():
    rng = random.Random(3)
    for trial in range(40):
        book = make_book(
            buys=[(10.0 + 0.1 * rng.randint(-9, 9), rng.randint(1, 300)) for _ in range(8)],
            sells=[(10.0 + 0.1 * rng.randint(-9, 9), rng.randint(1, 300)) for _ in range(8)],
        )
        side, index, q_a = rng.choice("BS"), rng.randint(-5, 5), rng.randint(50, 500)
        walk = book.levels_past(index, side, 1.0)  # every tick of the book is inside
        ticks = [k for k, _, _ in walk]
        xs, rhos = _density_samples(walk, 0.1, q_a, 1.0)
        assert len(xs) == len(walk)
        widths = [abs(b - a) * 0.1 for a, b in zip(ticks, ticks[1:])] + [0.1]
        total = sum(rho * dp * q_a for rho, dp in zip(rhos, widths))
        assert total == pytest.approx(sum(shares for _, _, shares in walk))


def test_total_density_constant_book():
    buys = [(10.0, 40)] + [(10.0 - 0.1 * k, 30) for k in range(1, 6)]
    sells = [(10.0, 40)] + [(10.0 + 0.1 * k, 30) for k in range(1, 6)]
    book = make_book(buys=buys, sells=sells)
    c = clear(book)
    assert c.p_a == pytest.approx(10.0)
    walk = book.levels_past(c.price_index, "B", 0.1)
    xs, rhos = _density_samples(walk, book.grid.tick_size, c.q_a, max_x=0.1)
    assert len(xs) == 5
    for rho in rhos[:-1]:
        assert rho == pytest.approx(30 / (0.1 * c.q_a))


def test_total_density_last_sample_spans_the_gap_beyond_max_x():
    # sells at 10.1 and 10.2 lie inside max_x; the next occupied tick, 10.5, does not
    book = make_book(buys=[(10.0, 40)], sells=[(10.0, 40), (10.1, 30), (10.2, 20), (10.5, 60)])
    c = clear(book)
    walk = book.levels_past(c.price_index, "B", 0.03)
    xs, rhos = _density_samples(walk, book.grid.tick_size, c.q_a, max_x=0.03)
    assert len(xs) == 2
    assert rhos[0] == pytest.approx(30 / (0.1 * c.q_a))
    assert rhos[1] == pytest.approx(20 / (0.3 * c.q_a))  # not 20 / (0.1 * q_a)


# ------------------------------------------------------------------- binned


def _day_book(seed, n=40):
    rng = random.Random(seed)
    grid = PriceGrid(0.01, 10.0, 10.0)
    book = AuctionBook(grid)
    t = 0
    for i in range(n):
        t += 1
        side = rng.choice("BS")
        k = rng.randint(-30, -1) if side == "B" else rng.randint(1, 30)
        book.apply(
            OrderEvent(
                t, f"o{i}", "SUBMIT", side, "LIMIT", grid.price_at(k),
                rng.randint(1, 100),
                rng.choice(["HFT", "MIX", "NON"]),
                rng.choice(["OWN", "CLIENT", "MARKET_MAKER"]),
            )
        )
    book.apply(OrderEvent(t + 1, "pb", "SUBMIT", "B", "LIMIT", 10.0, 200))
    book.apply(OrderEvent(t + 2, "ps", "SUBMIT", "S", "LIMIT", 10.0, 200))
    return book


def test_profile_integrates_to_scaled_shares():
    book = _day_book(1)
    c = clear(book)
    prof = day_profile(book, dx=1e-4)[None]
    total_b = sum(prof.rho_buy.values()) * prof.dx * c.q_a
    assert total_b == pytest.approx(sum(book.buy_volume.values()))
    total_s = sum(prof.rho_sell.values()) * prof.dx * c.q_a
    assert total_s == pytest.approx(sum(book.sell_volume.values()))


def test_average_of_single_day_is_identity():
    book = _day_book(2)
    c = clear(book)
    prof = day_profile(book)[None]
    avg = average_density([prof])
    assert avg.rho_buy == prof.rho_buy
    assert avg.rho_sell == prof.rho_sell


def test_average_is_arithmetic_mean():
    a = day_profile(_day_book(3))[None]
    b = day_profile(_day_book(4))[None]
    avg = average_density([a, b])
    for k in avg.bin_range():
        expect = 0.5 * (a.rho_buy.get(k, 0.0) + b.rho_buy.get(k, 0.0))
        assert avg.rho_buy.get(k, 0.0) == pytest.approx(expect)


def test_two_days_densities_2_and_4_average_3():
    from uncross.density import DensityProfile

    a = DensityProfile(dx=1e-4, rho_buy={0: 2.0}, rho_sell={})
    b = DensityProfile(dx=1e-4, rho_buy={0: 4.0}, rho_sell={})
    avg = average_density([a, b])
    assert avg.rho_buy[0] == pytest.approx(3.0)
    assert avg.n_days == 2


def test_mismatched_binning():
    from uncross.density import DensityProfile

    a = DensityProfile(dx=1e-4, rho_buy={}, rho_sell={})
    b = DensityProfile(dx=2e-4, rho_buy={}, rho_sell={})
    with pytest.raises(MismatchedBinning):
        average_density([a, b])


def test_averaging_no_profiles_is_refused():
    with pytest.raises(ValueError, match="no profiles to average"):
        average_density([])


def test_a_profile_without_bins_has_an_empty_bin_range():
    from uncross.density import DensityProfile

    assert DensityProfile(dx=1e-4, rho_buy={}, rho_sell={}).bin_range() == range(0, 0)


def test_grouped_profiles_sum_to_ungrouped():
    books = [_day_book(s) for s in range(5, 8)]
    clearings = [clear(b) for b in books]
    ungrouped = average_density(
        [day_profile(b)[None] for b, c in zip(books, clearings)]
    )
    grouped = {}
    for key in ("HFT", "MIX", "NON"):
        grouped[key] = average_density(
            [day_profile(b, group_by="latency")[key]
             for b, c in zip(books, clearings)]
        )
    for k in ungrouped.bin_range():
        total = sum(g.rho_buy.get(k, 0.0) for g in grouped.values())
        assert total == pytest.approx(ungrouped.rho_buy.get(k, 0.0), abs=1e-12)
        total_s = sum(g.rho_sell.get(k, 0.0) for g in grouped.values())
        assert total_s == pytest.approx(ungrouped.rho_sell.get(k, 0.0), abs=1e-12)


def test_profile_csv_shape():
    book = _day_book(9)
    c = clear(book)
    prof = day_profile(book)[None]
    text = profiles_to_csv([prof])
    lines = text.strip().split("\n")
    assert lines[0] == "x_bp,rho_buy,rho_sell,n_days"
    grouped = day_profile(book, group_by="latency")
    text2 = profiles_to_csv(list(grouped.values()))
    assert text2.startswith("x_bp,rho_buy,rho_sell,n_days,group")


# ------------------------------------------------------------ self-clearing


def _binned_around(book, k, q, dx):
    """Profiles keyed by None and by latency flag, binned from the live resting
    orders around tick ``k`` and scaled by volume ``q``."""
    p = book.grid.price_at(k)
    shares = {key: ({}, {}) for key in (None, *LATENCY_FLAGS)}
    for rec in book.live_resting_orders():
        if rec.is_market:
            continue
        b = round(math.log(book.grid.price_at(rec.price_index) / p) / dx)
        for key in (None, rec.latency_flag):
            dest = shares[key][0 if rec.side == "B" else 1]
            dest[b] = dest.get(b, 0) + rec.quantity
    return {key: ({b: v / (q * dx) for b, v in buy.items()},
                  {b: v / (q * dx) for b, v in sell.items()})
            for key, (buy, sell) in shares.items()}


@pytest.mark.parametrize("make", [random_book, dense_random_book])
def test_day_profile_bins_around_the_books_own_clearing(make):
    """``day_profile(book)`` equals the binning of the live orders around the
    exhaustive scan's clearing price, scaled by its volume, ungrouped and by latency."""
    for seed in range(150):
        spec = make(seed)
        rng = random.Random(seed)
        events = [ev._replace(latency_flag=rng.choice(LATENCY_FLAGS))
                  for ev in spec_to_events(spec)]
        book = AuctionBook(spec_to_book(spec).grid).replay(events)
        _assert_bins_around_the_clearing(book, naive_clear(spec), (make.__name__, seed))


@pytest.mark.parametrize("seed", range(10))
def test_day_profile_bins_shared_ticks_as_the_orders_do(seed):
    """The same on streams with several orders per tick, dormant STOPs,
    MODIFYs, market orders and far ticks."""
    rng = random.Random(seed)
    events = [ev._replace(latency_flag=rng.choice(LATENCY_FLAGS)) for ev in _odd_events(seed)]
    book = AuctionBook(PriceGrid(0.01, 10.0, 10.0)).replay(events)
    assert any(rec.order_type == "STOP" for rec in book.orders.values())
    priced = [rec for rec in book.live_resting_orders() if not rec.is_market]
    assert len(priced) > len({(rec.side, rec.price_index) for rec in priced})
    _assert_bins_around_the_clearing(book, naive_clear(book_to_spec(book)), seed)


def _assert_bins_around_the_clearing(book, cleared, case):
    """Ungrouped and latency profiles of ``book`` at ``dx`` 1 and 7 bp equal
    ``_binned_around`` at the exhaustive scan's clearing ``(tick, volume, _)``."""
    k, q, _ = cleared
    for dx in (1e-4, 7e-4):
        want = _binned_around(book, k, q, dx)
        profiles = {None: day_profile(book, dx=dx)[None],
                    **day_profile(book, dx=dx, group_by="latency")}
        assert profiles.keys() == want.keys()
        for key, prof in profiles.items():
            assert (prof.dx, prof.n_days, prof.group) == (dx, 1, key)
            assert (prof.rho_buy, prof.rho_sell) == want[key], (case, dx)
            assert list(prof.rho_buy) == sorted(prof.rho_buy)
            assert list(prof.rho_sell) == sorted(prof.rho_sell)


def test_an_ungrouped_profile_reads_the_levels_not_the_orders(monkeypatch):
    book = _day_book(1)
    want = day_profile(book)[None]

    def refuse(self):
        raise AssertionError("the ungrouped profile walked the live orders")

    monkeypatch.setattr(AuctionBook, "live_resting_orders", refuse)
    monkeypatch.setattr(book, "orders", {})
    assert day_profile(book)[None] == want


@pytest.mark.parametrize("group_by", ["x", "", "LATENCY"])
def test_an_unknown_group_is_refused(group_by):
    with pytest.raises(ValueError, match="group_by must be None, 'latency' or 'account'"):
        day_profile(_day_book(1), group_by=group_by)


@pytest.mark.parametrize("dx", [math.inf, math.nan, 0.0, -1e-4])
def test_a_bin_width_that_is_not_positive_and_finite_is_refused(dx):
    # unguarded, inf puts every tick in bin 0 and nan fails inside round()
    for group_by in (None, "latency"):
        with pytest.raises(ValueError, match="dx must be positive and finite"):
            day_profile(_day_book(1), dx=dx, group_by=group_by)


def test_day_profile_of_a_book_without_a_cross_raises():
    grid = PriceGrid(0.1, 10.0, 10.0)
    apart = [OrderEvent(0, "a", "SUBMIT", "B", "LIMIT", 9.9, 5),
             OrderEvent(1, "b", "SUBMIT", "S", "LIMIT", 10.1, 5)]
    for book in (AuctionBook(grid), AuctionBook(grid).replay(apart)):
        for group_by in (None, "latency"):
            with pytest.raises(NoCross):
                day_profile(book, group_by=group_by)
