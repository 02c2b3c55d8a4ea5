import pytest

from uncross.book import AuctionBook
from uncross.clearing import clear
from uncross.density import (
    _density_samples,
    average_density,
    day_profile,
    density,
    profiles_to_csv,
)
from uncross.errors import EmptySide, MismatchedBinning
from uncross.events import OrderEvent
from uncross.grid import PriceGrid

from conftest import make_book


def test_adjacent_ticks_use_tick_gap():
    book = make_book(buys=[(10.0, 50), (10.1, 50)])
    pts = density(book, "B", 10.0, 100)
    assert pts[0].price == pytest.approx(10.0)
    # gap to the next occupied buy tick is one tick: 50 / (0.1 * 100) = 5.0
    assert pts[0].rho == pytest.approx(5.0)


def test_gap_rule_spans_empty_ticks():
    book = make_book(buys=[(10.0, 50), (10.3, 50)])
    pts = density(book, "B", 10.0, 100)
    assert pts[0].rho == pytest.approx(50 / (0.3 * 100))


def test_boundary_tick_uses_tick_size():
    book = make_book(buys=[(10.0, 50), (10.3, 50)])
    pts = density(book, "B", 10.0, 100)
    # 10.3 has no occupied tick above: width defaults to one tick
    assert pts[-1].price == pytest.approx(10.3)
    assert pts[-1].rho == pytest.approx(50 / (0.1 * 100))


def test_sell_side_gap_runs_downward():
    book = make_book(sells=[(10.0, 30), (10.2, 40)])
    pts = density(book, "S", 10.0, 100)
    by_price = {round(p.price, 6): p.rho for p in pts}
    assert by_price[10.2] == pytest.approx(40 / (0.2 * 100))
    assert by_price[10.0] == pytest.approx(30 / (0.1 * 100))  # boundary below


def test_density_integrates_back_to_shares():
    import random

    rng = random.Random(3)
    for trial in range(20):
        buys = [(10.0 + 0.1 * rng.randint(-9, 9), rng.randint(1, 300)) for _ in range(12)]
        book = make_book(buys=buys)
        q_a = rng.randint(50, 500)
        pts = density(book, "B", 10.0, q_a)
        ticks = sorted(book.buy_volume)
        total = 0.0
        for pt, k in zip(pts, ticks):
            pos = ticks.index(k)
            if pos + 1 < len(ticks):
                dp = (ticks[pos + 1] - k) * 0.1
            else:
                dp = 0.1
            total += pt.rho * dp * q_a
        assert total == pytest.approx(sum(book.buy_volume.values()))


def test_empty_side():
    book = make_book(buys=[(10.0, 5)])
    with pytest.raises(EmptySide):
        density(book, "S", 10.0, 10)


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
    import random

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
    prof = day_profile(book, c.p_a, c.q_a, dx=1e-4)[None]
    total_b = sum(prof.rho_buy.values()) * prof.dx * c.q_a
    assert total_b == pytest.approx(sum(book.buy_volume.values()))
    total_s = sum(prof.rho_sell.values()) * prof.dx * c.q_a
    assert total_s == pytest.approx(sum(book.sell_volume.values()))


def test_average_of_single_day_is_identity():
    book = _day_book(2)
    c = clear(book)
    prof = day_profile(book, c.p_a, c.q_a)[None]
    avg = average_density([prof])
    assert avg.rho_buy == prof.rho_buy
    assert avg.rho_sell == prof.rho_sell


def test_average_is_arithmetic_mean():
    a = day_profile(_day_book(3), 10.0, 100)[None]
    b = day_profile(_day_book(4), 10.0, 100)[None]
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


def test_grouped_profiles_sum_to_ungrouped():
    books = [_day_book(s) for s in range(5, 8)]
    clearings = [clear(b) for b in books]
    ungrouped = average_density(
        [day_profile(b, c.p_a, c.q_a)[None] for b, c in zip(books, clearings)]
    )
    grouped = {}
    for key in ("HFT", "MIX", "NON"):
        grouped[key] = average_density(
            [day_profile(b, c.p_a, c.q_a, group_by="latency")[key]
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
    prof = day_profile(book, c.p_a, c.q_a)[None]
    text = profiles_to_csv([prof])
    lines = text.strip().split("\n")
    assert lines[0] == "x_bp,rho_buy,rho_sell,n_days"
    grouped = day_profile(book, c.p_a, c.q_a, group_by="latency")
    text2 = profiles_to_csv(list(grouped.values()))
    assert text2.startswith("x_bp,rho_buy,rho_sell,n_days,group")
