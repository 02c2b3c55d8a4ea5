import math
from fractions import Fraction

import numpy as np
import pytest

from uncross.clearing import clear
from uncross.errors import (
    BeyondTruncation,
    DegenerateAuction,
    NoPositiveRoot,
    TooFewPoints,
    ZeroLiquidity,
)
from uncross.impact import (
    cancel_market_and_reclear,
    cash_volume,
    impact_curve,
    inject_and_reclear,
    post_clearing_impact,
    theoretical_slope,
)
from uncross.regime import fit_regime

from conftest import make_book
from oracles import (
    dense_random_book,
    delta_omegas,
    impact_at,
    naive_inject_prices,
    random_book,
    spec_to_book,
)


class TestImpactCurve:
    def test_worked_example_omega0(self, worked_book):
        c = clear(worked_book)
        cb = impact_curve(worked_book, c, "B")
        cs = impact_curve(worked_book, c, "S")
        # buy side: sell remainder 10 plus matched buys 60; sell side: matched
        # sells 30 plus buy remainder 0
        assert cb.omega0 == Fraction(70, 60)
        assert cs.omega0 == Fraction(30, 60)

    def test_one_share_books_have_minimal_omega0(self):
        book = make_book(buys=[(10.0, 1), (9.9, 5)], sells=[(10.0, 1), (10.1, 5)])
        c = clear(book)
        assert c.q_a == 1
        cb = impact_curve(book, c, "B")
        cs = impact_curve(book, c, "S")
        assert cb.omega0 == Fraction(1, 1) == Fraction(1, c.q_a)
        assert cs.omega0 == Fraction(1, c.q_a)

    def test_full_grid_breakpoints_at_every_tick(self):
        buys = [(10.0 - 0.1 * k, 10) for k in range(5)]
        sells = [(10.0 + 0.1 * k, 10) for k in range(5)]
        book = make_book(buys=buys, sells=sells)
        c = clear(book)
        cb = impact_curve(book, c, "B", max_x=0.05)
        targets = [bp.target_index for bp in cb.breakpoints]
        assert targets == [1, 2, 3, 4]  # consecutive ticks above the price
        deltas = delta_omegas(cb)
        assert deltas[1:] == [Fraction(10, c.q_a)] * 3

    def test_impact_at_worked_example(self, worked_book):
        c = clear(worked_book)
        cb = impact_curve(worked_book, c, "B")
        assert cb.impact_at_shares(69) == 0.0
        assert cb.impact_at_shares(70) == pytest.approx(math.log(10.2 / 10.1), abs=1e-15)
        assert impact_at(cb, Fraction(69, 60)) == 0.0
        assert impact_at(cb, Fraction(70, 60)) == pytest.approx(math.log(10.2 / 10.1), abs=1e-15)
        assert impact_at(cb, 0) == 0.0

    def test_impact_at_breakpoint_is_target_log(self, worked_book):
        c = clear(worked_book)
        for side in "BS":
            curve = impact_curve(worked_book, c, side)
            for bp in curve.breakpoints:
                p_target = worked_book.grid.price_at(bp.target_index)
                assert curve.impact_at_shares(bp.omega_num) == pytest.approx(
                    abs(math.log(p_target / c.p_a)), abs=1e-15
                )

    def test_beyond_truncation(self, worked_book):
        c = clear(worked_book)
        cb = impact_curve(worked_book, c, "B")
        with pytest.raises(BeyondTruncation):
            cb.impact_at_shares(cb.cap_num)
        with pytest.raises(BeyondTruncation):
            impact_at(cb, Fraction(cb.cap_num, c.q_a))

    @pytest.mark.parametrize("q", [-1, math.nan])
    def test_negative_or_nan_shares_are_refused(self, worked_book, q):
        curve = impact_curve(worked_book, clear(worked_book), "B")
        with pytest.raises(ValueError, match="injected volume must be >= 0"):
            curve.impact_at_shares(q)
        with pytest.raises(ValueError, match="injected volume must be >= 0"):
            curve.price_index_at_shares(q)

    @pytest.mark.parametrize("max_x", [0.0, -1.0, math.nan])
    def test_a_max_x_that_is_not_positive_is_refused(self, worked_book, max_x):
        with pytest.raises(ValueError, match="max_x must be positive"):
            impact_curve(worked_book, clear(worked_book), "B", max_x=max_x)
        with pytest.raises(ValueError, match="max_x must be positive"):
            fit_regime(worked_book, "B", max_x=max_x)

    def test_degenerate_auction_rejected(self, worked_book):
        from uncross.clearing import ClearingResult

        degenerate = ClearingResult(
            grid=worked_book.grid, price_index=0, q_a=0, imbalance=-7,
            vbm=0, vbr=7, vsm=0, vsr=0, fills={}, supply_at=0, demand_at=7,
        )
        with pytest.raises(DegenerateAuction):
            impact_curve(worked_book, degenerate, "B")

    def test_truncation_respected(self):
        buys = [(10.0 - 0.1 * k, 10) for k in range(8)]
        sells = [(10.0 + 0.1 * k, 10) for k in range(8)]
        book = make_book(buys=buys, sells=sells)
        c = clear(book)
        narrow = impact_curve(book, c, "B", max_x=0.015)  # ~1.5 ticks of log room
        wide = impact_curve(book, c, "B", max_x=0.05)
        assert len(narrow.breakpoints) < len(wide.breakpoints)
        assert narrow.cap_num <= wide.cap_num


class TestInjectAndReclear:
    def test_zero_injection_is_identity(self, worked_book):
        c = clear(worked_book)
        assert inject_and_reclear(worked_book, "B", 0) == pytest.approx(c.p_a)
        assert inject_and_reclear(worked_book, "S", 0) == pytest.approx(c.p_a)

    def test_sell_injection_tiebreak(self, worked_book):
        # 30 extra sell shares tie two maximizers; the smaller imbalance wins
        assert inject_and_reclear(worked_book, "S", 30) == pytest.approx(10.0)

    def test_book_unmodified(self, worked_book):
        before = dict(worked_book.sell_volume)
        inject_and_reclear(worked_book, "S", 500)
        assert worked_book.sell_volume == before
        assert worked_book.sell_market_total == 0

    def test_cancellation_duality_exact(self):
        for seed in range(60):
            spec = random_book(seed + 300)
            if spec.buy_market == 0 and spec.sell_market == 0:
                continue
            book = spec_to_book(spec)
            for q in (0, 1, 7, min(spec.buy_market, spec.sell_market)):
                if spec.buy_market >= q:
                    assert cancel_market_and_reclear(book, "B", q) == inject_and_reclear(
                        book, "S", q
                    )
                if spec.sell_market >= q:
                    assert cancel_market_and_reclear(book, "S", q) == inject_and_reclear(
                        book, "B", q
                    )

    def test_cancel_more_than_resting_rejected(self, worked_book):
        with pytest.raises(ValueError):
            cancel_market_and_reclear(worked_book, "B", 1)

    @pytest.mark.parametrize("reclear", [inject_and_reclear, cancel_market_and_reclear])
    @pytest.mark.parametrize("q", [math.inf, math.nan, 1.0, True, -1])
    def test_a_volume_that_is_not_a_non_negative_int_is_refused(self, reclear, q):
        # inf used to end in a bare OverflowError from int(q); 1.0 and True were taken as 1
        book = make_book(buys=[(10.0, 50)], sells=[(10.0, 50), (10.5, 50)], buy_market=5)
        with pytest.raises(ValueError, match="volume must be a non-negative int"):
            reclear(book, "B", q)

    @pytest.mark.parametrize("reclear", [inject_and_reclear, cancel_market_and_reclear])
    @pytest.mark.parametrize("side", ["b", "X", None])
    def test_a_side_other_than_b_or_s_is_refused(self, reclear, side):
        # a bad side used to re-clear the untouched book: 10.0 where "B" gives 10.5
        book = make_book(buys=[(10.0, 50)], sells=[(10.0, 50), (10.5, 50)])
        assert inject_and_reclear(book, "B", 100) == pytest.approx(10.5)
        with pytest.raises(ValueError, match="side must be 'B' or 'S'"):
            reclear(book, side, 0)

    @pytest.mark.parametrize("side", ["b", "X", None])
    def test_a_walk_or_fit_on_a_side_other_than_b_or_s_is_refused(self, side):
        # unguarded, the walk goes down, as for "S", on any side but "B"
        book = make_book(buys=[(10.0, 50), (9.9, 20)], sells=[(10.0, 50), (10.1, 20)])
        for call in (lambda: book.levels_past(0, side, 1.0),
                     lambda: impact_curve(book, clear(book), side),
                     lambda: fit_regime(book, side)):
            with pytest.raises(ValueError, match="side must be 'B' or 'S'"):
                call()


class TestOracleEquivalence:
    """The breakpoint walk against brute-force re-clearing, share by share."""

    @pytest.mark.parametrize("seed", range(40))
    def test_dense_books_exact(self, seed):
        spec = dense_random_book(seed + 5000)
        book = spec_to_book(spec)
        c = clear(book)
        for side in "BS":
            curve = impact_curve(book, c, side, max_x=0.02)
            qs = np.arange(0, max(curve.cap_num, 1))
            oracle = naive_inject_prices(spec, side, qs)
            bps = {bp.omega_num for bp in curve.breakpoints}
            for q, k_oracle in zip(qs, oracle):
                mine = curve.price_index_at_shares(int(q))
                if mine != k_oracle:
                    assert int(q) in bps, (
                        f"interior mismatch at q={q}: curve {mine} oracle {k_oracle}"
                    )

    def test_monotone_right_continuous(self):
        spec = dense_random_book(77)
        book = spec_to_book(spec)
        c = clear(book)
        for side in "BS":
            curve = impact_curve(book, c, side, max_x=0.02)
            values = [curve.impact_at_shares(q) for q in range(curve.cap_num)]
            assert values == sorted(values)
            # right continuity: the value at a breakpoint equals the value just after
            for bp in curve.breakpoints:
                if bp.omega_num + 1 < curve.cap_num:
                    assert curve.impact_at_shares(bp.omega_num) == curve.impact_at_shares(
                        bp.omega_num
                    )
                    w = Fraction(bp.omega_num, curve.q_a)
                    assert impact_at(curve, w) == bp.impact

    def test_simultaneous_zero_impact_unless_single_share(self):
        for seed in range(60):
            spec = dense_random_book(seed + 900)
            book = spec_to_book(spec)
            c = clear(book)
            cb = impact_curve(book, c, "B")
            cs = impact_curve(book, c, "S")
            vb_at, vs_at = book.volume_at(c.price_index)
            if vb_at > 1 and vs_at > 1:
                assert cb.omega0 > Fraction(1, c.q_a) or cs.omega0 > Fraction(1, c.q_a)


class TestScalars:
    def test_theoretical_slope(self):
        assert theoretical_slope(50.0, 2.0) == pytest.approx(0.01)
        with pytest.raises(ZeroLiquidity):
            theoretical_slope(50.0, 0.0)
        with pytest.raises(ValueError):
            theoretical_slope(-1.0, 2.0)

    def test_slope_algebraic_identity(self):
        # with window liquidity 1/(p_a * delta), the slope is delta * p_a / p_first
        p_a, p_first, delta = 48.0, 48.01, 0.004
        l_tilde = 1.0 / (p_a * delta)
        assert theoretical_slope(p_first, l_tilde) == pytest.approx(
            delta * p_a / p_first
        )

    def test_post_clearing_linear_limit(self):
        assert post_clearing_impact(2.0, 0.0, 1.0) == pytest.approx(0.5)

    def test_post_clearing_sqrt_limit(self):
        assert post_clearing_impact(0.0, 2.0, 2.0) == pytest.approx(math.sqrt(2.0))

    def test_post_clearing_general_root(self):
        x = post_clearing_impact(1.0, 2.0, 4.0)
        assert x == pytest.approx((-1 + math.sqrt(17)) / 2)
        # root actually solves the quadratic
        assert 2.0 / 2 * x * x + 1.0 * x - 4.0 == pytest.approx(0.0, abs=1e-12)

    def test_post_clearing_no_positive_root(self):
        with pytest.raises(NoPositiveRoot):
            post_clearing_impact(1.0, -3.0, 1.0)
        with pytest.raises(NoPositiveRoot):
            post_clearing_impact(0.0, 0.0, 1.0)

    def test_cash_volume_examples(self):
        assert cash_volume(0.2745, 2_246_617, 48.00) == pytest.approx(29.6e6, abs=0.05e6)
        # the published sell-side figure truncates 10.363M to "10.3 million";
        # freeze the exact product here, the display-level check lives in the
        # acceptance suite
        assert cash_volume(0.0961, 2_246_617, 48.00) == pytest.approx(10_363_194.8976)
        assert cash_volume(0.0, 100, 10.0) == 0.0

    def test_cash_volume_validation(self):
        with pytest.raises(ValueError):
            cash_volume(0.1, 0, 10.0)
        with pytest.raises(ValueError):
            cash_volume(-0.1, 10, 10.0)

    @pytest.mark.parametrize("call, args", [
        (theoretical_slope, (math.nan, 1.0)),
        (theoretical_slope, (1.0, math.nan)),
        (post_clearing_impact, (1.0, 1.0, math.nan)),
        (post_clearing_impact, (math.nan, 1.0, 1.0)),
        (cash_volume, (math.nan, 5, 10.0)),
        (cash_volume, (1.0, 5, math.nan)),
    ])
    def test_a_nan_argument_is_refused(self, call, args):
        # NaN passes a guard written x <= 0 or x < 0 and comes back as the result
        with pytest.raises((ValueError, ZeroLiquidity)):
            call(*args)


def test_curve_csv_round_trip_columns(worked_book):
    c = clear(worked_book)
    cb = impact_curve(worked_book, c, "B")
    lines = cb.to_csv().strip().split("\n")
    assert lines[0] == "side,i,omega_num,omega_den,price,impact_log"
    first = lines[1].split(",")
    assert first[0] == "B" and first[1] == "0"
    assert int(first[2]) == 70 and int(first[3]) == 60


def pinned_books():
    """Hand-built books whose market volume on one side exceeds the whole opposite side."""
    ladder = [(10.0 + 0.1 * k, 10) for k in range(-12, 13)]
    return [
        make_book(buys=ladder, sells=[(10.0, 100)], buy_market=500),
        make_book(buys=[(10.0, 100)], sells=ladder, sell_market=500),
        make_book(buys=ladder, sells=ladder, buy_market=5_000),
        make_book(buys=ladder, sells=ladder, sell_market=5_000),
    ]


def test_pinned_side_is_read_off_the_book():
    """A side is pinned exactly when the clearing leaves its market volume
    unfilled.  Its price then never moves under injection, and nothing rests
    past it (more supply above a buy-pinned price would clear more volume;
    more demand would lose the imbalance tie-break), so a regime fit there
    has no samples."""
    books = pinned_books() + [spec_to_book(make(seed)) for seed in range(300)
                              for make in (random_book, dense_random_book)]
    pinned = []
    for book in books:
        c = clear(book)
        for side, unfilled in (("B", c.market_buy_unfilled), ("S", c.market_sell_unfilled)):
            curve = impact_curve(book, c, side, max_x=1.0)
            assert curve.pinned == (unfilled > 0)
            if not curve.pinned:
                continue
            pinned.append(side)
            for q in (1, c.q_a, 10 * c.q_a + 7):
                assert inject_and_reclear(book, side, q) == c.p_a
            assert book.levels_past(c.price_index, side, 1.0) == []
            with pytest.raises(TooFewPoints):
                fit_regime(book, side, max_x=1.0, min_points=2)
    assert pinned.count("B") >= 2 and pinned.count("S") >= 2
