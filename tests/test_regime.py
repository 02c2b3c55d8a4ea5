import math
import random

import numpy as np
import pytest

from uncross.clearing import clear, uncross_values
from uncross.errors import NonPositiveDensity, TooFewPoints
from uncross.impact import impact_curve, theoretical_slope
from uncross.regime import _omega_max, changepoint, empirical_slope, fit_regime, fits_to_csv

from conftest import make_book
from oracles import (
    dense_random_book,
    naive_changepoint,
    random_book,
    regime_csv_row,
    spec_to_book,
)


def brute_force_cost(xs, rhos, j):
    """Literal evaluation of the two-part cost at cut index j (sorted input)."""
    xs = np.asarray(xs, dtype=float)
    logs = np.log(np.asarray(rhos, dtype=float))
    left = logs[: j + 1]
    cost = float(np.sum((left - left.mean()) ** 2))
    xt, lt = xs[j + 1 :], logs[j + 1 :]
    if len(xt) >= 2:
        slope, intercept = np.polyfit(xt, lt, 1)
        cost += float(np.sum((lt - slope * xt - intercept) ** 2))
    return cost


def piecewise_profile(n=200, dx=1e-4, cut=60, level=1000.0, decay=400.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    xs = np.arange(1, n + 1) * dx
    rhos = np.where(xs <= cut * dx, level, level * np.exp(-decay * (xs - cut * dx)))
    if noise:
        rhos = rhos * np.exp(noise * rng.standard_normal(n))
    return xs.tolist(), rhos.tolist()


class TestChangepoint:
    def test_constant_everywhere_gives_widest_window(self):
        xs = [k * 1e-4 for k in range(1, 51)]
        rhos = [7.5] * 50
        fit = changepoint(xs, rhos, min_points=2)
        assert fit.delta == pytest.approx(xs[-1])
        assert fit.l_tilde == pytest.approx(7.5)

    def test_exact_recovery_zero_noise(self):
        xs, rhos = piecewise_profile(noise=0.0)
        fit = changepoint(xs, rhos)
        assert fit.delta == pytest.approx(60 * 1e-4)
        assert fit.l_tilde == pytest.approx(1000.0)

    def test_matches_brute_force_argmin(self):
        xs, rhos = piecewise_profile(noise=0.01, seed=11)
        fit = changepoint(xs, rhos)
        costs = [brute_force_cost(xs, rhos, j) for j in range(len(xs))]
        j_best = int(np.argmin(costs))
        assert fit.delta == pytest.approx(xs[j_best])
        assert fit.cost == pytest.approx(costs[j_best], rel=1e-9)

    def test_noisy_recovery_rate(self):
        hits = 0
        l_ok = 0
        trials = 100
        for seed in range(trials):
            xs, rhos = piecewise_profile(noise=0.01, seed=seed)
            fit = changepoint(xs, rhos)
            if abs(fit.delta - 60e-4) <= 1e-4 + 1e-12:
                hits += 1
            if abs(fit.l_tilde - 1000.0) / 1000.0 < 0.02:
                l_ok += 1
        assert hits >= 95
        assert l_ok >= 98

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            changepoint([1e-4] * 5, [1.0] * 5)  # default threshold is 20
        with pytest.raises(TooFewPoints):
            changepoint([1e-4], [1.0], min_points=2)

    @pytest.mark.parametrize("min_points", [1, 0, -5, math.nan, 2.5, True])
    def test_min_points_that_is_not_an_int_of_at_least_2_is_refused(self, min_points):
        # ``max(2, min_points)`` used to run these with 2
        xs, rhos = [1e-4 * k for k in range(1, 31)], [1.0] * 30
        book = make_book(buys=[(10.0, 50), (9.9, 20), (9.8, 20)],
                         sells=[(10.0, 50), (10.1, 20), (10.2, 20)])
        for call in (lambda: changepoint(xs, rhos, min_points=min_points),
                     lambda: fit_regime(book, "B", min_points=min_points)):
            with pytest.raises(ValueError, match="min_points must be an int of at least 2"):
                call()

    def test_non_positive_density(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(NonPositiveDensity, match="positive and finite"):
                changepoint([1e-4, 2e-4, 3e-4], [1.0, bad, 2.0], min_points=2)

    def test_unequal_lengths(self):
        with pytest.raises(ValueError, match="xs and rhos must have equal length"):
            changepoint([1e-4, 2e-4, 3e-4], [1.0, 2.0], min_points=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_abscissa(self, bad):
        with pytest.raises(ValueError, match="abscissae must be finite"):
            changepoint([1e-4, bad, 3e-4], [1.0, 1.5, 2.0], min_points=2)

    def test_scale_invariance_in_volume(self):
        # multiplying every density by a constant shifts logs, not the cut
        xs, rhos = piecewise_profile(noise=0.01, seed=5)
        fit1 = changepoint(xs, rhos)
        fit2 = changepoint(xs, [7 * r for r in rhos])
        assert fit1.delta == fit2.delta
        assert fit2.l_tilde == pytest.approx(7 * fit1.l_tilde)


def _changepoint_inputs(kind, seed):
    """One (xs, rhos) input of a kind, 2 to 120 samples, xs not sorted."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 121))
    xs = rng.uniform(1e-4, 2e-2, n)
    level = 10 ** rng.uniform(-3, 4)
    if kind == "random":
        rhos = level * np.exp(rng.normal(0.0, rng.uniform(0.01, 2.0), n))
    elif kind == "flat":
        rhos = np.full(n, level)
    elif kind == "two_valued":
        rhos = rng.choice([level, level * rng.uniform(1.01, 50.0)], n)
    elif kind == "outlier":
        rhos = np.full(n, level)
        rhos[rng.integers(n)] *= rng.choice([1e-3, 0.5, 2.0, 1e3])
    elif kind == "repeated_x":
        # few distinct abscissae, so most cuts split a run of equal x
        xs = rng.integers(1, max(2, n // 4) + 1, n) * 1e-4
        rhos = level * np.exp(rng.normal(0.0, 0.5, n))
    elif kind == "equal_tail":
        # a sloped run, then the last few samples all on one abscissa
        k = int(rng.integers(2, n + 1))
        xs = np.sort(xs)
        xs[n - k:] = xs[-1]
        rhos = level * np.exp(-400.0 * xs + rng.normal(0.0, 0.05, n))
    else:
        cut = int(rng.integers(1, 200))
        noise = float(rng.choice([0.0, 0.01, 0.1]))
        return piecewise_profile(cut=cut, noise=noise, seed=seed)
    order = rng.permutation(n)
    return xs[order].tolist(), rhos[order].tolist()


@pytest.mark.parametrize(
    "kind", ["random", "flat", "two_valued", "outlier", "repeated_x", "equal_tail", "piecewise"]
)
def test_changepoint_matches_refit_at_every_cut(kind):
    """The running-sum costs pick the window the per-cut refit picks.

    Where the chosen cost is zero (an exact fit) the running sums leave
    rounding of the order of eps times the sums' scale, sum(log(rho)^2), hence
    the absolute floor on the cost comparison.
    """
    for seed in range(150):
        xs, rhos = _changepoint_inputs(kind, seed)
        fit = changepoint(xs, rhos, min_points=2)
        delta, l_tilde, n_points, n_window, cost = naive_changepoint(xs, rhos)
        assert (fit.delta, fit.l_tilde, fit.n_points, fit.n_window) == (
            delta, l_tilde, n_points, n_window), (kind, seed)
        floor = 1e-12 * max(1.0, float(np.sum(np.log(rhos) ** 2)))
        assert fit.cost == pytest.approx(cost, rel=1e-9, abs=floor), (kind, seed)


def constant_density_book(n_levels=25, v=40, peak=400, tick=0.1):
    buys = [(10.0, peak)] + [(10.0 - tick * k, v) for k in range(1, n_levels + 1)]
    sells = [(10.0, peak)] + [(10.0 + tick * k, v) for k in range(1, n_levels + 1)]
    return make_book(tick=tick, buys=buys, sells=sells)


class TestOmegaMax:
    def test_empty_window_returns_omega0(self):
        book = constant_density_book()
        c = clear(book)
        curve = impact_curve(book, c, "B", max_x=0.3)
        # a window narrower than the first tick adds nothing
        w = _omega_max(curve, book.levels_past(c.price_index, "B", 1e-6), 1e-6)
        assert w == pytest.approx(float(curve.omega0))

    def test_counts_window_ticks(self):
        book = constant_density_book(n_levels=25, v=40, peak=400)
        c = clear(book)
        curve = impact_curve(book, c, "B", max_x=0.3)
        # window wide enough for exactly 5 ticks above the price
        delta = abs(math.log((10.0 + 0.5) / 10.0))
        w = _omega_max(curve, book.levels_past(c.price_index, "B", delta), delta)
        assert w == pytest.approx(float(curve.omega0) + 5 * 40 / c.q_a)

    def test_never_below_omega0(self):
        book = constant_density_book()
        c = clear(book)
        for side in "BS":
            curve = impact_curve(book, c, side, max_x=0.3)
            walk = book.levels_past(c.price_index, side, 0.01)
            assert _omega_max(curve, walk, 0.01) >= float(curve.omega0)

    def test_batch_threshold_fraction_matches_stats_recount(self):
        """P[omega_max > 1/2] over a batch agrees with the stats module's
        threshold counting applied to the same values."""
        from uncross.stats import DayMetrics, zero_impact_probability

        values = []
        for k, (v, peak) in enumerate([(40, 400), (40, 40), (80, 100), (20, 900)]):
            book = constant_density_book(n_levels=20, v=v, peak=peak)
            c = clear(book)
            for side in "BS":
                curve = impact_curve(book, c, side, max_x=0.3)
                values.append(_omega_max(curve, book.levels_past(c.price_index, side, 0.05),
                                         0.05))
        manual = sum(1 for w in values if w >= 0.5) / len(values)
        rows = [
            DayMetrics(date=str(i), side="B", p_a=10.0, q_a=100, omega0=w)
            for i, w in enumerate(values)
        ]
        assert zero_impact_probability(rows, 0.5) == manual


class TestEmpiricalSlope:
    def test_two_point_line(self):
        book = constant_density_book()
        c = clear(book)
        curve = impact_curve(book, c, "B", max_x=0.05)
        bps = curve.breakpoints
        assert len(bps) >= 2
        w0 = bps[0].omega_num / c.q_a
        w1 = bps[1].omega_num / c.q_a
        slope, n = empirical_slope(curve, 0.0, w1)  # (0, w1]: the first two jumps
        assert n == 2
        expect = (bps[1].impact - bps[0].impact) / (w1 - w0)
        assert slope == pytest.approx(expect)

    def test_too_few_points(self):
        book = constant_density_book()
        c = clear(book)
        curve = impact_curve(book, c, "B", max_x=0.05)
        with pytest.raises(TooFewPoints):
            empirical_slope(curve, 1e9, 2e9)
        with pytest.raises(TooFewPoints):  # an empty window, which fit_regime can give
            empirical_slope(curve, 1.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(math.nan, 100.0), (0.0, math.nan), (2.0, 1.0)])
    def test_a_nan_or_reversed_window_is_refused(self, lo, hi):
        book = constant_density_book()
        curve = impact_curve(book, clear(book), "B", max_x=0.05)
        with pytest.raises(ValueError, match="need omega_lo <= omega_hi, got"):
            empirical_slope(curve, lo, hi)

    def test_matches_theoretical_within_1pct_on_1pct_window(self):
        # 1 bp ticks on a 100.0 book, window of 100 ticks = 1%
        v, peak, tick = 50, 1000, 0.01
        buys = [(100.0, peak)] + [(100.0 - tick * k, v) for k in range(1, 120)]
        sells = [(100.0, peak)] + [(100.0 + tick * k, v) for k in range(1, 120)]
        book = make_book(tick=tick, anchor=100.0, ref=100.0, buys=buys, sells=sells)
        c = clear(book)
        curve = impact_curve(book, c, "B", max_x=0.01)
        slope, n = empirical_slope(curve, float(curve.omega0), 1e9)
        l_tilde = v / (c.q_a * tick)
        p_first = 100.0 + tick
        theo = theoretical_slope(p_first, l_tilde)
        assert n > 50
        assert abs(slope - theo) / theo < 0.01

    def test_prop_realized_to_1e6_on_tiny_ticks(self):
        # relative tick of 2e-7 makes the log/linear curvature negligible
        tick, p0, v, peak = 1e-5, 50.0, 500, 10_000
        buys = [(p0, peak)] + [(p0 - tick * k, v) for k in range(1, 8)]
        sells = [(p0, peak)] + [(p0 + tick * k, v) for k in range(1, 8)]
        book = make_book(tick=tick, anchor=p0, ref=p0, buys=buys, sells=sells)
        c = clear(book)
        for side in "BS":
            curve = impact_curve(book, c, side, max_x=0.02)
            bps = curve.breakpoints
            w0 = bps[0].omega_num / c.q_a
            w2 = bps[2].omega_num / c.q_a
            slope, _ = empirical_slope(curve, w0, w2)  # (w0, w2]: jumps 1 and 2
            p_first = book.grid.price_at(bps[0].target_index)
            theo = theoretical_slope(p_first, v / (c.q_a * tick))
            assert abs(slope - theo) / theo < 1e-6


class TestFitRegime:
    def test_constant_book_pipeline(self):
        book = constant_density_book(n_levels=40, v=60, peak=600, tick=0.01)
        c = clear(book)
        fit = fit_regime(book, "B", max_x=0.03, min_points=10)
        assert fit.omega0 == float(impact_curve(book, c, "B", max_x=0.03).omega0)
        # exactly constant density: the window extends to the truncation
        assert fit.n_points >= 10
        assert fit.l_tilde == pytest.approx(60 / (c.q_a * 0.01))
        assert fit.beta_emp is not None
        assert fit.beta_emp == pytest.approx(fit.beta_theo, rel=0.02)

    def test_scale_covariance(self):
        # doubling every volume leaves delta, l_tilde and slopes unchanged
        def build(mult):
            v, peak = 60 * mult, 600 * mult
            buys = [(10.0, peak)] + [(10.0 - 0.01 * k, v) for k in range(1, 41)]
            sells = [(10.0, peak)] + [(10.0 + 0.01 * k, v) for k in range(1, 41)]
            return make_book(tick=0.01, buys=buys, sells=sells)

        fits = []
        for mult in (1, 3):
            book = build(mult)
            fits.append(fit_regime(book, "B", max_x=0.03, min_points=10))
        assert fits[0].delta == pytest.approx(fits[1].delta)
        assert fits[0].l_tilde == pytest.approx(fits[1].l_tilde)
        assert fits[0].beta_theo == pytest.approx(fits[1].beta_theo)
        assert fits[0].beta_emp == pytest.approx(fits[1].beta_emp)

    def test_csv_row_format(self):
        book = constant_density_book(n_levels=40, v=60, peak=600, tick=0.01)
        fit = fit_regime(book, "S", max_x=0.03, min_points=10)
        row = regime_csv_row(fit, "2017-05-05")
        fields = row.split(",")
        assert fields[0] == "2017-05-05" and fields[1] == "S"
        assert len(fields) == 8

    @pytest.mark.parametrize("label", ["x,y", 'x"y', "x\ry", "x\ny"])
    def test_csv_row_refuses_a_label_that_breaks_the_row(self, label):
        book = constant_density_book(n_levels=40, v=60, peak=600, tick=0.01)
        fit = fit_regime(book, "S", max_x=0.03, min_points=10)
        with pytest.raises(ValueError, match="holds a comma, quote or line break"):
            regime_csv_row(fit, label)
        with pytest.raises(ValueError, match="holds a comma, quote or line break"):
            fits_to_csv([(label, fit)])

    def test_two_samples_always_give_a_jump(self):
        """``p_first`` needs a jump on the impact curve.  Wherever the walk has the
        two samples the change point needs, the fit finds one (the second tick's
        threshold is never negative); with fewer, the change point raises."""
        fits = 0
        for seed in range(250):
            for make in (random_book, dense_random_book):
                book = spec_to_book(make(seed))
                k_a = uncross_values(book)[0]
                for side in "BS":
                    for max_x in (0.02, 0.005, 1.0):
                        inside = [k for k, x, _ in book.levels_past(k_a, side, max_x)
                                  if x <= max_x]
                        if len(inside) < 2:
                            with pytest.raises(TooFewPoints):
                                fit_regime(book, side, max_x=max_x, min_points=2)
                            continue
                        fit = fit_regime(book, side, max_x=max_x, min_points=2)
                        assert book.grid.index_of(fit.p_first) in inside
                        fits += 1
        assert fits > 1000

    def test_fit_carries_the_clearing_price_and_volume(self):
        """The p_a and q_a a fit reports, which its metrics row carries, are
        those of ``clear`` on the same book, on both sides."""
        fits = 0
        for seed in range(300):
            for make in (random_book, dense_random_book):
                book = spec_to_book(make(seed))
                c = clear(book)
                for side in "BS":
                    try:
                        fit = fit_regime(book, side, max_x=1.0, min_points=2)
                    except TooFewPoints:
                        continue
                    assert (fit.p_a, fit.q_a) == (c.p_a, c.q_a)
                    row = fit.metrics("d")
                    assert (row.side, row.p_a, row.q_a, row.omega0) == \
                        (side, c.p_a, c.q_a, fit.omega0)
                    fits += 1
        assert fits > 1000
