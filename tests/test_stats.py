import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from uncross.errors import (
    DegenerateSample,
    EmptyBatch,
    EmptySample,
    LengthMismatch,
    TooFewPoints,
)
from uncross.stats import (
    DayMetrics,
    _midranks,
    batch_report,
    day_metrics_to_csv,
    kernel_density,
    ks_two_sample,
    rcdf,
    read_day_metrics,
    spearman,
    t_tail,
    zero_impact_probability,
)

from oracles import naive_rcdf


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]).rho == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]).rho == pytest.approx(-1.0)

    def test_hand_example(self):
        assert spearman([1, 2, 3, 4], [2, 1, 4, 3]).rho == pytest.approx(0.6)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = rng.integers(0, 6, size=30).astype(float)
            y = rng.integers(0, 6, size=30).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            ours = spearman(x, y)
            ref = scipy.stats.spearmanr(x, y)
            assert ours.rho == pytest.approx(ref.statistic, abs=1e-12)
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6, abs=1e-12)

    @given(st.lists(st.integers(-3, 3) | st.floats(-1e6, 1e6), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_midranks_equal_scipy_average_ranks(self, values):
        # small integers make ties likely; the values arrive unsorted
        assert _midranks(values).tolist() == scipy.stats.rankdata(values).tolist()

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            spearman([1, 2, 3], [1, 2])
        with pytest.raises(TooFewPoints):
            spearman([1, 2], [1, 2])
        with pytest.raises(DegenerateSample):
            spearman([1, 1, 1], [1, 2, 3])

    def test_stars(self):
        assert spearman([1, 2, 3, 4], [2, 1, 4, 3]).stars == ""
        strong = spearman(list(range(30)), list(range(30)))
        assert strong.stars == "***"

    @given(
        st.lists(st.floats(-100, 100), min_size=4, max_size=40, unique=True),
        st.sampled_from([lambda v: math.exp(v / 100), lambda v: v**3, lambda v: 2 * v + 5]),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_increasing_transform(self, xs, f):
        from hypothesis import assume

        fx = [f(v) for v in xs]
        assume(len(set(fx)) == len(xs))  # float rounding may merge close values
        ys = list(reversed(xs))
        base = spearman(xs, ys).rho
        assert spearman(fx, ys).rho == pytest.approx(base, abs=1e-9)


T_GRID = np.logspace(-3, 2, 101)


class TestTTail:
    @pytest.mark.parametrize("nu", [1, 2, 3, 5, 10, 30, 100, 1000, 10000])
    def test_matches_scipy(self, nu):
        for t in T_GRID:
            ref = 2.0 * float(scipy.special.stdtr(nu, -t))
            assert t_tail(t, nu) == pytest.approx(ref, rel=1e-9, abs=1e-300)
            assert t_tail(-t, nu) == t_tail(t, nu)

    def test_closed_forms(self):
        for t in T_GRID:
            # 1 - (2/pi) atan|t| and 1 - |t|/sqrt(2+t^2), written without cancellation
            assert t_tail(t, 1) == pytest.approx(2.0 / math.pi * math.atan(1.0 / t), rel=1e-12)
            s = math.sqrt(2.0 + t * t)
            assert t_tail(t, 2) == pytest.approx(2.0 / (s * (s + t)), rel=1e-12)

    def test_is_a_probability(self):
        for nu in (1, 2, 7, 50, 1e6):
            for t in (0.0, 1e-300, 1e-8, *T_GRID, 1e8, 1e150, 1e160, math.inf):
                assert 0.0 <= t_tail(t, nu) <= 1.0
        assert t_tail(0.0, 3) == 1.0
        assert t_tail(1e160, 2) == 0.0 == t_tail(math.inf, 3)  # 2*stdtr(nu, -|t|) in SciPy

    def test_fraction_that_does_not_converge_raises(self, monkeypatch):
        monkeypatch.setattr("uncross.stats._FRACTION_MAX_TERMS", 2)
        with pytest.raises(ArithmeticError, match="did not converge in 2 terms"):
            t_tail(1.5, 1000)


class TestKs:
    def test_identical_samples(self):
        assert ks_two_sample([1, 2, 3], [1, 2, 3]).statistic == 0.0

    def test_disjoint_supports(self):
        assert ks_two_sample([1, 2], [5, 6]).statistic == 1.0

    def test_hand_example_third(self):
        r = ks_two_sample([1, 2, 3], [1.5, 2.5, 3.5])
        assert r.statistic == pytest.approx(1 / 3)

    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = rng.normal(size=40)
            y = rng.normal(0.3, 1.1, size=25)
            ours = ks_two_sample(x, y)
            ref = scipy.stats.ks_2samp(x, y, method="asymp")
            assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            ks_two_sample([], [1.0])

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=30),
        st.lists(st.floats(-100, 100), min_size=2, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_monotone_invariance(self, x, y):
        a = ks_two_sample(x, y)
        b = ks_two_sample(y, x)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-12)
        fx = [math.atan(v) for v in x]
        fy = [math.atan(v) for v in y]
        c = ks_two_sample(fx, fy)
        assert c.statistic == pytest.approx(a.statistic, abs=1e-12)


def _metrics(omega0s):
    return [
        DayMetrics(date=f"d{i}", side="B", p_a=10.0, q_a=100, omega0=w)
        for i, w in enumerate(omega0s)
    ]


class TestZeroImpactProbability:
    def test_all_above(self):
        assert zero_impact_probability(_metrics([0.02] * 5), 0.01) == 1.0

    def test_none_above(self):
        assert zero_impact_probability(_metrics([0.001] * 5), 0.01) == 0.0

    def test_matches_recount(self):
        rng = np.random.default_rng(2)
        rows = _metrics(rng.uniform(0, 0.05, size=200).tolist())
        frac = zero_impact_probability(rows, 0.01)
        assert frac == sum(1 for r in rows if r.omega0 >= 0.01) / 200

    def test_non_increasing_in_threshold(self):
        rng = np.random.default_rng(3)
        rows = _metrics(rng.uniform(0, 0.05, size=100).tolist())
        fracs = [zero_impact_probability(rows, t) for t in (0.001, 0.01, 0.02, 0.04)]
        assert fracs == sorted(fracs, reverse=True)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            zero_impact_probability([], 0.01)
        with pytest.raises(ValueError):
            zero_impact_probability(_metrics([0.1]), 0.0)

    def test_nan_threshold_is_refused(self):
        # ``threshold <= 0`` let NaN through: no omega0 reaches it, and the fraction read 0.0
        for call in (zero_impact_probability, batch_report):
            with pytest.raises(ValueError, match="threshold must be positive, got nan"):
                call(_metrics([0.1]), math.nan)


class TestDistributions:
    def test_rcdf_hand_values(self):
        table = dict(rcdf([1, 2, 3]))
        assert table[2] == pytest.approx(2 / 3)
        assert table[1] == pytest.approx(1.0)

    def test_rcdf_below_min_is_one(self):
        table = rcdf([5, 6, 7])
        assert table[0] == (5.0, 1.0)  # the lowest step covers everything

    @given(st.lists(st.integers(-3, 3) | st.floats(-1e6, 1e6), min_size=2, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_rcdf_equals_the_counting_loop(self, values):
        assert rcdf(values) == naive_rcdf(values)

    def test_rcdf_requires_two(self):
        with pytest.raises(TooFewPoints):
            rcdf([1])

    def test_kernel_density_integrates_to_one(self):
        rng = np.random.default_rng(4)
        values = rng.normal(3.0, 2.0, size=400)
        grid, dens = kernel_density(values)
        integral = np.trapezoid(dens, grid)
        assert abs(integral - 1.0) < 1e-3

    def test_kernel_density_degenerate(self):
        with pytest.raises(DegenerateSample):
            kernel_density([2.0, 2.0, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda v: spearman([v, 1, 2, 3], [1, 2, 3, 4]),
    lambda v: spearman([1, 2, 3, 4], [1, 2, v, 4]),
    lambda v: ks_two_sample([v, 1], [2, 3]),
    lambda v: ks_two_sample([1, 2], [3, v]),
    lambda v: rcdf([v, 1, 2]),
    lambda v: kernel_density([v, 1, 2]),
], ids=["spearman_x", "spearman_y", "ks_x", "ks_y", "rcdf", "kernel_density"])
def test_a_sample_with_a_non_finite_value_is_refused(call, bad):
    """No silent answer: NaN used to give a rank correlation, a KS distance, a
    reverse-CDF row and an all-NaN density."""
    with pytest.raises(ValueError, match="NaN or infinite"):
        call(bad)


def test_day_metrics_csv_round_trip(tmp_path):
    rows = [
        DayMetrics("2017-05-05", "B", 48.0, 2_246_617, 0.2745, 0.004, 2.2, 0.9, 0.0036, 0.0037),
        DayMetrics("2017-05-05", "S", 48.0, 2_246_617, 0.0961),
    ]
    text = day_metrics_to_csv(rows)
    path = tmp_path / "metrics.csv"
    path.write_text(text)
    back = read_day_metrics(path)
    assert back[0].date == "2017-05-05" and back[0].side == "B"
    assert back[0].omega0 == pytest.approx(0.2745)
    assert back[0].l_cash == pytest.approx(48.0 * 2_246_617 * 2.2)
    assert back[1].delta is None and back[1].l_cash is None


@pytest.mark.parametrize("label", ["x,y", 'x"y', "x\ry", "x\ny"])
def test_day_metrics_csv_refuses_a_label_that_breaks_the_row(label):
    # written verbatim, "x,y" gave a 12-field row under the 11-column header
    with pytest.raises(ValueError, match="holds a comma, quote or line break"):
        day_metrics_to_csv([DayMetrics(label, "B", 48.0, 2_246_617, 0.2745)])
