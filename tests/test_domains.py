"""One domain rule for the package's public numbers.

Every public callable in ``uncross.__all__`` that takes a number refuses NaN,
+inf, -inf, a negative value and a float given for an int, with a package
error, ``ValueError`` or ``TypeError``.  The values accepted on purpose are
in ``ACCEPTED``, each with its reason, and must give an answer that holds no
NaN.  A parameter is a number when its annotation names ``int`` or ``float``,
alone or as a sequence's element; a sequence is swept with the value as one of
its elements.  ``NOT_SWEPT`` names the result records and the one parameter
that the sweep leaves out, each with its reason.
"""
import dataclasses
import inspect
import math
import re

import pytest

import uncross
from uncross import (
    AuctionBook,
    FlowConfig,
    OrderEvent,
    PriceGrid,
    clear,
    impact_curve,
)
from uncross.errors import UncrossError
from uncross.stats import DayMetrics

from conftest import make_book

BOOK = make_book(buys=[(10.0 - 0.1 * k, 10) for k in range(8)],
                 sells=[(10.0 + 0.1 * k, 10) for k in range(8)], buy_market=3, sell_market=3)
GRID = BOOK.grid
CURVE = impact_curve(BOOK, clear(BOOK), "B", max_x=0.05)
# alternating buys and sells at one price: the book crosses from the second event on
EVENTS = [OrderEvent(t, f"o{t}", "SUBMIT", "BS"[t % 2], "LIMIT", 10.0, 5) for t in range(1, 10)]
XS = [0.001 * i for i in range(1, 7)]


def _event(**fields):
    base = dict(timestamp=1, order_id="o", action="SUBMIT", side="B", order_type="LIMIT",
                price=10.0, quantity=5)
    return AuctionBook(GRID).apply(OrderEvent(**{**base, **fields}))


# (callable, parameter) -> (a value it takes, a call of it with the value swept)
SWEPT = {
    ("PriceGrid", "tick_size"): (0.1, lambda v: PriceGrid(v, 10.0, 10.0)),
    ("PriceGrid", "anchor"): (10.0, lambda v: PriceGrid(0.1, v, 10.0)),
    ("PriceGrid", "reference_price"): (10.0, lambda v: PriceGrid(0.1, 10.0, v)),
    ("OrderEvent", "timestamp"): (1, lambda v: _event(timestamp=v)),
    ("OrderEvent", "price"): (10.0, lambda v: _event(price=v)),
    ("OrderEvent", "quantity"): (5, lambda v: _event(quantity=v)),
    ("cancel_market_and_reclear", "q"):
        (1, lambda v: uncross.cancel_market_and_reclear(BOOK, "B", v)),
    ("inject_and_reclear", "q"): (5, lambda v: uncross.inject_and_reclear(BOOK, "B", v)),
    ("cash_volume", "omega"): (0.1, lambda v: uncross.cash_volume(v, 5, 10.0)),
    ("cash_volume", "q_a"): (5, lambda v: uncross.cash_volume(0.1, v, 10.0)),
    ("cash_volume", "p_a"): (10.0, lambda v: uncross.cash_volume(0.1, 5, v)),
    ("changepoint", "xs"): (XS[0], lambda v: uncross.changepoint([v, *XS[1:]], [1.0] * 6, 2)),
    ("changepoint", "rhos"): (1.0, lambda v: uncross.changepoint(XS, [v] + [1.0] * 5, 2)),
    ("changepoint", "min_points"): (2, lambda v: uncross.changepoint(XS, [1.0] * 6, v)),
    ("collect_marketable", "warmup_us"):
        (0, lambda v: uncross.collect_marketable(EVENTS, GRID, v)),
    ("response_curves", "bins"):
        (0.001, lambda v: uncross.response_curves(EVENTS, GRID, [v, 0.01, 0.1], 0)),
    ("response_curves", "warmup_us"):
        (0, lambda v: uncross.response_curves(EVENTS, GRID, warmup_us=v)),
    ("day_profile", "dx"): (1e-4, lambda v: uncross.day_profile(BOOK, v)),
    ("empirical_slope", "omega_lo"): (0.0, lambda v: uncross.empirical_slope(CURVE, v, 100.0)),
    ("empirical_slope", "omega_hi"): (100.0, lambda v: uncross.empirical_slope(CURVE, 0.0, v)),
    ("fit_regime", "max_x"): (0.05, lambda v: uncross.fit_regime(BOOK, "B", v, 2)),
    ("fit_regime", "min_points"): (2, lambda v: uncross.fit_regime(BOOK, "B", 0.05, v)),
    ("impact_curve", "max_x"): (0.05, lambda v: impact_curve(BOOK, clear(BOOK), "B", v)),
    ("indicative_series", "interval_us"): (1, lambda v: uncross.indicative_series(EVENTS, GRID, v)),
    ("post_clearing_impact", "a1"): (1.0, lambda v: uncross.post_clearing_impact(v, 1.0, 0.1)),
    ("post_clearing_impact", "b1"): (1.0, lambda v: uncross.post_clearing_impact(1.0, v, 0.1)),
    ("post_clearing_impact", "q"): (0.1, lambda v: uncross.post_clearing_impact(1.0, 1.0, v)),
    ("theoretical_slope", "p_first"): (10.0, lambda v: uncross.theoretical_slope(v, 1.0)),
    ("theoretical_slope", "l_tilde"): (1.0, lambda v: uncross.theoretical_slope(10.0, v)),
    ("zero_impact_probability", "threshold"): (0.01, lambda v: uncross.zero_impact_probability(
        [DayMetrics("2017-05-01", "B", 10.0, 100, 0.5)], v)),
    ("ks_two_sample", "x"): (0.0, lambda v: uncross.ks_two_sample([v, 1.0], [2.0, 3.0])),
    ("ks_two_sample", "y"): (0.0, lambda v: uncross.ks_two_sample([2.0, 3.0], [v, 1.0])),
    ("spearman", "x"): (0.0, lambda v: uncross.spearman([v, 1.0, 2.0, 3.0], [1.0, 2.0, 4.0, 3.0])),
    ("spearman", "y"): (0.0, lambda v: uncross.spearman([1.0, 2.0, 4.0, 3.0], [v, 1.0, 2.0, 3.0])),
    ("kde_csv", "values"): (0.0, lambda v: uncross.kde_csv([v, 1.0, 2.0, 3.0])),
    ("rcdf_csv", "values"): (0.0, lambda v: uncross.rcdf_csv([v, 1.0, 2.0, 3.0])),
}
for _field in dataclasses.fields(FlowConfig):
    if _field.type in ("int", "float"):
        SWEPT["FlowConfig", _field.name] = (
            _field.default, lambda v, name=_field.name: FlowConfig(**{name: v}))

SAMPLES = "samples of any sign: a statistic needs its values finite, not positive"
WINDOW = "a bound of the window (omega_lo, omega_hi] over the jump volumes, which are all >= 0"
WARMUP = "the CLI's --warmup takes any finite number; one below 0 measures from the first event on"
WHOLE_BOOK = "walk the whole book; the answer is finite"
# (callable, parameter, kind of value) -> why the value is taken
ACCEPTED = {
    ("PriceGrid", "anchor", "negative"): "an anchor of any sign only names the price of tick 0",
    ("OrderEvent", "timestamp", "negative"):
        "timestamps need only be in order, and a log's may be negative too",
    ("FlowConfig", "decay", "negative"): "a density that rises past the plateau",
    ("collect_marketable", "warmup_us", "negative"): WARMUP,
    ("response_curves", "warmup_us", "negative"): WARMUP,
    ("empirical_slope", "omega_lo", "negative"): WINDOW,
    ("empirical_slope", "omega_lo", "-inf"): WINDOW,
    ("empirical_slope", "omega_hi", "inf"): WINDOW,
    ("fit_regime", "max_x", "inf"): WHOLE_BOOK,
    ("impact_curve", "max_x", "inf"): WHOLE_BOOK,
    ("post_clearing_impact", "b1", "negative"): (
        "a density that thins away from the price; without a positive root the call "
        "raises NoPositiveRoot"),
    ("changepoint", "xs", "negative"): "abscissae of any sign: the fit needs them finite",
    ("response_curves", "bins", "negative"): (
        "edges are compared with each record's omega, which is positive, so an edge "
        "below 0 only widens the first bin"),
    ("ks_two_sample", "x", "negative"): SAMPLES,
    ("ks_two_sample", "y", "negative"): SAMPLES,
    ("spearman", "x", "negative"): SAMPLES,
    ("spearman", "y", "negative"): SAMPLES,
    ("kde_csv", "values", "negative"): SAMPLES,
    ("rcdf_csv", "values", "negative"): SAMPLES,
}
# a callable, or a (callable, parameter), that the sweep leaves out -> why
NOT_SWEPT = {
    "ClearingResult": "the record clear() returns; impact_curve checks it against the book",
    "DayMetrics": "a metrics row: a fit fills it, and read_day_metrics checks each cell it reads",
    "DensityProfile": "the profile day_profile() returns",
    "ImpactCurve": "the curve impact_curve() returns; its lookups check their own volume",
    "IndicativePoint": "a point indicative_series() returns",
    "MarketableEvent": "a record collect_marketable() returns",
    "OrderRecord": "a live order as the book stores it, built from a checked event",
    "RegimeFit": "the fit fit_regime() returns",
    "ResponseCurve": "the curve response_curves() returns",
    ("OrderEvent", "line"): "the log line an error names, which read_events sets",
}


def _kind(annotation: str) -> str | None:
    """``"int"`` or ``"float"`` for a number's annotation, else None."""
    if re.fullmatch(r"int( \| None)?", annotation):
        return "int"
    return "float" if re.search(r"\bfloat\b", annotation) else None


def _numeric_params(obj) -> dict[str, str]:
    hints = {}  # a NamedTuple's signature carries no annotations: read its classes'
    for cls in reversed(getattr(obj, "__mro__", ())):
        hints.update(vars(cls).get("__annotations__") or {})
    params = {}
    for name, p in inspect.signature(obj).parameters.items():
        annotation = p.annotation if p.annotation is not p.empty else hints.get(name, "")
        kind = _kind(str(getattr(annotation, "__forward_arg__", annotation)))
        if kind:
            params[name] = kind
    return params


def _bad_values(kind: str) -> dict[str, object]:
    values = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
              "negative": -1 if kind == "int" else -1.0}
    if kind == "int":
        values.update({"whole float": 2.0, "fractional float": 2.5})
    return values


def _kind_of(name: str, param: str) -> str:
    return _numeric_params(getattr(uncross, name))[param]


CASES = [(name, param, label) for name, param in SWEPT
         for label in _bad_values(_kind_of(name, param))]


def _floats(obj):
    """Every float inside a result: dataclass fields, sequences and dict values."""
    if isinstance(obj, float):
        yield obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _floats(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _floats(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _floats(item)


def test_every_public_number_is_swept_or_left_out_with_a_reason():
    found = {(name, param) for name in uncross.__all__ if name not in NOT_SWEPT
             for param in _numeric_params(getattr(uncross, name))
             if (name, param) not in NOT_SWEPT}
    assert found == set(SWEPT)
    assert {k if isinstance(k, str) else k[0] for k in NOT_SWEPT} <= set(uncross.__all__)
    assert set(ACCEPTED) <= set(CASES)


@pytest.mark.parametrize("name, param", SWEPT)
def test_each_swept_call_takes_its_valid_value(name, param):
    valid, call = SWEPT[name, param]
    call(valid)


@pytest.mark.parametrize("name, param, label", CASES)
def test_a_number_outside_its_domain_is_refused(name, param, label):
    _, call = SWEPT[name, param]
    value = _bad_values(_kind_of(name, param))[label]
    if (name, param, label) in ACCEPTED:
        result = call(value)
        assert not any(math.isnan(x) for x in _floats(result)), result
        assert not isinstance(result, str) or "nan" not in result, result
    else:
        with pytest.raises((UncrossError, ValueError, TypeError)):
            call(value)
