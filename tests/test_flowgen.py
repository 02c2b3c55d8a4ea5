import hashlib
import importlib
import json
import math
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from uncross.book import AuctionBook
from uncross.clearing import clear
from uncross.errors import InfeasibleConfig
from uncross.events import format_event, read_events, write_events
from uncross.flowgen import ACCOUNT_WEIGHTS, LATENCY_WEIGHTS, FlowConfig, generate
from uncross.grid import PriceGrid
from uncross.regime import fit_regime


def small_config(**overrides):
    base = dict(
        seed=1,
        tick_size=0.01,
        fundamental_price=100.0,
        shape="constant",
        total_shares_per_side=30_000,
        buy_peak_mass=0.25,
        sell_peak_mass=0.25,
        n_levels=60,
    )
    base.update(overrides)
    return FlowConfig(**base)


def replay(events, cfg):
    grid = PriceGrid(cfg.tick_size, cfg.fundamental_price, cfg.fundamental_price)
    return AuctionBook(grid).replay(events)


def test_same_seed_byte_identical(tmp_path):
    cfg = small_config(cancellation_rate=0.3, market_shares_per_side=2_000)
    e1, t1, m1 = generate(cfg)
    e2, t2, m2 = generate(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_events(p1, e1)
    write_events(p2, e2)
    assert p1.read_bytes() == p2.read_bytes()
    assert t1 == t2 and m1 == m2


@pytest.mark.parametrize("shape, log, truth, meta", [
    ("constant", "10c256e0d907a32a862351cfc724d5b7c7fee1adf6fe21a1d4ff0df1f3796fff",
     "a9f69bdd2b3870494b292343a60dc48de47cfe5fa325fc866b295d9ed36461f2",
     "595d662459046f2cda3243c13e341387757d2efea383ebb113025be91b478d02"),
    ("bell", "651aa0b72f30a03f887a6662a8d62d7483b00fa5b6a6c78febef0d7701e4d4cc",
     "60962b71a12ddcd2b1d07e4827ab6fd153b85e16c636f026ac4af4c9715e0172",
     "2e5f0dbce2d65a61338fe7338c432837bb12871fa4134a2c5551d34c4346efbf"),
    ("piecewise", "1a09d10b3c6d00090ccc2349271bf481c2c6b787a2e15309693bff7a3510038f",
     "768db27d63a15f8d4a06e7986ec7cc2ad6015b21db8274eb4a6c79dd54380db7",
     "7ef2bcdf96779632d9536b6533556e0c8c24c2c40b9e85ed9ffdf76ddbfe248a"),
])
def test_generated_bytes_are_pinned(tmp_path, shape, log, truth, meta):
    """sha256 of the log, truth and meta: a change to what ``generate`` draws shows here.

    A change that alters the generated days on purpose records the new digests.
    """
    cfg = FlowConfig(seed=7, shape=shape, total_shares_per_side=8_000, n_levels=80,
                     mean_order_size=100, cancellation_rate=0.5, market_shares_per_side=400)
    events, t, m = generate(cfg)
    path = tmp_path / "flow.csv"
    write_events(path, events)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == log
    assert hashlib.sha256(json.dumps(t, sort_keys=True).encode()).hexdigest() == truth
    assert hashlib.sha256(json.dumps(m, sort_keys=True).encode()).hexdigest() == meta


def test_different_seeds_differ():
    e1, _, _ = generate(small_config(seed=1))
    e2, _, _ = generate(small_config(seed=2))
    assert [format_event(e) for e in e1] != [format_event(e) for e in e2]


def test_constant_shape_exactly_flat():
    cfg = small_config(cancellation_rate=0.4)
    events, truth, meta = generate(cfg)
    book = replay(events, cfg)
    per_tick = cfg.total_shares_per_side * (1 - cfg.buy_peak_mass) // cfg.n_levels
    for k in range(1, cfg.n_levels + 1):
        vb_above, vs_above = book.volume_at(k)
        vb_below, vs_below = book.volume_at(-k)
        assert vb_above + vs_above == per_tick
        assert vb_below + vs_below == per_tick


def test_clear_time_inside_window_and_events_sorted():
    cfg = small_config(seed=9)
    events, truth, _ = generate(cfg)
    assert cfg.earliest_clear_us <= truth["clear_time_us"] <= cfg.latest_clear_us
    stamps = [e.timestamp for e in events]
    assert stamps == sorted(stamps)
    assert stamps[-1] <= truth["clear_time_us"]


def test_ground_truth_keys_pinned():
    _, truth, _ = generate(small_config())
    assert sorted(truth) == ["clear_time_us", "delta_star_bp", "l_star", "peak_mass"]


def test_generated_book_crosses():
    for seed in range(5):
        cfg = small_config(seed=seed, shape="bell", cancellation_rate=0.2)
        events, _, meta = generate(cfg)
        book = replay(events, cfg)
        c = clear(book)
        assert c.q_a == meta["q_a"] > 0
        assert c.p_a == pytest.approx(meta["p_a"])


def test_l_star_matches_replayed_book():
    cfg = small_config()
    events, truth, meta = generate(cfg)
    book = replay(events, cfg)
    c = clear(book)
    per_tick = cfg.total_shares_per_side * (1 - cfg.buy_peak_mass) // cfg.n_levels
    assert truth["l_star"] == pytest.approx(per_tick / (c.q_a * cfg.tick_size))


def test_piecewise_end_to_end_recovers_delta():
    cfg = FlowConfig(
        seed=5,
        tick_size=0.01,
        fundamental_price=100.0,
        shape="piecewise",
        total_shares_per_side=200_000,
        buy_peak_mass=0.2,
        sell_peak_mass=0.2,
        n_levels=200,
        delta_star_bp=50.0,
        decay=400.0,
        cancellation_rate=0.1,
    )
    events, truth, meta = generate(cfg)
    book = replay(events, cfg)
    one_bin_bp = cfg.tick_size / cfg.fundamental_price * 1e4
    for side in "BS":
        fit = fit_regime(book, side, max_x=0.02)
        assert abs(fit.delta * 1e4 - truth["delta_star_bp"]) <= one_bin_bp + 1e-9
        assert fit.l_tilde == pytest.approx(truth["l_star"], rel=0.05)


def test_flag_mixture_within_3_sigma():
    cfg = FlowConfig(
        seed=3,
        shape="bell",
        total_shares_per_side=400_000,
        buy_peak_mass=0.15,
        sell_peak_mass=0.15,
        n_levels=120,
        mean_order_size=30,
        cancellation_rate=0.2,
    )
    events, _, _ = generate(cfg)
    assert len(events) >= 10_000
    submits = [e for e in events if e.action == "SUBMIT"]
    n = len(submits)
    for flag, p in LATENCY_WEIGHTS.items():
        count = sum(1 for e in submits if e.latency_flag == flag)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(count - n * p) <= 3 * sigma, flag
    for flag, p in ACCOUNT_WEIGHTS.items():
        count = sum(1 for e in submits if e.account_type == flag)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(count - n * p) <= 3 * sigma, flag


def test_csv_round_trip(tmp_path):
    cfg = small_config(cancellation_rate=0.25, market_shares_per_side=1_000)
    events, _, _ = generate(cfg)
    path = tmp_path / "flow.csv"
    write_events(path, events)
    back = list(read_events(path))
    assert [format_event(e) for e in back] == [format_event(e) for e in events]


class TestInfeasibleConfigs:
    def test_zero_shares_with_peak(self):
        with pytest.raises(InfeasibleConfig):
            FlowConfig(total_shares_per_side=0, buy_peak_mass=0.5, sell_peak_mass=0.5)

    def test_window_order(self):
        with pytest.raises(InfeasibleConfig):
            FlowConfig(earliest_clear_us=10, latest_clear_us=5)

    def test_no_crossing_mass(self):
        with pytest.raises(InfeasibleConfig):
            FlowConfig(buy_peak_mass=0.0, sell_peak_mass=0.0, market_shares_per_side=0)

    def test_bad_shape(self):
        with pytest.raises(InfeasibleConfig):
            FlowConfig(shape="triangle")

    @pytest.mark.parametrize("fields, message", [
        ({"tick_size": 0.0}, "tick_size and fundamental_price must be positive"),
        ({"fundamental_price": -100.0}, "tick_size and fundamental_price must be positive"),
        ({"buy_peak_mass": 1.5}, "buy_peak_mass must be in [0, 1], got 1.5"),
        ({"sell_peak_mass": -0.1}, "sell_peak_mass must be in [0, 1], got -0.1"),
        ({"total_shares_per_side": 0, "buy_peak_mass": 0.0, "sell_peak_mass": 0.0},
         "per-side total shares must be positive"),
        ({"n_levels": 0}, "n_levels must be >= 1"),
        ({"cancellation_rate": -0.5}, "cancellation_rate must be >= 0"),
        ({"market_shares_per_side": -1}, "market_shares_per_side must be >= 0"),
        ({"mean_order_size": 0}, "mean_order_size must be >= 1"),
        # random.Random(-1) would draw seed 1's day
        ({"seed": -1}, "seed must be >= 0"),
        ({"delta_star_bp": -5.0}, "delta_star_bp must be >= 0"),
        # every weight past an empty plateau underflows to 0.0
        ({"shape": "piecewise", "delta_star_bp": 0.0, "decay": 1e8},
         "the piecewise level weights overflow or all underflow, got decay 100000000.0 "
         "past a plateau of 0.0 bp"),
        # a weight far past the plateau overflows math.exp
        ({"shape": "piecewise", "decay": -1e6},
         "the piecewise level weights overflow or all underflow, got decay -1000000.0 "
         "past a plateau of 50.0 bp"),
    ], ids=["tick", "price", "buy-peak-mass", "sell-peak-mass", "total-shares", "n_levels",
            "cancellation_rate", "market_shares_per_side", "mean_order_size", "seed",
            "delta_star_bp", "weights-underflow", "weights-overflow"])
    def test_field_outside_its_domain(self, fields, message):
        with pytest.raises(InfeasibleConfig) as err:
            FlowConfig(**fields)
        assert str(err.value) == message

    @pytest.mark.parametrize("field, value", [
        ("mean_order_size", 1.5),
        ("n_levels", True),
        ("cancellation_rate", math.nan),
        ("tick_size", math.inf),
        ("decay", math.nan),
        ("seed", "3"),
        ("market_size_min", 0),
    ])
    def test_a_config_built_in_python_checks_itself(self, field, value):
        """Construction applies the type rule of a JSON config, then the domain rules."""
        with pytest.raises(InfeasibleConfig, match=field):
            FlowConfig(**{field: value})

    def test_json_round_trip_and_unknown_field(self):
        cfg = small_config()
        back = FlowConfig.from_json(cfg.to_json())
        assert back == cfg
        with pytest.raises(FrozenInstanceError):
            cfg.seed = 2
        with pytest.raises(InfeasibleConfig):
            FlowConfig.from_json('{"warp_speed": 9}')


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
def test_every_benchmark_day_is_a_valid_config(monkeypatch, tiny):
    """Every day of both ``perfbench`` workloads builds a config, which checks itself, the
    way the benchmark's set-up reads it, so a change to the config fields that
    would break that set-up fails here."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    for workload in workloads.WORKLOADS:
        for seed in (3, 11):
            days = workloads.configs(workload, seed, tiny)
            assert days
            for _, cfg in days:
                assert FlowConfig.from_json(json.dumps(cfg, sort_keys=True)) == FlowConfig(**cfg)
