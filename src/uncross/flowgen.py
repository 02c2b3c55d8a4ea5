"""Seeded synthetic auction order flow.

A statistical stand-in for proprietary auction logs: limit volume is laid out
around a fundamental price according to a target shape (flat, skewed bell, or
flat-then-decaying), a configurable mass accumulates right at the fundamental,
market orders and cancellation churn arrive through the accumulation window,
and the clearing time is drawn uniformly inside the configured interval.  No
agent reacts to anything, which is exactly what makes the mechanical and
one-lag responses comparable on generated flow.

Accumulation starts at time 0.  Both sides rest ``total_shares_per_side``
limit shares (market orders come on top); only the peak mass may differ
between them.  The bell shape peaks 25 ticks from the fundamental.

Participant flags are drawn for every row independently of its price and time,
with fixed weights: ``LATENCY_WEIGHTS`` HFT 0.25, MIX 0.35, NON 0.40 and
``ACCOUNT_WEIGHTS`` OWN 0.30, CLIENT 0.40, MARKET_MAKER 0.15, PARENT 0.08,
RMO 0.05, RLP 0.02.  No flag group therefore leans toward any part of the book,
whatever its weight.

Everything is driven by one ``random.Random(seed)``: the same config generates
byte-identical logs.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, asdict

from .book import AuctionBook
from .clearing import uncross_values
from .errors import InfeasibleConfig
from .events import OrderEvent
from .grid import PriceGrid

SHAPES = ("constant", "bell", "piecewise")
# the JSON values a scalar config field of each annotation accepts
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def _json_fits(value, kind: str) -> bool:
    """Whether a JSON value, down to its elements, fits a config field's annotation."""
    if kind == "tuple[int, int]":
        return (isinstance(value, list) and len(value) == 2
                and all(_json_fits(v, "int") for v in value))
    if isinstance(value, float) and not math.isfinite(value):
        return False  # json reads NaN, Infinity and 1e400 as floats; no field takes them
    return not isinstance(value, bool) and isinstance(value, _JSON_TYPES[kind])


LATENCY_WEIGHTS = {"HFT": 0.25, "MIX": 0.35, "NON": 0.40}
ACCOUNT_WEIGHTS = {"OWN": 0.30, "CLIENT": 0.40, "MARKET_MAKER": 0.15, "PARENT": 0.08,
                   "RMO": 0.05, "RLP": 0.02}


@dataclass
class FlowConfig:
    """One generated day's settings; ``buy_peak_mass`` and ``sell_peak_mass`` are the
    fractions of each side's limit shares that rest at the fundamental price."""

    seed: int = 0
    tick_size: float = 0.01
    fundamental_price: float = 100.0
    earliest_clear_us: int = 300_000_000
    latest_clear_us: int = 330_000_000
    shape: str = "bell"
    total_shares_per_side: int = 100_000
    # asymmetric peaks give the two sides different zero-impact volumes
    buy_peak_mass: float = 0.2
    sell_peak_mass: float = 0.2
    n_levels: int = 150  # priced ticks per side beyond the fundamental
    delta_star_bp: float = 50.0  # piecewise plateau half-width, basis points
    decay: float = 150.0  # log-density slope past the plateau, per unit log-price
    cancellation_rate: float = 0.0  # churn orders per surviving order
    market_shares_per_side: int = 0
    market_size_range: tuple[int, int] = (1, 2000)
    mean_order_size: int = 200

    def validate(self) -> None:
        if self.tick_size <= 0 or self.fundamental_price <= 0:
            raise InfeasibleConfig("tick_size and fundamental_price must be positive")
        if not 0 < self.earliest_clear_us <= self.latest_clear_us:
            raise InfeasibleConfig("need 0 < earliest clear <= latest clear")
        if self.shape not in SHAPES:
            raise InfeasibleConfig(f"shape must be one of {SHAPES}, got {self.shape!r}")
        total = self.total_shares_per_side
        for name in ("buy_peak_mass", "sell_peak_mass"):
            pm = getattr(self, name)
            if not 0 <= pm <= 1:
                raise InfeasibleConfig(f"{name} must be in [0, 1], got {pm}")
            if total <= 0:
                if pm > 0:
                    raise InfeasibleConfig("zero shares with nonzero peak mass")
                raise InfeasibleConfig("per-side total shares must be positive")
            if round(pm * total) == 0 and self.market_shares_per_side == 0:
                raise InfeasibleConfig(
                    "book cannot cross: give the fundamental price some peak "
                    "mass or add market orders"
                )
        if self.n_levels < 1:
            raise InfeasibleConfig("n_levels must be >= 1")
        if self.cancellation_rate < 0:
            raise InfeasibleConfig("cancellation_rate must be >= 0")
        if self.market_shares_per_side < 0:
            raise InfeasibleConfig("market_shares_per_side must be >= 0")
        lo, hi = self.market_size_range
        if not 1 <= lo <= hi:
            raise InfeasibleConfig(f"market_size_range needs 1 <= lo <= hi, got [{lo}, {hi}]")
        if self.mean_order_size < 1:
            raise InfeasibleConfig("mean_order_size must be >= 1")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FlowConfig":
        """Parse a JSON object, refusing unknown fields and values of the wrong type."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise InfeasibleConfig("a config must be a JSON object")
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise InfeasibleConfig(f"unknown config fields: {sorted(unknown)}")
        for name, value in data.items():
            kind = fields[name].type
            if not _json_fits(value, kind):
                raise InfeasibleConfig(f"config field {name!r} must be {kind}, got {value!r}")
        if "market_size_range" in data:
            data["market_size_range"] = tuple(data["market_size_range"])
        return cls(**data)


def _largest_remainder(weights: list[float], total: int) -> list[int]:
    s = sum(weights)
    raw = [w / s * total for w in weights]
    base = [int(r) for r in raw]
    short = total - sum(base)
    # hand the leftover to the largest fractional parts, index as tiebreak
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:short]:
        base[i] += 1
    return base


def _level_targets(cfg: FlowConfig, side: str) -> tuple[list[int], int]:
    """Per-tick share targets for one side (tick 1..n_levels) and the peak size."""
    total = cfg.total_shares_per_side
    peak = round((cfg.buy_peak_mass if side == "B" else cfg.sell_peak_mass) * total)
    body = total - peak
    if cfg.shape == "constant":
        per = body // cfg.n_levels
        peak += body - per * cfg.n_levels  # keep the body exactly flat
        return [per] * cfg.n_levels, peak
    theta_x = cfg.tick_size / cfg.fundamental_price
    if cfg.shape == "piecewise":
        cut = cfg.delta_star_bp * 1e-4
        weights = []
        for k in range(1, cfg.n_levels + 1):
            x = k * theta_x
            weights.append(1.0 if x <= cut else math.exp(-cfg.decay * (x - cut)))
    else:  # bell, mode 25 ticks out, heavier outer tail
        weights = [(k / 25) ** 2 * math.exp(-2.0 * (k / 25 - 1.0)) for k in range(1, cfg.n_levels + 1)]
    return _largest_remainder(weights, body), peak


def _split_sizes(total: int, mean: int, rng: random.Random) -> list[int]:
    sizes = []
    left = total
    while left > 0:
        s = min(left, max(1, int(rng.expovariate(1.0 / mean))))
        sizes.append(s)
        left -= s
    return sizes


def generate(cfg: FlowConfig) -> tuple[list[OrderEvent], dict, dict]:
    """Produce a time-sorted event log, its ground-truth sidecar, and grid metadata.

    The ground truth carries the shape parameters a regime fit should recover
    (``delta_star_bp``, ``l_star``, ``peak_mass``, ``clear_time_us``); the meta
    record carries the grid definition and the realized clearing outcome.
    """
    cfg.validate()
    rng = random.Random(cfg.seed)
    grid = PriceGrid(cfg.tick_size, cfg.fundamental_price, cfg.fundamental_price)
    t_clear = rng.randrange(cfg.earliest_clear_us, cfg.latest_clear_us + 1)

    events: list[OrderEvent] = []
    ids = itertools.count(1)

    # cumulative weights, built once: ``choices`` draws the same as with ``weights=``
    lat_names = list(LATENCY_WEIGHTS)
    lat_cum = list(itertools.accumulate(LATENCY_WEIGHTS.values()))
    acct_names = list(ACCOUNT_WEIGHTS)
    acct_cum = list(itertools.accumulate(ACCOUNT_WEIGHTS.values()))

    def flags() -> tuple[str, str]:
        return (
            rng.choices(lat_names, cum_weights=lat_cum, k=1)[0],
            rng.choices(acct_names, cum_weights=acct_cum, k=1)[0],
        )

    def submit(side: str, otype: str, price: float | None, qty: int, t: int) -> str:
        oid = f"O{next(ids):07d}"
        lat, acct = flags()
        events.append(OrderEvent(t, oid, "SUBMIT", side, otype, price, qty, lat, acct))
        return oid

    def t_body() -> int:
        return rng.randrange(t_clear)

    def t_late() -> int:
        # peak liquidity leans toward the clearing
        u = rng.random() ** 2
        return int(t_clear - u * (t_clear - 1)) - 1

    side_targets = {}
    side_peaks = {}
    for side in ("B", "S"):
        targets, peak = _level_targets(cfg, side)
        side_targets[side] = targets
        side_peaks[side] = peak
        sign = -1 if side == "B" else 1
        for k, target in enumerate(targets, start=1):
            if target == 0:
                continue
            price = grid.price_at(sign * k)
            for size in _split_sizes(target, cfg.mean_order_size, rng):
                submit(side, "LIMIT", price, size, t_body())
        for size in _split_sizes(peak, cfg.mean_order_size, rng) if peak else []:
            submit(side, "LIMIT", cfg.fundamental_price, size, t_late())
        if cfg.market_shares_per_side:
            lo, hi = cfg.market_size_range
            left = cfg.market_shares_per_side
            while left > 0:
                size = min(left, rng.randrange(lo, hi + 1))
                submit(side, "MARKET", None, size, t_body())
                left -= size

    # churn: extra orders that are fully canceled before the clearing,
    # leaving the shaped book untouched
    n_churn = int(cfg.cancellation_rate * len(events))  # every event so far is a SUBMIT
    market_prob = (
        cfg.market_shares_per_side
        / (cfg.market_shares_per_side + cfg.total_shares_per_side)
        if cfg.market_shares_per_side
        else 0.0
    )
    for _ in range(n_churn):
        side = rng.choice(("B", "S"))
        t_sub = rng.randrange(max(1, t_clear - 1))
        qty = max(1, int(rng.expovariate(1.0 / cfg.mean_order_size)))
        if rng.random() < market_prob:
            otype, price = "MARKET", None
        else:
            sign = -1 if side == "B" else 1
            otype, price = "LIMIT", grid.price_at(sign * rng.randrange(1, cfg.n_levels + 1))
        oid = submit(side, otype, price, qty, t_sub)
        t_cxl = rng.randrange(t_sub + 1, t_clear + 1)
        lat, acct = flags()
        events.append(OrderEvent(t_cxl, oid, "CANCEL", side, otype, price, qty, lat, acct))

    events.sort(key=lambda ev: ev.timestamp)  # stable: ties keep their drawing order

    # the replay checks the log; the realized clearing needs only price and volume
    k_a, q_a, _, _ = uncross_values(AuctionBook(grid).replay(events))
    theta_x = cfg.tick_size / cfg.fundamental_price
    # ground truth describes the joint buy+sell density the fits should see:
    # above the price that is the sell ladder, below it the buy ladder
    mean_targets = [
        (b + s) / 2 for b, s in zip(side_targets["B"], side_targets["S"])
    ]
    if cfg.shape == "constant":
        delta_star_bp = cfg.n_levels * theta_x * 1e4
        l_star = mean_targets[0] / (q_a * cfg.tick_size)
    elif cfg.shape == "piecewise":
        delta_star_bp = cfg.delta_star_bp
        plateau = [
            t for k, t in enumerate(mean_targets, start=1)
            if k * theta_x <= delta_star_bp * 1e-4
        ]
        l_star = (sum(plateau) / len(plateau)) / (q_a * cfg.tick_size) if plateau else None
    else:
        delta_star_bp = None
        l_star = None
    truth = {
        "delta_star_bp": delta_star_bp,
        "l_star": l_star,
        "peak_mass": (side_peaks["B"] + side_peaks["S"]) / (2 * cfg.total_shares_per_side),
        "clear_time_us": t_clear,
    }
    meta = {
        "tick_size": cfg.tick_size,
        "anchor": cfg.fundamental_price,
        "reference_price": cfg.fundamental_price,
        "p_a": grid.price_at(k_a),
        "q_a": q_a,
        "n_events": len(events),
    }
    return events, truth, meta
