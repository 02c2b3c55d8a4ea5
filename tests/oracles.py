"""Independent brute-force oracles the production code is checked against.

Everything here recomputes results from first principles: supply/demand by
literal summation over order lists, the clearing by scanning every candidate
price, injection sweeps by re-clearing at every volume, the regime change
point by refitting both segments at every cut, a log's events by building
each row through the validating event record, and a reverse CDF by counting
the sample at each of its values.  None of it shares code with
the package beyond the price grid and that record.  The last section holds
views of results that only tests read.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


@dataclass
class BookSpec:
    """A book as plain data: per-tick volumes plus market totals."""

    tick: float
    base: float  # price at index 0
    buy: dict[int, int] = field(default_factory=dict)
    sell: dict[int, int] = field(default_factory=dict)
    buy_market: int = 0
    sell_market: int = 0
    ref_index: int = 0

    def price(self, k: int) -> float:
        return self.base + k * self.tick


def naive_supply(spec: BookSpec, k: int) -> int:
    return spec.sell_market + sum(v for i, v in spec.sell.items() if i <= k)


def naive_demand(spec: BookSpec, k: int) -> int:
    return spec.buy_market + sum(v for i, v in spec.buy.items() if i >= k)


def book_supply(book, price: float) -> int:
    """Sell shares of an ``AuctionBook`` at or below ``price``, market sells included."""
    k = book.grid.index_of(price)
    return book.sell_market_total + sum(v for i, v in book.sell_volume.items() if i <= k)


def book_demand(book, price: float) -> int:
    """Buy shares of an ``AuctionBook`` at or above ``price``, market buys included."""
    k = book.grid.index_of(price)
    return book.buy_market_total + sum(v for i, v in book.buy_volume.items() if i >= k)


def total_resting(book, side: str) -> int:
    """All resting shares of one side of an ``AuctionBook``, market orders included."""
    if side == "B":
        return book.buy_market_total + sum(book.buy_volume.values())
    return book.sell_market_total + sum(book.sell_volume.values())


def _min_positive_index(spec: BookSpec) -> int:
    k = int(-spec.base // spec.tick) - 2
    while spec.price(k) <= 0:
        k += 1
    return k


def _candidate_ticks(spec: BookSpec) -> range:
    """Every occupied tick, two empty ticks beyond them and the reference's
    neighbours, floored at the smallest positive-price tick."""
    idxs = sorted(set(spec.buy) | set(spec.sell))
    if idxs:
        lo = min(idxs[0] - 2, spec.ref_index - 1)
        hi = max(idxs[-1] + 2, spec.ref_index + 1)
    else:
        lo, hi = spec.ref_index - 1, spec.ref_index + 1
    lo = max(lo, _min_positive_index(spec))
    return range(lo, max(hi, lo) + 1)


def naive_clear(spec: BookSpec) -> tuple[int, int, int] | None:
    """Exhaustive scan: max executable, min |imbalance|, closest to reference,
    lowest price among positive-price ticks.  Returns (price index, volume,
    signed imbalance) or None."""
    best = None
    for k in _candidate_ticks(spec):
        s = naive_supply(spec, k)
        d = naive_demand(spec, k)
        executable = min(s, d)
        key = (-executable, abs(s - d), abs(k - spec.ref_index), k)
        if best is None or key < best[0]:
            best = (key, k, executable, s - d)
    _, k, q, imb = best
    if q <= 0:
        return None
    return k, q, imb


def naive_margin(spec: BookSpec) -> int:
    """Executable volume at the clearing tick minus the most at any other tick
    (0 when another tick ties), for a crossing book."""
    k = naive_clear(spec)[0]
    executable = {j: min(naive_supply(spec, j), naive_demand(spec, j))
                  for j in _candidate_ticks(spec)}
    return executable.pop(k) - max(executable.values())


def naive_inject_prices(spec: BookSpec, side: str, q_values: np.ndarray) -> np.ndarray:
    """Clearing price index after injecting each market volume, vectorized.

    Implements the same exhaustive scan as naive_clear but for a whole sweep of
    injected volumes at once (integer arithmetic throughout).
    """
    ks = np.array(_candidate_ticks(spec))
    vs = np.array([spec.sell.get(int(k), 0) for k in ks], dtype=np.int64)
    vb = np.array([spec.buy.get(int(k), 0) for k in ks], dtype=np.int64)
    supply = spec.sell_market + np.cumsum(vs)
    demand = spec.buy_market + np.cumsum(vb[::-1])[::-1]
    q_values = np.asarray(q_values, dtype=np.int64)
    if side == "B":
        D = demand[None, :] + q_values[:, None]
        S = np.broadcast_to(supply[None, :], D.shape)
    else:
        S = supply[None, :] + q_values[:, None]
        D = np.broadcast_to(demand[None, :], S.shape)
    M = np.minimum(S, D)
    qmax = M.max(axis=1, keepdims=True)
    big = np.int64(1) << 60
    imb = np.abs(S - D)
    imb_m = np.where(M == qmax, imb, big)
    imb_min = imb_m.min(axis=1, keepdims=True)
    dist = np.abs(ks - spec.ref_index)[None, :]
    dist_m = np.where(imb_m == imb_min, dist, big)
    dist_min = dist_m.min(axis=1, keepdims=True)
    pick = np.argmax(dist_m == dist_min, axis=1)  # first True = lowest price
    return ks[pick]


def random_book(seed: int, max_ticks: int = 20, max_volume: int = 200) -> BookSpec:
    """Seeded random crossing book used by the oracle-equivalence suites.

    Deliberately hostile: empty ticks, one-sided ticks, and market totals that
    can dwarf the limit volume, so every tie-break path gets exercised.
    """
    rng = random.Random(seed)
    for attempt in range(1000):
        n = rng.randint(4, max_ticks)
        tick = rng.choice([0.01, 0.05, 0.1])
        base = rng.choice([8.0, 25.0, 50.0, 120.0])
        spec = BookSpec(tick=tick, base=base)
        for k in range(n):
            if rng.random() > 0.25:
                spec.buy[k] = rng.randint(1, max_volume)
            if rng.random() > 0.25:
                spec.sell[k] = rng.randint(1, max_volume)
        if rng.random() > 0.5:
            spec.buy_market = rng.randint(1, max_volume)
        if rng.random() > 0.5:
            spec.sell_market = rng.randint(1, max_volume)
        spec.ref_index = rng.randint(0, n - 1)
        if naive_clear(spec) is not None:
            return spec
    raise AssertionError("could not build a crossing book")


def dense_random_book(seed: int, max_ticks: int = 20, max_volume: int = 200) -> BookSpec:
    """Random crossing book with both-side volume on every tick.

    This is the regime the closed-form impact walk is exact in: consecutive
    occupied ticks with two-sided volume leave the tie chain no room to land
    between ticks, so jumps are uniquely determined by the jump volumes.
    """
    rng = random.Random(seed ^ 0x5EED)
    for attempt in range(1000):
        n = rng.randint(6, max_ticks)
        tick = rng.choice([0.01, 0.02, 0.05])
        base = rng.choice([20.0, 50.0, 80.0])
        spec = BookSpec(tick=tick, base=base)
        for k in range(n):
            spec.buy[k] = rng.randint(1, max_volume)
            spec.sell[k] = rng.randint(1, max_volume)
        # modest market totals: enough to shift the cross, never to outsize
        # the whole opposite side
        if rng.random() > 0.5:
            spec.buy_market = rng.randint(1, max_volume)
        if rng.random() > 0.5:
            spec.sell_market = rng.randint(1, max_volume)
        spec.ref_index = rng.randint(0, n - 1)
        if naive_clear(spec) is not None:
            return spec
    raise AssertionError("could not build a crossing book")


def spec_to_events(spec: BookSpec):
    """Materialize a BookSpec as submit events (one order per tick and side)."""
    from uncross.events import OrderEvent

    events = []
    t = 0
    for k, v in sorted(spec.buy.items()):
        t += 1
        events.append(OrderEvent(t, f"b{k}", "SUBMIT", "B", "LIMIT", spec.price(k), v))
    for k, v in sorted(spec.sell.items()):
        t += 1
        events.append(OrderEvent(t, f"s{k}", "SUBMIT", "S", "LIMIT", spec.price(k), v))
    if spec.buy_market:
        t += 1
        events.append(OrderEvent(t, "bm", "SUBMIT", "B", "MARKET", None, spec.buy_market))
    if spec.sell_market:
        t += 1
        events.append(OrderEvent(t, "sm", "SUBMIT", "S", "MARKET", None, spec.sell_market))
    return events


def book_to_spec(book) -> BookSpec:
    """The per-tick volumes, market totals and reference of an ``AuctionBook``."""
    return BookSpec(tick=book.grid.tick_size, base=book.grid.anchor,
                    buy=dict(book.buy_volume), sell=dict(book.sell_volume),
                    buy_market=book.buy_market_total, sell_market=book.sell_market_total,
                    ref_index=book.grid.reference_index)


def spec_to_book(spec: BookSpec):
    from uncross.book import AuctionBook
    from uncross.grid import PriceGrid

    grid = PriceGrid(spec.tick, spec.base, spec.price(spec.ref_index))
    return AuctionBook(grid).replay(spec_to_events(spec))


def naive_changepoint(xs, rhos) -> tuple[float, float, int, int, float]:
    """Change point by refitting the flat window and the log-linear tail at every cut.

    Takes valid input (equal lengths, at least two samples, positive
    densities); returns (delta, l_tilde, n_points, n_window, cost) with the
    same tie tolerance and widest-window rule as ``regime.changepoint``.
    """
    x = np.asarray(xs, dtype=float)
    r = np.asarray(rhos, dtype=float)
    order = np.argsort(x)
    x = x[order]
    r = r[order]
    logs = np.log(r)
    n = len(x)

    costs = np.empty(n)
    for j in range(n):  # window = samples[0..j], cut y = x[j]
        m = j + 1
        seg = logs[:m]
        sse_flat = float(np.sum((seg - seg.mean()) ** 2))
        if n - m >= 2:
            xt = x[m:]
            lt = logs[m:]
            xm = xt.mean()
            lm = lt.mean()
            sxx = float(np.sum((xt - xm) ** 2))
            beta = float(np.sum((xt - xm) * (lt - lm))) / sxx if sxx > 0 else 0.0
            resid = lt - (lm + beta * (xt - xm))
            sse_tail = float(np.sum(resid**2))
        else:
            sse_tail = 0.0  # a line through <2 points is exact
        costs[j] = sse_flat + sse_tail

    cmin = float(costs.min())
    tol = 1e-9 * max(1.0, float(np.sum(logs**2)))
    best_j = int(np.nonzero(costs <= cmin + tol)[0][-1])  # widest window on ties
    m = best_j + 1
    return float(x[best_j]), float(r[:m].mean()), n, m, float(costs[best_j])


def naive_validate(ev) -> None:
    """The per-field event check: each enumerated field against its tuple of
    allowed values, then the price rules, reading ``ev``'s attributes one by one."""
    import math

    from uncross.errors import ParseError
    from uncross.events import (
        ACCOUNT_TYPES, ACTIONS, LATENCY_FLAGS, ORDER_TYPES, SIDES,
    )

    for name, allowed in (("action", ACTIONS), ("side", SIDES), ("order_type", ORDER_TYPES),
                          ("latency_flag", LATENCY_FLAGS), ("account_type", ACCOUNT_TYPES)):
        value = getattr(ev, name)
        if value not in allowed:
            raise ParseError(f"unknown {name} {value!r}; expected one of {allowed}")
    if ev.order_type == "MARKET":
        if ev.price is not None:
            raise ParseError("MARKET order must not carry a price")
    elif ev.price is None and ev.action != "CANCEL":
        raise ParseError(f"{ev.order_type} order requires a price")
    if ev.price is not None and not 0 < ev.price < math.inf:
        raise ParseError(f"price must be positive and finite, got {ev.price}")


_INT_CELL = r"[+-]?[0-9]+"
_FLOAT_CELL = r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?i:inf|infinity|nan))"


def naive_read_events(path):
    """The reference log reader: every row built through the validating
    ``OrderEvent(...)`` and checked against the previous row's timestamp.

    A number cell must match the accepted forms spelled out as patterns: ASCII
    digits with an optional sign, and for a price a fraction, an exponent or
    ``inf``/``nan`` (which the event check then refuses).
    """
    import csv
    import re

    from uncross.errors import ParseError
    from uncross.events import CSV_HEADER, OrderEvent

    name = str(path)

    def number(kind, pattern, cell, field, line):
        if re.fullmatch(pattern, cell) is None:
            raise ParseError(f"bad {field} {cell!r}", line=line, path=name)
        return kind(cell)

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError("empty file", line=1, path=name)
            if header != CSV_HEADER:
                raise ParseError(f"bad header {header!r}; expected {CSV_HEADER!r}",
                                 line=1, path=name)
            last_ts = None
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != len(CSV_HEADER):
                    raise ParseError(f"expected {len(CSV_HEADER)} fields, got {len(row)}",
                                     line=line, path=name)
                ts_s, oid, action, side, otype, price_s, qty_s, lat, acct = row
                ts = number(int, _INT_CELL, ts_s, "timestamp_us", line)
                price = number(float, _FLOAT_CELL, price_s, "price", line) if price_s else None
                qty = number(int, _INT_CELL, qty_s, "qty", line)
                try:
                    ev = OrderEvent(ts, oid, action, side, otype, price, qty, lat, acct,
                                    path=name, line=line)
                except ParseError as exc:
                    raise ParseError(str(exc), line=line, path=name) from None
                if last_ts is not None and ts < last_ts:
                    raise ParseError(f"timestamp_us {ts} is earlier than the previous "
                                     f"row's {last_ts}", line=line, path=name)
                last_ts = ts
                yield ev
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason} 0x{exc.object[exc.start]:02x}",
                             path=name) from None


def naive_marketable(ev, book, indicative_index):
    """``(sign, shares)`` when ``ev`` adds or removes volume that executes at
    ``indicative_index``, read from the event and the book before it, else None.

    A SUBMIT other than a STOP adds its own order; a CANCEL removes the live
    order it names unless that is a dormant STOP.  A MODIFY, a CANCEL of no
    live order, any event without an indicative tick (None) and an order
    resting behind the tick give None.  Adding pushes the price the order's
    way, +1 for a buy and -1 for a sell; removing flips the sign.
    """
    if indicative_index is None:
        return None
    if ev.action == "SUBMIT" and ev.order_type != "STOP":
        side, shares = ev.side, ev.quantity
        tick = None if ev.price is None else book.grid.index_of(ev.price)
    elif (ev.action == "CANCEL" and (rec := book.orders.get(ev.order_id)) is not None
          and rec.order_type != "STOP"):
        side, shares, tick = rec.side, rec.quantity, rec.price_index
    else:
        return None
    sign = 1 if side == "B" else -1
    if tick is not None and sign * (tick - indicative_index) < 0:
        return None
    return (sign if ev.action == "SUBMIT" else -sign), shares


def naive_rcdf(values) -> list[tuple[float, float]]:
    """(v, fraction of the sample >= v) at each unique value v, counted afresh for each."""
    v = np.sort(np.asarray(values, dtype=float))
    return [(float(u), float(np.sum(v >= u)) / len(v)) for u in np.unique(v)]


# ------------------------------------------------------- views only tests read


def impact_at(curve, omega) -> float:
    """An ``ImpactCurve``'s impact at a scaled volume; exact Fractions avoid boundary rounding."""
    return curve.impact_at_shares(Fraction(omega) * curve.q_a)


def delta_omegas(curve) -> list[Fraction]:
    """An ``ImpactCurve``'s incremental scaled volumes between successive jumps, omega0 first."""
    nums = [curve.omega0_num] + [bp.omega_num for bp in curve.breakpoints[1:]]
    return [Fraction(b - a, curve.q_a) for a, b in zip([0] + nums, nums)]


def regime_csv_row(fit, date: str) -> str:
    """A ``RegimeFit``'s row as ``fits_to_csv`` writes it, without the line end."""
    from uncross.regime import fits_to_csv

    return fits_to_csv([(date, fit)]).splitlines()[1]
