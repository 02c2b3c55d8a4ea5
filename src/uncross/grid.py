"""Discrete price grid arithmetic.

Every price handled by the book lives on a grid ``anchor + k * tick_size``
for integer ``k``.  All internal book-keeping uses the integer tick index
``k``; floating point prices only appear at the boundaries (parsing and
output).  Snapping tolerates the rounding noise of ``price = anchor + k*tick``
round-trips but rejects genuinely off-grid prices, prices 2**52 ticks or
more from the anchor, where adding one tick no longer changes a float, and
positive prices that snap below the lowest positive-price tick.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OffGridPrice

# Relative tolerance when deciding whether a price sits on the grid.
_SNAP_RTOL = 1e-6
# From this many ticks out (a float's 52 fraction bits) one tick no longer moves a price.
_MAX_TICKS = 2.0 ** 52


@dataclass(frozen=True)
class PriceGrid:
    """Tick grid with a reference price (last traded price).

    Each field must be an ``int`` or a ``float`` and not a bool (else ``TypeError``).
    tick_size: currency per tick, strictly positive and finite.
    anchor: a currency value on the grid (index 0), under 2**52 ticks from zero.
    reference_price: last traded price; must itself be on the grid.
    """

    tick_size: float
    anchor: float
    reference_price: float

    def __post_init__(self):
        for name in ("tick_size", "anchor", "reference_price"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{name} must be a number, got {value!r}")
        if not 0 < self.tick_size < math.inf:
            raise ValueError(f"tick_size must be positive and finite, got {self.tick_size}")
        if not abs(self.anchor) / self.tick_size < _MAX_TICKS:  # also refuses NaN
            raise OffGridPrice(f"anchor {self.anchor!r} lies 2**52 ticks or more from zero")
        if not self.reference_price > 0:
            raise ValueError(
                f"reference_price must be positive, got {self.reference_price}"
            )
        k = math.floor(-self.anchor / self.tick_size) + 1
        while self.price_at(k) <= 0:  # guards the floor against float edges
            k += 1
        while self.price_at(k - 1) > 0:
            k -= 1
        object.__setattr__(self, "_min_index", k)
        # validates the grid invariant up front
        object.__setattr__(self, "_ref_index", self.index_of(self.reference_price))

    @property
    def reference_index(self) -> int:
        return self._ref_index

    @property
    def min_price_index(self) -> int:
        """Smallest tick index with a strictly positive price."""
        return self._min_index

    def index_of(self, price: float) -> int:
        """Snap a price to its tick index, raising OffGridPrice if it is not on the grid
        or snaps below ``min_price_index``, to a tick whose price is not positive."""
        ticks = (price - self.anchor) / self.tick_size
        k = round(ticks) if abs(ticks) < _MAX_TICKS else None  # None also for NaN
        # price_at(k), inlined
        if k is None or abs(self.anchor + k * self.tick_size - price) > _SNAP_RTOL * self.tick_size:
            raise OffGridPrice(
                f"price {price!r} is not on the grid (tick={self.tick_size}, anchor={self.anchor})"
            )
        if k < self._min_index:
            raise OffGridPrice(f"price {price!r} snaps to tick {k}, whose price "
                               f"{self.price_at(k)!r} is not positive")
        return k

    def price_at(self, index: int) -> float:
        return self.anchor + index * self.tick_size
