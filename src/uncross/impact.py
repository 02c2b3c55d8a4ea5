"""Exact price impact of a market order injected just before the clearing.

Impact is the absolute change of the clearing log-price caused by adding a
market order of ``q`` shares, expressed against the scaled volume
``omega = q / q_a``.  It is a non-decreasing, right-continuous step function
whose discontinuities can be read directly off the book and its own clearing
scan (``uncross_values``), the one every analysis reads:

* the first jump happens once the order eats the whole matched volume on its
  own side at the clearing price plus the opposite remainder
  (``omega0 = (vsr + vbm) / q_a`` for a buy, ``(vsm + vbr) / q_a`` for a sell);
* each further jump requires the combined buy+sell volume resting at the next
  non-empty tick in the walk direction (``AuctionBook.levels_past``);
* a side whose market volume in the book exceeds ``q_a`` is pinned: no
  injection on it moves the price.

Volumes at jumps are kept as exact integer share counts (numerator over the
auction volume) so breakpoint comparisons never suffer float-equality bugs;
logarithms are taken only when a value is reported.  The jump volumes
strictly increase, so every lookup (price tick, impact in shares or in scaled
volume) is one ``bisect_right`` over them after one set of domain checks.

At an exact jump volume two prices tie for executable volume; the curve adopts
the convention that the price moves to the next tick, while a full re-clearing
applies the imbalance/reference tie-breaks and may keep the old price.
Comparisons against re-clearing therefore treat exact-jump volumes separately.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .book import AuctionBook
from .clearing import ClearingResult, uncross_values
from .errors import BeyondTruncation, NoPositiveRoot, ZeroLiquidity
from .events import _check_side, csv_table, format_price
from .grid import PriceGrid

DEFAULT_MAX_X = 0.02  # truncate the tick walk at a 2% log-price distance


@dataclass(frozen=True)
class Breakpoint:
    omega_num: int  # shares; scaled volume is omega_num / q_a
    target_index: int  # tick the price jumps to at exactly this volume
    impact: float  # |log(target price / p_a)|


@dataclass(frozen=True)
class ImpactCurve:
    side: str
    q_a: int
    price_index_a: int
    grid: PriceGrid
    omega0_num: int
    breakpoints: tuple[Breakpoint, ...]
    cap_num: int  # first share count past the computed domain
    pinned: bool = False  # own-side market volume above q_a, rationed: price cannot move

    @property
    def p_a(self) -> float:
        return self.grid.price_at(self.price_index_a)

    @property
    def omega0(self) -> Fraction:
        return Fraction(self.omega0_num, self.q_a)

    def _last_jump(self, q: int | Fraction) -> int:
        """Number of jumps reached by an injection of q shares."""
        if not q >= 0:  # NaN fails too
            raise ValueError("injected volume must be >= 0")
        if q == 0 or self.pinned:
            return 0  # zero injection never moves the price
        if q >= self.cap_num:
            raise BeyondTruncation(
                f"q={q} reaches past the computed curve (cap {self.cap_num} shares)"
            )
        return bisect_right(self.breakpoints, q, key=lambda bp: bp.omega_num)

    def price_index_at_shares(self, q: int) -> int:
        """Tick index of the clearing price after injecting q shares."""
        n = self._last_jump(q)
        return self.breakpoints[n - 1].target_index if n else self.price_index_a

    def impact_at_shares(self, q: int | Fraction) -> float:
        """Impact in log-price units of an injected order of q shares."""
        n = self._last_jump(q)
        return self.breakpoints[n - 1].impact if n else 0.0

    def to_csv(self) -> str:
        return csv_table("side,i,omega_num,omega_den,price,impact_log", (
            (self.side, i, bp.omega_num, self.q_a,
             format_price(self.grid.price_at(bp.target_index)), bp.impact)
            for i, bp in enumerate(self.breakpoints)))


def impact_curve(
    book: AuctionBook,
    clearing: ClearingResult,
    side: str,
    max_x: float = DEFAULT_MAX_X,
) -> ImpactCurve:
    """Compute the step impact curve for one side of the book.

    The clearing comes from ``uncross_values(book)``.  ``clearing`` must be
    ``clear(book)`` of the same book state: a stale record raises ``ValueError``
    naming both ``(price_index, q_a, imbalance)`` triples.  The walk over
    non-empty ticks stops at the first tick farther than ``max_x`` in log-price
    from the clearing price (or at the edge of the book); the curve's domain
    ends at the volume that would reach it.
    """
    k_a, q_a, imbalance, _ = uncross_values(book)
    given = (clearing.price_index, clearing.q_a, clearing.imbalance)
    if given != (k_a, q_a, imbalance):
        raise ValueError(f"clearing record (price_index, q_a, imbalance) = {given} is not the "
                         f"book's {(k_a, q_a, imbalance)}: pass clear(book) of this book state")
    walk = book.levels_past(k_a, side, max_x)
    return _impact_curve(book, k_a, q_a, imbalance, side, max_x, walk)


def _impact_curve(
    book: AuctionBook, k_a: int, q_a: int, imbalance: int, side: str, max_x: float,
    walk: list[tuple[int, float, int]],
) -> ImpactCurve:
    """``impact_curve`` from the clearing tick, volume (at least 1) and imbalance
    S - D of ``uncross_values``, over a ``levels_past`` walk from ``k_a``, which
    checked ``side`` and ``max_x``."""
    vb_at, vs_at = book.volume_at(k_a)
    # market orders fill first, so own-side market volume beyond q_a is rationed
    if side == "B":
        pinned = book.buy_market_total > q_a
        omega_num = imbalance + vb_at  # S(p_a) - D(p_a) + V_B(p_a)
    else:
        pinned = book.sell_market_total > q_a
        omega_num = -imbalance + vs_at  # D(p_a) - S(p_a) + V_S(p_a)
    # A zero threshold is a real jump (no zero-impact volume on this side:
    # one share moves the price).  A negative threshold only arises when the
    # rationed side's surplus rests beyond the clearing price; the price then
    # holds every tie through the reference rule and that jump never happens,
    # though the surplus still lowers all later thresholds.
    breakpoints: list[Breakpoint] = []
    for k, x, shares in [] if pinned else walk:
        if x > max_x:
            break
        if omega_num >= 0:
            breakpoints.append(Breakpoint(omega_num, k, x))
        omega_num += shares
    cap_num = 0 if pinned else max(omega_num, 0)
    return ImpactCurve(
        side=side,
        q_a=q_a,
        price_index_a=k_a,
        grid=book.grid,
        omega0_num=breakpoints[0].omega_num if breakpoints else cap_num,
        breakpoints=tuple(breakpoints),
        cap_num=cap_num,
        pinned=pinned,
    )


def signed_curve_csv(curve_buy: ImpactCurve, curve_sell: ImpactCurve) -> str:
    """Both sides on one signed axis: buys at +omega/+impact, sells negated."""
    rows = [(-bp.omega_num / curve_sell.q_a, -bp.impact)
            for bp in reversed(curve_sell.breakpoints)]
    rows.append((0.0, 0.0))
    rows += [(bp.omega_num / curve_buy.q_a, bp.impact) for bp in curve_buy.breakpoints]
    return csv_table("eps_omega,eps_impact", rows)


# ------------------------------------------------------------- re-clearing


def inject_and_reclear(book: AuctionBook, side: str, q: int) -> float:
    """Add q market shares on a side and return the new clearing price.

    Runs the complete uncrossing rule chain (volume, imbalance, reference,
    lower price); the book itself is left untouched.
    """
    _check_side(side)
    if type(q) is not int or q < 0:  # a bool, float or NaN too
        raise ValueError(f"injected volume must be a non-negative int, got {q!r}")
    return book.grid.price_at(uncross_values(book, side, q)[0])


def cancel_market_and_reclear(book: AuctionBook, side: str, q: int) -> float:
    """Remove q market shares from a side and return the new clearing price."""
    _check_side(side)
    if type(q) is not int or q < 0:  # a bool, float or NaN too
        raise ValueError(f"canceled volume must be a non-negative int, got {q!r}")
    total = book.buy_market_total if side == "B" else book.sell_market_total
    if q > total:
        raise ValueError(f"cannot cancel {q} market shares; only {total} resting")
    return book.grid.price_at(uncross_values(book, side, -q)[0])


# ------------------------------------------------------------------ scalars


def theoretical_slope(p_first: float, l_tilde: float) -> float:
    """Linear-regime impact slope ``1 / (p_first * l_tilde)``.

    ``p_first`` is the first non-empty tick past the clearing price; passing
    the clearing price instead gives the commonly used approximation.
    """
    if not 0 < l_tilde < math.inf:  # NaN fails too
        raise ZeroLiquidity(f"scaled liquidity must be positive and finite, got {l_tilde}")
    if not 0 < p_first < math.inf:
        raise ValueError(f"price must be positive and finite, got {p_first}")
    return 1.0 / (p_first * l_tilde)


def post_clearing_impact(a1: float, b1: float, q: float) -> float:
    """Positive root of ``b1/2 x^2 + a1 x - q = 0``.

    Models walking a book whose density grows linearly away from the price:
    linear impact ``q/a1`` for small q, square-root ``sqrt(2 q / b1)`` for
    large q.  The root is ``2 q / (a1 + sqrt(a1^2 + 2 b1 q))``, which loses no
    digits when ``b1 q`` is small against ``a1^2``, and is ``q / a1`` at ``b1 = 0``.
    An ``a1`` above 1 scales the terms, so that ``a1^2`` cannot overflow; a root
    that a float cannot hold, or a ``b1 q`` that overflows, raises ValueError.
    """
    if not 0 < q < math.inf:  # NaN fails too
        raise ValueError(f"q must be positive and finite, got {q}")
    if not (0 <= a1 < math.inf and -math.inf < b1 < math.inf):
        raise ValueError(f"a1 must be >= 0 and finite and b1 finite, got {a1} and {b1}")
    if a1 == b1 == 0:
        raise NoPositiveRoot("a1 = b1 = 0 admits no solution")
    scale = max(a1, 1.0)
    a = a1 / scale
    disc = a * a + 2.0 * (b1 / scale) * (q / scale)
    if not disc >= 0:
        raise NoPositiveRoot(f"discriminant {disc} is not >= 0 (a1={a1}, b1={b1}, q={q})")
    root = 2.0 * (q / scale) / (a + math.sqrt(disc))
    if not 0 < root < math.inf:
        raise ValueError(f"the root for a1={a1}, b1={b1}, q={q} is out of float range")
    return root


def cash_volume(omega: float, q_a: int, p_a: float) -> float:
    """Currency value of a scaled volume: ``omega * q_a * p_a``."""
    if not 0 <= omega < math.inf:  # NaN fails too
        raise ValueError(f"omega must be >= 0 and finite, got {omega}")
    if type(q_a) is not int or not (q_a > 0 and 0 < p_a < math.inf):  # a bool or float q_a too
        raise ValueError(f"q_a must be a positive int and p_a positive and finite, "
                         f"got {q_a!r} and {p_a!r}")
    cash = omega * q_a * p_a
    if cash == math.inf:
        raise ValueError(f"cash volume {omega} * {q_a} * {p_a} overflows")
    return cash
