"""Linear-impact regime detection.

Near the clearing price the summed buy+sell density is flat on most days,
which makes impact exactly linear there.  The fit finds the half-width of the
flat window by change-point detection: for every candidate cut y the samples
on (0, y] are modeled as constant (their log-mean) and the samples beyond as
log-linear in distance; the cut minimizing the total squared log-residual is
the window edge.  Errors are multiplicative, hence the log scale; the window
liquidity is then the plain mean of the raw densities inside the window, which
avoids the downward bias of exponentiating a mean of logs.

Both segment costs at every cut come from running sums of the centred samples
(prefix sums for the window, suffix sums for the tail), so a fit is O(n) array
work after the sort rather than one refit per cut.  The density samples, the
impact curve and the window volume all read one walk of the book's occupied
ticks past the clearing price, which the fit finds by uncrossing the book.
A sample's width is the gap to the next occupied tick of the walk (the gap
rule), so a sparse book does not read as spuriously thin.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .book import AuctionBook
from .clearing import uncross_values
from .errors import NonPositiveDensity, TooFewPoints
from .events import csv_table
from .impact import DEFAULT_MAX_X, ImpactCurve, _impact_curve, theoretical_slope
from .stats import DayMetrics, csv_label

DEFAULT_MIN_POINTS = 20


@dataclass(frozen=True)
class ChangepointFit:
    delta: float  # half-width of the constant window, log-price units
    l_tilde: float  # mean raw density inside the window
    n_points: int  # samples entering the fit
    n_window: int  # samples inside the window
    cost: float


def changepoint(
    xs: Sequence[float],
    rhos: Sequence[float],
    min_points: int = DEFAULT_MIN_POINTS,
) -> ChangepointFit:
    """Fit constant-then-log-linear density and return the cut and window mean.

    Candidates for the cut are the sample abscissae themselves (the cost only
    changes there).  With x and l = log(rho) centred on their means, the
    window of the first m samples costs ``sum(l^2) - sum(l)^2 / m`` and the
    tail costs ``Syy - Sxy^2 / Sxx`` from its centred second moments (``Syy``
    alone when the tail sits on one abscissa), all read off prefix and suffix
    sums in O(n).  Tails with fewer than two samples cost nothing, so the
    all-constant fit is always admissible.  Costs within
    ``1e-9 * max(1, sum(log(rho)^2))`` of the minimum count as ties, and ties
    prefer the widest window.
    """
    x = np.asarray(xs, dtype=float)
    r = np.asarray(rhos, dtype=float)
    if len(x) != len(r):
        raise ValueError("xs and rhos must have equal length")
    if type(min_points) is not int or min_points < 2:  # a bool, float or NaN too
        raise ValueError(f"min_points must be an int of at least 2, got {min_points!r}")
    if len(x) < min_points:
        raise TooFewPoints(f"need at least {min_points} samples, got {len(x)}")
    if not np.all((r > 0) & (r < np.inf)):  # NaN fails too
        raise NonPositiveDensity("density samples must be positive and finite")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample abscissae must be finite")
    order = np.argsort(x)
    x = x[order]
    r = r[order]
    logs = np.log(r)
    n = len(x)

    # Window w holds samples [0, w) and the tail [w, n), for w = 1..n.  Both
    # costs come from running sums of the centred data: prefix sums for the
    # window, suffix sums (accumulated from the far end) for the tail.
    xc = x - x.mean()
    lc = logs - logs.mean()
    w = np.arange(1, n + 1)
    s_l = np.cumsum(lc)
    sse_flat = np.maximum(np.cumsum(lc * lc) - s_l * s_l / w, 0.0)

    def tail(v: np.ndarray) -> np.ndarray:  # sum of v[w:] for each w
        return np.append(np.cumsum(v[:0:-1])[::-1], 0.0)

    t = np.maximum(n - w, 1)
    sx, sy = tail(xc), tail(lc)
    sxx = tail(xc * xc) - sx * sx / t
    sxy = tail(xc * lc) - sx * sy / t
    syy = tail(lc * lc) - sy * sy / t
    # x is sorted, so a tail on one abscissa is one whose ends agree; its
    # least-squares line is flat and explains nothing (sxx > 0 only guards
    # abscissae a few ulps apart, whose sxx can round to zero)
    sloped = (x[np.minimum(w, n - 1)] != x[-1]) & (sxx > 0)
    explained = np.divide(sxy * sxy, sxx, out=np.zeros(n), where=sloped)
    # a line through <2 points is exact
    sse_tail = np.where(n - w >= 2, np.maximum(syy - explained, 0.0), 0.0)
    costs = sse_flat + sse_tail

    cmin = float(costs.min())
    # rounding noise makes exact cost ties (flat data) come out ~1e-15 apart
    tol = 1e-9 * max(1.0, float(np.sum(logs**2)))
    best_j = int(np.nonzero(costs <= cmin + tol)[0][-1])  # widest window on ties
    m = best_j + 1
    return ChangepointFit(
        delta=float(x[best_j]),
        l_tilde=float(r[:m].mean()),
        n_points=n,
        n_window=m,
        cost=float(costs[best_j]),
    )


def _density_samples(
    walk: list[tuple[int, float, int]], tick: float, q_a: int, max_x: float
) -> tuple[list[float], list[float]]:
    """Summed buy+sell density on the occupied ticks of a ``levels_past`` walk
    from the clearing price taken with ``max_x``.

    Samples are (|log-price distance|, density).  A tick's width is the gap to
    the next tick of the walk, outward from the price, which may lie beyond
    ``max_x``; the walk's last tick, with no tick past it, is one tick wide.
    Only ticks within ``max_x`` are returned.
    """
    if q_a <= 0:
        raise ValueError(f"q_a must be positive, got {q_a}")
    xs: list[float] = []
    rhos: list[float] = []
    for pos, (k, x, shares) in enumerate(walk):
        if x > max_x:
            break
        dp = abs(walk[pos + 1][0] - k) * tick if pos + 1 < len(walk) else tick
        xs.append(x)
        rhos.append(shares / (dp * q_a))
    return xs, rhos


def _omega_max(curve: ImpactCurve, walk: list[tuple[int, float, int]], delta: float) -> float:
    """Largest scaled order with zero-or-linear impact on the curve's side: ``omega0``
    plus the scaled volume of the ticks of a ``levels_past`` walk from the curve's
    price inside the constant window ``0 < x <= delta``."""
    total = sum(shares for _, x, shares in walk if 0 < x <= delta)
    return float(curve.omega0) + total / curve.q_a


def empirical_slope(curve: ImpactCurve, omega_lo: float, omega_hi: float) -> tuple[float, int]:
    """Least-squares slope of impact against scaled volume over curve jumps.

    Uses jumps with omega in (omega_lo, omega_hi].  Returns (slope, number of points).
    """
    pts = []
    for bp in curve.breakpoints:
        w = bp.omega_num / curve.q_a
        if omega_lo < w <= omega_hi:
            pts.append((w, bp.impact))
    if len(pts) < 2:
        raise TooFewPoints(f"need >= 2 jumps inside the window, got {len(pts)}")
    w = np.array([p[0] for p in pts])
    i = np.array([p[1] for p in pts])
    wm = w.mean()
    slope = float(np.sum((w - wm) * (i - i.mean())) / np.sum((w - wm) ** 2))
    return slope, len(pts)


@dataclass(frozen=True)
class RegimeFit:
    """Linear-regime description of one auction side."""

    side: str
    delta: float  # log-price units
    l_tilde: float
    omega_max: float
    beta_emp: float | None  # None when too few jumps to regress
    beta_theo: float
    n_points: int
    p_first: float  # first occupied tick past the clearing price
    omega0: float  # zero-impact scaled volume of the side's impact curve
    p_a: float  # clearing price of the uncrossed book
    q_a: int  # auction volume at p_a

    def metrics(self, date: str) -> DayMetrics:
        """This side's row of the per-day metrics table (``uncross stats`` input)."""
        return DayMetrics(date=date, side=self.side, p_a=self.p_a, q_a=self.q_a,
                          omega0=self.omega0, delta=self.delta, l_tilde=self.l_tilde,
                          omega_max=self.omega_max, beta_emp=self.beta_emp,
                          beta_theo=self.beta_theo)

    def csv_cells(self, date: str) -> tuple:
        """This side's row of the regime table (``REGIME_CSV_HEADER``)."""
        return (csv_label(date), self.side, self.delta * 1e4, self.l_tilde, self.omega_max,
                self.beta_emp, self.beta_theo, self.n_points)


REGIME_CSV_HEADER = "date,side,delta_bp,l_tilde,omega_max,beta_emp,beta_theo,n_points"


def fit_regime(
    book: AuctionBook,
    side: str,
    max_x: float = DEFAULT_MAX_X,
    min_points: int = DEFAULT_MIN_POINTS,
) -> RegimeFit:
    """Full one-side pipeline: density samples, change point, window, slopes.

    The fit uncrosses the book itself (NoCross without a cross).  One walk of
    the occupied ticks past the clearing price, out to ``max_x``, feeds the
    density samples, the impact curve and the window volume; the window's
    ticks (``0 < x <= delta <= max_x``) are a prefix of it.
    """
    k_a, q_a, imbalance, _ = uncross_values(book)
    walk = book.levels_past(k_a, side, max_x)
    xs, rhos = _density_samples(walk, book.grid.tick_size, q_a, max_x)
    cp = changepoint(xs, rhos, min_points=min_points)
    curve = _impact_curve(book, k_a, q_a, imbalance, side, max_x, walk)
    w_max = _omega_max(curve, walk, cp.delta)
    # the change point had two samples, and the second tick's threshold is never negative
    p_first = curve.grid.price_at(curve.breakpoints[0].target_index)
    beta_theo = theoretical_slope(p_first, cp.l_tilde)
    try:
        beta_emp, _ = empirical_slope(curve, float(curve.omega0), w_max)
    except TooFewPoints:
        beta_emp = None
    return RegimeFit(
        side=side,
        delta=cp.delta,
        l_tilde=cp.l_tilde,
        omega_max=w_max,
        beta_emp=beta_emp,
        beta_theo=beta_theo,
        n_points=cp.n_points,
        p_first=p_first,
        omega0=float(curve.omega0),
        p_a=curve.p_a,
        q_a=curve.q_a,
    )


def fits_to_csv(rows: Sequence[tuple[str, RegimeFit]]) -> str:
    return csv_table(REGIME_CSV_HEADER, (fit.csv_cells(date) for date, fit in rows))
