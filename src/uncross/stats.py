"""Batch statistics over per-day auction metrics.

The rank correlation and two-sample KS test are implemented directly (they are
small enough that an explicit implementation doubles as documentation of the
conventions: mid-ranks for ties, t-approximation for significance, asymptotic
Kolmogorov p-values at effective size n*m/(n+m)).  The t tail is the regularized
incomplete beta function I_x(nu/2, 1/2) at x = nu/(nu+t^2), evaluated by its
continued fraction, so the package needs no SciPy.  A sample that holds a NaN or
an infinity is refused with ``ValueError`` rather than ranked, sorted or smoothed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSample,
    EmptyBatch,
    EmptySample,
    LengthMismatch,
    ParseError,
    TooFewPoints,
)
from .events import _csv_rows, _plain, csv_table


def _sample(values: Sequence[float]) -> np.ndarray:
    """``values`` as a float array; a NaN or infinite value is a ``ValueError``."""
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("a sample value is NaN or infinite")
    return v


def _midranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their ranks."""
    _, inverse, counts = np.unique(_sample(values), return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    p_value: float  # two-sided, t-approximation

    @property
    def stars(self) -> str:
        if self.p_value < 0.001:
            return "***"
        if self.p_value < 0.01:
            return "**"
        if self.p_value < 0.05:
            return "*"
        return ""


def spearman(x: Sequence[float], y: Sequence[float]) -> SpearmanResult:
    """Rank correlation with mid-ranks for ties."""
    if len(x) != len(y):
        raise LengthMismatch(f"lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise TooFewPoints(f"need >= 3 pairs, got {n}")
    rx = _midranks(x)
    ry = _midranks(y)
    sx = rx.std()
    sy = ry.std()
    if sx == 0 or sy == 0:
        raise DegenerateSample("constant sample has no rank correlation")
    rho = float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        p = 0.0
    else:
        p = t_tail(rho * math.sqrt((n - 2) / (1.0 - rho * rho)), n - 2)
    return SpearmanResult(rho, p)


_FRACTION_MAX_TERMS = 1000  # nu up to 1e6 needs at most 52
_TINY = 1e-300  # stands in for a zero denominator in the Lentz recurrence


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method.

    It converges fast for x < (a+1)/(a+b+2), in O(sqrt(max(a, b))) terms.
    """
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, _FRACTION_MAX_TERMS + 1):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge in "
                          f"{_FRACTION_MAX_TERMS} terms (a={a}, b={b}, x={x})")


def t_tail(t: float, nu: float) -> float:
    """Two-sided Student-t tail P(|T| >= |t|) with ``nu`` degrees of freedom.

    This is I_x(nu/2, 1/2) at x = nu/(nu+t^2); past x > (a+1)/(a+b+2) it is
    taken as 1 - I_{1-x}(1/2, nu/2), where the fraction converges.
    """
    r = t * t / nu  # x = 1/(1+r) and 1-x = r/(1+r), each without cancellation
    if r == 0.0:
        return 1.0
    if r == math.inf:  # t*t overflowed: the tail is below every float
        return 0.0
    a, b = 0.5 * nu, 0.5
    front = math.exp(-a * math.log1p(r) + b * (math.log(r) - math.log1p(r))
                     + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    x = 1.0 / (1.0 + r)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, r / (1.0 + r)) / b


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float


def _kolmogorov_sf(lam: float) -> float:
    # survival function of the Kolmogorov distribution, alternating series
    if lam <= 0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


def ks_two_sample(x: Sequence[float], y: Sequence[float]) -> KsResult:
    """Two-sided two-sample Kolmogorov-Smirnov test, sup |Fx - Fy|.

    The p-value is asymptotic with effective size n*m/(n+m).
    """
    if len(x) == 0 or len(y) == 0:
        raise EmptySample("both samples must be non-empty")
    xs = np.sort(_sample(x))
    ys = np.sort(_sample(y))
    n, m = len(xs), len(ys)
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / n
    fy = np.searchsorted(ys, grid, side="right") / m
    d = float(np.max(np.abs(fx - fy)))
    ne = n * m / (n + m)
    return KsResult(d, _kolmogorov_sf(math.sqrt(ne) * d))


# ----------------------------------------------------------------- day metrics


@dataclass(frozen=True)
class DayMetrics:
    """One (day, side) record of the per-day metrics table."""

    date: str
    side: str
    p_a: float
    q_a: int
    omega0: float
    delta: float | None = None  # log-price units
    l_tilde: float | None = None
    omega_max: float | None = None
    beta_emp: float | None = None
    beta_theo: float | None = None

    @property
    def l_cash(self) -> float | None:
        """Window liquidity in currency units: p_a * q_a * l_tilde."""
        if self.l_tilde is None:
            return None
        return self.p_a * self.q_a * self.l_tilde


DEFAULT_THRESHOLD = 0.01  # scaled size of the zero-impact probability

DAY_METRICS_HEADER = (
    "date,side,p_a,q_a,omega0,delta_bp,l_tilde,omega_max,beta_emp,beta_theo,l_cash"
)


def csv_label(label: str) -> str:
    """``label``, refused when a comma, quote, CR or LF in it would break a CSV row."""
    if any(c in label for c in ',"\r\n'):
        raise ValueError(f"{label!r} holds a comma, quote or line break, "
                         "which would break the CSV rows")
    return label


def day_metrics_to_csv(rows: Sequence[DayMetrics]) -> str:
    return csv_table(DAY_METRICS_HEADER, (
        (csv_label(r.date), r.side, r.p_a, r.q_a, r.omega0,
         None if r.delta is None else r.delta * 1e4, r.l_tilde, r.omega_max, r.beta_emp,
         r.beta_theo, r.l_cash) for r in rows))


_METRICS_FIELDS = DAY_METRICS_HEADER.split(",")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _optional(text: str) -> float | None:
    return _finite(text) if text else None


def read_day_metrics(path) -> list[DayMetrics]:
    """Rows of a per-day metrics CSV, as ``day_metrics_to_csv`` writes them.

    A header other than exactly ``DAY_METRICS_HEADER`` is a ParseError at line
    1; cells are read by position.  A row with other than its number of fields,
    a number cell that ``events._plain`` refuses or that is not finite,
    ``q_a < 1``, ``p_a <= 0``, ``omega0 < 0``, an ``l_cash`` other than
    ``p_a * q_a * l_tilde`` (compared exactly: the writer's numbers round-trip),
    a side other than B or S, or an earlier row's ``(date, side)`` is a
    ParseError at its physical line.  A file that is not UTF-8 is a ParseError
    naming it.
    """
    rows = []
    seen: dict[tuple[str, str], int] = {}  # (date, side) -> line
    with _csv_rows(path) as (header, reader):
        if header != _METRICS_FIELDS:
            raise ParseError(f"day metrics header must be exactly {DAY_METRICS_HEADER!r}",
                             line=1, path=str(path))
        for cells in reader:
            if not cells:
                continue
            line_no = reader.line_num
            try:
                if len(cells) != len(_METRICS_FIELDS):
                    raise ValueError(f"expected {len(_METRICS_FIELDS)} fields like the header, "
                                     f"got {len(cells)}")
                date, side, *numbers = cells
                for field, cell in zip(_METRICS_FIELDS[2:], numbers):
                    if not _plain(cell):
                        raise ValueError(f"bad {field} {cell!r}")
                p_a, q_a, omega0, delta_bp, *fit, l_cash = numbers
                delta = _optional(delta_bp)
                row = DayMetrics(date, side, _finite(p_a), int(q_a), _finite(omega0),
                                 None if delta is None else delta / 1e4, *map(_optional, fit))
                if row.q_a < 1 or row.p_a <= 0 or row.omega0 < 0:
                    raise ValueError("need q_a >= 1, p_a > 0 and omega0 >= 0")
                if _optional(l_cash) != row.l_cash:
                    raise ValueError(f"l_cash {l_cash!r} is not p_a * q_a * l_tilde "
                                     f"({row.l_cash})")
                if row.side not in ("B", "S"):
                    raise ValueError(f"side must be B or S, got {row.side!r}")
                first = seen.setdefault((row.date, row.side), line_no)
                if first != line_no:
                    raise ValueError(f"date {row.date!r} side {row.side} repeats line "
                                     f"{first}")
            except ValueError as exc:
                raise ParseError(f"bad day metrics row: {exc}", line=line_no,
                                 path=str(path)) from None
            rows.append(row)
    return rows


def zero_impact_probability(rows: Sequence[DayMetrics], threshold: float) -> float:
    """Fraction of (day, side) records whose zero-impact volume reaches the threshold.

    A record counts when ``omega0 >= threshold``; note an order of exactly the
    threshold size shifts the price, so this is the chance that any order
    strictly smaller than ``threshold * q_a`` is free.
    """
    if not threshold > 0:  # NaN fails too
        raise ValueError(f"threshold must be positive, got {threshold}")
    if not rows:
        raise EmptyBatch("no day metrics")
    hits = sum(1 for r in rows if r.omega0 >= threshold)
    return hits / len(rows)


def batch_report(rows: Sequence[DayMetrics], threshold: float) -> dict:
    """The ``uncross stats`` report: row and paired-day counts, the zero-impact
    probability at ``threshold`` and, from 3 days with both sides up, the rank
    correlation (or why there is none) and KS test of buy against sell ``omega0``."""
    by_date: dict[str, dict[str, DayMetrics]] = {}
    for r in rows:
        by_date.setdefault(r.date, {})[r.side] = r
    paired = [(d["B"].omega0, d["S"].omega0) for d in by_date.values()
              if "B" in d and "S" in d]
    report: dict = {
        "n_rows": len(rows),
        "n_days_paired": len(paired),
        "p_zero_impact": {
            "threshold": threshold,
            "fraction": zero_impact_probability(rows, threshold),
        },
    }
    if len(paired) >= 3:
        xs = [p[0] for p in paired]
        ys = [p[1] for p in paired]
        try:
            sp = spearman(xs, ys)
            report["spearman_omega0"] = {"rho": sp.rho, "p_value": sp.p_value,
                                         "stars": sp.stars}
        except DegenerateSample as exc:
            report["spearman_omega0"] = {"error": str(exc)}
        ks = ks_two_sample(xs, ys)
        report["ks_omega0"] = {"statistic": ks.statistic, "p_value": ks.p_value}
    return report


# ----------------------------------------------------------- distribution views


def rcdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """Reverse CDF step table: (v, fraction of sample >= v) at each unique value."""
    if len(values) < 2:
        raise TooFewPoints(f"need >= 2 values, got {len(values)}")
    v = np.sort(_sample(values))
    n = len(v)
    u, first = np.unique(v, return_index=True)  # v[first:] are the values >= u
    return list(zip(u.tolist(), ((n - first) / n).tolist()))


KDE_GRID_POINTS = 256


def kernel_density(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density on ``KDE_GRID_POINTS`` points with Silverman's bandwidth."""
    v = _sample(values)
    if len(v) < 2:
        raise TooFewPoints(f"need >= 2 values, got {len(v)}")
    sd = float(v.std(ddof=1))
    q75, q25 = np.percentile(v, [75, 25])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if spread == 0:
        raise DegenerateSample("constant sample has no density estimate")
    bandwidth = 0.9 * spread * len(v) ** (-0.2)
    lo = float(v.min()) - 5 * bandwidth
    hi = float(v.max()) + 5 * bandwidth
    grid = np.linspace(lo, hi, KDE_GRID_POINTS)
    z = (grid[:, None] - v[None, :]) / bandwidth
    dens = np.exp(-0.5 * z * z).sum(axis=1) / (len(v) * bandwidth * math.sqrt(2 * math.pi))
    return grid, dens


def rcdf_csv(values: Sequence[float]) -> str:
    """The exact reverse CDF of a sample as a CSV table."""
    return csv_table("value,fraction_ge", rcdf(values))


def kde_csv(values: Sequence[float]) -> str:
    """The smoothed histogram of a sample as a CSV table."""
    return csv_table("value,density", zip(*kernel_density(values)))
