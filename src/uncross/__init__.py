"""Call-auction order book replay, clearing, and price-impact analytics."""

from .book import AuctionBook, OrderRecord
from .clearing import ClearingResult, IndicativePoint, clear, indicative_series
from .density import DensityProfile, average_density, day_profile
from .events import OrderEvent, read_events, write_events
from .flowgen import FlowConfig, generate
from .grid import PriceGrid
from .impact import (
    ImpactCurve,
    cancel_market_and_reclear,
    cash_volume,
    impact_curve,
    inject_and_reclear,
    post_clearing_impact,
    theoretical_slope,
)
from .regime import RegimeFit, changepoint, empirical_slope, fit_regime
from .response import (
    MarketableEvent,
    ResponseCurve,
    collect_marketable,
    response_curves,
)
from .stats import (
    DayMetrics,
    kde_csv,
    ks_two_sample,
    rcdf_csv,
    spearman,
    zero_impact_probability,
)

__version__ = "0.1.0"

__all__ = [
    "AuctionBook",
    "ClearingResult",
    "DayMetrics",
    "DensityProfile",
    "FlowConfig",
    "ImpactCurve",
    "IndicativePoint",
    "MarketableEvent",
    "OrderEvent",
    "OrderRecord",
    "PriceGrid",
    "RegimeFit",
    "ResponseCurve",
    "average_density",
    "cancel_market_and_reclear",
    "cash_volume",
    "changepoint",
    "collect_marketable",
    "clear",
    "day_profile",
    "empirical_slope",
    "fit_regime",
    "generate",
    "impact_curve",
    "indicative_series",
    "inject_and_reclear",
    "kde_csv",
    "ks_two_sample",
    "post_clearing_impact",
    "rcdf_csv",
    "read_events",
    "response_curves",
    "spearman",
    "theoretical_slope",
    "write_events",
    "zero_impact_probability",
]
