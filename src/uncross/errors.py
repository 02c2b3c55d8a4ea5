"""Exception hierarchy shared across the package."""


class UncrossError(Exception):
    """Base class for all package errors."""


class OffGridPrice(UncrossError):
    """Price is not on the tick grid."""


class NonPositiveQuantity(UncrossError):
    """Order quantity must be a positive integer."""


class UnknownOrderId(UncrossError):
    """MODIFY/CANCEL references an order id that is not live."""


class DuplicateOrderId(UncrossError):
    """SUBMIT re-uses an order id that is still live."""


class ContradictsLiveOrder(UncrossError):
    """CANCEL/MODIFY names another side, or a CANCEL another type or price, than the live order."""


class NoCross(UncrossError):
    """Supply and demand never intersect: no auction outcome exists."""


class AllocationInvariantError(UncrossError):
    """A clearing record breaks the matched/remaining accounting identities.

    ``clear`` builds records that meet them by construction, unfilled market
    volume and spillover past the price included, so only a record built by
    hand can raise this.
    """


class MismatchedBinning(UncrossError):
    """Density profiles use different bin widths and cannot be combined."""


class BeyondTruncation(UncrossError):
    """Queried volume lies past the computed portion of the impact curve."""


class NoPositiveRoot(UncrossError):
    """The post-clearing impact quadratic has no positive real root."""


class ZeroLiquidity(UncrossError):
    """Book liquidity estimate is not strictly positive."""


class TooFewPoints(UncrossError):
    """Not enough samples for the requested fit or report."""


class NonPositiveDensity(UncrossError):
    """Density samples must be positive and finite where sampled."""


class LengthMismatch(UncrossError):
    """Paired samples have different lengths."""


class DegenerateSample(UncrossError):
    """Sample is constant; the statistic is undefined."""


class EmptySample(UncrossError):
    """Sample is empty."""


class EmptyBatch(UncrossError):
    """No records in the batch."""


class InfeasibleConfig(UncrossError):
    """Flow generator configuration has a field of the wrong type or is self-contradictory."""


class ParseError(UncrossError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.line = line
        self.path = path
        where = ":".join(str(w) for w in (path, line) if w is not None)
        super().__init__(f"{where}: {message}" if where else message)
