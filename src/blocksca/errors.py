"""Exception types raised across the package."""


class BlockscaError(Exception):
    """Base class for all package-specific errors."""


class NonSymmetricGraph(BlockscaError):
    """Operation requires an undirected (symmetric) graph."""


class WindowOutOfRange(BlockscaError):
    """Requested window exceeds the stored edge-set sequence."""


class HorizonTooShort(BlockscaError):
    """No connectivity window could be certified within the horizon."""


class DimensionMismatch(BlockscaError):
    """An array's shape does not match the block layout or the agent count."""


class NonPositivePhi(BlockscaError):
    """A push-sum weight dropped to zero or below; weight matrix is malformed."""


class BadBlockIndex(BlockscaError):
    """Block index outside the layout."""


class NonPositiveTheta(BlockscaError):
    """Log-penalty shape parameter must be positive."""


class NonPositiveTau(BlockscaError):
    """Proximal parameter must be positive."""


class BadSparsity(BlockscaError):
    """Sparsity fraction must lie in [0, 1)."""


class DivergentSchedule(BlockscaError):
    """Step-size recurrence would leave (0, 1]."""


class IndivisibleBlocks(BlockscaError):
    """Variable count is not divisible by the requested block count."""


class MalformedTrace(BlockscaError):
    """Trace file is missing the expected header or columns."""


class NonFiniteIterate(BlockscaError):
    """The stationarity gap turned NaN or infinite: the iterates diverged."""
