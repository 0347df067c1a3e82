"""Exception types raised across the package."""


class BlockscaError(Exception):
    """Base class for all package-specific errors."""


class NonSymmetricGraph(BlockscaError):
    """Operation requires an undirected (symmetric) graph."""


class DimensionMismatch(BlockscaError):
    """Per-agent data do not stack, b's shape does not match D's agents and
    rows, or a run's schedule or graph has another agent count than its data."""


class NonPositivePhi(BlockscaError):
    """A push-sum weight dropped to zero or below; weight matrix is malformed."""


class BadBlockIndex(BlockscaError):
    """Block index outside 0..B-1 for the block count B in use."""


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
