"""Exception hierarchy.

Everything raised on purpose derives from SteinmacError so callers can
catch library failures in one clause. Input-shaped mistakes additionally
derive from ValueError.
"""


class SteinmacError(Exception):
    """Base class for all errors raised by this package."""


class AbsoluteContinuityViolation(SteinmacError, ValueError):
    """P puts mass on a cell where Q has none, so D(P||Q) is infinite."""

    def __init__(self, cell, message=None):
        self.cell = cell
        super().__init__(message or f"P > 0 but Q == 0 at cell {cell}")


class OutOfAlphabet(SteinmacError, ValueError):
    """A sequence contains a symbol outside the declared alphabet."""


class LengthMismatch(SteinmacError, ValueError):
    """A sequence does not have the required length."""


class NoFeasiblePoint(SteinmacError):
    """The constraint set is empty (or has no point on the search grid)."""


class NonConvergence(SteinmacError):
    """Iteration budget exhausted before reaching tolerance."""

    def __init__(self, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} sweeps, residual {residual:.3e}"
        )


class DimensionTooLarge(SteinmacError, ValueError):
    """Problem size exceeds what exhaustive search supports."""


class NoMarkers(SteinmacError):
    """The channel class provides no marker structure for this request."""


class MarkerMismatch(SteinmacError, ValueError):
    """A marker set fails re-verification against the channel kernel."""


class BlocklengthTooSmall(SteinmacError):
    """The cost budget leaves no room for even one marker block."""


class CostBudgetExceeded(SteinmacError):
    """An encoder output would violate its sensor's cost constraint."""


class InstanceTooLarge(SteinmacError):
    """The exact estimator's lattice of symbol counts would exceed its state cap."""


class ZeroTiltOnSupport(SteinmacError, ValueError):
    """The importance-sampling tilt is zero on relevant support of Q."""


class DegenerateFit(SteinmacError):
    """Exponent fit impossible; carries a lower bound when one exists."""

    def __init__(self, message, lower_bound=None):
        self.lower_bound = lower_bound
        super().__init__(message)


class OutOfRange(SteinmacError, ValueError):
    """A parameter lies outside its range; `field` is the parameter's name."""

    def __init__(self, field, requirement):
        self.field = field
        self.requirement = requirement
        super().__init__(f"{field} {requirement}")


class ParseError(SteinmacError, ValueError):
    """A text input (kernel, problem, or config file) is malformed."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
        if line is not None:
            where += f"{line}: "
        elif path is not None:
            where += " "
        super().__init__(where + message)
