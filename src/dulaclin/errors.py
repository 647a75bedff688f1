"""Exception types shared across the package."""


class DulaclinError(Exception):
    """Base class for every error raised by dulaclin."""


class ParseError(DulaclinError):
    """Malformed input text; carries the character offset when known."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class ExponentNotInSemigroup(DulaclinError):
    """A term exponent is not a nonnegative-integer combination of the generators."""


class NonUnitSlope(DulaclinError):
    """Composition requires the inner series to have head zeta + beta."""


class NotNormalized(DulaclinError):
    """Chart conversion requires a normalized hyperbolic or parabolic head."""


class NotHyperbolic(DulaclinError):
    """Linearization requires a hyperbolic head (Re beta > 0, unit slope)."""


class ResonantCoefficient(DulaclinError):
    """The difference equation Q - c*Q(.+beta) = P is singular for c = 1."""


class IterationBudgetExceeded(DulaclinError):
    """A fixed-point iteration failed to stabilize within its budget."""


class OrderTooLow(DulaclinError):
    """Operator input must have order strictly greater than one in the z-chart."""


class DomainError(DulaclinError):
    """Argument outside the domain of a bound function or iterated logarithm."""


class EvalDomainError(DulaclinError):
    """Expression evaluation hit a guard (log of nonpositive real part, pole)."""


class DecayHypothesisViolated(DulaclinError):
    """|h| exceeded its declared exponential envelope at a visited point."""


class InsufficientData(DulaclinError):
    """Too few usable grid points for a slope fit."""


class NotConverged(DulaclinError):
    """Iteration did not meet its certified stopping criteria.

    Expected for maps that violate the asymptotic hypothesis; `partial`
    holds the best available result, `max_n` the iteration budget spent.
    """

    def __init__(self, message, max_n=None, partial=None):
        super().__init__(message)
        self.max_n = max_n
        self.partial = partial
