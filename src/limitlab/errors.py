"""Exception types shared across the package."""


class LimitLabError(Exception):
    """Base class for all engine errors."""


class UnsupportedIntersection(LimitLabError):
    """A set combination falls outside the closed, decidable atom algebra.

    Raised instead of guessing: the engine refuses combinations (mostly
    between two thin atoms) whose exact reduction is not implemented.
    """


class UndecidableDensity(LimitLabError):
    """The density rule table cannot classify the asymptotics at the point."""


class OutsideDomain(LimitLabError):
    """A function was evaluated at a point not in its domain."""


class DivisionByPossiblyZero(LimitLabError):
    """A divisor function may vanish somewhere on its domain."""


class NonPolynomialQuotient(LimitLabError):
    """A quotient is only representable when the divisor is branchwise constant."""


class PrerequisiteNotMet(LimitLabError):
    """An operation requires a limit verdict that did not hold."""


class DslSyntaxError(SyntaxError, LimitLabError):
    """Malformed DSL input; carries 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class RangeError(ValueError, LimitLabError):
    """An input or a result is outside its permitted range (e.g. a geometric
    ratio, or a numeral longer than 4300 digits)."""


class UnknownAtom(LimitLabError):
    """A set constructor name is not part of the grammar."""
