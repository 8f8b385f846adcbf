"""Exception types shared across the package."""

from __future__ import annotations


class PowerfulAPError(Exception):
    """Base class for every failure this package raises on purpose."""


class InvalidInput(PowerfulAPError, ValueError):
    """An argument violates a documented precondition."""


class BudgetExceeded(PowerfulAPError, RuntimeError):
    """The factoring work budget ran out before a complete factorization.

    This is a resource signal, never a wrong answer: the caller may retry
    with a larger budget.  `number` is the integer passed to factorize,
    never a cofactor of it; `step` is set when an AP extension step was
    the consumer.
    """

    def __init__(self, message: str, *, number: int | None = None,
                 step: int | None = None):
        super().__init__(message)
        self.number = number
        self.step = step


class NotPowerful(InvalidInput):
    """A number required to be powerful (p | n implies p^2 | n) is not."""


class InvalidWitness(PowerfulAPError, ValueError):
    """An arithmetic-progression witness fails validation."""


class ConsistencyFailure(PowerfulAPError, RuntimeError):
    """Two independently computed forms of the same quantity disagree.

    Raised by cross-checks that should be impossible to trip; seeing one
    means a defect, not bad input.
    """


class CapacityExceeded(PowerfulAPError, RuntimeError):
    """An enumeration would exceed the configured memory bound."""
