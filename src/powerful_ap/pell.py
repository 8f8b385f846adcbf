"""Solutions of the Pell equations X^2 - 2*Y^2 = -1 and X^2 - 2*Y^2 = +1.

Both solution families are generated by powers of 1 + sqrt(2): odd powers
give the -1 equation, even powers give +1.  Consecutive solutions satisfy
the linear recurrence (X, Y) -> (3X + 4Y, 2X + 3Y), which is what the
streams below iterate; every emitted solution is checked against the
defining identity at construction time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidInput


class PellKind(enum.Enum):
    NEG = -1  # X^2 - 2 Y^2 = -1
    POS = 1   # X^2 - 2 Y^2 = +1


@dataclass(frozen=True)
class PellSolution:
    """The m-th positive solution of X^2 - 2*Y^2 = kind.value."""

    m: int
    x: int
    y: int
    kind: PellKind

    def __post_init__(self):
        if self.m < 1 or self.x < 1 or self.y < 1:
            raise InvalidInput(f"bad Pell solution indices: {self}")
        if self.x * self.x - 2 * self.y * self.y != self.kind.value:
            raise InvalidInput(
                f"({self.x}, {self.y}) does not solve X^2-2Y^2={self.kind.value}"
            )


def iter_pell_neg() -> Iterator[PellSolution]:
    """X^2 - 2Y^2 = -1 solutions (7,5), (41,29), ... ascending, lazily.

    The trivial solution (1, 1) seeds the recurrence but is not emitted.
    """
    x, y = 1, 1
    m = 0
    while True:
        x, y = 3 * x + 4 * y, 2 * x + 3 * y
        m += 1
        yield PellSolution(m, x, y, PellKind.NEG)


def iter_pell_pos() -> Iterator[PellSolution]:
    """X^2 - 2Y^2 = +1 solutions (3,2), (17,12), ... ascending, lazily."""
    x, y = 3, 2
    m = 1
    while True:
        yield PellSolution(m, x, y, PellKind.POS)
        x, y = 3 * x + 4 * y, 2 * x + 3 * y
        m += 1


def pell_solution(m: int, kind: PellKind) -> PellSolution:
    """The m-th solution (1-indexed) of the requested equation."""
    if m < 1:
        raise InvalidInput(f"m must be >= 1, got {m}")
    it = iter_pell_neg() if kind is PellKind.NEG else iter_pell_pos()
    for sol in it:
        if sol.m == m:
            return sol
    raise AssertionError("unreachable")
