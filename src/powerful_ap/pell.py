"""Solutions of the Pell equations X^2 - 2*Y^2 = -1 and X^2 - 2*Y^2 = +1.

Both come from powers of the unit 1 + sqrt(2): writing
(1 + sqrt(2))^k = X + Y*sqrt(2), the norm X^2 - 2Y^2 is (-1)^k, so odd k
give the -1 equation ((7, 5) at k = 3) and even k the +1 equation
((3, 2) at k = 2).  pell_solution(k) computes that power by
square-and-multiply in Z[sqrt(2)] and checks the norm exactly.
"""

from __future__ import annotations

from .errors import ConsistencyFailure, InvalidInput


def _mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """(a0 + a1*sqrt(2)) * (b0 + b1*sqrt(2)) in Z[sqrt(2)]."""
    return a[0] * b[0] + 2 * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def pell_solution(k: int) -> tuple[int, int]:
    """(X, Y) with X + Y*sqrt(2) = (1 + sqrt(2))^k, so X^2 - 2Y^2 = (-1)^k.

    Raises InvalidInput for k < 0 and ConsistencyFailure if the computed
    pair does not have norm (-1)^k.
    """
    if k < 0:
        raise InvalidInput(f"k must be >= 0, got {k}")
    power, square = (1, 0), (1, 1)
    e = k
    while e:
        if e & 1:
            power = _mul(power, square)
        square = _mul(square, square)
        e >>= 1
    x, y = power
    if x * x - 2 * y * y != (-1) ** k:
        raise ConsistencyFailure(f"({x}, {y}) does not solve X^2-2Y^2={(-1) ** k}")
    return x, y
