"""Explicit arithmetic progressions of powerful numbers.

Four closed-form families plus an inductive extension step:

* squares_3ap(m): (2m^2-1)^2, (2m^2+2m+1)^2, (2m^2+4m+1)^2 with
  d = 8m^3 + 12m^2 + 4m.
* pell_3ap(m): 8n^2, (2x)^2, (2x+2)^2 where x = 2Y+1, n = X for
  X + Y*sqrt(2) = (1 + sqrt(2))^(2m+1), the m-th solution of
  X^2 - 2Y^2 = -1; d = 8x + 4.  Rests on x^2 - 2x - 1 = 2n^2.
* four_ap(m): with x = 8Y^2 for X + Y*sqrt(2) = (1 + sqrt(2))^(2m) (so
  x+4 = 4X^2 by X^2 - 2Y^2 = 1) the four terms (x-2)^3(x+2)^2,
  (x-2)^2 x (x+2)^2, (x-2)^2(x+2)^3, (x-2)^2(x+2)^2(x+4),
  d = 2(x-2)^2(x+2)^2.
* five_ap(m): with y = 4x^2 and a = 4x+2 for x = 2Y+1, where
  X + Y*sqrt(2) = (1 + sqrt(2))^(2m+1) as in pell_3ap(m), the five terms
  (y-2a)(y-a)^2(y+a)^2 .. (y-a)^2(y+a)^2(y+2a) in steps of
  d = a(y-a)^2(y+a)^2; the odd-position terms are the pell_3ap terms
  scaled by (y-a)^2(y+a)^2.

extend_ap turns a k-term progression with difference d into a (k+1)-term
one: write (last term) + d = a^2*b with b squarefree, scale everything by
b^2 and append a^2*b^3.  long_ap iterates that and ck_constants tracks the
rational constants C_k controlling how fast d may grow under extension
(C_5 = 3, C_{k+1} = C_k*(1 + k*C_k)^(2/(10*3^(k-4))), rounded up so the
bound stays valid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Any

from .arith import (
    PowerfulDecomp,
    decompose_powerful,
    decompose_square_times_squarefree,
    integer_nth_root,
    is_squarefree,
    ratio_digits,
)
from .errors import BudgetExceeded, InvalidInput, InvalidWitness
from .pell import pell_solution

FAMILY_SQUARES3 = "squares3"
FAMILY_PELL3 = "pell3"
FAMILY_FOUR = "four"
FAMILY_FIVE = "five"
FAMILY_EXTENDED = "extended"
FAMILY_SEARCH = "search"

# Exponent theta such that d grows like N^theta within the family; the
# reported ratio d / N^theta then tends to a constant.
DEFAULT_THETAS = {
    FAMILY_SQUARES3: Fraction(3, 4),
    FAMILY_PELL3: Fraction(1, 2),
    FAMILY_FOUR: Fraction(4, 5),
    FAMILY_FIVE: Fraction(9, 10),
}


@dataclass(frozen=True)
class APWitness:
    """A k-term arithmetic progression of powerful numbers with receipts.

    decomps[i] is the unique (a, b) with terms[i] = a^2 * b^3, b squarefree;
    params records how the witness was produced (generating index, seed
    chain, ...) and is carried along purely for reporting.
    """

    k: int
    terms: tuple[int, ...]
    d: int
    decomps: tuple[PowerfulDecomp, ...]
    family: str
    params: dict[str, Any] = field(default_factory=dict)


def _check_progression(w: APWitness) -> None:
    """The factoring-free checks of validate_witness, in its order."""
    if w.k != len(w.terms) or w.k != len(w.decomps) or w.k < 3:
        raise InvalidWitness(f"need k = len(terms) = len(decomps) >= 3, got k={w.k}")
    if w.d < 1:
        raise InvalidWitness(f"difference must be positive, got {w.d}")
    if w.terms[0] < 1:
        raise InvalidWitness(f"terms must be positive, got {w.terms[0]}")
    for i in range(1, w.k):
        if w.terms[i] - w.terms[i - 1] != w.d:
            raise InvalidWitness(
                f"terms[{i}] - terms[{i-1}] = {w.terms[i] - w.terms[i-1]} != d = {w.d}"
            )


def validate_witness(w: APWitness, budget: int | None = None) -> None:
    """Raise InvalidWitness unless w is a valid progression of powerfuls.

    Checked: shape, strictly increasing terms in constant steps of d >= 1,
    and that each decomposition reconstructs its term with a squarefree b
    (which proves the term powerful, since any a^2*b^3 is).
    """
    _check_progression(w)
    for i, (term, dec) in enumerate(zip(w.terms, w.decomps)):
        if dec.a < 1 or dec.b < 1:
            raise InvalidWitness(f"decomps[{i}] has nonpositive parts: {dec}")
        if dec.a * dec.a * dec.b**3 != term:
            raise InvalidWitness(f"decomps[{i}] does not reconstruct terms[{i}]")
        if not is_squarefree(dec.b, budget):
            raise InvalidWitness(f"decomps[{i}].b = {dec.b} is not squarefree")


def witness_from_terms(terms: tuple[int, ...], d: int, family: str,
                       budget: int | None = None) -> APWitness:
    """A checked witness for bare terms: each term is decomposed, then the
    progression checks of validate_witness run.

    A decomposition read off a complete factorization has a squarefree b
    and reconstructs its term, so nothing else is left to check.  Raises
    NotPowerful for the first term that is not powerful, BudgetExceeded
    when its factoring runs out, and InvalidWitness as validate_witness.
    """
    w = APWitness(
        k=len(terms),
        terms=terms,
        d=d,
        decomps=tuple(decompose_powerful(t, budget) for t in terms),
        family=family,
    )
    _check_progression(w)
    return w


# ------------------------------------------------------------- 3-term families

def squares_3ap(m: int) -> APWitness:
    """Three squares in arithmetic progression, d = 8m^3 + 12m^2 + 4m."""
    if m < 1:
        raise InvalidInput(f"m must be >= 1, got {m}")
    s = (2 * m * m - 1, 2 * m * m + 2 * m + 1, 2 * m * m + 4 * m + 1)
    terms = tuple(v * v for v in s)
    d = 8 * m**3 + 12 * m**2 + 4 * m
    assert terms[1] - terms[0] == d and terms[2] - terms[1] == d
    w = APWitness(
        k=3,
        terms=terms,
        d=d,
        decomps=tuple(PowerfulDecomp(v, 1) for v in s),
        family=FAMILY_SQUARES3,
        params={"m": m},
    )
    validate_witness(w)
    return w


def pell_3ap(m: int) -> APWitness:
    """The m-th Pell-driven 3-AP: 8n^2, (2x)^2, (2x+2)^2 with d = 8x + 4."""
    if m < 1:
        raise InvalidInput(f"m must be >= 1, got {m}")
    n, bigy = pell_solution(2 * m + 1)
    x = 2 * bigy + 1
    assert x * x - 2 * x - 1 == 2 * n * n
    terms = (8 * n * n, (2 * x) ** 2, (2 * x + 2) ** 2)
    d = 8 * x + 4
    assert terms[1] - terms[0] == d and terms[2] - terms[1] == d
    w = APWitness(
        k=3,
        terms=terms,
        d=d,
        # n and x are odd, so these (a, b) are the canonical decompositions
        decomps=(
            PowerfulDecomp(n, 2),
            PowerfulDecomp(2 * x, 1),
            PowerfulDecomp(2 * x + 2, 1),
        ),
        family=FAMILY_PELL3,
        params={"m": m, "x": x, "n": n},
    )
    validate_witness(w)
    return w


def _decomp_from_squarefree_part(term: int, b: int) -> PowerfulDecomp:
    """Canonical (a, b) for a term whose odd-exponent prime product is b."""
    a = math.isqrt(term // b**3)
    dec = PowerfulDecomp(a, b)
    assert dec.n == term
    return dec


def four_ap(m: int, budget: int | None = None) -> APWitness:
    """The m-th 4-term progression built on x = 8Y^2, x + 4 = 4X^2."""
    if m < 1:
        raise InvalidInput(f"m must be >= 1, got {m}")
    bigx, bigy = pell_solution(2 * m)
    x = 8 * bigy * bigy
    assert x + 4 == 4 * bigx * bigx
    u, v, w_ = x - 2, x + 2, x + 4
    terms = (u**3 * v**2, u**2 * x * v**2, u**2 * v**3, u**2 * v**2 * w_)
    d = 2 * u**2 * v**2
    assert all(terms[i + 1] - terms[i] == d for i in range(3))
    # u = 2(2Y-1)(2Y+1) and v = 2(4Y^2+1) with odd, pairwise coprime pieces:
    # sf(u) and sf(v) are 2 times those of the pieces, which factor faster.
    pieces_u, piece_v = (2 * bigy - 1, 2 * bigy + 1), 4 * bigy * bigy + 1
    assert u == 2 * math.prod(pieces_u) and v == 2 * piece_v
    sf_u = 2 * math.prod(decompose_square_times_squarefree(piece, budget).b
                         for piece in pieces_u)
    sf_v = 2 * decompose_square_times_squarefree(piece_v, budget).b
    decomps = (
        _decomp_from_squarefree_part(terms[0], sf_u),
        _decomp_from_squarefree_part(terms[1], 2),  # sf(x) = 2 since x = 8Y^2
        _decomp_from_squarefree_part(terms[2], sf_v),
        _decomp_from_squarefree_part(terms[3], 1),  # perfect square
    )
    w = APWitness(
        k=4,
        terms=terms,
        d=d,
        decomps=decomps,
        family=FAMILY_FOUR,
        params={"m": m, "x": x},
    )
    validate_witness(w, budget)
    return w


def five_ap(m: int, budget: int | None = None) -> APWitness:
    """The m-th 5-term progression anchored on the pell_3ap(m) terms."""
    if m < 1:
        raise InvalidInput(f"m must be >= 1, got {m}")
    n, bigy = pell_solution(2 * m + 1)
    x = 2 * bigy + 1
    y, a = 4 * x * x, 4 * x + 2
    assert y - 2 * a == 8 * n * n  # first pell_3ap term
    lo, hi = y - a, y + a
    terms = (
        (y - 2 * a) * lo**2 * hi**2,
        lo**3 * hi**2,
        lo**2 * y * hi**2,
        lo**2 * hi**3,
        lo**2 * hi**2 * (y + 2 * a),
    )
    d = a * lo**2 * hi**2
    assert all(terms[i + 1] - terms[i] == d for i in range(4))
    # lo = 2(2x^2-2x-1), hi = 2(2x^2+2x+1) with odd pieces; y, y±2a are
    # squares times 2^3
    piece_lo, piece_hi = 2 * x * x - 2 * x - 1, 2 * x * x + 2 * x + 1
    assert lo == 2 * piece_lo and hi == 2 * piece_hi
    sf_lo = 2 * decompose_square_times_squarefree(piece_lo, budget).b
    sf_hi = 2 * decompose_square_times_squarefree(piece_hi, budget).b
    decomps = (
        _decomp_from_squarefree_part(terms[0], 2),  # (y-2a) = 8n^2, n odd
        _decomp_from_squarefree_part(terms[1], sf_lo),
        _decomp_from_squarefree_part(terms[2], 1),  # y = (2x)^2
        _decomp_from_squarefree_part(terms[3], sf_hi),
        _decomp_from_squarefree_part(terms[4], 1),  # y+2a = (2x+2)^2
    )
    w = APWitness(
        k=5,
        terms=terms,
        d=d,
        decomps=decomps,
        family=FAMILY_FIVE,
        params={"m": m, "x": x, "y": y, "a": a},
    )
    validate_witness(w, budget)
    return w


# -------------------------------------------------------------- extension step

def extend_ap(w: APWitness, budget: int | None = None) -> APWitness:
    """Append one term: (last + d) = a^2*b, scale by b^2, append a^2*b^3.

    The scaled old terms stay powerful with the same squarefree parts
    (their a picks up the factor b), so no refactoring is needed; only
    last + d must be decomposed, which is where the factoring budget goes.
    """
    nxt = w.terms[-1] + w.d
    dec = decompose_square_times_squarefree(nxt, budget)
    b2 = dec.b * dec.b
    terms = tuple(t * b2 for t in w.terms) + (dec.a**2 * dec.b**3,)
    decomps = tuple(
        PowerfulDecomp(old.a * dec.b, old.b) for old in w.decomps
    ) + (PowerfulDecomp(dec.a, dec.b),)
    if w.family == FAMILY_EXTENDED:
        params = dict(w.params)
        params["multipliers"] = list(params["multipliers"]) + [dec.b]
    else:
        params = {
            "seed_family": w.family,
            "seed_params": dict(w.params),
            "multipliers": [dec.b],
        }
    out = APWitness(
        k=w.k + 1,
        terms=terms,
        d=w.d * b2,
        decomps=decomps,
        family=FAMILY_EXTENDED,
        params=params,
    )
    validate_witness(out, budget)
    return out


def long_ap(k: int, seed: APWitness | None = None,
            budget: int | None = None) -> APWitness:
    """Extend `seed` (default pell_3ap(1)) until it has k terms.

    On budget exhaustion the raised BudgetExceeded names the failing
    extension step (the k it was trying to reach) and the number whose
    factorization gave out.
    """
    if k < 3:
        raise InvalidInput(f"k must be >= 3, got {k}")
    w = seed if seed is not None else pell_3ap(1)
    if w.k > k:
        raise InvalidInput(f"seed already has {w.k} > {k} terms")
    while w.k < k:
        try:
            w = extend_ap(w, budget)
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                f"extension {w.k} -> {w.k + 1} ran out of budget "
                f"factoring {exc.number}",
                number=exc.number,
                step=w.k + 1,
            ) from exc
    return w


# ------------------------------------------------------- growth-rate constants

def _root_upper(base: Fraction, q: int) -> Fraction:
    """A rational upper bound on base**(1/q), tight to ~10**-25."""
    assert base > 0 and q >= 1
    scale = 10**25
    target = base.numerator * scale**q
    u = integer_nth_root(target // base.denominator, q)
    while u**q * base.denominator < target:
        u += 1
    return Fraction(u, scale)


def ck_constants(k: int) -> Fraction:
    """The constant C_k bounding d <= C_k * N^(1 - 1/(10*3^(k-5))), k >= 5.

    C_5 = 3 and C_{k+1} = C_k * (1 + k*C_k)^(2/(10*3^(k-4))).  The real
    power is irrational, so each step is rounded UP to 25 digits; since the
    recurrence is monotone in C_k, the result is a valid upper bound and
    the bound it certifies only weakens.
    """
    if k < 5:
        raise InvalidInput(f"constants start at k = 5, got {k}")
    c = Fraction(3)
    for j in range(5, k):
        q = 5 * 3 ** (j - 4)  # exponent 2/(10*3^(j-4)) = 1/q
        c = c * _root_upper(1 + j * c, q)
    return c


def extension_exponent(k: int) -> Fraction:
    """The exponent 1 - 1/(10*3^(k-5)) paired with ck_constants(k)."""
    if k < 5:
        raise InvalidInput(f"extension exponent defined for k >= 5, got {k}")
    q = 10 * 3 ** (k - 5)
    return Fraction(q - 1, q)


def ratio_bound_holds(d: int, coeff: Fraction | int, n: int,
                      theta: Fraction) -> bool:
    """Exact test of d <= coeff * n**theta for rational coeff and theta.

    Cross-multiplied into integers (no rounding anywhere):
    d^q * cd^q <= cn^q * n^p  where theta = p/q and coeff = cn/cd.
    """
    if d < 0 or n < 1:
        raise InvalidInput(f"need d >= 0 and n >= 1, got d={d}, n={n}")
    coeff = Fraction(coeff)
    if coeff <= 0 or theta <= 0:
        raise InvalidInput("coefficient and exponent must be positive")
    p, q = theta.numerator, theta.denominator
    return d**q * coeff.denominator**q <= coeff.numerator**q * n**p


# ----------------------------------------------------------------- reporting

def default_theta(w: APWitness) -> Fraction:
    """The natural reporting exponent for a witness.

    Family members use the table above; anything with k >= 5 (extended
    chains, search finds) uses the extension exponent for its k, shorter
    generic progressions fall back to the k = 3 and k = 4 family values.
    """
    if w.family in DEFAULT_THETAS:
        return DEFAULT_THETAS[w.family]
    if w.k >= 5:
        return extension_exponent(w.k)
    return Fraction(1, 2) if w.k == 3 else Fraction(4, 5)


def theta_ratio(w: APWitness, theta: Fraction | int | str) -> Decimal:
    """d / N^theta for N the first term, to 50 significant digits.

    Evaluated in Decimal arithmetic with guard digits, never in machine
    floats; theta may be any Fraction-convertible value in (0, 1].
    """
    theta = Fraction(theta)
    if not 0 < theta <= 1:
        raise InvalidInput(f"theta must lie in (0, 1], got {theta}")
    n, d = w.terms[0], w.d

    def ratio() -> Decimal:
        if n == 1:
            return Decimal(d)
        ln_n = Decimal(n).ln()
        power = (Decimal(theta.numerator) / Decimal(theta.denominator) * ln_n).exp()
        return Decimal(d) / power

    return ratio_digits(ratio)
