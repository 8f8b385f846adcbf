"""Structural verification of 3-term progressions of powerful numbers.

Every 3-AP N, N+d, N+2d of powerful numbers t_i = a_i^2 b_i^3 satisfies
(N+d)^2 = N(N+2d) + d^2 exactly.  After dividing out cube factors common
to all three b_i (reduce_triple) and setting D = gcd(N+d, d), the three
quotients t_i/D give an exact sum

    (t_1/D)(t_3/D) + (d/D)^2 = (t_2/D)^2

of pairwise coprime terms, which is an abc triple.  This module checks,
with nothing but integer arithmetic:

* the square identity itself (ap_identity_check);
* that D^2 computed three different ways agrees and D divides each term
  (compute_D; disagreement raises ConsistencyFailure);
* the radical inequality kappa(q_1 q_2 q_3) * D <= a_1 b_1 a_2 b_2 a_3 b_3
  and its per-prime refinement nu_p(a_1 b_1 ... b_3) - nu_p(D) >= lhs,
  where lhs is 1 when p divides some quotient and 0 otherwise.

The abc quality log(c)/log(kappa(abc)) of the induced triple is reported
to 50 digits but never asserted against a bound; a quality above 1.6
would be an extraordinary find, not a test failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable

from .arith import (
    _ROUND,
    _WORK,
    PowerfulDecomp,
    _prime_ln,
    _prime_power_ln,
    factorize,
    valuation,
)
from .constructions import APWitness, validate_witness
from .errors import ConsistencyFailure, InvalidInput


@dataclass(frozen=True)
class PrimeCheck:
    """One row of the per-prime valuation table for a reduced triple.

    case tags which of b_1, b_2, b_3 the prime divides (case1: none,
    case2: one, case3: two) and the parity of nu_d; primes not dividing D
    are tagged D-coprime.  Diagnostic only.
    """

    p: int
    nu_d: int
    lhs: int
    rhs: int
    ok: bool
    case: str


@dataclass(frozen=True)
class TripleAnalysis:
    reduced: APWitness
    D: int
    quotients: tuple[int, int, int]
    quotient_radical: int
    per_prime: tuple[PrimeCheck, ...]
    abc: tuple[int, int, int]
    kappa: int
    quality: Decimal

    def all_ok(self) -> bool:
        return all(row.ok for row in self.per_prime)


def ap_identity_check(n: int, d: int) -> bool:
    """Exact check of (N+d)^2 == N(N+2d) + d^2.

    True for every N, d by algebra; exercising it on concrete values
    guards the integer plumbing, not the mathematics.
    """
    if n < 1 or d < 1:
        raise InvalidInput(f"need N >= 1 and d >= 1, got N={n}, d={d}")
    return (n + d) ** 2 == n * (n + 2 * d) + d * d


def _require_3ap(w: APWitness) -> None:
    if w.k != 3:
        raise InvalidInput(f"expected a 3-term witness, got k={w.k}")


def reduce_triple(w: APWitness) -> APWitness:
    """Divide out p^3 for every prime p dividing all of b_1, b_2, b_3.

    The result is the same progression with gcd(b_1, b_2, b_3) = 1; a
    witness already in that state is returned unchanged.  A valid witness
    stays valid without a new check: each b_i/g divides the squarefree
    b_i, and g^3 divides every term and d.
    """
    _require_3ap(w)
    g = math.gcd(w.decomps[0].b, w.decomps[1].b, w.decomps[2].b)
    if g == 1:
        return w
    # g is squarefree (it divides a squarefree number), so one pass of
    # dividing by g^3 removes every shared prime completely.
    g3 = g ** 3
    params = dict(w.params)
    params["reduced_by"] = params.get("reduced_by", 1) * g
    out = APWitness(
        k=3,
        terms=tuple(t // g3 for t in w.terms),
        d=w.d // g3,
        decomps=tuple(PowerfulDecomp(dec.a, dec.b // g) for dec in w.decomps),
        family=w.family,
        params=params,
    )
    assert math.gcd(out.decomps[0].b, out.decomps[1].b, out.decomps[2].b) == 1
    return out


def compute_D(w: APWitness) -> int:
    """D = gcd(N+d, d) for a reduced triple, with cross-checked structure.

    D^2 must equal gcd(t_2^2, d^2), gcd(t_2^2, t_1 t_3) and
    gcd(t_1 t_3, d^2), and D must divide t_1 and t_3 as well; any
    disagreement means broken arithmetic and raises ConsistencyFailure.
    """
    _require_3ap(w)
    if math.gcd(w.decomps[0].b, w.decomps[1].b, w.decomps[2].b) != 1:
        raise InvalidInput("witness must be reduced first (shared b factor)")
    t1, t2, t3 = w.terms
    d = w.d
    D = math.gcd(t2, d)
    D2 = D * D
    forms = (
        math.gcd(t2 * t2, d * d),
        math.gcd(t2 * t2, t1 * t3),
        math.gcd(t1 * t3, d * d),
    )
    if any(f != D2 for f in forms):
        raise ConsistencyFailure(
            f"D^2 forms disagree for terms {w.terms}: {D2} vs {forms}"
        )
    if t1 % D or t3 % D:
        raise ConsistencyFailure(f"D={D} does not divide outer terms {t1}, {t3}")
    return D


def _quality(c: Iterable[tuple[int, int]], kappa: Iterable[int]) -> Decimal:
    """log(c) / log(kappa) to 50 digits: the abc quality of a triple with
    sum c, given as its (prime, exponent) pairs and the primes of kappa.

    The sums, in this order, and the quotient are taken in arith's work
    context and rounded once, as ratio_digits would do them.
    """
    add = _WORK.add
    num = den = 0
    for p, e in c:
        num = add(num, _prime_power_ln(p, e))
    for p in kappa:
        den = add(den, _prime_ln(p))
    return _ROUND.plus(_WORK.divide(num, den))


def analyze_triple(w: APWitness, budget: int | None = None) -> TripleAnalysis:
    """Run the whole battery on one 3-AP and collect the evidence.

    Factoring is the only potentially expensive step, and `budget` caps
    the work per number.  The battery factors each a_i and b_i of the
    reduced triple and d/D once.  The exponents of a_1 b_1 a_2 b_2 a_3 b_3
    and of t_2 = a_2^2 b_2^3 are summed straight from those
    factorizations, and they give the radical, the per-prime table and
    the abc quality, whose logs are summed over those primes.  Before
    that, validate_witness checks the witness given, once, and its
    is_squarefree asks factorize for each b_i; the battery asks for the
    same b_i again when reduction left them unchanged.  Under the CLI that
    repeat, like every b_i met again in later triples, is a factor_memo
    hit rather than a new factoring.  The reduced witness is not checked
    again: reduction keeps a valid witness valid.
    """
    _require_3ap(w)
    validate_witness(w, budget)
    if not ap_identity_check(w.terms[0], w.d):
        raise ConsistencyFailure(f"square identity fails for {w.terms}")

    red = reduce_triple(w)
    D = compute_D(red)
    quotients = tuple(t // D for t in red.terms)
    dd = red.d // D
    q1, q2, q3 = quotients
    abc = (q1 * q3, dd * dd, q2 * q2)
    if abc[0] + abc[1] != abc[2]:
        raise ConsistencyFailure(f"quotient identity fails for {red.terms}")
    if (
        math.gcd(abc[0], abc[1]) != 1
        or math.gcd(abc[0], abc[2]) != 1
        or math.gcd(abc[1], abc[2]) != 1
    ):
        raise ConsistencyFailure(f"quotient terms not pairwise coprime: {abc}")

    fact_a = [factorize(dec.a, budget) for dec in red.decomps]
    fact_b = [factorize(dec.b, budget) for dec in red.decomps]
    fact_dd = factorize(dd, budget)
    # nu_p(a_1 b_1 a_2 b_2 a_3 b_3), and nu_p(t_2) for t_2 = a_2^2 b_2^3;
    # c = q_2^2 with q_2 = t_2 / D
    nu_ab: dict[int, int] = {}
    for f in (*fact_a, *fact_b):
        for p, e in f:
            nu_ab[p] = nu_ab.get(p, 0) + e
    nu_t2 = {p: 2 * e for p, e in fact_a[1]}
    for p, e in fact_b[1]:
        nu_t2[p] = nu_t2.get(p, 0) + 3 * e
    b1, b2, b3 = (dec.b for dec in red.decomps)

    rows = []
    quotient_radical = 1
    fact_c = []
    for p in sorted(nu_ab):
        if D % p:
            nu_d = 0
            case = "D-coprime"
        else:
            nu_d = valuation(p, D)
            hits = (b1 % p == 0) + (b2 % p == 0) + (b3 % p == 0)
            case = f"case{hits + 1}/{'odd' if nu_d % 2 else 'even'}"
        lhs = 1 if q1 % p == 0 or q2 % p == 0 or q3 % p == 0 else 0
        rhs = nu_ab[p] - nu_d
        rows.append(PrimeCheck(p=p, nu_d=nu_d, lhs=lhs, rhs=rhs,
                               ok=rhs >= lhs, case=case))
        if lhs:
            quotient_radical *= p
        nu_q2 = nu_t2.get(p, 0) - nu_d
        if nu_q2:
            fact_c.append((p, 2 * nu_q2))
    if math.prod(p**e for p, e in fact_c) != abc[2]:
        raise ConsistencyFailure(f"factorization of c disagrees with {abc[2]}")

    kappa_primes = [
        p for p in sorted(nu_ab.keys() | fact_dd.primes())
        if q1 % p == 0 or q2 % p == 0 or q3 % p == 0 or dd % p == 0
    ]
    kappa = math.prod(kappa_primes)

    return TripleAnalysis(
        reduced=red,
        D=D,
        quotients=quotients,
        quotient_radical=quotient_radical,
        per_prime=tuple(rows),
        abc=abc,
        kappa=kappa,
        quality=_quality(fact_c, kappa_primes),
    )


def radical_inequality_check(t: TripleAnalysis) -> bool:
    """kappa(q_1 q_2 q_3) * D <= a_1 b_1 a_2 b_2 a_3 b_3, exactly.

    Expected true on every valid reduced triple; a False here is a
    reportable discovery (or a bug), not a condition to swallow.
    """
    product_ab = math.prod(dec.a * dec.b for dec in t.reduced.decomps)
    return t.quotient_radical * t.D <= product_ab

