"""Independent brute-force implementations used as test oracles.

Everything here is written to be obviously correct rather than fast, and
shares no code with the package under test: factoring is plain trial
division, powerful numbers come from a smallest-prime-factor sieve, and
Pell solutions come from exponentiation in Z[sqrt(2)].  The verify report
is built as plain dicts from the package's analyses, for json.dumps.
"""

import math
from decimal import Decimal


def brute_factor(n: int) -> dict[int, int]:
    """Trial-division factorization, safe for n up to ~10^12."""
    assert n >= 1
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def sieve_primes(limit: int) -> list[int]:
    """Primes up to limit by a plain sieve of Eratosthenes over every integer."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(2, limit + 1) if sieve[i]]


def brute_is_powerful(n: int) -> bool:
    return all(e >= 2 for e in brute_factor(n).values())


def brute_is_prime(n: int) -> bool:
    return n >= 2 and brute_factor(n) == {n: 1}


def brute_is_squarefree(n: int) -> bool:
    return all(e == 1 for e in brute_factor(n).values())


def brute_powerful_upto(limit: int) -> list[int]:
    """All powerful numbers <= limit by definition, via an spf sieve."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    out = []
    for n in range(1, limit + 1):
        m = n
        ok = True
        while m > 1:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e < 2:
                ok = False
                break
        if ok:
            out.append(n)
    return out


def zsqrt2_pow(e: int) -> tuple[int, int]:
    """(x, y) with (1 + sqrt(2))^e = x + y*sqrt(2), by square-and-multiply."""
    assert e >= 0

    def mul(a, b, c, d):
        return a * c + 2 * b * d, a * d + b * c

    rx, ry = 1, 0
    bx, by = 1, 1
    while e:
        if e & 1:
            rx, ry = mul(rx, ry, bx, by)
        bx, by = mul(bx, by, bx, by)
        e >>= 1
    return rx, ry


def brute_find_kaps(values: list[int], k: int, d_max: int) -> list[tuple[int, int]]:
    """All k-AP starts by scanning every candidate difference directly."""
    members = set(values)
    out = []
    for n in values:
        for d in range(1, d_max + 1):
            if all(n + t * d in members for t in range(1, k)):
                out.append((n, d))
    return out


def brute_valuation_bound(quotients, ab_pairs, D: int, p: int):
    """(lhs, rhs, ok) of the per-prime bound at p, from plain division.

    lhs is 1 when p divides one of the quotients and 0 otherwise; rhs is
    the number of times p divides the product of every a_i and b_i, minus
    the number of times it divides D.
    """
    def times(n: int) -> int:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        return e

    lhs = 1 if any(q % p == 0 for q in quotients) else 0
    rhs = times(math.prod(a * b for a, b in ab_pairs)) - times(D)
    return lhs, rhs, rhs >= lhs


def decimal_quality(c: int, kappa: int, digits: int = 50, guard: int = 15):
    """ln c / ln kappa straight from the two integers: evaluated with
    digits + guard significant digits, then rounded to digits."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = digits + guard
        value = Decimal(c).ln() / Decimal(kappa).ln()
        ctx.prec = digits
        return +value


# Two primes above 10^25 (checked with sympy in test_arith).  Their product,
# or any number whose factoring must split it, stays beyond the default
# factoring budget: rho would need about 10^12 steps, and its 2^13-unit
# share (the product has 167 bits) is spent first, while a B1 = 2000 curve
# splits it with a chance far below one in a thousand and the default
# budget pays for about 39 curves.  The tests pin that these inputs do
# exhaust that budget.
OUT_OF_REACH = (10**25 + 13, 2 * 10**25 + 9)


def triple_report(t) -> dict:
    """The dict of one analyzed triple in a verify report."""
    product_ab = math.prod(dec.a * dec.b for dec in t.reduced.decomps)
    return {
        "N": str(t.reduced.terms[0]),
        "d": str(t.reduced.d),
        "D": str(t.D),
        "quality": str(t.quality),
        "abc": [str(v) for v in t.abc],
        "kappa": str(t.kappa),
        "radical_ok": t.quotient_radical * t.D <= product_ab,
        "min_margin": min((row.rhs - row.lhs for row in t.per_prime), default=0),
        "per_prime": [
            {"p": str(row.p), "nu_D": row.nu_d, "lhs": row.lhs, "rhs": row.rhs,
             "ok": row.ok, "case": row.case}
            for row in t.per_prime
        ],
    }


def verify_reports(witnesses, analyses) -> list[dict]:
    """The list json.dumps(..., indent=2) prints as verify's JSON report.

    witnesses are the verified witnesses in order; analyses are the
    analyses of their consecutive triples, in order, k - 2 per witness.
    """
    analyses = iter(analyses)
    reports = []
    for w in witnesses:
        mine = [next(analyses) for _ in range(w.k - 2)]
        triples = [triple_report(t) for t in mine]
        report = {
            "family": w.family,
            "k": w.k,
            "N": str(w.terms[0]),
            "d": str(w.d),
            "triples": triples,
            "verified": all(tr["radical_ok"] and all(row["ok"] for row in tr["per_prime"])
                            for tr in triples),
        }
        if any(t.quality > Decimal("1.6") for t in mine):
            report["note"] = "abc quality above 1.6: extraordinary, double-check inputs"
        reports.append(report)
    assert next(analyses, None) is None, "more analyses than triples"
    return reports
