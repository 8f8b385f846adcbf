"""Integer kernel: primality, budgeted factoring, powerful-number decompositions.

Everything works on plain Python ints (arbitrary precision).  Factoring
starts with trial division by the primes up to 10^6, in blocks of 1024
consecutive primes: one gcd with a block's product rules out the whole
block, and only the primes of a gcd above 1 are divided out (Bernstein's
product-based smooth parts, "How to find smooth parts of integers", 2004,
used on one number at a time).  The products are built on first use, and a
number below the square of a block's largest prime meets that block prime
by prime.  A cofactor in (10^12, psi13) is tested for primality before the
first block gcd and before each gcd that follows one that divided something
out; there Miller-Rabin is a proof, so a prime cofactor ends trial division
at once and the remaining gcds are skipped.  Each composite cofactor that
remains is split by Brent-cycle Pollard rho for at most its share of the
budget and, if rho finds nothing, by the elliptic curve method (Lenstra,
Ann. Math. 126 (1987)) on Montgomery curves with a stage 2 (Math. Comp. 48
(1987)).  Both engines draw on one work budget per call, counted in rho
steps.  A unit counts work, not time.  A step of Brent's rho is one modular
multiplication while it only advances y and two once it also multiplies
into q, 1.5 on average; ECM pays two units per modular multiplication.
Measured with Python 3.11 on a 2-core KVM guest, a rho unit took 0.91-1.0
us against 0.30 us for an ECM unit on the 50- to 150-digit cofactors of
pell3 m = 51..200, and 0.36 against 0.14 us on those of m = 1..50: a rho
unit costs about 2.6 to 3.3 times the time of an ECM unit.  When the budget
runs out the call raises BudgetExceeded instead of ever returning a wrong
or partial answer, and it does so the same way for the same (n, budget).

Rho's share is set by the number it splits: 2^16 units up to 100 bits,
2^13 above.  On the pell3 m = 51..200 screen at budget 2e5, rho's shares
that found nothing took 10.2 s of an 18 s sweep, nearly all on numbers
above 100 bits.  There 101 of rho's 153 finds came within 2^13 units; the
smaller share leaves the rest to ECM, at a third of rho's time per unit,
and all four completed items still complete.  Up to 100 bits a factor rho
reaches late can lie beyond ECM's first curves (m = 77: a 9-digit factor
of a 23-digit cofactor at 50,046 units), so those numbers keep 2^16.

Primality uses the 13-base Miller-Rabin test below
psi13 = 3317044064679887385961981 (about 3.3e24), the least composite that
passes all 13 bases (Sorenson and Webster, "Strong pseudoprimes to twelve
prime bases", Math. Comp. 86 (2017)), so below psi13 it is a proof.  From
psi13 up it is Baillie-PSW, a probable-prime test: no composite is known
to pass it, but nothing proves that none does, so a verdict that rests on
a prime of psi13 or more rests on BPSW.

Decimal precision is set only here, in two contexts: a work context of
RATIO_DIGITS + 15 digits, in which every derived ratio or quality is
computed, and a RATIO_DIGITS context that rounds the result once.
ratio_digits runs any computation that way; sqrt_ratios does it for a
sorted run of search records with one square root per start.  An abc
quality ln c / ln kappa is summed from the logs of the primes of c and
kappa (and their multiples e * ln p), which private bounded caches keep at
the work precision, so each is evaluated once per process rather than once
per triple.

Inside factor_memo() (cli.main opens one around each command) factorize
remembers its results, so a number met again in the same command is not
factored again.  A result that needed no rho or ECM work does not depend
on the budget and is keyed by the integer alone.  When rho or ECM split
the cofactor left by trial division, the cofactor's factorization is
keyed by (cofactor, budget): rho and ECM reach the same result for the
same (cofactor, budget) every time, and a cofactor is often shared by
several numbers (a b_i and the b_i of its reduced triple).  A
BudgetExceeded is never kept, so it is raised for a given (n, budget)
exactly as without the memo.

is_powerful and the a^2 b^3 decompositions are read off one factorize
call, so they answer, or raise BudgetExceeded naming their input, exactly
when it does.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import functools
import itertools
import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from typing import Callable, Iterable, Iterator

from .errors import BudgetExceeded, InvalidInput, NotPowerful

# Reporting precision (significant digits) for every derived ratio/quality.
RATIO_DIGITS = 50
_GUARD_DIGITS = 15

TRIAL_DIVISION_BOUND = 10**6
_TRIAL_BLOCK = 1024  # primes per gcd in trial division
# Factoring work per number, in rho steps (1.5 modular multiplications on
# average); ECM draws on the same meter at two units per modular
# multiplication.  A unit counts work, not time (see the module docstring).
DEFAULT_RHO_BUDGET = 4_000_000

# psi13 = 1287836182261 * 2575672364521, the least composite that passes
# Miller-Rabin to every base in _MR_BASES: the test is a proof strictly below it.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_primes: list[int] | None = None

# The only two precisions of the package (module docstring): derived values
# are computed in _WORK and rounded once by _ROUND.  Their flags are never
# read, and neither traps Inexact or Rounded.
_WORK = Context(prec=RATIO_DIGITS + _GUARD_DIGITS)
_ROUND = Context(prec=RATIO_DIGITS)


def ratio_digits(compute: Callable[[], Decimal]) -> Decimal:
    """compute() evaluated with RATIO_DIGITS + 15 digits, rounded to RATIO_DIGITS.

    The guard digits absorb the rounding of the intermediate steps (logs,
    roots, quotients), so the result is the exact value correctly rounded
    unless that value lies extremely close to a rounding boundary.
    """
    with localcontext(_WORK):
        value = compute()
    return _ROUND.plus(value)


def sqrt_ratios(pairs: Iterable[tuple[int, int]]) -> list[Decimal]:
    """d / sqrt(N) of each (N, d), each equal to
    ratio_digits(lambda: Decimal(d) / Decimal(N).sqrt()).

    The root is kept while N repeats, so pairs sorted by N take one square
    root per distinct N.
    """
    sqrt, divide, plus = _WORK.sqrt, _WORK.divide, _ROUND.plus
    out = []
    last = None
    for n, d in pairs:
        if n != last:
            root, last = sqrt(n), n
        out.append(plus(divide(d, root)))
    return out


@functools.lru_cache(maxsize=1 << 14)
def _prime_ln(p: int) -> Decimal:
    """ln p at RATIO_DIGITS + 15 digits, for summing into ratio_digits."""
    return _WORK.ln(p)


@functools.lru_cache(maxsize=1 << 14)
def _prime_power_ln(p: int, e: int) -> Decimal:
    """e * ln p at RATIO_DIGITS + 15 digits: ln p**e as the work context
    computes it from _prime_ln(p)."""
    return _WORK.multiply(e, _prime_ln(p))


def _prime_list() -> list[int]:
    """Primes up to TRIAL_DIVISION_BOUND (sieved once, cached)."""
    global _primes
    if _primes is None:
        n = TRIAL_DIVISION_BOUND
        # odd numbers only: sieve[i] stands for 2*i + 1
        sieve = bytearray([1]) * ((n + 1) // 2)
        sieve[0] = 0
        for p in range(3, math.isqrt(n) + 1, 2):
            if sieve[p // 2]:
                sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))
        _primes = [2, *itertools.compress(range(1, n + 1, 2), sieve)]
    return _primes


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as an ascending tuple of (prime, exponent) pairs."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise InvalidInput(f"malformed factorization: {self.factors!r}")
            last = p

    @property
    def n(self) -> int:
        """The factored integer (product of p**e)."""
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)


# ---------------------------------------------------------------- primality

def _sprp(n: int, a: int) -> bool:
    """Strong probable-prime test to base a (n odd, n > 2)."""
    a %= n
    if a == 0:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    assert n > 0 and n % 2 == 1
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge parameters (n odd,
    n > 2, not a perfect square)."""
    d_param = 5
    while True:
        j = _jacobi(d_param, n)
        if j == -1:
            break
        if j == 0:
            return False  # shares a factor with d_param; n > |d_param| here
        d_param = -(d_param + 2) if d_param > 0 else -(d_param - 2)
    q = (1 - d_param) // 4
    # n + 1 = d * 2^s with d odd
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    inv2 = (n + 1) // 2
    u, v, qk = 1, 1, q % n  # U_1, V_1 (P = 1), Q^1
    for bit in bin(d)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) * inv2 % n, (d_param * u + v) * inv2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality: Miller-Rabin to the 13 bases of _MR_BASES below psi13 =
    _MR_DETERMINISTIC_BOUND (a proof there), Baillie-PSW from psi13 up (a
    probable-prime test with no known counterexample, not a proof)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        return all(_sprp(n, a) for a in _MR_BASES)
    r = math.isqrt(n)
    if r * r == n:
        return False
    return _sprp(n, 2) and _strong_lucas_prp(n)


# ----------------------------------------------------------- roots / powers

def integer_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) by Newton iteration on integers."""
    if n < 0 or k < 1:
        raise InvalidInput(f"integer_nth_root({n}, {k})")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    if k >= n.bit_length():
        return 1
    # Newton must start at or above the root, and close to it: from
    # x = (1 + e) * root a step shrinks x only by about a factor (1 - 1/k)
    # until k * e falls below 1.  log2(n) / k is a float within about
    # 2**-50 relative of log2(root); a slack of 2**-40 relative in that
    # exponent plus one unit keeps x above the root with k * e far below 1.
    t = math.log2(n) / k
    t += (t + 1) * 2.0**-40
    shift = max(0, int(t) - 60)
    x = (int(2.0 ** (t - shift)) + 1) << shift
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(root, k) with root**k == n and k >= 2 prime, else None."""
    if n < 4:
        return None
    for k in _prime_list():
        if k >= n.bit_length():
            break
        r = integer_nth_root(n, k)
        if r**k == n:
            return r, k
    return None


# ------------------------------------------------------------------- budget

class _Budget:
    """Mutable work meter shared across one factoring call.

    One unit is one rho step: one modular multiplication while Brent's rho
    only advances y, two once it also multiplies into q.  ECM pays two units
    per modular multiplication.  A unit counts work, not time: on the pell3
    cofactors a rho unit took about 2.6 to 3.3 times as long as an ECM unit
    (module docstring).  Work is paid for before it is done, so a result
    reached at one budget is reached, unchanged, at every larger one.
    """

    __slots__ = ("remaining", "number")

    def __init__(self, units: int, number: int):
        self.remaining = units
        self.number = number

    def spend(self, amount: int) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceeded(
                f"factoring budget exhausted on {self.number}",
                number=self.number,
            )


def _brent_rho(n: int, budget: _Budget) -> int | None:
    """A nontrivial factor of composite n (not a perfect power), or None if
    every offset c < 10^4 cycles without a split.  Deterministic: fixed start
    x0=2 and polynomial offsets c = 1, 2, 3, ... so results never depend on
    external randomness."""
    batch = 128
    for c in range(1, 10_000):
        y, r, q = 2, 1, 1
        g, ys, x = 1, y, y
        while g == 1:
            x = y
            budget.spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(batch, r - k)
                budget.spend(steps)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            # a whole batch collapsed; redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                budget.spend(1)
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        # cycle found the trivial divisor; retry with the next offset
    return None


# Rho's share of each split (module docstring): 2^16 units for a number of
# at most _RHO_BITS bits, 2^13 above.
_RHO_SHARE = 1 << 16
_RHO_SHARE_LARGE = 1 << 13
_RHO_BITS = 100
# ECM parameters.  Rho's share finds factors up to about 10^9 (2^16 units)
# or 10^7 (2^13); B1 = 2000 and B2 = 100 * B1 suit the 8- to 20-digit
# factors beyond.  D = 2*3*5*7*11, so the baby steps are the 240 odd
# j < D/2 prime to D.
_ECM_B1 = 2000
_ECM_B2 = 100 * _ECM_B1
_ECM_D = 2310
# Modular multiplications (squarings included) per x-only operation.
_XDBL, _XADD = 5, 6


@functools.cache
def _ecm_plan() -> tuple[int, tuple[tuple[int, ...], ...], int, int]:
    """Constants of every ECM curve, derived once from _prime_list().

    Returns the stage-1 multiplier k (every prime power up to B1); for each
    giant step m = 1, 2, ... the indices, among the odd j < D/2 prime to D,
    of every j with m*D - j or m*D + j a prime in (B1, B2]; and the modular
    multiplications of stage 1 (curve set-up included) and of stage 2.
    """
    primes = _prime_list()
    lo = bisect.bisect_right(primes, _ECM_B1)
    k = 1
    for p in primes[:lo]:
        q = p
        while q * p <= _ECM_B1:
            q *= p
        k *= q
    half = _ECM_D // 2
    babies = tuple(j for j in range(1, half, 2) if math.gcd(j, _ECM_D) == 1)
    index = {j: i for i, j in enumerate(babies)}
    giants: list[set[int]] = [set() for _ in range((_ECM_B2 + half) // _ECM_D)]
    for p in primes[lo : bisect.bisect_right(primes, _ECM_B2)]:
        m = (p + half) // _ECM_D
        giants[m - 1].add(index[abs(p - m * _ECM_D)])
    plan = tuple(tuple(sorted(g)) for g in giants)
    # set-up: 10 (u^3, v^3, (v-u)^3, products, inverse); ladder: one xDBL,
    # then one xADD and one xDBL per further bit
    stage1 = 10 + _XDBL + (k.bit_length() - 1) * (_XADD + _XDBL)
    # baby steps: 2Q, then each odd jQ up to D/2; giant steps: D*Q by
    # ladder, 2DQ, then one xADD per step; four multiplications per point
    # to make Z = 1; one per (m, j) pair
    ladder_d = _XDBL + (_ECM_D.bit_length() - 1) * (_XADD + _XDBL)
    stage2 = (_XDBL + half // 2 * _XADD + ladder_d + _XDBL
              + (len(plan) - 2) * _XADD + 4 * (len(babies) + len(plan))
              + sum(map(len, plan)))
    return k, plan, stage1, stage2


def _xdbl(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """(X:Z) of 2P for P = (x:z) on the Montgomery curve with (A+2)/4 = a24."""
    s, t = (x + z) ** 2 % n, (x - z) ** 2 % n
    d = s - t
    return s * t % n, d * (t + a24 * d) % n


def _xadd(x1: int, z1: int, x2: int, z2: int, xd: int, zd: int,
          n: int) -> tuple[int, int]:
    """(X:Z) of P1 + P2 from P1, P2 and P1 - P2 = (xd:zd)."""
    u, v = (x1 - z1) * (x2 + z2), (x1 + z1) * (x2 - z2)
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _ladder(x: int, z: int, k: int, a24: int, n: int) -> tuple[int, int]:
    """(X:Z) of k*P for P = (x:z), k >= 2, by the Montgomery ladder: the
    pair (jP, (j+1)P) has difference P throughout."""
    x1, z1 = x, z
    x2, z2 = _xdbl(x, z, a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            x1, z1 = _xadd(x1, z1, x2, z2, x, z, n)
            x2, z2 = _xdbl(x2, z2, a24, n)
        else:
            x2, z2 = _xadd(x1, z1, x2, z2, x, z, n)
            x1, z1 = _xdbl(x1, z1, a24, n)
    return x1, z1


def _ecm(n: int, budget: _Budget) -> int:
    """A nontrivial factor of composite n by the elliptic curve method.

    Curve sigma = 6, 7, 8, ... is Suyama's Montgomery curve with starting
    point (u^3 : v^3), u = sigma^2 - 5, v = 4*sigma (Montgomery, Math. Comp.
    48 (1987)).  Stage 1 multiplies by every prime power up to B1; stage 2
    pairs giant steps m*D*Q with baby steps j*Q and catches one more prime
    p = m*D +- j up to B2 in the product of x(mD*Q) - x(j*Q).  Each stage is
    paid for before it runs; the loop ends only with a factor or with
    BudgetExceeded.
    """
    k, plan, stage1, stage2 = _ecm_plan()
    for sigma in itertools.count(6):
        budget.spend(2 * stage1)
        u, v = (sigma * sigma - 5) % n, 4 * sigma % n
        x, z = pow(u, 3, n), pow(v, 3, n)
        den = 16 * x * v % n
        g = math.gcd(den, n)
        if g != 1:
            if g != n:
                return g
            continue
        a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
        x, z = _ladder(x, z, k, a24, n)
        g = math.gcd(z, n)
        if g == n:
            continue
        if g != 1:
            return g

        budget.spend(2 * stage2)
        # baby steps jQ for odd j < D/2: (j+2)Q = jQ + 2Q, difference
        # (j-2)Q; for j = 1 that is -Q, whose X:Z is Q's
        x2, z2 = _xdbl(x, z, a24, n)
        points = []
        xp, zp, xc, zc = x, z, x, z
        for j in range(1, _ECM_D // 2, 2):
            if math.gcd(j, _ECM_D) == 1:
                points.append((xc, zc))
            xp, zp, (xc, zc) = xc, zc, _xadd(xc, zc, x2, z2, xp, zp, n)
        # giant steps mG, G = D*Q: (m+1)G = mG + G, difference (m-1)G
        xg, zg = _ladder(x, z, _ECM_D, a24, n)
        xp, zp, (xc, zc) = xg, zg, _xdbl(xg, zg, a24, n)
        points += [(xp, zp), (xc, zc)]
        for _ in range(len(plan) - 2):
            xp, zp, (xc, zc) = xc, zc, _xadd(xc, zc, xg, zg, xp, zp, n)
            points.append((xc, zc))
        # x = X/Z of every point with one inversion (Montgomery's trick); a
        # Z that shares a factor with n is a find in itself
        prefix = [1]
        for _, zc in points:
            prefix.append(prefix[-1] * zc % n)
        g = math.gcd(prefix[-1], n)
        if g != 1:
            if g != n:
                return g
            continue
        inv = pow(prefix[-1], -1, n)
        xs = [0] * len(points)
        for i in range(len(points) - 1, -1, -1):
            xc, zc = points[i]
            xs[i] = xc * prefix[i] * inv % n
            inv = inv * zc % n
        # if Q has prime order p = m*D +- j modulo a prime q of n, then
        # mD*Q = -+j*Q there, and x(mD*Q) - x(j*Q) vanishes mod q
        giants = len(xs) - len(plan)
        acc = 1
        for xg, js in zip(xs[giants:], plan):
            for i in js:
                acc = acc * (xg - xs[i]) % n
        g = math.gcd(acc, n)
        if 1 < g < n:
            return g


def _rho_share(n: int) -> int:
    """Rho's share of a split of n, in budget units."""
    return _RHO_SHARE if n.bit_length() <= _RHO_BITS else _RHO_SHARE_LARGE


def _split(n: int, budget: _Budget) -> int:
    """A nontrivial factor of composite n (not a perfect power).

    Rho runs first, exactly as on its own, for at most _rho_share(n) units
    of the budget; if it finds nothing, ECM spends the rest.
    """
    share = min(_rho_share(n), budget.remaining)
    meter = _Budget(share, budget.number)
    try:
        d = _brent_rho(n, meter)
    except BudgetExceeded:
        d = None
    budget.spend(share - max(meter.remaining, 0))
    return d if d is not None else _ecm(n, budget)


def _factor_into(n: int, mult: int, out: dict[int, int], budget: _Budget) -> None:
    """Accumulate prime factors of n (counted mult times) into out.
    n has no prime factors <= TRIAL_DIVISION_BOUND."""
    stack = [(n, mult)]
    while stack:
        m, mu = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + mu
            continue
        pp = _perfect_power(m)
        if pp is not None:
            stack.append((pp[0], mu * pp[1]))
            continue
        d = _split(m, budget)
        assert 1 < d < m and m % d == 0
        stack.append((d, mu))
        stack.append((m // d, mu))


@functools.cache
def _block_product(i: int) -> int:
    """Product of the i-th block of _TRIAL_BLOCK consecutive primes of
    _prime_list(), built on first use."""
    return math.prod(_prime_list()[i * _TRIAL_BLOCK : (i + 1) * _TRIAL_BLOCK])


def _divide_out(p: int, n: int, acc: dict[int, int]) -> int:
    """n without its factors p (p divides n); their count goes to acc[p]."""
    n //= p
    e = 1
    while n % p == 0:
        n //= p
        e += 1
    acc[p] = e
    return n


def _trial_divide(n: int, acc: dict[int, int]) -> int:
    """Divide every prime up to TRIAL_DIVISION_BOUND out of n into acc.

    Returns what is left: 1, a prime below 10^12, or a number with no prime
    factor up to 10^6.  While the largest prime p of the next block of
    _TRIAL_BLOCK primes has p * p <= n, the block costs one gcd with its
    product (Bernstein's smooth-part idea, one number at a time): a gcd of 1
    skips all of it, and otherwise only the few primes of the gcd are
    divided out.  The block in which sqrt(n) falls is then divided prime by
    prime up to the first p with p * p > n, so a small n never builds or
    touches a product.

    Before the first gcd, and before each gcd that follows one that divided
    something out, a cofactor in (10^12, psi13) is tested with is_prime,
    which is a proof there.  A prime goes into acc and 1 is returned: the
    remaining gcds are skipped and the caller does not test it again.  A
    cofactor outside that range, or composite, meets every gcd as above.
    """
    primes = _prime_list()
    lo = 0
    fresh = True  # n has not been tested since it last changed
    while True:
        top = primes[min(lo + _TRIAL_BLOCK, len(primes)) - 1]
        if top * top > n:
            break
        if (fresh and TRIAL_DIVISION_BOUND * TRIAL_DIVISION_BOUND < n
                < _MR_DETERMINISTIC_BOUND and is_prime(n)):
            acc[n] = 1
            return 1
        g = math.gcd(_block_product(lo // _TRIAL_BLOCK), n)
        fresh = g > 1
        if fresh:
            # g is the product of the block's primes that divide n
            for p in primes[lo : lo + _TRIAL_BLOCK]:
                if p * p > g:
                    break
                if g % p == 0:
                    g //= p
                    n = _divide_out(p, n, acc)
            if g > 1:
                # no prime of the block up to sqrt(g) divides g: it is prime
                n = _divide_out(g, n, acc)
        lo += _TRIAL_BLOCK
        if lo >= len(primes):
            return n
    for p in itertools.islice(primes, lo, None):
        if p * p > n:
            break
        if n % p == 0:
            n = _divide_out(p, n, acc)
    return n


# While a factor_memo() is open: n -> Factorization of n, for n that needed
# no rho or ECM, and (cofactor, budget units) -> Factorization of the
# cofactor that rho and ECM split; else None.
_memo: contextvars.ContextVar[dict[int | tuple[int, int], Factorization] | None] = (
    contextvars.ContextVar("factor_memo", default=None))


@contextlib.contextmanager
def factor_memo() -> Iterator[None]:
    """Scope in which factorize reuses its results.

    A result that needed no rho or ECM is reused for any budget.  When rho
    or ECM split the cofactor that trial division left, that cofactor's
    factorization is reused for the same budget only, at which rho and ECM
    reach it every time.  A BudgetExceeded is never kept.  The memo starts
    empty and is dropped on exit; a nested scope gets its own.  It lives
    in a context variable, so other threads never see it.
    """
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def factorize(n: int, budget: int | None = None) -> Factorization:
    """Complete prime factorization of n >= 1.

    Trial division by the primes up to 10^6 (one gcd per block of 1024
    primes, see _trial_divide), then rho and ECM on what is left, all on
    `budget` units (rho steps, default DEFAULT_RHO_BUDGET).  Trial division
    spends no budget, and ends early when what is left lies in
    (10^12, psi13) and Miller-Rabin proves it prime; the factorization is
    the same either way.
    Raises BudgetExceeded, naming n, if the budget runs out on a hard
    cofactor; never returns an unverified factorization.
    """
    if n < 1:
        raise InvalidInput(f"factorize requires n >= 1, got {n}")
    memo = _memo.get()
    if memo is not None:
        known = memo.get(n)
        if known is not None:
            return known
    original = n
    acc: dict[int, int] = {}
    n = _trial_divide(n, acc)
    if n > 1:
        if n <= TRIAL_DIVISION_BOUND * TRIAL_DIVISION_BOUND or is_prime(n):
            # no divisor <= 10^6 and n <= 10^12 forces primality
            acc[n] = acc.get(n, 0) + 1
        else:
            # rho and ECM split what trial division left; their outcome
            # is fixed by (that cofactor, budget units)
            units = DEFAULT_RHO_BUDGET if budget is None else budget
            hard = memo.get((n, units)) if memo is not None else None
            if hard is None:
                found: dict[int, int] = {}
                _factor_into(n, 1, found, _Budget(units, original))
                hard = Factorization(tuple(sorted(found.items())))
                if memo is not None:
                    memo[(n, units)] = hard
            acc.update(hard.factors)  # primes above 10^6, none of them in acc
            memo = None  # the whole result is not kept; the cofactor's is
    result = Factorization(tuple(sorted(acc.items())))
    assert result.n == original
    if memo is not None:
        memo[original] = result
    return result


def valuation(p: int, n: int) -> int:
    """p-adic valuation of n (largest e with p**e | n); no factoring needed.

    p must be at least 2 (callers pass primes); n must be nonzero.
    """
    if p < 2:
        raise InvalidInput(f"valuation requires p >= 2, got {p}")
    if n == 0:
        raise InvalidInput("valuation of 0 is undefined")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def is_squarefree(n: int, budget: int | None = None) -> bool:
    """True iff no prime divides n twice."""
    if n < 1:
        raise InvalidInput(f"is_squarefree requires n >= 1, got {n}")
    if n < 4:
        return True
    r = math.isqrt(n)
    if r * r == n:
        return False
    return all(e == 1 for _, e in factorize(n, budget))


# --------------------------------------------------------- powerful numbers

def is_powerful(n: int, budget: int | None = None) -> bool:
    """True iff every prime dividing n divides it at least twice.

    Read off factorize(n, budget): raises BudgetExceeded, naming n, exactly
    when that factorization does.
    """
    if n < 1:
        raise InvalidInput(f"is_powerful requires n >= 1, got {n}")
    return all(e >= 2 for _, e in factorize(n, budget))


@dataclass(frozen=True)
class SquarefreeDecomp:
    """n = a^2 * b with b squarefree (the unique such splitting)."""

    a: int
    b: int

    @property
    def n(self) -> int:
        return self.a * self.a * self.b


@dataclass(frozen=True)
class PowerfulDecomp:
    """n = a^2 * b^3 with b squarefree (unique for powerful n)."""

    a: int
    b: int

    @property
    def n(self) -> int:
        return self.a * self.a * self.b**3


def decompose_square_times_squarefree(n: int, budget: int | None = None) -> SquarefreeDecomp:
    """Split n >= 1 as a^2 * b with b squarefree."""
    if n < 1:
        raise InvalidInput(f"decompose requires n >= 1, got {n}")
    a, b = 1, 1
    for p, e in factorize(n, budget):
        a *= p ** (e // 2)
        if e % 2:
            b *= p
    assert a * a * b == n
    return SquarefreeDecomp(a, b)


def decompose_powerful(n: int, budget: int | None = None) -> PowerfulDecomp:
    """Split powerful n as a^2 * b^3 with b squarefree.

    Raises NotPowerful when some prime divides n exactly once.
    """
    if n < 1:
        raise InvalidInput(f"decompose_powerful requires n >= 1, got {n}")
    a, b = 1, 1
    for p, e in factorize(n, budget):
        if e == 1:
            raise NotPowerful(f"{n} is not powerful: {p} divides it exactly once")
        if e % 2:
            a *= p ** ((e - 3) // 2)
            b *= p
        else:
            a *= p ** (e // 2)
    assert a * a * b**3 == n
    return PowerfulDecomp(a, b)
