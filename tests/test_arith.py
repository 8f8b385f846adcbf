import functools
import math

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from powerful_ap import (
    BudgetExceeded,
    Factorization,
    InvalidInput,
    NotPowerful,
    decompose_powerful,
    decompose_square_times_squarefree,
    factorize,
    integer_nth_root,
    is_powerful,
    is_prime,
    is_squarefree,
    valuation,
)
from powerful_ap import arith
from powerful_ap.arith import factor_memo

import oracles

# Mersenne primes / the Cole factorization; standard reference values.
M61 = 2**61 - 1
M67 = 2**67 - 1
M89 = 2**89 - 1

# The least composites that pass Miller-Rabin to the first 13, the first 12
# and the first 11 prime bases (Sorenson and Webster, Math. Comp. 86 (2017)).
PSI13_FACTORS = (1287836182261, 2575672364521)
PSI13 = math.prod(PSI13_FACTORS)
PSI12_FACTORS = (399165290221, 798330580441)
PSI11_FACTORS = (149491, 747451, 34233211)


class TestFactorization:
    def test_reconstructs_value(self):
        f = Factorization(((2, 3), (3, 2), (7, 1)))
        assert f.n == 504
        assert f.primes() == (2, 3, 7)
        assert f.as_dict() == {2: 3, 3: 2, 7: 1}

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInput):
            Factorization(((3, 1), (2, 1)))

    def test_rejects_repeat_prime(self):
        with pytest.raises(InvalidInput):
            Factorization(((2, 1), (2, 2)))

    def test_rejects_zero_exponent(self):
        with pytest.raises(InvalidInput):
            Factorization(((2, 0),))


class TestFactorize:
    # the last values sit on the edges of trial division: 999983 is the
    # largest prime below 10^6, 1000003 the smallest above it, and 8161 and
    # 8167 end the first block of primes and start the second
    @pytest.mark.parametrize("n", [
        1, 2, 4, 97, 360, 516913, 2**20, 3**10 * 5**3,
        999983, 999983**2, 999983**3, 2**60, 1000003 * 999983, 999979 * 999983,
        2 * 999983, 3**2 * 8161 * 8167, 8161**2 * 8167**2])
    def test_matches_brute(self, n):
        assert factorize(n).as_dict() == oracles.brute_factor(n)

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_random(self, n):
        assert factorize(n).as_dict() == oracles.brute_factor(n)

    def test_semiprime_beyond_trial_division(self):
        p, q = 1000003, 1000033
        assert factorize(p * q).as_dict() == {p: 1, q: 1}

    def test_rho_on_balanced_semiprime(self):
        # ~3e13 factors need ~5e6 rho steps, past the default budget; rho
        # stops after its 2^16-unit share and ECM splits them inside it
        p, q = 29996224275833, 29996224275851  # both prime
        assert factorize(p * q).as_dict() == {p: 1, q: 1}
        # two factors above 10^25 stay beyond the default budget
        big_p, big_q = oracles.OUT_OF_REACH
        with pytest.raises(BudgetExceeded) as info:
            factorize(big_p * big_q)
        assert info.value.number == big_p * big_q

    def test_perfect_power_shortcut(self):
        p = 1000000007
        assert factorize(p**4).as_dict() == {p: 4}

    def test_budget_exhaustion_names_the_number(self):
        n = M61 * (2**89 - 1)
        with pytest.raises(BudgetExceeded) as info:
            factorize(n, budget=1000)
        assert info.value.number is not None
        assert n % info.value.number == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            factorize(0)


# primes per block of trial division, and the large primes that end the
# hypothesis products: just above 10^12, 2^61 - 1, and one above 3.3e24
# whose primality is settled by BPSW
BLOCK = arith._TRIAL_BLOCK
LARGE_PRIMES = (1000000000039, M61, oracles.OUT_OF_REACH[0])


def _edge_factors():
    """(the last prime of block k - 1, the first of block k) for each k."""
    primes = arith._prime_list()
    return [(primes[k - 1], primes[k]) for k in range(BLOCK, len(primes), BLOCK)]


class TestTrialDivision:
    """Trial division by one gcd per block of primes up to 10^6."""

    def test_prime_list_matches_plain_sieve(self):
        primes = arith._prime_list()
        assert primes == oracles.sieve_primes(arith.TRIAL_DIVISION_BOUND)
        assert len(primes) == 78498
        assert (primes[0], primes[-1]) == (2, 999983)
        assert 999983 in primes

    @pytest.mark.parametrize("big", [1, LARGE_PRIMES[-1]])
    def test_block_edges(self, big):
        # the pair at each block edge, alone (n <= 10^12: the last block
        # below sqrt(n) is divided prime by prime) and times a prime above
        # 10^6, which makes every block go through its gcd
        for p, q in _edge_factors():
            expected = {p: 1, q: 1, big: 1} if big > 1 else {p: 1, q: 1}
            assert factorize(p * q * big).as_dict() == expected
            assert factorize(p * p * q**3 * big).as_dict() == {**expected, p: 2, q: 3}

    def test_small_prime_times_bpsw_prime(self):
        big = oracles.OUT_OF_REACH[1]
        assert big > arith._MR_DETERMINISTIC_BOUND
        for p in (2, 8161, 8167, 999983):
            assert factorize(p * big).as_dict() == {p: 1, big: 1}
            assert factorize(p**3 * big).as_dict() == {p: 3, big: 1}

    @pytest.mark.parametrize("p,e", [(2, 400), (3, 250), (8161, 60), (8167, 60),
                                     (999983, 40)])
    def test_high_powers(self, p, e):
        assert factorize(p**e).as_dict() == {p: e}
        assert factorize(p**e * M61).as_dict() == {p: e, M61: 1}

    # indices into the prime list: uniform, or on either side of a block edge
    INDEX = st.one_of(
        st.integers(0, 78497),
        st.builds(lambda k, side: k * BLOCK + side,
                  st.integers(1, 78497 // BLOCK), st.sampled_from([-1, 0])))

    @given(st.dictionaries(INDEX, st.integers(1, 4), max_size=6),
           st.sampled_from([1, *LARGE_PRIMES]))
    @settings(max_examples=100, deadline=None)
    def test_random_products(self, exponents, big):
        primes = arith._prime_list()
        expected = {primes[i]: e for i, e in exponents.items()}
        if big > 1:
            expected[big] = 1
        n = math.prod(p**e for p, e in expected.items())
        assert factorize(n).as_dict() == expected

    # a smooth part times an arbitrary cofactor up to 10^15, checked
    # against sympy's factorint
    @given(st.lists(st.integers(0, 78497), max_size=4),
           st.integers(1, 10**15))
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy(self, indices, cofactor):
        primes = arith._prime_list()
        n = cofactor * math.prod(primes[i] for i in indices)
        assert factorize(n).as_dict() == sympy.factorint(n)

    def test_products_are_built_lazily(self):
        # a block's product is built only when a number reaches its gcd
        arith._block_product.cache_clear()
        (p, q), = _edge_factors()[:1]
        factorize(2)
        factorize(p * p - 2)
        assert arith._block_product.cache_info().currsize == 0
        factorize(p * q)
        assert arith._block_product.cache_info().currsize == 1
        # a prime in (10^12, psi13) is proved prime before any gcd
        factorize(10**12 + 39)
        assert arith._block_product.cache_info().currsize == 1
        # a composite with no factor up to 10^6 reaches every gcd
        factorize(1000003 * 1000033)
        assert arith._block_product.cache_info().currsize == -(-78498 // BLOCK)


class TestProvedPrimeExit:
    """Trial division stops at a cofactor that Miller-Rabin proves prime."""

    @pytest.mark.parametrize("q", [10**12 + 39, M61, sympy.prevprime(PSI13)])
    def test_proved_prime_builds_no_product(self, q):
        arith._block_product.cache_clear()
        acc = {}
        assert arith._trial_divide(q, acc) == 1 and acc == {q: 1}
        assert factorize(q).as_dict() == {q: 1}
        assert arith._block_product.cache_info().currsize == 0
        # 2 goes in the first gcd; the prime left over is proved at once
        assert factorize(2 * q).as_dict() == {2: 1, q: 1}
        assert arith._block_product.cache_info().currsize == 1

    # what multiplies the smooth part: a prime in (10^12, psi13), a product
    # of two primes above 10^6, or psi13, which only BPSW and ECM settle
    COFACTOR = st.one_of(
        st.integers(10**12, PSI13 - 10**4).map(sympy.nextprime),
        st.tuples(st.integers(10**6, 10**9), st.integers(10**6, 10**9)).map(
            lambda t: sympy.nextprime(t[0]) * sympy.nextprime(t[1])),
        st.just(PSI13))

    @given(st.dictionaries(TestTrialDivision.INDEX, st.integers(1, 3), max_size=4),
           COFACTOR)
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy(self, exponents, cofactor):
        primes = arith._prime_list()
        smooth = math.prod(primes[i] ** e for i, e in exponents.items())
        arith._block_product.cache_clear()
        expected = {**sympy.factorint(smooth), **_sympy_factors(cofactor)}
        assert factorize(smooth * cofactor).as_dict() == expected
        if cofactor < PSI13 and sympy.isprime(cofactor):
            # the gcds stop after the last block with a prime of the smooth part
            built = max(exponents, default=-1) // BLOCK + 1
            assert arith._block_product.cache_info().currsize == built


@functools.cache
def _sympy_factors(n):
    """sympy.factorint(n), kept: it takes about 0.6 s on psi13."""
    return sympy.factorint(n)


def _outcome(n, budget):
    """factorize(n, budget) as a comparable value: the factors, or the
    number a BudgetExceeded names."""
    try:
        return factorize(n, budget).as_dict()
    except BudgetExceeded as exc:
        return ("exceeded", exc.number)


class TestSplitEngine:
    """Rho for its share (2^16 units up to 100 bits, 2^13 above), then ECM,
    on one budget meter."""

    # (start, start) pairs for sympy.nextprime: factors of 11 to 15 digits,
    # whose products stay below 100 bits and which rho's 2^16-unit share
    # does not reach
    STARTS = [(3 * 10**10, 7 * 10**11), (10**12, 5 * 10**12),
              (2 * 10**13, 9 * 10**13), (10**10, 10**14), (6 * 10**13, 3 * 10**14)]

    @pytest.mark.parametrize("starts", STARTS)
    def test_semiprimes_against_sympy(self, starts):
        p, q = (sympy.nextprime(s) for s in starts)
        with pytest.raises(BudgetExceeded):
            factorize(p * q, budget=arith._RHO_SHARE)  # rho alone
        f = factorize(p * q).as_dict()
        assert f == {p: 1, q: 1}
        assert all(sympy.isprime(r) for r in f)

    def test_out_of_reach_primes_are_prime(self):
        assert all(sympy.isprime(p) for p in oracles.OUT_OF_REACH)

    # curve sigma = 6 finds each p only in stage 2, through the product of
    # x(mD*Q) - x(j*Q).  The first is missed by sigma = 7 and by giant steps
    # one off; the others need the largest or the smallest j of a giant step.
    @pytest.mark.parametrize("p", [1000000001201, 1000000054813, 1000000068031])
    def test_stage_two_find(self, p):
        # the budget for rho's share and one whole curve splits n, the
        # budget for rho's share and stage 1 alone does not
        q = oracles.OUT_OF_REACH[0]
        share = arith._rho_share(p * q)
        _, _, stage1, stage2 = arith._ecm_plan()
        with pytest.raises(BudgetExceeded):
            factorize(p * q, budget=share + 2 * stage1)
        f = factorize(p * q, budget=share + 2 * (stage1 + stage2))
        assert f.as_dict() == {p: 1, q: 1}

    # 1000000087 times a prime, giving 100 and 101 bits: rho finds the
    # 10-digit factor at 27,646 units, past 2^13 and inside 2^16
    EDGE = (1000000087 * 1267650489942636776371,
            1000000087 * 1267650489942636776579)

    # factors from 8 to 19 digits: rho finds some inside its share, ECM
    # the others after a few curves; the last three lie above 100 bits
    POOL = [15485863 * 15485867 * 32452843,
            30000000001 * 700000000009,
            1000000000063 * 5000000000053,
            195418370547079 * 7720033903045593593,
            29996224275833**2 * 1000003,
            EDGE[1]]

    # the least budget that completes: rho alone splits the first three,
    # so these pin rho's own charges; then rho's share plus one curve,
    # for EDGE[1] too, and pell3 m=48's 15-digit factor on the seventh curve
    @pytest.mark.parametrize("n,least", [(POOL[0], 22_012), (POOL[4], 3_198),
                                         (EDGE[0], 27_646), (POOL[1], 167_420),
                                         (EDGE[1], 110_076), (POOL[3], 721_380)])
    def test_least_completing_budget(self, n, least):
        assert _outcome(n, least - 1) == ("exceeded", n)
        assert isinstance(_outcome(n, least), dict)

    def test_share_steps_above_100_bits(self):
        # the EDGE numbers differ only in their large prime, so rho's share
        # is what sets their least budgets above apart
        assert [n.bit_length() for n in self.EDGE] == [100, 101]
        assert [arith._rho_share(n) for n in self.EDGE] == [1 << 16, 1 << 13]

    # integer draws lean to small values; a coarse step spreads budgets
    # across rho's share and the first few curves
    BUDGETS = st.builds(lambda a, b: 50_000 * a + b,
                        st.integers(0, 6), st.integers(1, 50_000))

    @given(st.sampled_from(POOL), BUDGETS, BUDGETS)
    @settings(max_examples=8, deadline=None)
    def test_budget_outcome_repeats_and_only_grows(self, n, budget, extra):
        first = _outcome(n, budget)
        assert _outcome(n, budget) == first
        if isinstance(first, dict):
            assert _outcome(n, budget + extra) == first
        else:
            assert first == ("exceeded", n)

    def test_is_powerful_reaches_ecm(self):
        # 13-digit primes: the budget of rho's share alone runs out, the
        # default budget settles both verdicts through ECM
        p, q = 1000000000039, 5000000000053
        for n, verdict in ((p * p * q**3, True), (p * p * q, False)):
            with pytest.raises(BudgetExceeded):
                is_powerful(n, budget=arith._rho_share(n))
            assert is_powerful(n) is verdict


class TestPrimality:
    @given(st.integers(min_value=0, max_value=10**5))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute(self, n):
        assert is_prime(n) == oracles.brute_is_prime(n)

    def test_known_large_primes(self):
        assert is_prime(M61)
        assert is_prime(M89)  # above the deterministic Miller-Rabin range
        assert is_prime(2**127 - 1)

    def test_known_large_composites(self):
        assert not is_prime(M67)  # 193707721 * 761838257287
        assert not is_prime(M61 * M89)
        assert not is_prime(M89 * M89)
        assert not is_prime(561)  # Carmichael
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7

    def test_proof_bound_is_psi13(self):
        # the 13 bases are a proof strictly below psi13, and psi13 passes all
        assert arith._MR_DETERMINISTIC_BOUND == PSI13
        assert all(arith._sprp(PSI13, a) for a in arith._MR_BASES)
        assert not is_prime(PSI13)
        arith._block_product.cache_clear()
        assert factorize(PSI13).as_dict() == dict.fromkeys(PSI13_FACTORS, 1)
        # no exit at psi13 itself: every gcd runs
        assert arith._block_product.cache_info().currsize == -(-78498 // BLOCK)

    @pytest.mark.parametrize("factors,passes", [(PSI12_FACTORS, 12), (PSI11_FACTORS, 11)])
    def test_strong_pseudoprimes_below_psi13(self, factors, passes):
        n = math.prod(factors)
        assert 10**12 < n < PSI13
        assert [arith._sprp(n, a) for a in arith._MR_BASES[:passes + 1]] == (
            [True] * passes + [False])
        assert not is_prime(n)
        assert factorize(n).as_dict() == dict.fromkeys(factors, 1)

    def test_boundaries(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_prime(2)
        assert not is_prime(-7)


class TestNthRoot:
    @given(st.integers(min_value=0, max_value=10**40),
           st.integers(min_value=1, max_value=64))
    @example(n=10**3000, k=4000)
    @example(n=5**4000 - 1, k=4000)
    @example(n=7**3001 + 1, k=3)
    @settings(max_examples=200, deadline=None)
    def test_bracketing(self, n, k):
        r = integer_nth_root(n, k)
        assert r**k <= n < (r + 1) ** k

    @given(st.integers(min_value=1, max_value=10**9),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_exact_powers(self, base, k):
        assert integer_nth_root(base**k, k) == base

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            integer_nth_root(-1, 2)
        with pytest.raises(InvalidInput):
            integer_nth_root(8, 0)


class TestFactorMemo:
    # needs rho: both factors lie above the trial-division bound
    RHO_N = 1000003 * 1000033

    def test_inactive_outside_a_scope(self):
        assert arith._memo.get() is None
        with factor_memo():
            assert arith._memo.get() == {}
        assert arith._memo.get() is None

    def test_reuses_results_without_rho(self):
        n = 2**5 * 3**4 * 999983
        with factor_memo():
            first = factorize(n)
            assert factorize(n) is first
        assert factorize(n) is not first

    def test_rho_results_stay_budgeted(self):
        with factor_memo():
            assert factorize(self.RHO_N).as_dict() == {1000003: 1, 1000033: 1}
            assert self.RHO_N not in arith._memo.get()
            with pytest.raises(BudgetExceeded):
                factorize(self.RHO_N, budget=1)

    @staticmethod
    def _count_splits(monkeypatch):
        split = []
        real = arith._factor_into

        def counting(n, mult, out, budget):
            split.append(n)
            return real(n, mult, out, budget)

        monkeypatch.setattr(arith, "_factor_into", counting)
        return split

    def test_rho_results_are_kept_per_cofactor_and_budget(self, monkeypatch):
        split = self._count_splits(monkeypatch)
        with factor_memo():
            first = factorize(self.RHO_N)
            assert factorize(self.RHO_N) == first
            # another number whose trial division leaves the same cofactor
            assert factorize(12 * self.RHO_N).as_dict() == {2: 2, 3: 1, **first.as_dict()}
            assert split == [self.RHO_N]
            # another budget is another key, even one that reaches the result
            assert factorize(self.RHO_N, budget=10**6) == first
            assert split == [self.RHO_N] * 2
            assert set(arith._memo.get()) == {(self.RHO_N, arith.DEFAULT_RHO_BUDGET),
                                              (self.RHO_N, 10**6)}
        assert factorize(self.RHO_N) == first
        assert split == [self.RHO_N] * 3

    def test_budget_exceeded_is_raised_again(self, monkeypatch):
        split = self._count_splits(monkeypatch)
        n = 6 * self.RHO_N
        with factor_memo():
            errors = []
            for _ in range(2):
                with pytest.raises(BudgetExceeded) as exc:
                    factorize(n, budget=100)
                errors.append((str(exc.value), exc.value.number))
            assert errors == [(f"factoring budget exhausted on {n}", n)] * 2
            assert split == [self.RHO_N] * 2
            assert arith._memo.get() == {}


class TestValuationRadical:
    def test_valuation(self):
        assert valuation(2, 96) == 5
        assert valuation(3, 96) == 1
        assert valuation(5, 96) == 0
        assert valuation(7, -49) == 2

    def test_valuation_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            valuation(1, 10)
        with pytest.raises(InvalidInput):
            valuation(2, 0)


class TestSquarefree:
    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute(self, n):
        assert is_squarefree(n) == oracles.brute_is_squarefree(n)

    def test_large_square_fast_path(self):
        assert not is_squarefree(M61**2)


class TestIsPowerful:
    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute(self, n):
        assert is_powerful(n) == oracles.brute_is_powerful(n)

    @given(st.integers(min_value=1, max_value=10**6),
           st.integers(min_value=1, max_value=1000))
    @settings(max_examples=100, deadline=None)
    def test_squares_times_cubes_are_powerful(self, a, b):
        assert is_powerful(a * a * b * b * b)

    def test_structured_large_values(self):
        assert is_powerful(M61**2)
        assert is_powerful(8 * M61**2)
        assert not is_powerful(M61)
        assert not is_powerful(2 * M61**2)  # lone factor of 2
        p, q = 1000000007, 1000000009
        assert not is_powerful(p * p * q)

    def test_opaque_structured_value_fails_loud(self):
        # M61^2 * M89^3 is powerful, but membership testing works by
        # factoring it; rho cannot reach its smallest prime 2^61-1, and
        # the 32nd ECM curve splits it off inside the default budget
        assert is_powerful(M61**2 * M89**3)
        # with primes above 10^25 no curve the default budget pays for
        # splits it, so the contract is a loud failure naming the blocker
        p, q = oracles.OUT_OF_REACH
        n = p**2 * q**3
        with pytest.raises(BudgetExceeded) as info:
            is_powerful(n)
        assert info.value.number == n

    def test_out_of_reach_square_fails_loud(self):
        # p^2 q^2 is powerful, but deciding it means splitting p*q, which
        # the default budget cannot pay for; the error names the input
        p, q = oracles.OUT_OF_REACH
        n = (p * q) ** 2
        with pytest.raises(BudgetExceeded) as info:
            is_powerful(n)
        assert info.value.number == n

    @given(st.sampled_from(TestSplitEngine.POOL), st.integers(1, 2),
           TestSplitEngine.BUDGETS)
    @settings(max_examples=8, deadline=None)
    def test_answers_exactly_when_factorize_does(self, m, power, budget):
        n = m**power
        want = _outcome(n, budget)
        try:
            got = is_powerful(n, budget)
        except BudgetExceeded as exc:
            assert want == ("exceeded", n)
            assert exc.number == n
        else:
            assert isinstance(want, dict)
            assert got == all(e >= 2 for e in want.values())

    def test_first_values(self):
        got = [n for n in range(1, 101) if is_powerful(n)]
        assert got == [1, 4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 72, 81, 100]


class TestDecompose:
    def test_square_times_squarefree_frozen(self):
        d = decompose_square_times_squarefree(516913)
        assert (d.a, d.b) == (73, 97)
        assert decompose_square_times_squarefree(73).a == 1

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_square_times_squarefree_roundtrip(self, n):
        d = decompose_square_times_squarefree(n)
        assert d.a**2 * d.b == n
        assert oracles.brute_is_squarefree(d.b)

    @pytest.mark.parametrize(
        "n,a,b", [(216, 1, 6), (432, 4, 3), (648, 9, 2), (1, 1, 1), (392, 7, 2)]
    )
    def test_powerful_frozen(self, n, a, b):
        d = decompose_powerful(n)
        assert (d.a, d.b) == (a, b)

    @given(st.integers(min_value=1, max_value=3000),
           st.integers(min_value=1, max_value=300))
    @settings(max_examples=100, deadline=None)
    def test_powerful_roundtrip(self, a, b):
        d = decompose_powerful(a * a * b**3)
        assert d.a**2 * d.b**3 == a * a * b**3
        assert oracles.brute_is_squarefree(d.b)

    def test_rejects_non_powerful(self):
        with pytest.raises(NotPowerful):
            decompose_powerful(50)
