import math

import pytest
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
    radical,
    valuation,
)
from powerful_ap import arith
from powerful_ap.arith import factor_memo, merged

import oracles

# Mersenne primes / the Cole factorization; standard reference values.
M61 = 2**61 - 1
M67 = 2**67 - 1
M89 = 2**89 - 1


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

    def test_merged(self):
        a = factorize(12)
        b = factorize(18)
        assert merged(a, b).n == 216
        assert merged().n == 1


class TestFactorize:
    @pytest.mark.parametrize("n", [1, 2, 4, 97, 360, 516913, 2**20, 3**10 * 5**3])
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
        # ~3e13 factors need ~5e6 rho iterations: just past the default
        # budget (a frozen boundary), comfortably inside a raised one
        p, q = 29996224275833, 29996224275851  # both prime
        with pytest.raises(BudgetExceeded):
            factorize(p * q)
        f = factorize(p * q, budget=10**8)
        assert f.as_dict() == {p: 1, q: 1}

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


class TestValuationRadical:
    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_radical_matches_brute(self, n):
        assert radical(n) == oracles.brute_radical(n)

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
        # factoring and its smallest prime is 2^61-1; no budget reaches
        # that, so the contract is a loud failure naming the blocker
        n = M61**2 * M89**3
        with pytest.raises(BudgetExceeded) as info:
            is_powerful(n)
        assert info.value.number == n

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
