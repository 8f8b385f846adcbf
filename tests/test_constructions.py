import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from powerful_ap import (
    APWitness,
    BudgetExceeded,
    InvalidInput,
    InvalidWitness,
    NotPowerful,
    PowerfulDecomp,
    ck_constants,
    decompose_powerful,
    default_theta,
    extend_ap,
    extension_exponent,
    five_ap,
    four_ap,
    is_powerful,
    long_ap,
    pell_3ap,
    ratio_bound_holds,
    squares_3ap,
    theta_ratio,
    validate_witness,
    witness_from_terms,
)

import oracles


def brute_check_witness(w):
    """Definition-level witness check, sharing nothing with the library.

    Terms above 10^10 are only checked for progression arithmetic; trial
    division gets too slow beyond that, and the constructor has already
    proved powerfulness by reconstruction.
    """
    assert len(w.terms) == w.k
    for i in range(1, w.k):
        assert w.terms[i] - w.terms[i - 1] == w.d
    for t in w.terms:
        if t < 10**10:
            assert oracles.brute_is_powerful(t)


class TestSquares3:
    def test_first_member(self):
        w = squares_3ap(1)
        assert w.terms == (1, 25, 49)
        assert w.d == 24

    def test_second_member(self):
        w = squares_3ap(2)
        assert w.terms == (49, 169, 289)
        assert w.d == 120

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=60, deadline=None)
    def test_members_validate(self, m):
        w = squares_3ap(m)
        assert w.d == 8 * m**3 + 12 * m**2 + 4 * m
        brute_check_witness(w)

    def test_rejects_bad_index(self):
        with pytest.raises(InvalidInput):
            squares_3ap(0)


class TestPell3:
    def test_first_member(self):
        w = pell_3ap(1)
        assert w.terms == (392, 484, 576)
        assert w.d == 92
        assert [(d.a, d.b) for d in w.decomps] == [(7, 2), (22, 1), (24, 1)]

    def test_second_member(self):
        w = pell_3ap(2)
        assert w.terms == (13448, 13924, 14400)
        assert w.d == 476

    @given(st.integers(min_value=1, max_value=120))
    @settings(max_examples=40, deadline=None)
    def test_members_validate(self, m):
        w = pell_3ap(m)
        x = w.params["x"]
        assert w.d == 8 * x + 4
        brute_check_witness(w)

    def test_ratio_approaches_four_from_above(self):
        prev = None
        for m in range(1, 30):
            r = theta_ratio(pell_3ap(m), Fraction(1, 2))
            assert r > 4
            if prev is not None:
                assert r < prev
            prev = r


class TestFour:
    def test_first_member(self):
        w = four_ap(1)
        assert w.terms == (31212000, 33292800, 35373600, 37454400)
        assert w.d == 2080800
        # middle terms: 33292800 = 2^9 * 3^2 * 5^2 * 17^2
        assert oracles.brute_factor(33292800) == {2: 9, 3: 2, 5: 2, 17: 2}

    @pytest.mark.parametrize("m", range(1, 9))
    def test_members_validate(self, m):
        w = four_ap(m)
        brute_check_witness(w)
        x = w.params["x"]
        assert w.d == 2 * (x - 2) ** 2 * (x + 2) ** 2


class TestFive:
    def test_first_member(self):
        w = five_ap(1)
        assert w.terms == (
            21124480003200,
            23603373064800,
            26082266126400,
            28561159188000,
            31040052249600,
        )
        assert w.d == 2478893061600

    def test_anchored_on_pell_triple(self):
        for m in (1, 2, 3):
            w = five_ap(m)
            y, a = w.params["y"], w.params["a"]
            assert (y - 2 * a, y, y + 2 * a) == pell_3ap(m).terms

    @pytest.mark.parametrize("m", range(1, 7))
    def test_members_validate(self, m):
        brute_check_witness(five_ap(m))


class TestValidateWitness:
    def test_accepts_deep_check(self):
        w = pell_3ap(1)
        validate_witness(w)
        assert all(is_powerful(t) for t in w.terms)

    def test_rejects_wrong_difference(self):
        w = pell_3ap(1)
        broken = APWitness(3, (392, 484, 577), 92, w.decomps, w.family)
        with pytest.raises(InvalidWitness):
            validate_witness(broken)

    def test_rejects_wrong_decomposition(self):
        w = pell_3ap(1)
        decomps = (PowerfulDecomp(1, 1),) + w.decomps[1:]
        with pytest.raises(InvalidWitness):
            validate_witness(APWitness(3, w.terms, w.d, decomps, w.family))

    def test_rejects_square_b(self):
        # 8, 36, 64 is a genuine progression and 64 = 1^2 * 4^3
        # reconstructs, but 4 is not squarefree
        w = APWitness(
            3,
            (8, 36, 64),
            28,
            (PowerfulDecomp(1, 2), PowerfulDecomp(6, 1), PowerfulDecomp(1, 4)),
            "test",
        )
        with pytest.raises(InvalidWitness):
            validate_witness(w)

    def test_rejects_short_progression(self):
        w = pell_3ap(1)
        with pytest.raises(InvalidWitness):
            validate_witness(APWitness(2, w.terms[:2], w.d, w.decomps[:2], w.family))


class TestWitnessFromTerms:
    def test_decomposes_every_term(self):
        w = witness_from_terms((392, 484, 576), 92, "adhoc")
        assert (w.k, w.d, w.family, w.params) == (3, 92, "adhoc", {})
        assert [(d.a, d.b) for d in w.decomps] == [(7, 2), (22, 1), (24, 1)]
        validate_witness(w)

    @pytest.mark.parametrize("terms, d", [
        ((1, 25, 64), 24), ((1, 25), 24), ((49, 25, 1), 24), ((1, 25, 49), 23)])
    def test_rejects_as_validate_witness(self, terms, d):
        with pytest.raises(InvalidWitness) as exc:
            witness_from_terms(terms, d, "adhoc")
        w = APWitness(len(terms), terms, d,
                      tuple(decompose_powerful(t) for t in terms), "adhoc")
        with pytest.raises(InvalidWitness) as expected:
            validate_witness(w)
        assert str(exc.value) == str(expected.value)

    def test_a_term_that_is_not_powerful_is_named_first(self):
        # 50 is not powerful, and the steps are wrong too
        with pytest.raises(NotPowerful, match="^50 is not powerful"):
            witness_from_terms((1, 25, 50), 24, "adhoc")


class TestExtension:
    def test_single_step_from_folklore_seed(self):
        w = extend_ap(squares_3ap(1))
        # 49 + 24 = 73, squarefree, so the AP scales by 73^2
        assert w.k == 4
        assert w.terms == (5329, 133225, 261121, 389017)
        assert w.d == 24 * 73**2
        assert w.params["multipliers"] == [73]
        brute_check_witness(w)

    def test_chain_multipliers(self):
        w = long_ap(8, squares_3ap(1))
        assert w.params["multipliers"] == [73, 97, 1, 145, 1]
        assert w.k == 8
        brute_check_witness(w)

    def test_default_seed_chain(self):
        w = long_ap(5)
        assert w.params["seed_family"] == "pell3"
        assert w.params["multipliers"] == [167, 190]
        brute_check_witness(w)

    def test_extension_preserves_decomp_structure(self):
        w = pell_3ap(2)
        ext = extend_ap(w)
        for old, new in zip(w.decomps, ext.decomps):
            assert new.b == old.b
            assert new.a % old.a == 0

    @staticmethod
    def _opaque_seed():
        # (c^2, 25c^2, 49c^2) is a valid powerful AP for any c (all squares);
        # the next target is 73c^2, and with c a product of two 8-digit
        # primes its square cofactor can only fall to the rho stage
        c = 15485863 * 15485867
        decomps = tuple(PowerfulDecomp(a * c, 1) for a in (1, 5, 7))
        return APWitness(
            k=3,
            terms=(c * c, 25 * c * c, 49 * c * c),
            d=24 * c * c,
            decomps=decomps,
            family="manual",
            params={},
        )

    def test_budget_exhaustion_reports_step(self):
        with pytest.raises(BudgetExceeded) as info:
            long_ap(4, self._opaque_seed(), budget=10)
        assert info.value.step == 4
        assert info.value.number is not None

    def test_raised_budget_recovers_same_seed(self):
        w = long_ap(4, self._opaque_seed())
        assert w.k == 4
        assert w.params["multipliers"] == [73]
        validate_witness(w)

    def test_rejects_bad_targets(self):
        with pytest.raises(InvalidInput):
            long_ap(2)
        with pytest.raises(InvalidInput):
            long_ap(3, five_ap(1))

    def test_long_ap_with_exact_length_seed_is_identity(self):
        seed = five_ap(1)
        assert long_ap(5, seed) is seed


class TestGrowthConstants:
    def test_c5_is_exact(self):
        assert ck_constants(5) == Fraction(3)

    def test_c6_value(self):
        c6 = ck_constants(6)
        got = Decimal(c6.numerator) / Decimal(c6.denominator)
        assert str(got).startswith("3.60907510824634995287137")

    def test_c7_value(self):
        c7 = ck_constants(7)
        got = Decimal(c7.numerator) / Decimal(c7.denominator)
        assert str(got).startswith("3.8682135619986")

    def test_upper_bound_property(self):
        # C_{k+1}^q must dominate (C_k * true root)^q = C_k^q * (1 + k*C_k)
        for k in range(5, 10):
            ck, cnext = ck_constants(k), ck_constants(k + 1)
            q = 5 * 3 ** (k - 4)
            assert cnext**q >= ck**q * (1 + k * ck)

    def test_c11_is_fast_and_an_upper_bound(self):
        # the k = 10 -> 11 step takes a 3645th root of a 302,717-bit number
        start = time.perf_counter()
        c10, c11 = ck_constants(10), ck_constants(11)
        assert time.perf_counter() - start < 2
        q = 5 * 3 ** (10 - 4)
        assert c11**q >= c10**q * (1 + 10 * c10)

    def test_monotone_increasing(self):
        values = [ck_constants(k) for k in range(5, 11)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_small_k(self):
        with pytest.raises(InvalidInput):
            ck_constants(4)

    def test_extension_exponents(self):
        assert extension_exponent(5) == Fraction(9, 10)
        assert extension_exponent(6) == Fraction(29, 30)
        assert extension_exponent(7) == Fraction(89, 90)
        with pytest.raises(InvalidInput):
            extension_exponent(4)


class TestRatioBound:
    def test_exact_boundary(self):
        # d = 2^30, N = 2^40, theta = 3/4: bound is exactly 2^30
        assert ratio_bound_holds(2**30, 1, 2**40, Fraction(3, 4))
        assert not ratio_bound_holds(2**30 + 1, 1, 2**40, Fraction(3, 4))

    def test_rational_coefficient(self):
        assert ratio_bound_holds(3, Fraction(3, 2), 4, Fraction(1, 2))
        assert not ratio_bound_holds(4, Fraction(3, 2), 4, Fraction(1, 2))

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**12),
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_float_when_clear(self, d, n):
        theta = Fraction(4, 5)
        lhs = d
        rhs = 3 * n ** 0.8
        # only trust floats away from the boundary
        if lhs < 0.99 * rhs:
            assert ratio_bound_holds(d, 3, n, theta)
        elif lhs > 1.01 * rhs:
            assert not ratio_bound_holds(d, 3, n, theta)

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            ratio_bound_holds(-1, 3, 10, Fraction(1, 2))
        with pytest.raises(InvalidInput):
            ratio_bound_holds(1, 0, 10, Fraction(1, 2))


class TestThetaRatio:
    def test_pell_first_ratio_digits(self):
        r = theta_ratio(pell_3ap(1), Fraction(1, 2))
        assert str(r) == "4.6467017049401694460626915224032936867289218762385"

    def test_four_ratio_digits(self):
        r = theta_ratio(four_ap(1), Fraction(4, 5))
        assert str(r) == "2.1026794032066823054389809777316588992042573177936"

    def test_five_ratio_digits(self):
        r = theta_ratio(five_ap(1), Fraction(9, 10))
        assert str(r) == "2.5231923971949507547889095248296584935528553930005"

    def test_cross_check_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 70
        for w, theta in [
            (pell_3ap(7), Fraction(1, 2)),
            (four_ap(3), Fraction(4, 5)),
            (five_ap(2), Fraction(9, 10)),
            (squares_3ap(9), Fraction(3, 4)),
        ]:
            want = mp.mpf(w.d) / mp.power(mp.mpf(w.terms[0]), mp.mpf(theta.numerator) / theta.denominator)
            got = theta_ratio(w, theta)
            assert abs(mp.mpf(str(got)) - want) < mp.mpf(10) ** -45

    def test_unit_first_term(self):
        assert theta_ratio(squares_3ap(1), Fraction(1, 2)) == 24

    def test_rejects_bad_theta(self):
        with pytest.raises(InvalidInput):
            theta_ratio(pell_3ap(1), Fraction(3, 2))


class TestDefaultTheta:
    def test_family_values(self):
        assert default_theta(squares_3ap(1)) == Fraction(3, 4)
        assert default_theta(pell_3ap(1)) == Fraction(1, 2)
        assert default_theta(four_ap(1)) == Fraction(4, 5)
        assert default_theta(five_ap(1)) == Fraction(9, 10)

    def test_extended_uses_extension_exponent(self):
        w = long_ap(6)
        assert default_theta(w) == extension_exponent(6)
