"""Checks for the triple-analysis pipeline.

The frozen analyses below were derived by hand from the defining
identities (see docstrings in abcver) and pinned; everything else is
structural or randomized.
"""

from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from powerful_ap import (
    BudgetExceeded,
    InvalidInput,
    InvalidWitness,
    analyze_triple,
    ap_identity_check,
    compute_D,
    extend_ap,
    enumerate_powerful,
    factorize,
    find_kaps,
    pell_3ap,
    radical_inequality_check,
    reduce_triple,
    squares_3ap,
    valuation,
    witness_from_terms,
)
from powerful_ap import abcver, arith
from powerful_ap.arith import ratio_digits
from powerful_ap.constructions import APWitness, PowerfulDecomp, validate_witness

import oracles


def _manual_witness(terms, bs):
    from powerful_ap.constructions import _decomp_from_squarefree_part

    decomps = tuple(_decomp_from_squarefree_part(t, b) for t, b in zip(terms, bs))
    w = APWitness(
        k=len(terms),
        terms=tuple(terms),
        d=terms[1] - terms[0],
        decomps=decomps,
        family="manual",
        params={},
    )
    validate_witness(w)
    return w


class TestIdentity:
    @given(st.integers(min_value=1, max_value=10**40), st.integers(min_value=1, max_value=10**40))
    @settings(max_examples=100, deadline=None)
    def test_always_holds(self, n, d):
        assert ap_identity_check(n, d)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            ap_identity_check(0, 5)
        with pytest.raises(InvalidInput):
            ap_identity_check(5, 0)


class TestReduce:
    def test_already_reduced_is_untouched(self):
        w = pell_3ap(1)
        assert reduce_triple(w) is w

    def test_removes_common_cube(self):
        # scale (1, 25, 49) by 5^3: every squarefree part picks up the factor 5,
        # so g = 5 comes out and the cube cancels
        base = squares_3ap(1)
        scaled = _manual_witness(
            [t * 125 for t in base.terms],
            [d.b * 5 for d in base.decomps],
        )
        red = reduce_triple(scaled)
        assert red.terms == base.terms
        assert [d.b for d in red.decomps] == [d.b for d in base.decomps]
        assert red.params["reduced_by"] == 5

    @given(st.sampled_from([5, 7, 11, 13]), st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_analysis_is_scale_invariant(self, p, m):
        # p must avoid the squarefree parts already present (2 for this family)
        base = pell_3ap(m)
        scaled = _manual_witness(
            [t * p**3 for t in base.terms],
            [d.b * p for d in base.decomps],
        )
        got = analyze_triple(scaled)
        want = analyze_triple(base)
        assert got.D == want.D
        assert got.abc == want.abc
        assert got.quality == want.quality


class TestComputeD:
    def test_pell_triples_always_give_four(self):
        for m in range(1, 201):
            assert compute_D(pell_3ap(m)) == 4

    def test_squares_triples_give_one(self):
        for m in range(1, 30):
            assert compute_D(squares_3ap(m)) == 1

    def test_divides_all_terms(self):
        w = _manual_witness((216, 432, 648), (6, 3, 2))
        D = compute_D(w)
        assert D == 216
        assert all(t % D == 0 for t in w.terms)

    def test_rejects_unreduced_triple(self):
        base = pell_3ap(1)
        scaled = _manual_witness(
            [t * 27 for t in base.terms],
            [d.b * 3 for d in base.decomps],
        )
        with pytest.raises(InvalidInput):
            compute_D(scaled)


class TestLemma:
    """The paper's valuation lemma: 3 nu_p(ab) >= delta whenever
    p^delta | a^2 b^3."""

    def test_small_sweep(self):
        # every (a, b) pair and every prime power dividing a^2 b^3
        for a in range(1, 51):
            for b in range(1, 51):
                n = a * a * b * b * b
                for p in (2, 3, 5, 7):
                    delta = 0
                    q = p
                    while n % q == 0:
                        delta += 1
                        q *= p
                    if delta:
                        assert 3 * valuation(p, a * b) >= delta

    def test_tight_cases(self):
        for a, b, p, delta in ((1, 2, 2, 3), (2, 1, 2, 2)):
            assert (a * a * b**3) % p**delta == 0
            assert 3 * valuation(p, a * b) >= delta


class TestAnalyzeFrozen:
    def test_pell_m1(self):
        t = analyze_triple(pell_3ap(1))
        assert t.D == 4
        assert t.quotients == (98, 121, 144)
        assert t.abc == (14112, 529, 14641)
        assert t.kappa == 10626
        assert t.quotient_radical == 462
        assert t.quality == Decimal(
            "1.0345723159008026366786787903170213721456690091805"
        )
        assert radical_inequality_check(t)
        assert t.all_ok()
        rows = {r.p: r for r in t.per_prime}
        assert set(rows) == {2, 3, 7, 11}
        assert (rows[2].nu_d, rows[2].lhs, rows[2].rhs) == (2, 1, 3)
        assert rows[2].case == "case2/even"
        for p in (3, 7, 11):
            assert rows[p].case == "D-coprime"
            assert (rows[p].lhs, rows[p].rhs) == (1, 1)

    def test_squares_m1(self):
        t = analyze_triple(squares_3ap(1))
        assert t.D == 1
        assert t.abc == (49, 576, 625)
        assert t.kappa == 210
        assert t.quotient_radical == 35
        assert t.quality == Decimal(
            "1.2039689893561185698138378927810594451208857341049"
        )
        # radical bound is tight here: 35 * 1 == 1*5*7
        assert radical_inequality_check(t)
        assert {r.p for r in t.per_prime} == {5, 7}

    def test_large_D_triple(self):
        t = analyze_triple(_manual_witness((216, 432, 648), (6, 3, 2)))
        assert t.D == 216
        assert t.abc == (3, 1, 4)
        assert t.kappa == 6
        assert t.quality == Decimal(
            "0.77370561446908317374049227693564175293028371891421"
        )
        assert t.all_ok()

    def test_valuation_check_matches_rows(self):
        t = analyze_triple(pell_3ap(2))
        ab = [(dec.a, dec.b) for dec in t.reduced.decomps]
        for row in t.per_prime:
            want = oracles.brute_valuation_bound(t.quotients, ab, t.D, row.p)
            assert (row.lhs, row.rhs, row.ok) == want


class TestAnalyzeBatteries:
    def test_pell_battery_default_budget(self):
        for m in range(1, 31):
            t = analyze_triple(pell_3ap(m))
            assert t.all_ok(), f"m={m}"
            assert t.D == 4
            assert t.quality < Decimal("1.6")

    def test_squares_battery(self):
        for m in range(1, 31):
            t = analyze_triple(squares_3ap(m))
            assert t.all_ok(), f"m={m}"

    def test_search_triples_all_verify(self, table_1e6):
        for rec in find_kaps(table_1e6, 3, 10**4):
            t = analyze_triple(witness_from_terms(rec.terms(), rec.d, "search"))
            assert t.all_ok(), f"N={rec.n} d={rec.d}"

    def test_extended_progression_sub_triples(self):
        w = extend_ap(pell_3ap(1))
        for i in range(w.k - 2):
            sub = _manual_witness(w.terms[i : i + 3], [d.b for d in w.decomps[i : i + 3]])
            assert analyze_triple(sub).all_ok()

    def test_budget_exhaustion_is_loud(self):
        # m=48's a-parts hold the 15-digit prime 195418370547079, which
        # rho alone missed at the default budget and ECM now finds
        t = analyze_triple(pell_3ap(48))
        assert t.all_ok() and t.D == 4
        primes = {row.p for row in t.per_prime}
        assert {4463, 195418370547079, 7720033903045593593} <= primes
        # (c^2, 25c^2, 49c^2) with c a product of two primes above 10^25:
        # factoring the a-parts c, 5c, 7c cannot finish at the default budget
        p, q = oracles.OUT_OF_REACH
        c = p * q
        w = _manual_witness([c * c, 25 * c * c, 49 * c * c], [1, 1, 1])
        with pytest.raises(BudgetExceeded) as exc:
            analyze_triple(w)
        assert exc.value.number == c


class TestQualityOracle:
    """The quality summed from prime logs matches ln c / ln kappa taken
    directly, digit for digit."""

    def test_analyze_triple_matches(self):
        witnesses = [squares_3ap(m) for m in range(1, 31)]
        witnesses += [witness_from_terms(rec.terms(), rec.d, "search")
                      for rec in find_kaps(enumerate_powerful(10**5), 3, 10**3)]
        assert len(witnesses) > 30
        for w in witnesses:
            t = analyze_triple(w)
            expected = oracles.decimal_quality(t.abc[2], t.kappa)
            assert str(t.quality) == str(expected), f"N={w.terms[0]} d={w.d}"


def _summed_quality(c, kappa):
    """The quality as one ratio_digits scope over sums of e * ln p."""
    return ratio_digits(lambda: sum(e * arith._prime_ln(p) for p, e in c)
                        / sum(arith._prime_ln(p) for p in kappa))


_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13, 97, 1009, 65537, 999983,
                           1000003, 2**61 - 1, 10**25 + 13])


class TestQualitySums:
    """_quality's sums and quotient, run in arith's two contexts, equal the
    same sums taken in one ratio_digits scope."""

    @given(c=st.dictionaries(_PRIMES, st.integers(1, 40), min_size=1, max_size=6),
           kappa=st.sets(_PRIMES, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_random_factorizations(self, c, kappa):
        c, kappa = sorted(c.items()), sorted(kappa)
        got, want = abcver._quality(c, kappa), _summed_quality(c, kappa)
        assert got.as_tuple() == want.as_tuple()

    def test_analyzed_triples(self):
        for w in [squares_3ap(m) for m in range(1, 11)] + [pell_3ap(m) for m in range(1, 11)]:
            t = analyze_triple(w)
            kappa = [p for p, _ in factorize(t.kappa)]
            assert t.quality.as_tuple() == _summed_quality(factorize(t.abc[2]), kappa).as_tuple()


class TestConsistencyGuards:
    def test_analyze_requires_three_terms(self):
        with pytest.raises(InvalidInput):
            analyze_triple(extend_ap(pell_3ap(1)))

    def test_tampered_decomp_is_rejected(self):
        w = pell_3ap(1)
        bad = APWitness(
            k=3,
            terms=w.terms,
            d=w.d,
            decomps=(PowerfulDecomp(14, 2), w.decomps[1], w.decomps[2]),
            family=w.family,
            params=dict(w.params),
        )
        with pytest.raises(InvalidWitness):
            analyze_triple(bad)
