import inspect
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

import powerful_ap
from powerful_ap import (
    APRecord,
    CapacityExceeded,
    InvalidInput,
    PowerfulTable,
    consecutive_check,
    enumerate_powerful,
    find_kaps,
    record_min_ratio,
    witness_from_terms,
)
from powerful_ap.arith import ratio_digits, sqrt_ratios

import oracles


class TestEnumerate:
    def test_tiny_limits(self):
        assert enumerate_powerful(1).values == (1,)
        assert enumerate_powerful(10).values == (1, 4, 8, 9)
        assert enumerate_powerful(100).values == (
            1, 4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 72, 81, 100,
        )

    @given(st.integers(min_value=1, max_value=30000))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_definition(self, limit):
        got = list(enumerate_powerful(limit))
        want = [n for n in range(1, limit + 1) if oracles.brute_is_powerful(n)]
        assert got == want

    def test_against_sieve_oracle(self, table_1e6, brute_1e6):
        assert list(table_1e6) == brute_1e6

    def test_count_tracks_asymptotic_density(self, table_1e8):
        # 2.173 * sqrt(x) within 5% at 10^8 (the fit is coarser lower down)
        expected = 2.173 * 10**4
        assert abs(len(table_1e8) - expected) / expected < 0.05

    def test_capacity_guard(self):
        with pytest.raises(CapacityExceeded):
            enumerate_powerful(10**14)

    def test_membership(self, table_1e6):
        assert 999999 not in table_1e6
        assert 997 * 997 in table_1e6
        assert len(table_1e6) == 2027

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            enumerate_powerful(0)


class TestFindAPs:
    def test_frozen_small_windows(self, table_1e6):
        small100 = PowerfulTable(100, tuple(v for v in table_1e6 if v <= 100))
        assert [(r.n, r.d) for r in find_kaps(small100, 3, 30)] == [(1, 24), (8, 28)]
        small600 = PowerfulTable(600, tuple(v for v in table_1e6 if v <= 600))
        recs = find_kaps(small600, 3, 100)
        assert (392, 92) in [(r.n, r.d) for r in recs]
        assert len(recs) == 17

    def test_empty_window(self, table_1e6):
        assert find_kaps(table_1e6, 3, 0) == []

    def test_exhaustive_against_direct_scan(self, table_1e6):
        values = [v for v in table_1e6 if v <= 20000]
        table = PowerfulTable(20000, tuple(values))
        got = [(r.n, r.d) for r in find_kaps(table, 3, 500)]
        want = oracles.brute_find_kaps(values, 3, 500)
        assert got == sorted(want)

    def test_kaps_reduces_to_3aps(self, table_1e6):
        recs = find_kaps(table_1e6, 3, 1000)
        assert all(r.k == 3 for r in recs)
        assert [(r.n, r.d) for r in recs] == oracles.brute_find_kaps(
            list(table_1e6), 3, 1000)

    def test_four_term_sub_progressions_are_found(self, table_1e6):
        quads = find_kaps(table_1e6, 4, 2000)
        triples = {(r.n, r.d) for r in find_kaps(table_1e6, 3, 2000)}
        for q in quads:
            assert (q.n, q.d) in triples
            assert (q.n + q.d, q.d) in triples

    def test_four_term_frozen_example(self, table_1e8):
        sub = PowerfulTable(4 * 10**7, tuple(v for v in table_1e8 if v <= 4 * 10**7))
        found = [(r.n, r.d) for r in find_kaps(sub, 4, 3 * 10**6)]
        assert (31212000, 2080800) in found

    def test_records_carry_ratio(self, table_1e6):
        recs = find_kaps(table_1e6, 3, 30)
        assert recs[0].n == 1 and recs[0].ratio_half == 24
        assert recs[0].terms() == (1, 25, 49)

    def test_rejects_bad_args(self, table_1e6):
        with pytest.raises(InvalidInput):
            find_kaps(table_1e6, 2, 10)
        with pytest.raises(InvalidInput):
            find_kaps(table_1e6, 3, -1)

    def test_even_start_scans_odd_middle_terms_when_table_holds_2_mod_4(self):
        # 6 = 2 mod 4 is not powerful, so only the fallback finds 4, 5, 6
        assert [(r.n, r.d) for r in find_kaps(PowerfulTable(6, (4, 5, 6)), 3, 1)] == [(4, 1)]

    def test_shared_root_gives_each_ratio_exactly(self, table_1e6):
        recs = find_kaps(table_1e6, 3, 10**4)
        assert len({r.n for r in recs}) < len(recs)  # some start has several d
        for r in recs:
            assert r.ratio_half == ratio_digits(lambda: Decimal(r.d) / Decimal(r.n).sqrt())


@st.composite
def _table_k_dmax(draw):
    # PowerfulTable takes any strictly increasing values, so the scan is
    # checked on tables that are not powerful too.
    values = sorted(draw(st.sets(st.integers(1, 300), min_size=1, max_size=40)))
    k = draw(st.sampled_from((3, 4, 5)))
    d_max = draw(st.integers(0, values[-1] - values[0] + 2))
    return values, k, d_max


class TestFindKapsOracle:
    """The window-intersection scan against a scan of every difference."""

    @given(_table_k_dmax())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, case):
        values, k, d_max = case
        table = PowerfulTable(values[-1], tuple(values))
        got = [(r.n, r.d) for r in find_kaps(table, k, d_max)]
        assert got == sorted(oracles.brute_find_kaps(values, k, d_max))

    def test_window_edge_is_inclusive(self):
        # 1, 25, 49 has d = 24; 1, 26, 51 has d = 25.
        table = PowerfulTable(51, (1, 25, 26, 49, 51))
        assert [(r.n, r.d) for r in find_kaps(table, 3, 24)] == [(1, 24)]
        assert [(r.n, r.d) for r in find_kaps(table, 3, 25)] == [(1, 24), (1, 25)]

    def test_window_past_last_value(self):
        table = PowerfulTable(49, (1, 25, 49))
        assert [(r.n, r.d) for r in find_kaps(table, 3, 10**6)] == [(1, 24)]
        assert find_kaps(table, 4, 10**6) == []

    def test_single_value_table(self):
        table = PowerfulTable(1, (1,))
        for k in (3, 4, 5):
            assert find_kaps(table, k, 0) == find_kaps(table, k, 10**6) == []

    @pytest.mark.parametrize("k", [4, 5])
    def test_longer_progressions_below_1e5(self, table_1e6, k):
        values = [v for v in table_1e6 if v <= 10**5]
        table = PowerfulTable(10**5, tuple(values))
        got = [(r.n, r.d) for r in find_kaps(table, k, 900)]
        assert got and got == sorted(oracles.brute_find_kaps(values, k, 900))


class TestConsecutive:
    def test_frozen_runs_at_1e6(self, table_1e6):
        runs = consecutive_check(table_1e6)
        assert runs == [
            (8, 9),
            (288, 289),
            (675, 676),
            (9800, 9801),
            (12167, 12168),
            (235224, 235225),
            (332928, 332929),
            (465124, 465125),
        ]

    def test_brute_scan_agrees(self, table_1e6, brute_1e6):
        members = set(brute_1e6)
        want = []
        for v in brute_1e6:
            if v - 1 in members:
                continue
            run = [v]
            while run[-1] + 1 in members:
                run.append(run[-1] + 1)
            if len(run) >= 2:
                want.append(tuple(run))
        assert consecutive_check(table_1e6) == want

    def test_no_triple_runs_at_1e6(self, table_1e6):
        assert all(len(run) == 2 for run in consecutive_check(table_1e6))


class TestRecordMinima:
    def test_empty(self):
        assert record_min_ratio([]) == []

    def test_frozen_records(self, table_1e8):
        recs = find_kaps(table_1e8, 3, 10**6)
        minima = record_min_ratio(recs)
        assert [(r.n, r.d) for r in minima] == [
            (1, 24),
            (8, 28),
            (36, 36),
            (72, 28),
            (343, 49),
            (1728, 36),
            (729000, 316),
        ]

    def test_running_minima_non_increasing(self, table_1e6):
        minima = record_min_ratio(find_kaps(table_1e6, 3, 10**4))
        ratios = [r.ratio_half for r in minima]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_ratios_equal_to_50_digits_are_told_apart(self):
        # both d/sqrt(N) print as 3.000... to 50 digits, but the second is
        # smaller: d^2 * N' < d'^2 * N
        d = 3 * 10**60 + 1
        recs = [APRecord(n, d, 3, ratio_digits(lambda: Decimal(d) / Decimal(n).sqrt()))
                for n in (10**120, 10**120 + 1)]
        assert recs[0].ratio_half == recs[1].ratio_half
        assert record_min_ratio(recs) == recs


def _one_ratio(n, d):
    return ratio_digits(lambda: Decimal(d) / Decimal(n).sqrt())


class TestSqrtRatios:
    """The batched d/sqrt(N) equal ratio_digits taken per record, to the
    last digit and exponent."""

    @staticmethod
    def _check(pairs):
        got = sqrt_ratios(pairs)
        want = [_one_ratio(n, d) for n, d in pairs]
        assert [r.as_tuple() for r in got] == [r.as_tuple() for r in want]
        assert [str(r) for r in got] == [str(r) for r in want]

    @given(st.lists(st.tuples(st.integers(1, 10**40), st.integers(1, 10**30)),
                    max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_random_pairs(self, pairs):
        self._check(sorted(pairs))
        self._check(pairs)  # unsorted: the root is only reused while N repeats

    @given(st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
                    min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_runs_of_equal_n(self, pairs):
        # each N several times in a row, with different d
        self._check(sorted((n, d + i) for n, d in pairs for i in range(3)))

    def test_perfect_squares_give_exact_ratios(self):
        pairs = [(1, 24), (1, 25), (4, 6), (36, 36), (10**40, 3 * 10**20)]
        self._check(pairs)
        assert [str(r) for r in sqrt_ratios(pairs)] == ["24", "25", "3", "6", "3"]

    def test_ratios_equal_to_50_digits(self):
        d = 3 * 10**60 + 1
        pairs = [(10**120, d), (10**120 + 1, d)]
        self._check(pairs)
        first, second = sqrt_ratios(pairs)
        assert first == second


class TestWitnessBridge:
    def test_rederives_and_validates(self, table_1e6):
        for rec in find_kaps(table_1e6, 3, 100):
            w = witness_from_terms(rec.terms(), rec.d, "search")
            assert w.terms == rec.terms()
            assert w.d == rec.d

    def test_search_witness_has_real_decomps(self, table_1e6):
        rec = next(r for r in find_kaps(table_1e6, 3, 100) if r.n == 392)
        w = witness_from_terms(rec.terms(), rec.d, "search")
        assert [(d.a, d.b) for d in w.decomps] == [(7, 2), (22, 1), (24, 1)]


def test_public_names_resolve_once():
    names = powerful_ap.__all__
    assert names == sorted(set(names))
    assert [n for n in names if not hasattr(powerful_ap, n)] == []
    # every public name the package binds is exported, and nothing else
    bound = {n for n, v in vars(powerful_ap).items()
             if not n.startswith("_") and not inspect.ismodule(v)}
    assert bound == set(names)
