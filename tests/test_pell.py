import itertools

import pytest
from hypothesis import given, settings, strategies as st

from powerful_ap import InvalidInput, PellKind, PellSolution, pell_solution
from powerful_ap.pell import iter_pell_neg, iter_pell_pos

import oracles


class TestNegativeBranch:
    def test_first_solutions(self):
        got = [(s.x, s.y) for s in itertools.islice(iter_pell_neg(), 7)]
        assert got == [
            (7, 5),
            (41, 29),
            (239, 169),
            (1393, 985),
            (8119, 5741),
            (47321, 33461),
            (275807, 195025),
        ]

    def test_identity_holds(self):
        for s in itertools.islice(iter_pell_neg(), 60):
            assert s.x * s.x - 2 * s.y * s.y == -1
            assert s.kind is PellKind.NEG

    def test_matches_unit_powers(self):
        # the m-th emitted solution is (1+sqrt(2))^(2m+1)
        for m, s in enumerate(itertools.islice(iter_pell_neg(), 40), start=1):
            assert (s.x, s.y) == oracles.zsqrt2_pow(2 * m + 1)


class TestPositiveBranch:
    def test_first_solutions(self):
        got = [(s.x, s.y) for s in itertools.islice(iter_pell_pos(), 7)]
        assert got == [
            (3, 2),
            (17, 12),
            (99, 70),
            (577, 408),
            (3363, 2378),
            (19601, 13860),
            (114243, 80782),
        ]

    def test_identity_holds(self):
        for s in itertools.islice(iter_pell_pos(), 60):
            assert s.x * s.x - 2 * s.y * s.y == 1
            assert s.kind is PellKind.POS

    def test_matches_unit_powers(self):
        for m, s in enumerate(itertools.islice(iter_pell_pos(), 40), start=1):
            assert (s.x, s.y) == oracles.zsqrt2_pow(2 * m)


class TestSolutionType:
    def test_index_lookup(self):
        s = pell_solution(3, PellKind.NEG)
        assert (s.m, s.x, s.y) == (3, 239, 169)
        s = pell_solution(1, PellKind.POS)
        assert (s.m, s.x, s.y) == (1, 3, 2)

    def test_rejects_bad_index(self):
        with pytest.raises(InvalidInput):
            pell_solution(0, PellKind.NEG)

    def test_rejects_false_witness(self):
        with pytest.raises(InvalidInput):
            PellSolution(m=1, x=7, y=4, kind=PellKind.NEG)

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_recurrence_preserves_solutions(self, m):
        s = pell_solution(m, PellKind.NEG)
        nxt = PellSolution(m + 1, 3 * s.x + 4 * s.y, 2 * s.x + 3 * s.y, PellKind.NEG)
        assert nxt == pell_solution(m + 1, PellKind.NEG)

    def test_iterators_are_lazy(self):
        neg = iter_pell_neg()
        pos = iter_pell_pos()
        assert next(neg).x == 7
        assert next(pos).x == 3
        assert [s.y for s in itertools.islice(neg, 2)] == [29, 169]
