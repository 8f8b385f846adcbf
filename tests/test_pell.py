import pytest
from hypothesis import given, settings, strategies as st

from powerful_ap import ConsistencyFailure, InvalidInput, pell_solution
from powerful_ap import pell

import oracles


class TestNegativeBranch:
    """Odd powers of 1 + sqrt(2): X^2 - 2Y^2 = -1."""

    def test_first_solutions(self):
        got = [pell_solution(2 * m + 1) for m in range(1, 8)]
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
        for k in range(1, 200, 2):
            x, y = pell_solution(k)
            assert x * x - 2 * y * y == -1

    def test_matches_unit_powers(self):
        for k in range(1, 401, 2):
            assert pell_solution(k) == oracles.zsqrt2_pow(k)


class TestPositiveBranch:
    """Even powers of 1 + sqrt(2): X^2 - 2Y^2 = +1."""

    def test_first_solutions(self):
        got = [pell_solution(2 * m) for m in range(1, 8)]
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
        for k in range(0, 200, 2):
            x, y = pell_solution(k)
            assert x * x - 2 * y * y == 1

    def test_matches_unit_powers(self):
        for k in range(0, 401, 2):
            assert pell_solution(k) == oracles.zsqrt2_pow(k)


class TestSolutionType:
    def test_index_lookup(self):
        assert pell_solution(0) == (1, 0)
        assert pell_solution(1) == (1, 1)
        assert pell_solution(7) == (239, 169)

    def test_rejects_bad_index(self):
        with pytest.raises(InvalidInput):
            pell_solution(-1)

    def test_rejects_a_pair_off_the_norm(self, monkeypatch):
        # a product that forgets sqrt(2)^2 = 2 yields pairs of the wrong
        # norm; the norm check must raise rather than return one
        monkeypatch.setattr(pell, "_mul", lambda a, b: (a[0] * b[0] + a[1] * b[1],
                                                         a[0] * b[1] + a[1] * b[0]))
        with pytest.raises(ConsistencyFailure):
            pell_solution(3)

    @given(st.integers(min_value=0, max_value=600))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_preserves_solutions(self, k):
        # (X + Y sqrt(2)) (1 + sqrt(2)) = (X + 2Y) + (X + Y) sqrt(2)
        x, y = pell_solution(k)
        assert pell_solution(k + 1) == (x + 2 * y, x + y)
