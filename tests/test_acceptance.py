"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with -s to see the lines; every criterion is exact (no tolerances are
involved anywhere, the checks are equalities and integer comparisons).
"""

from fractions import Fraction

import pytest

from steinerlab import acceptance
from steinerlab.acceptance import ALL_CRITERIA


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion):
    result = criterion()
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name} {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_4_searches_each_pair_once_and_counts_each_n(monkeypatch):
    # monomial_series(a, b, N) does not depend on N, so criterion 4 searches
    # each (a, b) once and counts its verdict once per N in 3..5
    searched = []
    real = acceptance.min_filling_monomial

    def search(exponents, a):
        searched.append(a)
        return real(exponents, a)

    monkeypatch.setattr(acceptance, "min_filling_monomial", search)
    result = acceptance.criterion_4_monomial_construction()
    assert (result.passed, result.detail) == (True, "468 (a, b, N) cases, 0 violations")
    assert len(searched) == 234
    # a failing a = 1 fails b = 2 for N = 3, 4, 5, b = 3 for N = 4, 5 and
    # b = 4 for N = 5: six (a, b, N) cases
    monkeypatch.setattr(acceptance, "min_filling_monomial",
                        lambda exponents, a: (Fraction(0), (0,)) if a == 1 else search(exponents, a))
    result = acceptance.criterion_4_monomial_construction()
    assert (result.passed, result.detail) == (False, "468 (a, b, N) cases, 6 violations")
