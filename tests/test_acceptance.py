"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with -s to see the lines; every criterion is exact (no tolerances are
involved anywhere, the checks are equalities and integer comparisons).
"""

import pytest

from steinerlab.acceptance import ALL_CRITERIA


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion):
    result = criterion()
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name} {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
