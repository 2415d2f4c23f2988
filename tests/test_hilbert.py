"""Tests for divisor/curve lattice arithmetic and the cone classification."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerlab.hilbert import (
    ALPHA,
    BETA,
    DISCRIMINANT_CLASS,
    H_CLASS,
    cone_report,
    decompose,
    gaeta_shape,
    kernel_divisor,
    nodal_pencil_curve,
    pair,
    pencil_curve,
    steiner_divisor,
)


def test_pairing_table():
    assert pair(H_CLASS, ALPHA) == 1
    assert pair(H_CLASS, BETA) == 0
    assert pair(DISCRIMINANT_CLASS, ALPHA) == 0
    assert pair(DISCRIMINANT_CLASS, BETA) == -2


def test_curve_degrees():
    assert (ALPHA.h_degree, ALPHA.delta_degree) == (1, 0)
    assert (BETA.h_degree, BETA.delta_degree) == (0, -2)


def test_decompose_examples():
    assert (decompose(12).r, decompose(12).s) == (4, 2)
    assert (decompose(142).r, decompose(142).s) == (16, 6)
    assert (decompose(3).r, decompose(3).s) == (2, 0)


def test_decompose_unique_exhaustive():
    for n in range(1, 200):
        dec = decompose(n)
        assert dec.r * (dec.r + 1) // 2 + dec.s == n
        assert 0 <= dec.s <= dec.r
        matches = [
            (r, n - r * (r + 1) // 2)
            for r in range(1, 25)
            if 0 <= n - r * (r + 1) // 2 <= r
        ]
        assert matches == [(dec.r, dec.s)]


@pytest.mark.parametrize("n", [10**400, 10**59 + 123456789])
def test_decompose_huge_round_trips(n):
    # past 10**308 a float square root overflows, and well before that it
    # is off by far more than one
    dec = decompose(n)
    assert dec.r * (dec.r + 1) // 2 + dec.s == n
    assert 0 <= dec.s <= dec.r


def test_decompose_at_huge_triangular_boundaries():
    r = 10**200
    t = r * (r + 1) // 2
    assert (decompose(t).r, decompose(t).s) == (r, 0)
    assert (decompose(t - 1).r, decompose(t - 1).s) == (r - 1, r - 1)


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=10**500))
def test_decompose_round_trip_property(n):
    dec = decompose(n)
    assert dec.r * (dec.r + 1) // 2 + dec.s == n
    assert 0 <= dec.s <= dec.r


def test_divisor_examples():
    d = steiner_divisor(4, 2)
    assert (d.a, d.b) == (14, 4)
    assert d.slope == F(7, 2)
    assert d.h_over_delta == 7
    assert steiner_divisor(2, 0).slope == 1
    assert steiner_divisor(16, 6).slope == F(123, 8)
    assert kernel_divisor(16, 6).slope == F(277, 18)
    assert (kernel_divisor(2, 1).a, kernel_divisor(2, 1).b) == (6, 4)


def test_divisor_validation():
    with pytest.raises(ValueError):
        steiner_divisor(3, 4)
    with pytest.raises(ValueError):
        kernel_divisor(3, 0)


def test_divisor_normalization_and_integrality():
    d = steiner_divisor(4, 2)
    assert d.is_integral
    norm = d.normalized()
    assert norm.b == 1 and norm.a == F(7, 2) and not norm.is_integral


def test_kernel_vs_next_steiner_slope_probe():
    # at s = r the kernel slope is r - 1/(r+2), just under the triangular
    # steiner slope r at the next rank; the two formulas stay distinct
    for r in range(2, 12):
        assert kernel_divisor(r, r).slope == r - F(1, r + 2)
        assert steiner_divisor(r + 1, 0).slope == r


def test_pencil_curve_duality_examples():
    g = pencil_curve(12, 4)
    assert (g.h_degree, g.delta_degree) == (4, 28)
    assert pair(steiner_divisor(4, 2), g) == 0
    g2 = pencil_curve(12, 6)
    assert (g2.h_degree, g2.delta_degree) == (6, 42)
    assert pair(kernel_divisor(4, 2), g2) == 0
    g3 = pencil_curve(3, 2)
    assert (g3.h_degree, g3.delta_degree) == (2, 4)
    assert pair(steiner_divisor(2, 0), g3) == 0


def test_duality_sweep():
    for r in range(2, 41):
        for s in range(0, r + 1):
            n = r * (r + 1) // 2 + s
            assert pair(steiner_divisor(r, s), pencil_curve(n, r)) == 0
            if s >= 1:
                assert pair(kernel_divisor(r, s), pencil_curve(n, r + 2)) == 0


def test_nodal_pencil_examples():
    c, m = nodal_pencil_curve(5, 1)
    assert (c.h_degree, c.delta_degree, m) == (9, 76, 5)
    c, m = nodal_pencil_curve(5, 2)
    assert (c.h_degree, c.delta_degree, m) == (9, 80, 4)


def test_nodal_pencil_range():
    with pytest.raises(ValueError):
        nodal_pencil_curve(4, 2)  # s = r/2 excluded


def test_nodal_vs_pencil_slope_threshold():
    # the nodal curve's discriminant/H ratio beats the degree r+2 pencil
    # exactly when 5s >= 2r - 1 (equality of ratios at 5s = 2r - 1)
    for r in range(3, 60):
        for s in range((r + 1) // 2):
            nodal, _ = nodal_pencil_curve(r, s)
            n = r * (r + 1) // 2 + s
            pencil = pencil_curve(n, r + 2)
            if 5 * s >= 2 * r:
                assert nodal.slope > pencil.slope
            elif 5 * s == 2 * r - 1:
                assert nodal.slope == pencil.slope
            else:
                assert nodal.slope < pencil.slope


def test_gaeta_examples():
    g5 = gaeta_shape(5)
    assert g5.middle == ((-2, 1), (-3, 2))
    assert g5.left == ((-4, 2),)
    g3 = gaeta_shape(3)
    assert g3.middle == ((-2, 3),)
    assert g3.left == ((-3, 2),)
    g1 = gaeta_shape(1)
    assert g1.middle == ((-1, 2),)
    assert g1.left == ((-2, 1),)


def test_gaeta_euler_identity_small():
    for n in range(1, 60):
        shape = gaeta_shape(n)
        r = decompose(n).r
        for t in range(0, 3 * r + 1):
            assert shape.euler_defect(t) == 0


def test_cone_gold_142():
    rep = cone_report(142)
    assert rep.case_label == "open"
    assert rep.edge_status == "candidate"
    assert rep.possibility1.slope == F(277, 18)
    assert rep.possibility1.b == 1
    # the kernel-side pencil gives the better lower bound here
    assert rep.moving_curve.h_degree == 18


def test_cone_gold_12_and_3():
    rep = cone_report(12)
    assert rep.case_label == "case4"
    assert rep.edge_status == "proven"
    assert (rep.effective_edge.a, rep.effective_edge.b) == (14, 4)
    assert rep.effective_edge.h_over_delta == 7
    rep = cone_report(3)
    assert (rep.effective_edge.a, rep.effective_edge.b) == (2, 2)
    assert rep.effective_edge.h_over_delta == 2


def test_cone_kernel_case():
    rep = cone_report(7)  # r = 3, s = 1: dual ratio 3/5 is exceptional
    assert rep.case_label == "case1"
    assert rep.edge_status == "proven"
    assert rep.effective_edge == kernel_divisor(3, 1)
    assert rep.moving_curve == pencil_curve(7, 5)


def test_cone_nodal_window_case():
    rep = cone_report(143)  # r = 16, s = 7: inside the open nodal window
    assert rep.case_label == "case2-conj"
    assert rep.edge_status == "conjectural"
    assert rep.effective_edge.a == 2 * 256 - 48 + 14 + 1
    assert rep.effective_edge.b == 31
    assert pair(rep.effective_edge, rep.moving_curve) == 0


def test_cone_nodal_dual_window_case():
    rep = cone_report(145)  # r = 16, s = 9: mirror window
    assert rep.case_label == "case3-conj"
    assert rep.edge_status == "conjectural"
    assert rep.effective_edge.a == 2 * 256 + 48 + 18 - 2
    assert rep.effective_edge.b == 37
    assert pair(rep.effective_edge, rep.moving_curve) == 0


def test_cone_sporadic_convergent_case():
    # r = 15, s = 6: the ratio 12/29 is a convergent of sqrt(2) - 1 and
    # sits just below the open window, so it is flagged conjectural
    rep = cone_report(126)
    assert rep.case_label == "case2-conj"


def test_cone_every_proven_edge_is_dual_to_its_curve():
    for n in range(2, 150):
        rep = cone_report(n)
        if rep.edge_status == "proven":
            assert pair(rep.effective_edge, rep.moving_curve) == 0


def test_cone_proven_slopes_nested():
    # effective cones shrink as points are added, so proven edge slopes
    # (normalized) never decrease with n
    prev = None
    for n in range(2, 150):
        rep = cone_report(n)
        if rep.edge_status != "proven":
            continue
        slope = rep.effective_edge.slope
        if prev is not None:
            assert slope >= prev, n
        prev = slope


def test_cone_rejects_tiny_n():
    with pytest.raises(ValueError):
        cone_report(1)


def test_open_reports_carry_possibility():
    for n in range(2, 150):
        rep = cone_report(n)
        if rep.case_label == "open":
            assert rep.possibility1 is not None
            assert rep.edge_status == "candidate"
        else:
            assert rep.possibility1 is None
