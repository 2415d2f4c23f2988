"""Tests for divisor/curve lattice arithmetic and the cone classification."""

import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerlab.hilbert import (
    CASE_KERNEL,
    CASE_NODAL,
    CASE_NODAL_DUAL,
    CASE_OPEN,
    CASE_STEINER,
    STATUS_CANDIDATE,
    STATUS_CONJECTURAL,
    STATUS_PROVEN,
    ConeReport,
    CurveClass,
    DivisorClass,
    GaetaShape,
    _in_nodal_window,
    _is_sqrt2m1_convergent,
    cone_report,
    decompose,
    gaeta_shape,
    kernel_divisor,
    nodal_pencil_curve,
    pair,
    pencil_curve,
    steiner_divisor,
)
from steinerlab.slopes import is_semistable_slope
from test_bench_contract import _load


# H, the discriminant D, and the dual curve classes alpha and beta
H_CLASS = DivisorClass(F(1), F(0))
DISCRIMINANT_CLASS = DivisorClass(F(0), F(-2))
ALPHA = CurveClass(F(1), F(0))
BETA = CurveClass(F(0), F(1))


def test_pairing_table():
    assert pair(H_CLASS, ALPHA) == 1
    assert pair(H_CLASS, BETA) == 0
    assert pair(DISCRIMINANT_CLASS, ALPHA) == 0
    assert pair(DISCRIMINANT_CLASS, BETA) == -2


_fractions = st.builds(F, st.integers(-10**9, 10**9), st.integers(1, 10**6))


@settings(max_examples=200, deadline=None)
@given(a=_fractions, b=_fractions, x=_fractions, y=_fractions)
def test_pairing_in_integers_matches_the_fraction_formula(a, b, x, y):
    got = pair(DivisorClass(a, b), CurveClass(x, y))
    assert type(got) is F and got == a * x + b * y


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


def test_class_fields_are_fractions_converted_once():
    half, two = F(1, 2), F(2)
    d, c = DivisorClass(half, two), CurveClass(half, two)
    assert d.a is half and d.b is two and c.x is half and c.y is two
    # anything else is converted, so the repr the digest hashes is the same
    for cls in (DivisorClass, CurveClass):
        mixed = cls(3, "1/2")
        assert repr(mixed) == repr(cls(F(3), half))
        assert all(type(v) is F for v in vars(mixed).values())


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
    def ratio(c):
        return c.delta_degree / c.h_degree

    for r in range(3, 60):
        for s in range((r + 1) // 2):
            nodal, _ = nodal_pencil_curve(r, s)
            n = r * (r + 1) // 2 + s
            pencil = pencil_curve(n, r + 2)
            if 5 * s >= 2 * r:
                assert ratio(nodal) > ratio(pencil)
            elif 5 * s == 2 * r - 1:
                assert ratio(nodal) == ratio(pencil)
            else:
                assert ratio(nodal) < ratio(pencil)


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


def _reference_euler_defect(shape, t):
    def poly_b(x):
        return F((x + 1) * (x + 2), 2)

    total = sum(m * poly_b(t + e) for e, m in shape.middle)
    total -= sum(m * poly_b(t + e) for e, m in shape.left)
    return total - (poly_b(t) - shape.n)


def test_gaeta_euler_defect_is_an_int_at_negative_twists():
    for n in range(1, 40):
        shape = gaeta_shape(n)
        for t in range(-3 * decompose(n).r - 4, 0):
            defect = shape.euler_defect(t)
            assert type(defect) is int and defect == 0


_twisted_terms = st.lists(st.tuples(st.integers(-30, 5), st.integers(0, 10)), max_size=4)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 100), middle=_twisted_terms, left=_twisted_terms, t=st.integers(-40, 40))
def test_euler_defect_matches_the_fraction_formula(n, middle, left, t):
    # arbitrary shapes, most of them wrong, so the defect is often nonzero
    shape = GaetaShape(n, tuple(middle), tuple(left))
    defect = shape.euler_defect(t)
    assert type(defect) is int
    assert defect == _reference_euler_defect(shape, t)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 10**6),
    middle=_twisted_terms,
    left=_twisted_terms,
    t=st.integers(-(10**6), 10**6),
)
def test_euler_defect_matches_the_fraction_formula_at_large_twists(n, middle, left, t):
    shape = GaetaShape(n, tuple(middle), tuple(left))
    assert shape.euler_defect(t) == _reference_euler_defect(shape, t)
    real = gaeta_shape(n + 1)
    assert real.euler_defect(t) == _reference_euler_defect(real, t) == 0


def test_gaeta_defect_coefficients_follow_the_fields():
    shape = gaeta_shape(10)
    moved = dataclasses.replace(shape, n=11, left=((-5, 3),))
    assert moved._twice_defect == GaetaShape(11, shape.middle, ((-5, 3),))._twice_defect
    assert moved._twice_defect != shape._twice_defect
    for t in range(-20, 21):
        assert moved.euler_defect(t) == _reference_euler_defect(moved, t)
    # the coefficients are neither compared, hashed nor printed
    tampered = GaetaShape(shape.n, shape.middle, shape.left)
    object.__setattr__(tampered, "_twice_defect", (1, 2, 3))
    assert tampered == shape and hash(tampered) == hash(shape)
    assert repr(tampered) == repr(shape) == "GaetaShape(n=10, middle=((-4, 5),), left=((-5, 4),))"


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


def test_cone_cases_match_the_bench_oracle():
    # the nodal-dual window is the nodal window at s -> r - s; the oracle
    # recomputes both windows from the definitions with plain integers
    oracles = _load("oracles")
    for n in range(2, 5001):
        want = oracles.cone_expectation(n)
        rep = cone_report(n)
        assert (rep.case_label, rep.edge_status) == (want["case"], want["status"]), n


def _reference_cone_report(n):
    """cone_report as it was written with Fractions: the membership tests
    on Fraction slopes, both open-case candidates compared by .slope, and
    each edge checked with pair()."""
    dec = decompose(n)
    r, s = dec.r, dec.s

    if is_semistable_slope(2, F(s, r)):
        edge = steiner_divisor(r, s)
        curve = pencil_curve(n, r)
        assert pair(edge, curve) == 0
        return ConeReport(
            n, dec, CASE_STEINER, edge, STATUS_PROVEN, curve,
            f"pencil on a smooth curve of degree {r}",
        )

    if s >= 1 and is_semistable_slope(2, 1 - F(s + 1, r + 2)):
        edge = kernel_divisor(r, s)
        curve = pencil_curve(n, r + 2)
        assert pair(edge, curve) == 0
        return ConeReport(
            n, dec, CASE_KERNEL, edge, STATUS_PROVEN, curve,
            f"pencil on a smooth curve of degree {r + 2}",
        )

    if _in_nodal_window(r, s):
        curve, m = nodal_pencil_curve(r, s)
        edge = DivisorClass(F(2 * r * r - 3 * r + 2 * s + 1), F(2 * r - 1))
        assert pair(edge, curve) == 0
        return ConeReport(
            n, dec, CASE_NODAL, edge, STATUS_CONJECTURAL, curve,
            f"pencil on a degree {2 * r - 1} curve with {m} nodes",
        )

    if _in_nodal_window(r, r - s):
        edge = DivisorClass(F(2 * r * r + 3 * r + 2 * s - 2), F(2 * r + 5))
        m = (r + 3) ** 2 - (r + 2) - n
        curve = CurveClass(F(2 * r + 5), -edge.a)
        assert pair(edge, curve) == 0
        return ConeReport(
            n, dec, CASE_NODAL_DUAL, edge, STATUS_CONJECTURAL, curve,
            f"pencil on a degree {2 * r + 5} curve with {m} nodes (existence conjectural)",
        )

    candidates = [(steiner_divisor(r, s), pencil_curve(n, r), r)]
    if s >= 1:
        candidates.append((kernel_divisor(r, s), pencil_curve(n, r + 2), r + 2))
    edge, curve, deg = max(candidates, key=lambda t: t[0].slope)
    return ConeReport(
        n, dec, CASE_OPEN, edge.normalized(), STATUS_CANDIDATE, curve,
        f"pencil on a smooth curve of degree {deg} (lower bound only)",
        possibility1=edge.normalized(),
    )


def _reference_sample():
    # every small n; the whole rows r = (q + 1)/2 at the odd denominators q
    # of the sqrt(2) - 1 convergents, where the windows and the case
    # boundaries sit; and seeded n of 12 to 36 digits
    yield from range(2, 5001)
    for q in (5, 29, 169, 985, 5741):
        r = (q + 1) // 2
        yield from range(r * (r + 1) // 2, r * (r + 1) // 2 + r + 1)
    rng = random.Random(20111)
    for d in (12, 18, 24, 30, 36):
        yield rng.randrange(10 ** (d - 1), 10**d)


def test_cone_report_matches_the_fraction_reference():
    # the benchmark digest hashes the whole repr, not just case and status
    for n in _reference_sample():
        assert repr(cone_report(n)) == repr(_reference_cone_report(n)), n


def test_reference_sample_reaches_every_case():
    labels = {_reference_cone_report(n).case_label for n in _reference_sample()}
    assert labels == {CASE_STEINER, CASE_KERNEL, CASE_NODAL, CASE_NODAL_DUAL, CASE_OPEN}


def test_cone_sporadic_convergent_case():
    # r = 15, s = 6: the ratio 12/29 is a convergent of sqrt(2) - 1 and
    # sits just below the open window, so it is flagged conjectural
    rep = cone_report(126)
    assert rep.case_label == "case2-conj"


def test_cone_convergent_cases_past_a_million():
    # 2s/(2r-1) = 470832/1136689 is a convergent of sqrt(2) - 1 whose
    # denominator is past 10^6; same shape as r = 493, s = 204
    r, half = 568345, 235416
    assert cone_report(493 * 494 // 2 + 204).case_label == "case2-conj"
    assert cone_report(r * (r + 1) // 2 + half).case_label == "case2-conj"
    assert cone_report(r * (r + 1) // 2 + r - half).case_label == "case3-conj"


def _sqrt2m1_convergents(max_den=10**6):
    """The former table generator: convergents of sqrt(2) - 1 with
    denominator up to max_den, excluding the trivial 0."""
    out = []
    p0, q0, p1, q1 = 1, 0, 0, 1
    while True:
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
        if q1 > max_den:
            break
        out.append(F(p1, q1))
    return out


_TABLE = frozenset(_sqrt2m1_convergents())
_TABLE_SORTED = sorted(_TABLE)


def test_pell_test_accepts_every_table_entry_unreduced():
    for q in _TABLE:
        for k in (1, 3, 7):
            assert _is_sqrt2m1_convergent(k * q.numerator, k * q.denominator)
    assert not _is_sqrt2m1_convergent(0, 1)  # the trivial convergent is excluded


@settings(max_examples=300, deadline=None)
@given(
    frac=st.one_of(
        st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
        st.builds(
            lambda q, dn, dd: (max(1, q.numerator + dn), max(1, q.denominator + dd)),
            st.sampled_from(_TABLE_SORTED),
            st.integers(-2, 2),
            st.integers(-2, 2),
        ),
    )
)
def test_pell_test_agrees_with_table_below_a_million(frac):
    num, den = frac
    assert _is_sqrt2m1_convergent(num, den) == (F(num, den) in _TABLE)


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
