"""The package's acceptance suite: eleven exact desk-scale checks.

Each criterion is a function returning a CriterionResult; run_all executes
them in order.  The CLI selftest command and the pytest acceptance module
both call into here, so there is a single source of truth for what the
package promises.

Genericity protocol: an open ("holds for a general choice") claim passes
if it holds for at least one of TRIALS seeds; a closed ("never holds")
claim must fail on every one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import RandomSource
from .primes import DEFAULT_PRIME, DEFAULT_TRIALS
from .slopes import exceptional_slopes, is_balanced_ratio, is_balanced_ratio_orbit
from .series import min_filling_monomial, monomial_series, verify_lemma_ba2
from .steiner import SteinerSpec, balanced_test, interpolation_test_cokernel, matrix_iso_test, pullback_splitting
from .hilbert import cone_report, decompose, gaeta_shape, kernel_divisor, pair, pencil_curve, steiner_divisor
from .secant import SecantParams, existence_check, secant_class, secant_class_rank_one


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str


def criterion_1_slope_list(prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = DEFAULT_TRIALS) -> CriterionResult:
    """Exceptional slope list for the plane: six exact convergents."""
    got = exceptional_slopes(2, 6)
    want = [Fraction(0), Fraction(1, 2), Fraction(3, 5), Fraction(8, 13), Fraction(21, 34), Fraction(55, 89)]
    return CriterionResult(
        "1-slope-list", got == want, f"exceptional_slopes(2, 6) = {[str(q) for q in got]}"
    )


def criterion_2_dual_ratio_sets(prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = DEFAULT_TRIALS) -> CriterionResult:
    """Reduction-based and orbit-based ratio membership agree on 1000
    seeded random rationals in (1, N] for N in 3..5."""
    mismatches = 0
    checked = 0
    for n_dim in (3, 4, 5):
        rng = RandomSource(seed).derive(n_dim)
        for _ in range(1000):
            den = rng.below(60) + 1
            num = rng.below(n_dim * den - den) + den + 1  # in (den, N*den]
            q = Fraction(num, den)
            checked += 1
            if is_balanced_ratio(n_dim, q) != is_balanced_ratio_orbit(n_dim, q):
                mismatches += 1
    return CriterionResult(
        "2-dual-ratio-sets", mismatches == 0, f"{checked} random ratios, {mismatches} disagreements"
    )


def criterion_3_sumset_exhaustive(prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = DEFAULT_TRIALS) -> CriterionResult:
    """Exhaustive sumset minimum >= b/a for all coprime pairs with
    1 < b/a <= 2 and a <= 14."""
    violations = 0
    pairs = 0
    for a in range(1, 15):
        for b in range(a + 1, 2 * a + 1):
            if math.gcd(a, b) != 1:
                continue
            pairs += 1
            violations += verify_lemma_ba2(a, b)[0] < Fraction(b, a)
    return CriterionResult(
        "3-sumset-exhaustive", not violations, f"{pairs} coprime pairs checked, {violations} violations"
    )


def criterion_4_monomial_construction(prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = DEFAULT_TRIALS) -> CriterionResult:
    """The explicit monomial series fills at ratio >= b/a for all
    1 < b/a <= N-1 with a <= 12, N <= 5; it does not depend on N, so each
    (a, b) is searched once, built at the least N (its tightest length check)."""
    violations = 0
    cases = 0
    for a in range(1, 13):
        for b in range(a + 1, 4 * a + 1):
            n_least = max(3, -(-b // a) + 1)  # the least N with b/a <= N - 1
            lo, _ = min_filling_monomial(monomial_series(a, b, n_least), a)
            cases += 6 - n_least  # N = n_least, ..., 5
            violations += (6 - n_least) * (lo < Fraction(b, a))
    return CriterionResult(
        "4-monomial-construction", not violations, f"{cases} (a, b, N) cases, {violations} violations"
    )


def _holds_on_some_seed(fn, seed: int, trials: int) -> bool:
    return any(fn(RandomSource(seed).derive(t)) for t in range(trials))


def _fails_on_every_seed(fn, seed: int, trials: int) -> bool:
    return not any(fn(RandomSource(seed).derive(t)) for t in range(trials))


def criterion_5_matrix_iso_dichotomy(prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = DEFAULT_TRIALS) -> CriterionResult:
    """Square multiplication maps: iso for ratios 3/1 and 8/3, never iso
    for the out-of-range ratio 11/4."""
    pos_13 = _holds_on_some_seed(lambda g: matrix_iso_test(3, 1, 3, 1, g, prime), seed, trials)
    pos_38 = _holds_on_some_seed(lambda g: matrix_iso_test(3, 3, 8, 1, g, prime), seed, trials)
    neg_411 = _fails_on_every_seed(lambda g: matrix_iso_test(3, 4, 11, 1, g, prime), seed, trials)
    ok = pos_13 and pos_38 and neg_411
    return CriterionResult(
        "5-matrix-iso-dichotomy",
        ok,
        f"(1,3) iso: {pos_13}; (3,8) iso: {pos_38}; (4,11) never iso: {neg_411}",
    )


def criterion_6_balanced_pullbacks(prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = DEFAULT_TRIALS) -> CriterionResult:
    """Exceptional slopes restrict balanced at k = 1; the unstable slope
    2/5 never does and its splitting contains a zero part."""
    notes = []
    ok = True
    for n_dim, s, r in [(2, 1, 2), (2, 3, 5), (2, 8, 13)]:
        good = any(
            balanced_test(SteinerSpec(n_dim, s, r, 1, seed=seed + t), prime) for t in range(trials)
        )
        ok = ok and good
        notes.append(f"({s}/{r}) balanced: {good}")
    unstable_specs = [SteinerSpec(2, 2, 5, 1, seed=seed + t) for t in range(trials)]
    never = not any(balanced_test(sp, prime) for sp in unstable_specs)
    zero_part = all(min(pullback_splitting(sp, prime).parts) == 0 for sp in unstable_specs)
    ok = ok and never and zero_part
    notes.append(f"(2/5) never balanced: {never}, zero part: {zero_part}")
    return CriterionResult("6-balanced-pullbacks", ok, "; ".join(notes))


def criterion_7_interpolation(prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = DEFAULT_TRIALS) -> CriterionResult:
    """Interpolation for the two good cases, failure on every seed and
    every k in 1..3 for slope 1/3; the section-count identity is asserted
    inside every cokernel run."""
    good_small = _holds_on_some_seed(lambda g: interpolation_test_cokernel(2, 0, 1, g, prime), seed, trials)
    good_big = _holds_on_some_seed(lambda g: interpolation_test_cokernel(5, 3, 1, g, prime), seed, trials)
    bad = all(
        _fails_on_every_seed(lambda g: interpolation_test_cokernel(3, 1, k, g, prime), seed, trials)
        for k in (1, 2, 3)
    )
    ok = good_small and good_big and bad
    return CriterionResult(
        "7-interpolation",
        ok,
        f"(r=2, s=0): {good_small}; (r=5, s=3): {good_big}; (r=3, s=1, k<=3) never: {bad}",
    )


def criterion_8_duality(prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = DEFAULT_TRIALS) -> CriterionResult:
    """Divisor/pencil-curve duality pairings vanish exactly for all r <= 40."""
    violations = 0
    checked = 0
    for r in range(2, 41):
        for s in range(0, r + 1):
            n = r * (r + 1) // 2 + s
            checked += 1
            if pair(steiner_divisor(r, s), pencil_curve(n, r)) != 0:
                violations += 1
            if s >= 1:
                checked += 1
                if pair(kernel_divisor(r, s), pencil_curve(n, r + 2)) != 0:
                    violations += 1
    return CriterionResult("8-duality", violations == 0, f"{checked} pairings, {violations} nonzero")


def criterion_9_cone_golden(prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = DEFAULT_TRIALS) -> CriterionResult:
    """Golden cone reports: n = 142 open with candidate slope 277/18;
    n = 12 and n = 3 proven with integral edges 14H - 2D and 2H - D."""
    r142 = cone_report(142)
    ok_142 = (
        r142.case_label == "open"
        and r142.possibility1 is not None
        and r142.possibility1.slope == Fraction(277, 18)
    )
    r12 = cone_report(12)
    ok_12 = (
        r12.case_label == "case4"
        and r12.edge_status == "proven"
        and (r12.effective_edge.a, r12.effective_edge.b) == (14, 4)
        and r12.effective_edge.h_over_delta == 7
    )
    r3 = cone_report(3)
    ok_3 = (
        r3.case_label == "case4"
        and r3.edge_status == "proven"
        and (r3.effective_edge.a, r3.effective_edge.b) == (2, 2)
        and r3.effective_edge.h_over_delta == 2
    )
    ok = ok_142 and ok_12 and ok_3
    return CriterionResult(
        "9-cone-golden",
        ok,
        f"n=142: {ok_142} (slope {r142.possibility1.slope}); n=12: {ok_12}; n=3: {ok_3}",
    )


def _random_secant_params(rng: RandomSource, force_k1: bool = False, force_vanishing: bool = False) -> SecantParams:
    while True:
        r = rng.below(5)
        k = 1 if force_k1 else rng.below(4) + 1
        delta = rng.below(6)
        g = rng.below(9)
        if force_vanishing:
            if delta >= r:
                continue
            bound = (r - delta) * k
            if bound < 1:
                continue
            g = rng.below(bound)
        d = r * k + rng.below(4)
        s = d + k - r - 1
        if s < 0:
            continue
        n = delta + g + s
        return SecantParams(n=n, g=g, s=s, d=d, r=r)


def criterion_10_secant(prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = DEFAULT_TRIALS) -> CriterionResult:
    """Secant class formula: the quartic-curve counterexample vanishes,
    the k = 1 closed form matches the evaluator on 100 random tuples,
    coefficients are nonnegative, and the class vanishes identically in
    the excess regime on 200 random tuples."""
    quartic = SecantParams(n=4, g=1, s=3, d=3, r=1)
    ok_quartic = existence_check(quartic) == "NotExpected" and secant_class(quartic).is_zero

    rng = RandomSource(seed).derive(10)
    ok_k1 = True
    for _ in range(100):
        params = _random_secant_params(rng, force_k1=True)
        if secant_class(params).coeffs != secant_class_rank_one(params).coeffs:
            ok_k1 = False
            break

    rng = RandomSource(seed).derive(11)
    ok_nonneg = True
    for _ in range(100):
        params = _random_secant_params(rng)
        cls = secant_class(params)
        if any(c < 0 for _, c in cls.coeffs):
            ok_nonneg = False
            break

    rng = RandomSource(seed).derive(12)
    ok_vanish = True
    for _ in range(200):
        params = _random_secant_params(rng, force_vanishing=True)
        assert (params.r - params.delta) * params.k > params.g
        if not secant_class(params).is_zero:
            ok_vanish = False
            break

    ok = ok_quartic and ok_k1 and ok_nonneg and ok_vanish
    return CriterionResult(
        "10-secant",
        ok,
        f"quartic zero: {ok_quartic}; k=1 closed form x100: {ok_k1}; "
        f"nonnegative x100: {ok_nonneg}; excess vanishing x200: {ok_vanish}",
    )


def criterion_11_gaeta_euler(prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = DEFAULT_TRIALS) -> CriterionResult:
    """Resolution-shape Euler identity for all n <= 200 and t in [0, 3r]."""
    bad = 0
    checked = 0
    for n in range(1, 201):
        shape = gaeta_shape(n)
        r = decompose(n).r
        for t in range(0, 3 * r + 1):
            checked += 1
            if shape.euler_defect(t) != 0:
                bad += 1
    return CriterionResult("11-gaeta-euler", bad == 0, f"{checked} (n, t) pairs, {bad} defects")


ALL_CRITERIA = [
    criterion_1_slope_list,
    criterion_2_dual_ratio_sets,
    criterion_3_sumset_exhaustive,
    criterion_4_monomial_construction,
    criterion_5_matrix_iso_dichotomy,
    criterion_6_balanced_pullbacks,
    criterion_7_interpolation,
    criterion_8_duality,
    criterion_9_cone_golden,
    criterion_10_secant,
    criterion_11_gaeta_euler,
]


def run_all(prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = DEFAULT_TRIALS) -> list[CriterionResult]:
    return [crit(prime, seed, trials) for crit in ALL_CRITERIA]
