"""The four workloads: inputs made from the seed, and their oracles.

A workload is a fixed list of operations.  Each operation calls one public
function of the program through its module attribute at call time (so a
traced pass reaches the wrapped function) with inputs generated here from
the seed; the program never sees the seed itself.  `check` compares the
results of one pass against the independent oracles in oracles.py and
returns (failures, known defects), each a list of (operation id, text).

Known defects are wrong answers or errors the program gives today on
inputs the ROADMAP names (3a: the orbit step cap, 3b: the convergent
table, 3c: the float square root).  They are reported with their inputs
and are not counted as failed; any other error or disagreement is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from steinerlab import acceptance, hilbert, secant, slopes, steiner
from steinerlab.linalg import DEFAULT_PRIME, RandomSource

import oracles

SMALL_PRIME = 65521  # largest prime below 2**16
TRIALS = 2  # seeds per genericity sweep; an open claim must hold on one


@dataclass(frozen=True)
class Op:
    key: str
    fn: Callable
    args: tuple  # the generated inputs
    size: tuple  # shape of the inputs, the same for every seed

    def call(self):
        return self.fn(*self.args)


def _via(module, name: str) -> Callable:
    """Calls module.name as bound when the operation runs, so a traced pass
    reaches the wrapper and an untraced one the program's own function."""
    return lambda *args: getattr(module, name)(*args)


@dataclass
class Workload:
    ops: list[Op]
    check: Callable[[dict], tuple[list, list]]
    # run once per benchmark run under a time limit: inputs on which the
    # program does not finish today (ROADMAP 3c), kept out of timed passes
    probes: list[Op] = field(default_factory=list)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"steinerlab-bench:{workload}:{seed}")


def _seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(1 << 31) for _ in range(count)]


def _raised(res) -> bool:
    return isinstance(res, BaseException)


# ---------------------------------------------------------------------------
# selftest: the acceptance suite as CI and users run it


def selftest(seed: int) -> Workload:
    (base,) = _seeds(_rng("selftest", seed), 1)
    ops = [Op("run_all", _via(acceptance, "run_all"), (DEFAULT_PRIME, base, 5), (DEFAULT_PRIME, 5))]

    def check(res):
        out = res["run_all"]
        if _raised(out):
            return [("run_all", f"raised {out!r}")], []
        failed = [c.name for c in out if not c.passed]
        if len(out) != 11 or failed:
            return [("run_all", f"{11 - len(failed)}/11 criteria passed; failed {failed}")], []
        return [], []

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# restriction: isomorphism, balanced and splitting engines on the line

# (N, s, r, k, prime, seeds, with pullback_splitting)
RESTRICTION_SPECS = [
    (2, 3, 5, 1, DEFAULT_PRIME, TRIALS, True),     # ladder
    (2, 8, 13, 1, DEFAULT_PRIME, TRIALS, True),    # ladder, maps up to 189 columns
    (2, 3, 5, 2, DEFAULT_PRIME, TRIALS, True),     # ladder, k = 2
    (2, 5, 8, 1, DEFAULT_PRIME, TRIALS, True),     # above the limit, off the ladder
    (2, 2, 5, 1, DEFAULT_PRIME, TRIALS, True),     # unstable
    (2, 5, 13, 1, DEFAULT_PRIME, TRIALS, True),    # unstable
    (3, 4, 11, 1, DEFAULT_PRIME, TRIALS, True),    # N = 3 ladder
    (3, 4, 11, 2, DEFAULT_PRIME, TRIALS, True),    # N = 3 ladder, k = 2
    (3, 3, 10, 1, DEFAULT_PRIME, TRIALS, True),    # N = 3 unstable
    (2, 8, 13, 1, SMALL_PRIME, TRIALS, True),      # prime below 2**16
    (3, 4, 11, 1, SMALL_PRIME, TRIALS, True),
    # one 442 x 442 elimination, about 2 s: a single seed keeps the pass short
    (2, 13, 21, 1, DEFAULT_PRIME, 1, False),
]


def restriction(seed: int) -> Workload:
    rng = _rng("restriction", seed)
    ops = []
    groups = []  # (spec, [(balanced op key, splitting op key or None)])
    for i, (n_dim, s, r, k, p, trials, split) in enumerate(RESTRICTION_SPECS):
        pairs = []
        for t, sd in enumerate(_seeds(rng, trials)):
            spec = steiner.SteinerSpec(n_dim, s, r, k, seed=sd)
            size = (n_dim, s, r, k, p)
            bal = f"balanced:{i}:{t}"
            ops.append(Op(bal, _via(steiner, "balanced_test"), (spec, p), size))
            spl = None
            if split:
                spl = f"splitting:{i}:{t}"
                ops.append(Op(spl, _via(steiner, "pullback_splitting"), (spec, p), size))
            pairs.append((bal, spl, spec))
        groups.append(((n_dim, s, r, k, p), pairs))

    def check(res):
        bad = []
        for (n_dim, s, r, k, p), pairs in groups:
            if pairs[0][0] not in res:  # a pass over part of the operations
                continue
            for bal, spl, spec in pairs:
                for key in (bal, spl):
                    if key and _raised(res[key]):
                        bad.append((key, f"{spec} p={p} raised {res[key]!r}"))
                if spl is None or _raised(res[bal]) or _raised(res[spl]):
                    continue
                parts = res[spl].parts
                if len(parts) != k * r or sum(parts) != k * s * r:
                    bad.append((spl, f"{spec} p={p}: parts {parts} are not kr={k * r} parts summing to c1={k * s * r}"))
                if res[bal] != (parts == (s,) * (k * r)):
                    bad.append((bal, f"{spec} p={p}: balanced_test {res[bal]} but splitting {parts}"))
            verdicts = [res[b] for b, _, _ in pairs if not _raised(res[b])]
            slope = Fraction(s, r)
            if oracles.ladder_index(n_dim, slope) is not None and not any(verdicts):
                bad.append((pairs[0][0], f"exceptional slope {slope} (N={n_dim}, k={k}, p={p}) balanced on no seed"))
            if not oracles.semistable(n_dim, slope) and any(verdicts):
                bad.append((pairs[0][0], f"unstable slope {slope} (N={n_dim}, k={k}, p={p}) balanced on a seed"))
        return bad, []

    return Workload(ops, check)


# ---------------------------------------------------------------------------
# interpolation: the cone classifier against the numeric engines

INTERP_MAX_R = 6


def interpolation(seed: int) -> Workload:
    rng = _rng("interpolation", seed)
    ops = []
    cases = []
    for r in range(2, INTERP_MAX_R + 1):
        for s in range(r + 1):
            n = r * (r + 1) // 2 + s
            want = oracles.cone_expectation(n)
            cone = f"cone:{n}"
            ops.append(Op(cone, _via(hilbert, "cone_report"), (n,), (n,)))
            coker, kern = [], []
            for t, sd in enumerate(_seeds(rng, TRIALS)):
                key = f"coker:{r}:{s}:{t}"
                ops.append(Op(key, _via(steiner, "interpolation_test_cokernel"),
                              (r, s, 1, RandomSource(sd), DEFAULT_PRIME), (r, s)))
                coker.append(key)
                if want["case"] == "case1":
                    key = f"kernel:{r}:{s}:{t}"
                    ops.append(Op(key, _via(steiner, "interpolation_test_kernel"),
                                  (r, s, 1, RandomSource(sd), DEFAULT_PRIME), (r, s)))
                    kern.append(key)
            cases.append((r, s, want, cone, coker, kern))

    def check(res):
        bad = []
        for r, s, want, cone, coker, kern in cases:
            if cone not in res:  # a pass over part of the operations
                continue
            for key in [cone, *coker, *kern]:
                if _raised(res[key]):
                    bad.append((key, f"(r, s) = ({r}, {s}) raised {res[key]!r}"))
            if not _raised(res[cone]):
                bad += [(cone, m) for m in _cone_mismatch(res[cone], want)]
            got = [res[k] for k in coker if not _raised(res[k])]
            if oracles.semistable(2, Fraction(s, r)):
                if not any(got):
                    bad.append((coker[0], f"semistable {s}/{r}: cokernel interpolation holds on no seed"))
            elif any(got):
                bad.append((coker[0], f"non-semistable {s}/{r}: cokernel interpolation holds on a seed"))
            if kern and not any(res[k] is True for k in kern):
                bad.append((kern[0], f"case1 ({r}, {s}): kernel interpolation holds on no seed"))
        return bad, []

    return Workload(ops, check)


def _cone_mismatch(rep, want) -> list[str]:
    """Differences between a ConeReport and the oracle's expectation."""
    got_edge = rep.effective_edge if rep.possibility1 is None else rep.possibility1
    got = (rep.decomposition.r, rep.decomposition.s, rep.case_label, rep.edge_status, (got_edge.a, got_edge.b))
    exp = (want["r"], want["s"], want["case"], want["status"], want["edge"])
    if got != exp:
        return [f"cone_report({want['n']}) gave {got}, expected {exp}"]
    return []


# ---------------------------------------------------------------------------
# cone-arith: Fraction and integer work, no numpy

CONE_BAND = 3000
LARGE_N_DIGITS = (12, 18, 24, 30, 36, 309, 340, 370, 400)
HANG_N_DIGITS = (60, 150, 300)  # float walk of 10**9 steps or more
CONVERGENT_MAX_DEN = 2 * 10**9  # r = (q + 1) / 2 up to 10**9
OLD_TABLE_MAX_DEN = 10**6
# n = r(r+1)/2 + s for these r and GAETA_PER_R seeded s each, so the Euler
# checks (3r + 1 twists per n) cost the same for every seed
GAETA_RS = (20, 35, 50)
GAETA_PER_R = 40
# (k, r, delta, g): C(k + r, k) sequences per class, k + r up to 18.  The
# class depends on these alone, and its cost on g (terms past the genus are
# skipped), so they are fixed and the seed moves only d, s and n.
SECANT_SHAPES = [(1, r, delta, g) for r in (4, 9, 13, 17) for delta, g in ((2, 1), (8, 5), (20, 30))] + [
    (2, 6, 3, 4), (2, 10, 6, 30), (3, 9, 7, 10), (3, 12, 9, 40), (4, 11, 8, 20), (5, 13, 11, 70),
    (2, 14, 8, 25), (4, 13, 9, 30), (5, 12, 10, 50),
]
RATIO_COUNT = 600
LADDER_DEPTH = 100
LADDER_DIMS = (2, 3, 4)


def cone_arith(seed: int) -> Workload:
    rng = _rng("cone-arith", seed)
    ops: list[Op] = []
    expect: dict[str, object] = {}

    def cone_op(key, n, size, known=None):
        ops.append(Op(key, _via(hilbert, "cone_report"), (n,), size))
        expect[key] = (n, known)

    # a contiguous band, each n classified by the independent classifier
    n0 = rng.randrange(10**5, 10**6)
    for n in range(n0, n0 + CONE_BAND):
        cone_op(f"cone:{n}", n, ("band",))
    # seeded n of fixed digit counts, up to 10**400
    for d in LARGE_N_DIGITS:
        n = rng.randrange(10 ** (d - 1), 10**d)
        cone_op(f"cone-large:{d}", n, ("digits", d), "3c" if d > 308 else None)
    # the nodal-window boundary n for every convergent 2s/(2r-1) and its mirror
    for q in oracles.sqrt2m1_convergents(CONVERGENT_MAX_DEN):
        if q.denominator % 2 == 0:
            continue
        r, half = (q.denominator + 1) // 2, q.numerator // 2
        for kind, s in (("nodal", half), ("dual", r - half)):
            n = r * (r + 1) // 2 + s
            known = "3b" if q.denominator > OLD_TABLE_MAX_DEN else None
            cone_op(f"cone-{kind}:{q}", n, (kind, q.denominator), known)

    for r in GAETA_RS:
        s0 = rng.randrange(r + 1)
        for j in range(GAETA_PER_R):
            n = r * (r + 1) // 2 + (s0 + j) % (r + 1)
            ops.append(Op(f"gaeta:{n}", _gaeta, (n,), ("gaeta", r)))

    for k, r, delta, g in SECANT_SHAPES:
        d = r * k + rng.randrange(0, 8)
        params = secant.SecantParams(n=delta + g + (d + k - r - 1), g=g, s=d + k - r - 1, d=d, r=r)
        key = f"secant:{k}:{r}:{delta}:{g}"
        ops.append(Op(key, _via(secant, "secant_class"), (params,), (k, r, delta, g)))
        expect[key] = params

    for i in range(RATIO_COUNT):
        n_dim = 3 + i % 3
        den = rng.randrange(10**9, 10**12)
        q = Fraction(rng.randrange(den + 1, n_dim * den + 1), den)
        ops.append(Op(f"ratio:{i}", _ratio_pair, (n_dim, q), ("ratio", n_dim)))
        expect[f"ratio:{i}"] = (n_dim, q)

    # exceptional slopes to depth 100 and a neighbour on each side
    for n_dim in LADDER_DIMS:
        for m in range(1, LADDER_DEPTH + 1):
            e = oracles.ladder_slope(n_dim, m)
            nxt = oracles.ladder_slope(n_dim, m + 1)
            # eps is below the gap to the next ladder slope
            eps = Fraction(1, e.denominator * nxt.denominator * rng.randrange(2, 10**6))
            for side, q in (("at", e), ("below", e - eps), ("above", e + eps)):
                key = f"ladder:{n_dim}:{m}:{side}"
                ops.append(Op(key, _via(slopes, "is_semistable_slope"), (n_dim, q), (n_dim, m, side)))
                expect[key] = (n_dim, m, q)

    probes = []
    for d in HANG_N_DIGITS:
        n = rng.randrange(10 ** (d - 1), 10**d)
        probes.append(Op(f"cone-hang:{d}", _via(hilbert, "cone_report"), (n,), ("digits", d)))
        expect[f"cone-hang:{d}"] = (n, "3c")

    def check(res):
        bad, known = [], []
        for key, out in res.items():
            kind = key.split(":")[0]
            want = expect.get(key)
            if kind.startswith("cone"):
                _check_cone(key, out, *want, bad, known)
            elif kind == "gaeta":
                if _raised(out):
                    bad.append((key, f"raised {out!r}"))
                elif out:
                    bad.append((key, out))
            elif kind == "secant":
                _check_secant(key, out, want, bad)
            elif kind == "ratio":
                n_dim, q = want
                if _is_step_cap(out):
                    known.append((key, f"3a: ratio {q} (N={n_dim}) hit the orbit step cap"))
                elif _raised(out):
                    bad.append((key, f"ratio {q} (N={n_dim}) raised {out!r}"))
                elif out[0] != out[1]:
                    bad.append((key, f"ratio {q} (N={n_dim}): reduction {out[0]} but orbit {out[1]}"))
            elif kind == "ladder":
                n_dim, m, q = want
                exp = oracles.semistable(n_dim, q)
                if _is_step_cap(out):
                    known.append((key, f"3a: is_semistable_slope({n_dim}, {q}) at ladder depth {m} hit the step cap"))
                elif out is not exp:
                    bad.append((key, f"is_semistable_slope({n_dim}, {q}) at depth {m} gave {out!r}, expected {exp}"))
        return bad, known

    return Workload(ops, check, probes)


def _gaeta(n: int):
    """gaeta_shape(n) and its own Euler check; returns what is wrong, or ""."""
    shape = hilbert.gaeta_shape(n)
    r, _ = oracles.decompose(n)
    own = [t for t in range(3 * r + 1) if shape.euler_defect(t) != 0]
    indep = oracles.euler_defects(n, shape.middle, shape.left, 3 * r)
    neg = [m for _, m in shape.middle + shape.left if m < 0]
    if own or indep or neg:
        return f"gaeta_shape({n}): defects at {own or indep}, negative multiplicities {neg}"
    return ""


def _ratio_pair(n_dim: int, q: Fraction):
    """The two independent ratio-set implementations on one input."""
    return slopes.is_balanced_ratio(n_dim, q), slopes.is_balanced_ratio_orbit(n_dim, q)


def _is_step_cap(out) -> bool:
    return isinstance(out, RuntimeError) and "did not pass" in str(out)


def _check_cone(key, out, n, known_item, bad, known):
    if known_item == "3c" and isinstance(out, (OverflowError, TimeoutError)):
        known.append((key, f"3c: cone_report(n) for n of {len(str(n))} digits: {type(out).__name__} "
                           f"{out or '(no result within the time limit)'}; n = {n}"))
        return
    if _raised(out):
        bad.append((key, f"cone_report({n}) raised {out!r}"))
        return
    want = oracles.cone_expectation(n)
    problems = _cone_mismatch(out, want)
    if problems and known_item == "3b" and out.case_label == "open":
        known.append((key, f"3b: cone_report({n}) is open, expected {want['case']} "
                           f"(r = {want['r']}, s = {want['s']}; convergent past the old table)"))
        return
    bad += [(key, m) for m in problems]


def _check_secant(key, out, params, bad):
    if _raised(out):
        bad.append((key, f"secant_class({params}) raised {out!r}"))
        return
    coeffs = dict(out.coeffs)
    if params.k == 1 and coeffs != oracles.secant_rank_one(params.delta, params.r, params.g):
        bad.append((key, f"secant_class({params}) differs from the k = 1 closed form"))
    if any(c < 0 for c in coeffs.values()):
        bad.append((key, f"secant_class({params}) has a negative coefficient"))
    if (params.r - params.delta) * params.k > params.g and coeffs:
        bad.append((key, f"secant_class({params}) is nonzero in the excess regime"))


WORKLOADS = {
    "selftest": selftest,
    "restriction": restriction,
    "interpolation": interpolation,
    "cone-arith": cone_arith,
}


def canon(key: str, out) -> str:
    """Canonical text of one result, for the certificate digest."""
    if _raised(out):
        return f"{key}=raise {type(out).__name__}: {out}"
    if key == "run_all":
        # per-criterion seconds are timings, not part of the certificate
        out = [(c.name, c.passed, c.detail) for c in out]
    return f"{key}={out!r}"
