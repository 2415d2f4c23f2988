"""Command-line front end: human-readable tables and machine-readable JSON
certificates for every operation, plus a selftest running the acceptance
suite.

Every JSON payload carries the prime, seed, and trial count used, so any
certificate can be reproduced byte for byte by rerunning the invocation.
Exit codes: 0 ok, 1 a checked property failed, 2 invalid parameters.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import acceptance
from .hilbert import (
    ConeReport,
    CurveClass,
    DivisorClass,
    cone_report,
    decompose,
    gaeta_shape,
)
from .linalg import DEFAULT_PRIME, DEFAULT_TRIALS, RandomSource, check_prime
from .secant import SecantParams, existence_check, secant_class
from .series import min_filling_monomial, monomial_series, verify_lemma_ba2
from .slopes import INFINITY, exceptional_slopes, is_balanced_ratio, is_semistable_slope
from .steiner import (
    SteinerSpec,
    interpolation_test_cokernel,
    interpolation_test_kernel,
    matrix_iso_test,
    predicted_decomposition,
    pullback_splitting,
)

OK = "ok"
PROPERTY_VIOLATION = "property-violation"
INVALID_PARAMS = "invalid-params"

_EXIT = {OK: 0, PROPERTY_VIOLATION: 1, INVALID_PARAMS: 2}


def rat_json(q):
    """Lossless rational encoding; infinity is the string \"inf\"."""
    if q == INFINITY:
        return "inf"
    q = Fraction(q)
    return {"num": str(q.numerator), "den": str(q.denominator)}


def parse_ratio(text: str):
    if text.strip().lower() in ("inf", "infinity"):
        return INFINITY
    return Fraction(text)


def divisor_json(d: DivisorClass) -> dict:
    return {
        "h_coefficient": rat_json(d.a),
        "half_discriminant_coefficient": rat_json(d.b),
        "slope": rat_json(d.slope) if d.b else None,
        "h_over_delta": rat_json(d.h_over_delta) if d.b else None,
        "integral": d.is_integral,
    }


def curve_json(c: CurveClass) -> dict:
    return {
        "alpha_coefficient": rat_json(c.x),
        "beta_coefficient": rat_json(c.y),
        "h_degree": rat_json(c.h_degree),
        "delta_degree": rat_json(c.delta_degree),
    }


def cone_json(rep: ConeReport) -> dict:
    return {
        "n": rep.n,
        "r": rep.decomposition.r,
        "s": rep.decomposition.s,
        "case": rep.case_label,
        "edge_status": rep.edge_status,
        "effective_edge": divisor_json(rep.effective_edge),
        "moving_curve": curve_json(rep.moving_curve),
        "moving_curve_description": rep.moving_description,
        "possibility1": divisor_json(rep.possibility1) if rep.possibility1 else None,
    }


@dataclass
class CommandResult:
    command: str
    params: dict
    prime: int
    seed: int
    trials: int
    status: str
    result: object

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "params": self.params,
            "prime": self.prime,
            "seed": self.seed,
            "trials": self.trials,
            "status": self.status,
            "result": self.result,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (status, result payload, human lines)


def _cmd_slopes(args, ctx):
    slopes = exceptional_slopes(args.N, args.count)
    payload = [rat_json(q) for q in slopes]
    lines = [f"first {args.count} exceptional slopes for N = {args.N}:"]
    lines += [f"  {q}" for q in slopes]
    return OK, payload, lines


def _cmd_in_phi(args, ctx):
    member = is_semistable_slope(args.N, args.q)
    payload = {"q": rat_json(args.q), "member": member}
    return OK, payload, [f"{args.q} in semistable slope set (N = {args.N}): {member}"]


def _cmd_in_psi(args, ctx):
    member = is_balanced_ratio(args.N, args.q)
    payload = {"q": rat_json(args.q), "member": member}
    return OK, payload, [f"{args.q} in balanced ratio set (N = {args.N}): {member}"]


def _cmd_sumset_verify(args, ctx):
    lo, witness = verify_lemma_ba2(args.a, args.b)
    bound = Fraction(args.b, args.a)
    holds = lo >= bound
    payload = {
        "min_ratio": rat_json(lo),
        "witness": list(witness),
        "bound": rat_json(bound),
        "bound_holds": holds,
    }
    status = OK if holds else PROPERTY_VIOLATION
    lines = [
        f"min sumset ratio over nonempty subsets for (a, b) = ({args.a}, {args.b}): {lo}",
        f"witness subset: {list(witness)}",
        f"bound b/a = {bound} holds: {holds}",
    ]
    return status, payload, lines


def _cmd_filling(args, ctx):
    v = monomial_series(args.a, args.b, args.N, ctx.prime)
    exps = v.monomial_exponents()
    lo, witness = min_filling_monomial(v, args.a)
    bound = Fraction(args.b, args.a)
    holds = lo >= bound
    payload = {
        "series_exponents": exps,
        "min_filling_ratio": rat_json(lo),
        "witness_exponents": list(witness),
        "bound": rat_json(bound),
        "bound_holds": holds,
    }
    status = OK if holds else PROPERTY_VIOLATION
    lines = [
        f"monomial series for (a, b, N) = ({args.a}, {args.b}, {args.N}): exponents {exps}",
        f"min monomial filling ratio: {lo} (witness exponents {list(witness)})",
        f"bound b/a = {bound} holds: {holds}",
    ]
    return status, payload, lines


def _cmd_matrix_iso(args, ctx):
    per_seed = []
    for t in range(ctx.trials):
        rng = RandomSource(ctx.seed).derive(t)
        per_seed.append(matrix_iso_test(args.dim, args.a, args.b, args.k, rng, ctx.prime))
    payload = {
        "per_seed": per_seed,
        "any": any(per_seed),
        "all": all(per_seed),
    }
    lines = [
        f"multiplication map iso for dim={args.dim}, (a, b) = ({args.a}, {args.b}), k={args.k}:",
        f"  per seed: {per_seed}",
    ]
    return OK, payload, lines


def _cmd_splitting(args, ctx):
    per_seed = []
    for t in range(ctx.trials):
        spec = SteinerSpec(args.N, args.s, args.r, args.k, seed=ctx.seed + t)
        split = pullback_splitting(spec, ctx.prime)
        per_seed.append(
            {
                "seed": spec.seed,
                "parts": list(split.parts),
                "balanced": split.is_balanced() and (not split.parts or split.parts[0] == args.s),
            }
        )
    payload = {"per_seed": per_seed, "any_balanced": any(e["balanced"] for e in per_seed)}
    try:
        dec = predicted_decomposition(args.N, args.s, args.r, args.k)
        payload["predicted_decomposition"] = {"n": dec.n, "k1": dec.k1, "k2": dec.k2}
    except (ValueError, ArithmeticError):
        payload["predicted_decomposition"] = None
    lines = [f"restriction splitting for (N, s, r, k) = ({args.N}, {args.s}, {args.r}, {args.k}):"]
    lines += [f"  seed {e['seed']}: {e['parts']} balanced={e['balanced']}" for e in per_seed]
    if payload["predicted_decomposition"]:
        d = payload["predicted_decomposition"]
        lines.append(f"  unstable-range decomposition: window {d['n']}, multiplicities ({d['k1']}, {d['k2']})")
    return OK, payload, lines


def _cmd_interpolation(args, ctx):
    test = interpolation_test_kernel if args.kernel else interpolation_test_cokernel
    per_seed = []
    for t in range(ctx.trials):
        rng = RandomSource(ctx.seed).derive(t)
        per_seed.append(test(args.r, args.s, args.k, rng, ctx.prime))
    n = args.r * (args.r + 1) // 2 + args.s
    payload = {
        "n_points": n,
        "kind": "kernel" if args.kernel else "cokernel",
        "per_seed": per_seed,
        "any": any(per_seed),
        "all": all(per_seed),
    }
    lines = [
        f"interpolation ({payload['kind']}) for (r, s, k) = ({args.r}, {args.s}, {args.k}), n = {n}:",
        f"  per seed: {per_seed}",
    ]
    return OK, payload, lines


def _cmd_cone(args, ctx):
    rep = cone_report(args.n)
    payload = cone_json(rep)
    lines = [
        f"n = {rep.n}: r = {rep.decomposition.r}, s = {rep.decomposition.s}, case {rep.case_label} ({rep.edge_status})",
        f"  edge: {rep.effective_edge.a}H - ({rep.effective_edge.b}/2)D, slope {rep.effective_edge.slope}",
        f"  moving curve: {rep.moving_description}",
    ]
    if rep.possibility1:
        lines.append(f"  possibility-1 candidate slope: {rep.possibility1.slope}")
    return OK, payload, lines


def _cmd_cone_table(args, ctx):
    if args.start < 2 or args.end < args.start:
        raise ValueError("need 2 <= from <= to")
    reports = [cone_report(n) for n in range(args.start, args.end + 1)]
    payload = [cone_json(r) for r in reports]
    header = ["n", "r", "s", "case", "status", "edge_slope", "moving_curve"]
    rows = [
        [
            str(r.n),
            str(r.decomposition.r),
            str(r.decomposition.s),
            r.case_label,
            r.edge_status,
            str(r.effective_edge.slope),
            r.moving_description,
        ]
        for r in reports
    ]
    lines = ["\t".join(header)] + ["\t".join(row) for row in rows]
    return OK, payload, lines


def _cmd_secant(args, ctx):
    params = SecantParams(n=args.n, g=args.g, s=args.s, d=args.d, r=args.r)
    verdict = existence_check(params)
    payload = {
        "k": params.k,
        "delta": params.delta,
        "existence": verdict,
    }
    lines = [
        f"secant parameters: n={args.n} g={args.g} s={args.s} d={args.d} r={args.r}"
        f" (k = {params.k}, delta = {params.delta})",
        f"existence: {verdict}",
    ]
    if params.delta >= 0 and params.r * params.k <= params.d and params.k >= 1:
        cls = secant_class(params)
        payload["class"] = {
            "total_degree": cls.total_degree,
            "coefficients": {str(j): rat_json(c) for j, c in cls.coeffs},
            "integral": cls.is_integral,
            "zero": cls.is_zero,
        }
        lines.append(f"class: {cls}")
    else:
        payload["class"] = None
        lines.append("class: outside the formula's validity regime")
    return OK, payload, lines


def _cmd_gaeta(args, ctx):
    shape = gaeta_shape(args.n)
    dec = decompose(args.n)
    defects = [t for t in range(0, 3 * dec.r + 1) if shape.euler_defect(t) != 0]
    payload = {
        "r": dec.r,
        "s": dec.s,
        "middle": [list(x) for x in shape.middle],
        "left": [list(x) for x in shape.left],
        "euler_identity_holds": not defects,
    }
    status = OK if not defects else PROPERTY_VIOLATION
    lines = [
        f"resolution shape for n = {args.n} (r = {dec.r}, s = {dec.s}):",
        f"  middle: {list(shape.middle)}",
        f"  left:   {list(shape.left)}",
        f"  Euler identity holds on [0, {3 * dec.r}]: {not defects}",
    ]
    return status, payload, lines


def _cmd_selftest(args, ctx):
    results = acceptance.run_all(ctx.prime, ctx.seed, ctx.trials)
    # timings vary run to run, so they stay out of the certificate
    payload = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name} [{r.seconds}s] {r.detail}" for r in results
    ]
    ok = all(r.passed for r in results)
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return (OK if ok else PROPERTY_VIOLATION), payload, lines


# ---------------------------------------------------------------------------


@dataclass
class Context:
    prime: int
    seed: int
    trials: int


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, default=None, help="field modulus (default: STEINERLAB_PRIME or 2147483647)")
    common.add_argument("--seed", type=int, default=None, help="base seed (default: STEINERLAB_SEED or 0)")
    common.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="seeds per genericity sweep")
    common.add_argument("--json", action="store_true", help="emit a JSON certificate instead of text")

    parser = argparse.ArgumentParser(prog="steinerlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slopes", parents=[common], help="exceptional slope list")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(handler=_cmd_slopes)

    p = sub.add_parser("in-phi", parents=[common], help="semistable slope membership")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--q", type=parse_ratio, required=True)
    p.set_defaults(handler=_cmd_in_phi)

    p = sub.add_parser("in-psi", parents=[common], help="balanced ratio membership (accepts inf)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--q", type=parse_ratio, required=True)
    p.set_defaults(handler=_cmd_in_psi)

    p = sub.add_parser("sumset-verify", parents=[common], help="exhaustive sumset ratio minimum")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(handler=_cmd_sumset_verify)

    p = sub.add_parser("filling", parents=[common], help="monomial series and its minimal filling ratio")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(handler=_cmd_filling)

    p = sub.add_parser("matrix-iso", parents=[common], help="square multiplication map isomorphism test")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(handler=_cmd_matrix_iso)

    p = sub.add_parser("splitting", parents=[common], help="restriction splitting type per seed")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(handler=_cmd_splitting)

    p = sub.add_parser("interpolation", parents=[common], help="interpolation test per seed")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--kernel", action="store_true", help="test the kernel presentation instead")
    p.set_defaults(handler=_cmd_interpolation)

    p = sub.add_parser("cone", parents=[common], help="effective-cone report for one n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_cone)

    p = sub.add_parser("cone-table", parents=[common], help="cone reports over a range (TSV in text mode)")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    p.set_defaults(handler=_cmd_cone_table)

    p = sub.add_parser("secant", parents=[common], help="secant existence trichotomy and class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(handler=_cmd_secant)

    p = sub.add_parser("gaeta", parents=[common], help="resolution shape of n general points")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_gaeta)

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance suite")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        prime = args.prime if args.prime is not None else _env_int("STEINERLAB_PRIME", DEFAULT_PRIME)
        check_prime(prime)
        seed = args.seed if args.seed is not None else _env_int("STEINERLAB_SEED", 0)
        trials = args.trials
        if trials < 1:
            raise ValueError("trials must be >= 1")
        ctx = Context(prime=prime, seed=seed, trials=trials)
        status, payload, lines = args.handler(args, ctx)
    except (ValueError, ZeroDivisionError) as exc:
        if getattr(args, "json", False):
            bad = CommandResult(args.command, {}, 0, 0, 0, INVALID_PARAMS, {"error": str(exc)})
            sys.stdout.write(bad.to_json())
        else:
            print(f"error: {exc}", file=sys.stderr)
        return _EXIT[INVALID_PARAMS]

    if args.json:
        params = {
            k: (str(v) if isinstance(v, (Fraction, float)) else v)
            for k, v in vars(args).items()
            if k not in ("handler", "command", "prime", "seed", "trials", "json") and v is not None
        }
        result = CommandResult(args.command, params, ctx.prime, ctx.seed, ctx.trials, status, payload)
        sys.stdout.write(result.to_json())
    else:
        for line in lines:
            print(line)
        if status != OK:
            print(f"status: {status}")
    return _EXIT[status]


if __name__ == "__main__":
    sys.exit(main())
