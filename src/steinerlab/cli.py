"""Command-line front end: one table of commands, each answering with a
machine-readable JSON certificate or with text derived from that
certificate's payload, plus a selftest running the acceptance suite.

Run parameters come from the command line alone.  Every JSON payload,
a failure's included, carries the prime, seed, and trial count the
invocation gave, so any certificate can be reproduced byte for byte by
rerunning the invocation its fields spell out.
Exit codes: 0 ok, 1 a checked property failed, 2 invalid parameters,
3 internal error (an ArithmeticError, or a RuntimeError such as a
GenericityError, raised inside a command).  A reader that closes the pipe
early (`| head`) ends the output quietly with the command's own code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple

from .primes import DEFAULT_PRIME, DEFAULT_TRIALS, check_prime

if TYPE_CHECKING:
    from .hilbert import ConeReport, CurveClass, DivisorClass

OK = "ok"
PROPERTY_VIOLATION = "property-violation"
INVALID_PARAMS = "invalid-params"
INTERNAL_ERROR = "internal-error"

_EXIT = {OK: 0, PROPERTY_VIOLATION: 1, INVALID_PARAMS: 2, INTERNAL_ERROR: 3}
# rows per cone-table; a --json row costs about 0.1 ms and 11.5 KB of peak
# memory, so the largest table stays near 1 s and 130 MB (see CHANGES.md)
MAX_CONE_TABLE_ROWS = 10_000


def rat_json(q):
    """Lossless rational encoding; infinity (None) is the string \"inf\"."""
    if q is None:
        return "inf"
    q = Fraction(q)
    return {"num": str(q.numerator), "den": str(q.denominator)}


def parse_ratio(text: str):
    """A rational such as 8/13, or None for inf; a zero denominator is a
    ValueError, so argparse reports it as a usage error."""
    if text.strip().lower() in ("inf", "infinity"):
        return None
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def _divisor_json(d: DivisorClass) -> dict:
    return {
        "h_coefficient": rat_json(d.a),
        "half_discriminant_coefficient": rat_json(d.b),
        "slope": rat_json(d.slope) if d.b else None,
        "h_over_delta": rat_json(d.h_over_delta) if d.b else None,
        "integral": d.is_integral,
    }


def _curve_json(c: CurveClass) -> dict:
    return {
        "alpha_coefficient": rat_json(c.x),
        "beta_coefficient": rat_json(c.y),
        "h_degree": rat_json(c.h_degree),
        "delta_degree": rat_json(c.delta_degree),
    }


def _cone_json(rep: ConeReport) -> dict:
    return {
        "n": rep.n,
        "r": rep.decomposition.r,
        "s": rep.decomposition.s,
        "case": rep.case_label,
        "edge_status": rep.edge_status,
        "effective_edge": _divisor_json(rep.effective_edge),
        "moving_curve": _curve_json(rep.moving_curve),
        "moving_curve_description": rep.moving_description,
        "possibility1": _divisor_json(rep.possibility1) if rep.possibility1 else None,
    }


# ---------------------------------------------------------------------------
# text, derived from a payload as it reads back from its certificate


def _fields(d: dict) -> list:
    """A payload object's fields in certificate (key) order, with the
    boolean verdicts last so that the closing line answers the question."""
    return sorted(d.items(), key=lambda kv: (isinstance(kv[1], bool), kv[0]))


def _text(value, nested: bool = False) -> str:
    """One value on one line: a rational as a/b, an object as k=v pairs
    (parenthesized inside another value), a list in brackets."""
    if isinstance(value, dict):
        if value.keys() == {"num", "den"}:
            return value["num"] if value["den"] == "1" else f"{value['num']}/{value['den']}"
        pairs = ", ".join(f"{k}={_text(v, True)}" for k, v in _fields(value))
        return f"({pairs})" if nested else pairs
    if isinstance(value, list):
        return "[" + ", ".join(_text(v, True) for v in value) + "]"
    return str(value)


def _render(payload) -> list[str]:
    """A list as one line per item, an object as key: value lines."""
    if isinstance(payload, list):
        return [_text(item) for item in payload]
    return [f"{k}: {_text(v)}" for k, v in _fields(payload)]


def _render_cone_table(rows: list) -> list[str]:
    """TSV with a header row."""
    return ["n\tr\ts\tcase\tstatus\tedge_slope\tmoving_curve"] + [
        "\t".join(_text(v) for v in (
            c["n"], c["r"], c["s"], c["case"], c["edge_status"],
            c["effective_edge"]["slope"], c["moving_curve_description"],
        ))
        for c in rows
    ]


def _render_selftest(results: list) -> list[str]:
    lines = [f"{'PASS' if c['passed'] else 'FAIL'} {c['name']} {c['detail']}" for c in results]
    return lines + [f"{sum(c['passed'] for c in results)}/{len(results)} criteria passed"]


# ---------------------------------------------------------------------------
# handlers: each takes the parsed arguments, with prime, seed and trials
# checked, and returns the JSON payload.  Each imports the one module it
# runs when it is called, so a command loads only what it uses:
# slopes, in-phi and in-psi load slopes; cone, cone-table and gaeta load
# hilbert (and with it slopes and dataclasses); secant loads secant; the
# F_p commands load numpy through series or steiner; selftest loads all.


def _slopes(a) -> list:
    from .slopes import exceptional_slopes

    return [rat_json(q) for q in exceptional_slopes(a.N, a.count)]


def _in_phi(a) -> dict:
    from .slopes import is_semistable_slope

    return {"q": rat_json(a.q), "member": is_semistable_slope(a.N, a.q)}


def _in_psi(a) -> dict:
    from .slopes import is_balanced_ratio

    return {"q": rat_json(a.q), "member": is_balanced_ratio(a.N, a.q)}


def _sweep(outcomes: list, **fields) -> dict:
    return {**fields, "per_seed": outcomes, "any": any(outcomes), "all": all(outcomes)}


def _sumset_verify(a) -> dict:
    from .series import verify_lemma_ba2

    lo, witness = verify_lemma_ba2(a.a, a.b)
    bound = Fraction(a.b, a.a)
    return {
        "min_ratio": rat_json(lo),
        "witness": list(witness),
        "bound": rat_json(bound),
        "bound_holds": lo >= bound,
    }


def _filling(a) -> dict:
    from .series import min_filling_monomial, monomial_series

    exps = monomial_series(a.a, a.b, a.N)
    lo, witness = min_filling_monomial(exps, a.a)
    bound = Fraction(a.b, a.a)
    return {
        "series_exponents": exps,
        "min_filling_ratio": rat_json(lo),
        "witness_exponents": list(witness),
        "bound": rat_json(bound),
        "bound_holds": lo >= bound,
    }


def _matrix_iso(a) -> dict:
    from .linalg import RandomSource
    from .steiner import matrix_iso_test

    return _sweep([
        matrix_iso_test(a.dim, a.a, a.b, a.k, RandomSource(a.seed).derive(t), a.prime)
        for t in range(a.trials)
    ])


def _splitting(a) -> dict:
    from .steiner import SteinerSpec, predicted_decomposition, pullback_splitting

    per_seed = []
    for t in range(a.trials):
        spec = SteinerSpec(a.N, a.s, a.r, a.k, seed=a.seed + t)
        split = pullback_splitting(spec, a.prime)
        per_seed.append({"seed": spec.seed, "parts": list(split.parts), "balanced": split.is_balanced()})
    try:
        dec = predicted_decomposition(a.N, a.s, a.r, a.k)
        predicted = {"n": dec.n, "k1": dec.k1, "k2": dec.k2}
    except (ValueError, ArithmeticError):
        predicted = None
    return {
        "per_seed": per_seed,
        "any_balanced": any(e["balanced"] for e in per_seed),
        "predicted_decomposition": predicted,
    }


def _interpolation(a) -> dict:
    from .linalg import RandomSource
    from .steiner import interpolation_test_cokernel, interpolation_test_kernel

    test = interpolation_test_kernel if a.kernel else interpolation_test_cokernel
    return _sweep(
        [test(a.r, a.s, a.k, RandomSource(a.seed).derive(t), a.prime) for t in range(a.trials)],
        n_points=a.r * (a.r + 1) // 2 + a.s,
        kind="kernel" if a.kernel else "cokernel",
    )


def _cone(a) -> dict:
    from .hilbert import cone_report

    return _cone_json(cone_report(a.n))


def _cone_table(a) -> list:
    if a.start < 2 or a.end < a.start:
        raise ValueError("need 2 <= from <= to")
    if a.end - a.start >= MAX_CONE_TABLE_ROWS:
        raise ValueError(f"to - from + 1 = {a.end - a.start + 1} exceeds the row bound {MAX_CONE_TABLE_ROWS}")
    from .hilbert import cone_report

    return [_cone_json(cone_report(n)) for n in range(a.start, a.end + 1)]


def _secant(a) -> dict:
    from .secant import INVALID, SecantParams, existence_check, secant_class

    params = SecantParams(n=a.n, g=a.g, s=a.s, d=a.d, r=a.r)
    payload = {"k": params.k, "delta": params.delta, "existence": existence_check(params), "class": None}
    if payload["existence"] != INVALID and params.k >= 1:
        cls = secant_class(params)
        payload["class"] = {
            "total_degree": cls.total_degree,
            "coefficients": {str(j): rat_json(c) for j, c in cls.coeffs},
            "integral": cls.is_integral,
            "zero": cls.is_zero,
        }
    return payload


def _gaeta(a) -> dict:
    from .hilbert import decompose, gaeta_shape

    shape = gaeta_shape(a.n)
    dec = decompose(a.n)
    return {
        "r": dec.r,
        "s": dec.s,
        "middle": [list(x) for x in shape.middle],
        "left": [list(x) for x in shape.left],
        # each (t+e+1)(t+e+2)//2 is exact, so the defect is a polynomial of degree
        # at most 2 in t: it vanishes at every twist iff it does at t = 0, 1, 2
        "euler_identity_holds": not any(shape.euler_defect(t) for t in range(3)),
    }


def _selftest(a) -> list:
    from . import acceptance

    return [
        {"name": c.name, "passed": c.passed, "detail": c.detail}
        for c in acceptance.run_all(a.prime, a.seed, a.trials)
    ]


# ---------------------------------------------------------------------------
# the command table


class _Command(NamedTuple):
    help: str
    # (flag, type[, default[, dest]]); no default means required, and type
    # bool makes a switch
    args: tuple
    handler: Callable
    # false on the payload means a checked property failed
    check: Callable | None = None
    render: Callable = _render


_RATIO_ARGS = (("--N", int), ("--q", parse_ratio))

COMMANDS = {
    "slopes": _Command(
        "exceptional slope list", (("--N", int), ("--count", int)), _slopes),
    "in-phi": _Command("semistable slope membership", _RATIO_ARGS, _in_phi),
    "in-psi": _Command("balanced ratio membership (accepts inf)", _RATIO_ARGS, _in_psi),
    "sumset-verify": _Command(
        "exhaustive sumset ratio minimum", (("--a", int), ("--b", int)),
        _sumset_verify, itemgetter("bound_holds")),
    "filling": _Command(
        "monomial series and its minimal filling ratio", (("--a", int), ("--b", int), ("--N", int)),
        _filling, itemgetter("bound_holds")),
    "matrix-iso": _Command(
        "square multiplication map isomorphism test",
        (("--dim", int), ("--a", int), ("--b", int), ("--k", int, 1)), _matrix_iso),
    "splitting": _Command(
        "restriction splitting type per seed",
        (("--N", int), ("--s", int), ("--r", int), ("--k", int, 1)), _splitting),
    "interpolation": _Command(
        "interpolation test per seed (--kernel: the kernel presentation)",
        (("--r", int), ("--s", int), ("--k", int, 1), ("--kernel", bool)), _interpolation),
    "cone": _Command(
        "effective-cone report for one n", (("--n", int),), _cone),
    # `from` is a keyword, so the bounds are stored as start and end
    "cone-table": _Command(
        "cone reports over a range (TSV in text mode)",
        (("--from", int, None, "start"), ("--to", int, None, "end")), _cone_table,
        render=_render_cone_table),
    "secant": _Command(
        "secant existence trichotomy and class",
        (("--n", int), ("--g", int), ("--s", int), ("--d", int), ("--r", int)), _secant),
    "gaeta": _Command(
        "resolution shape of n general points", (("--n", int),),
        _gaeta, itemgetter("euler_identity_holds")),
    "selftest": _Command(
        "run the acceptance suite", (),
        _selftest, lambda results: all(c["passed"] for c in results), _render_selftest),
}


def _add_argument(p: argparse.ArgumentParser, flag: str, kind, default=None, dest=None) -> None:
    if kind is bool:
        p.add_argument(flag, action="store_true")
    else:
        p.add_argument(flag, dest=dest, type=kind, default=default, required=default is None)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, default=DEFAULT_PRIME, help="field modulus (default: %(default)s)")
    common.add_argument("--seed", type=int, default=0, help="base seed (default: %(default)s)")
    common.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="seeds per genericity sweep")
    common.add_argument("--json", action="store_true", help="emit a JSON certificate instead of text")

    parser = argparse.ArgumentParser(prog="steinerlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        # argparse takes what this matches for a value, not a flag: -1/2 and -1e3 as well as -1 and -.5
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        for spec in command.args:
            _add_argument(p, *spec)
    return parser


def _write(text: str) -> None:
    """Write and flush stdout; a closed pipe sends the rest to devnull."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit, so fd 1 must not
        # point at the closed pipe any more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


_NOT_PARAMS = ("command", "prime", "seed", "trials", "json")


def _certificate(args, status: str, result) -> str:
    """The JSON certificate, a failure's included: prime, seed and trials
    are the parsed values, even when one of them is what failed.  Every
    parameter is set, so None is a ratio of inf."""
    params = {
        k: "inf" if v is None else str(v) if isinstance(v, Fraction) else v
        for k, v in vars(args).items()
        if k not in _NOT_PARAMS
    }
    payload = {
        "command": args.command,
        "params": params,
        "prime": args.prime,
        "seed": args.seed,
        "trials": args.trials,
        "status": status,
        "result": result,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _failure(args, status: str, message: str) -> int:
    if args.json:
        _write(_certificate(args, status, {"error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return _EXIT[status]


def main(argv: list[str] | None = None) -> int:
    sys.set_int_max_str_digits(0)  # exact rationals print whole, past the 4300-digit default
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        check_prime(args.prime)
        if args.trials < 1:
            raise ValueError("trials must be >= 1")
        payload = command.handler(args)
    except (ValueError, ZeroDivisionError) as exc:
        return _failure(args, INVALID_PARAMS, str(exc))
    except (ArithmeticError, RuntimeError) as exc:
        return _failure(args, INTERNAL_ERROR, f"{type(exc).__name__}: {exc}")

    status = OK if command.check is None or command.check(payload) else PROPERTY_VIOLATION
    if args.json:
        _write(_certificate(args, status, payload))
    else:
        lines = command.render(payload) + ([] if status == OK else [f"status: {status}"])
        _write("".join(line + "\n" for line in lines))
    return _EXIT[status]


if __name__ == "__main__":
    sys.exit(main())
