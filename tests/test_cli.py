"""CLI tests: command behavior, JSON determinism, and exit codes."""

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from fractions import Fraction

import pytest

from steinerlab import cli, hilbert, secant, series, slopes, steiner
from steinerlab.cli import main
from steinerlab.linalg import GenericityError
from steinerlab.primes import DEFAULT_PRIME


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_slopes_json_golden(capsys):
    code, payload = run_json(capsys, "slopes", "--N", "2", "--count", "6")
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["result"] == [
        {"num": "0", "den": "1"},
        {"num": "1", "den": "2"},
        {"num": "3", "den": "5"},
        {"num": "8", "den": "13"},
        {"num": "21", "den": "34"},
        {"num": "55", "den": "89"},
    ]


def test_json_output_is_byte_identical(capsys):
    for argv in (("cone", "--n", "30"), ("selftest",)):
        _, first = run(capsys, *argv, "--json", "--seed", "3")
        _, second = run(capsys, *argv, "--json", "--seed", "3")
        assert first == second


def test_json_carries_provenance(capsys):
    code, payload = run_json(capsys, "matrix-iso", "--dim", "3", "--a", "1", "--b", "3", "--seed", "11", "--trials", "2")
    assert code == 0
    assert payload["prime"] == 2147483647
    assert payload["seed"] == 11
    assert payload["trials"] == 2
    assert payload["result"]["any"] is True


def test_cone_142(capsys):
    code, payload = run_json(capsys, "cone", "--n", "142")
    assert code == 0
    result = payload["result"]
    assert result["case"] == "open"
    assert result["possibility1"]["slope"] == {"num": "277", "den": "18"}


def test_cone_table_tsv(capsys):
    code, out = run(capsys, "cone-table", "--from", "3", "--to", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["n", "r", "s", "case", "status", "edge_slope", "moving_curve"]
    assert len(lines) == 5
    assert lines[1].split("\t")[:6] == ["3", "2", "0", "case4", "proven", "1"]


def _no_report(n):
    raise AssertionError("a cone report was built")


def test_cone_table_row_guard_trips_from_the_arguments(capsys, monkeypatch):
    # a range above the bound is refused before any report is built;
    # unguarded, --to 100000 --json ran 10.5 s and peaked at 1.18 GB
    monkeypatch.setattr(hilbert, "cone_report", _no_report)
    for start, end in ((2, 2 + cli.MAX_CONE_TABLE_ROWS), (7, 10**30)):
        argv = ("cone-table", "--from", str(start), "--to", str(end))
        error = f"to - from + 1 = {end - start + 1} exceeds the row bound {cli.MAX_CONE_TABLE_ROWS}"
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {error}\n"
        code, payload = run_json(capsys, *argv)
        assert code == 2 and payload["status"] == "invalid-params"
        assert payload["result"] == {"error": error}


def test_cone_table_row_guard_admits_exactly_the_bound(capsys, monkeypatch):
    assert 5000 - 2 + 1 <= cli.MAX_CONE_TABLE_ROWS  # the README table and the closed-pipe test
    monkeypatch.setattr(cli, "MAX_CONE_TABLE_ROWS", 4)
    code, payload = run_json(capsys, "cone-table", "--from", "10", "--to", "13")
    assert code == 0 and [row["n"] for row in payload["result"]] == [10, 11, 12, 13]
    code, payload = run_json(capsys, "cone-table", "--from", "10", "--to", "14")
    assert code == 2 and payload["result"] == {"error": "to - from + 1 = 5 exceeds the row bound 4"}


def test_in_phi_and_in_psi(capsys):
    code, payload = run_json(capsys, "in-phi", "--N", "2", "--q", "8/13")
    assert code == 0 and payload["result"]["member"] is True
    code, payload = run_json(capsys, "in-psi", "--N", "3", "--q", "11/4")
    assert code == 0 and payload["result"]["member"] is False
    code, payload = run_json(capsys, "in-psi", "--N", "3", "--q", "inf")
    assert code == 0 and payload["result"]["member"] is True


def test_sumset_verify(capsys):
    code, payload = run_json(capsys, "sumset-verify", "--a", "5", "--b", "8")
    assert code == 0
    assert payload["result"]["min_ratio"] == {"num": "8", "den": "5"}
    assert payload["result"]["bound_holds"] is True


def test_filling_command(capsys):
    code, payload = run_json(capsys, "filling", "--a", "5", "--b", "8", "--N", "3")
    assert code == 0
    assert payload["result"]["series_exponents"] == [0, 2, 3]
    assert payload["result"]["bound_holds"] is True


def test_filling_degree_guard_trips_from_the_arguments(capsys):
    # b - a above the bound is refused before any exponent is listed;
    # unguarded, b = 2 * 10**7 ran 8.8 s and printed 25.7 MB
    for b in (20000000, 10**30):
        code, payload = run_json(capsys, "filling", "--a", "12", "--b", str(b), "--N", str(b))
        assert code == 2 and payload["status"] == "invalid-params"
        assert payload["result"] == {
            "error": f"b - a = {b - 12} exceeds the series degree bound {series.MAX_SERIES_DEGREE}"
        }


def test_secant_walk_guard_is_invalid_params(capsys):
    # k = r = 20 with a genus that prunes nothing: unguarded, it ran past 8 s
    argv = ["secant", "--n", "3000", "--g", "1000", "--s", "399", "--d", "400", "--r", "20"]
    start = time.perf_counter()
    code, payload = run_json(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and payload["status"] == "invalid-params"
    assert payload["result"] == {
        "error": f"the class walks {math.comb(40, 20)} sequences, above the guard {secant._MAX_WALK_LEAVES}"
    }
    # with genus 0 the same k and r walk one sequence and answer
    argv[4] = "0"
    code, payload = run_json(capsys, *argv)
    assert code == 0 and list(payload["result"]["class"]["coefficients"]) == ["0"]


def test_splitting_command(capsys):
    code, payload = run_json(capsys, "splitting", "--N", "2", "--s", "2", "--r", "5", "--trials", "2")
    assert code == 0
    for entry in payload["result"]["per_seed"]:
        assert sorted(entry["parts"], reverse=True) == entry["parts"]
        assert sum(entry["parts"]) == 10
    assert payload["result"]["predicted_decomposition"] == {"n": 0, "k1": 1, "k2": 2}


@pytest.mark.parametrize("N, s, r", [(2, 3, 5), (2, 2, 5)])
def test_splitting_balanced_agrees_with_balanced_test(capsys, N, s, r):
    # the ladder slope 3/5 restricts balanced, the unstable 2/5 does not
    code, payload = run_json(capsys, "splitting", "--N", str(N), "--s", str(s), "--r", str(r), "--trials", "3")
    assert code == 0
    want = [steiner.balanced_test(steiner.SteinerSpec(N, s, r, seed=t)) for t in range(3)]
    assert [e["balanced"] for e in payload["result"]["per_seed"]] == want
    assert payload["result"]["any_balanced"] is any(want)


def test_interpolation_command(capsys):
    code, payload = run_json(capsys, "interpolation", "--r", "3", "--s", "1", "--trials", "3")
    assert code == 0
    assert payload["result"]["any"] is False
    code, payload = run_json(capsys, "interpolation", "--r", "2", "--s", "1", "--kernel", "--trials", "3")
    assert code == 0
    assert payload["result"]["kind"] == "kernel"


def test_secant_command(capsys):
    code, payload = run_json(capsys, "secant", "--n", "4", "--g", "1", "--s", "3", "--d", "3", "--r", "1")
    assert code == 0
    assert payload["result"]["existence"] == "NotExpected"
    assert payload["result"]["class"]["zero"] is True


def test_secant_class_is_null_exactly_when_invalid_or_k_below_1():
    # the regime test is existence_check's alone; written out here, it is
    # delta >= 0 and rk <= d, and the class also needs k >= 1
    reasons = set()
    for n, g, s, d, r in itertools.product(range(4), range(3), range(4), range(6), range(3)):
        payload = cli._secant(argparse.Namespace(n=n, g=g, s=s, d=d, r=r))
        k, delta = s + 1 - d + r, n - g - s
        invalid = delta < 0 or r * k > d
        assert (payload["existence"] == "Invalid") == invalid
        assert (payload["class"] is None) == (invalid or k < 1)
        reasons.add((invalid, k < 1))
    assert len(reasons) == 4  # every combination of the two reasons occurs


@pytest.mark.parametrize("values", [
    ("3", "0", "2", "-4", "-1"),  # was existence Guaranteed with a class of degree -6
    ("3", "0", "-2", "0", "0"),  # was k = -1
    ("3", "0", "-1", "2", "1"),
    ("3", "0", "2", "-1", "1"),
    ("3", "0", "2", "2", "-1"),
])
def test_secant_negative_s_d_r_are_invalid_params(capsys, values):
    argv = ["secant"] + [x for pair in zip(("--n", "--g", "--s", "--d", "--r"), values) for x in pair]
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload["status"] == "invalid-params"
    assert payload["result"] == {"error": "need s, d, r >= 0"}
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: need s, d, r >= 0\n"


def test_gaeta_command(capsys):
    code, payload = run_json(capsys, "gaeta", "--n", "5")
    assert code == 0
    assert payload["result"]["middle"] == [[-2, 1], [-3, 2]]
    assert payload["result"]["left"] == [[-4, 2]]
    assert payload["result"]["euler_identity_holds"] is True


def test_gaeta_answers_huge_n_at_once(capsys):
    start = time.perf_counter()
    code, payload = run_json(capsys, "gaeta", "--n", str(10**30))
    assert time.perf_counter() - start < 1
    assert code == 0
    assert payload["result"]["euler_identity_holds"] is True


@pytest.mark.parametrize("n", [5, 12, 14, 30, 10**12 + 7])
def test_gaeta_catches_a_multiplicity_off_by_one(capsys, monkeypatch, n):
    # both branches of gaeta_shape; every term of the shape, one step either way
    shape = hilbert.gaeta_shape(n)
    for side in ("middle", "left"):
        terms = getattr(shape, side)
        for i, (e, m) in enumerate(terms):
            for delta in (-1, 1):
                bad = dataclasses.replace(shape, **{side: terms[:i] + ((e, m + delta),) + terms[i + 1:]})
                monkeypatch.setattr(hilbert, "gaeta_shape", lambda n: bad)
                code, payload = run_json(capsys, "gaeta", "--n", str(n))
                assert code == 1, (side, i, delta)
                assert payload["result"]["euler_identity_holds"] is False


def test_invalid_params_exit_2(capsys):
    code, _ = run(capsys, "cone", "--n", "1")
    assert code == 2
    code, _ = run(capsys, "filling", "--a", "2", "--b", "5", "--N", "3")
    assert code == 2


@pytest.mark.parametrize("argv,error", [
    (("matrix-iso", "--dim", "3", "--a", "1", "--b", "2", "--k", "0"), "need k >= 1 and series_dim >= 1"),
    (("matrix-iso", "--dim", "-1", "--a", "1", "--b", "2"), "need k >= 1 and series_dim >= 1"),
    (("matrix-iso", "--dim", "0", "--a", "1", "--b", "2"), "need k >= 1 and series_dim >= 1"),
    (("in-phi", "--N", "0", "--q", "1"), "ambient dimension must be >= 1"),
    (("slopes", "--N", "0", "--count", "3"), "ambient dimension must be >= 1"),
    (("slopes", "--N", "0", "--count", "1"), "ambient dimension must be >= 1"),
])
def test_empty_dimensions_are_invalid_params(capsys, argv, error):
    # k = 0 was a 0 x 0 "isomorphism" with all: true, and --N 0 a member
    # test that answered false
    code, payload = run_json(capsys, *argv)
    assert code == 2
    assert payload["status"] == "invalid-params"
    assert payload["result"] == {"error": error}
    assert run(capsys, *argv)[0] == 2


def test_invalid_params_json_mode(capsys):
    code, payload = run_json(capsys, "cone", "--n", "1")
    assert code == 2
    assert payload["status"] == "invalid-params"
    assert payload["params"] == {"n": 1}


def test_splitting_size_guard_is_invalid_params(capsys):
    # the first twist map would be 20100 x 20100; the guard trips on its shape
    code, payload = run_json(capsys, "splitting", "--N", "2", "--s", "100", "--r", "101", "--trials", "1")
    assert code == 2
    assert payload["status"] == "invalid-params"
    assert payload["result"] == {"error": "map dimension exceeds the desk-scale guard"}


def test_splitting_degenerate_small_prime_is_internal_error(capsys):
    argv = ("splitting", "--N", "2", "--s", "2", "--r", "2", "--prime", "3", "--seed", "0", "--trials", "1")
    code, payload = run_json(capsys, *argv)
    assert code == 3
    assert payload["status"] == "internal-error"
    assert payload["result"] == {"error": "ArithmeticError: splitting degrees do not sum to c1"}


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["slopes", "--N", "2", "--count", "3", "--bogus"])
    assert exc.value.code == 2


def test_zero_denominator_is_a_usage_error(capsys):
    for extra in ((), ("--json",)):
        with pytest.raises(SystemExit) as exc:
            main(["in-phi", "--N", "2", "--q", "1/0", *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid parse_ratio value: '1/0'" in captured.err


def test_negative_slope_reaches_the_handler(capsys):
    # argparse takes -1/2 for a flag unless told otherwise; every spelling
    # must reach parse_ratio and fail in the handler, text and JSON alike
    for q, text in (
        (("--q", "-1/2"), "-1/2"),
        (("--q=-1/2",), "-1/2"),
        (("--q", "-1"), "-1"),
        (("--q", "-1e3"), "-1000"),
    ):
        assert main(["in-phi", "--N", "2", *q]) == 2
        assert capsys.readouterr().err == "error: slope must be nonnegative\n"
        code, payload = run_json(capsys, "in-phi", "--N", "2", *q)
        assert code == 2
        assert payload["params"] == {"N": 2, "q": text}
        assert payload["result"] == {"error": "slope must be nonnegative"}


def test_infinite_slope_is_invalid_params(capsys):
    # inf is a ratio for in-psi but not a slope for in-phi, text and JSON alike
    assert main(["in-phi", "--N", "2", "--q", "inf"]) == 2
    assert capsys.readouterr().err == "error: slope must be finite\n"
    code, payload = run_json(capsys, "in-phi", "--N", "2", "--q", "inf")
    assert code == 2
    assert payload["params"] == {"N": 2, "q": "inf"}
    assert payload["result"] == {"error": "slope must be finite"}
    code, payload = run_json(capsys, "in-psi", "--N", "2", "--q", "Infinity")
    assert code == 0
    assert payload["params"] == {"N": 2, "q": "inf"}
    assert payload["result"] == {"q": "inf", "member": True}


def test_property_violation_exit_1(capsys, monkeypatch):
    # a minimum below the bound b/a is what a counterexample would return
    monkeypatch.setattr(series, "verify_lemma_ba2", lambda a, b: (Fraction(1), (0,)))
    code, payload = run_json(capsys, "sumset-verify", "--a", "5", "--b", "8")
    assert code == 1
    assert payload["status"] == "property-violation"
    assert payload["result"]["bound_holds"] is False
    code, out = run(capsys, "sumset-verify", "--a", "5", "--b", "8")
    assert code == 1
    assert out.splitlines()[-1] == "status: property-violation"


def test_bad_prime_rejected(capsys):
    code, _ = run(capsys, "slopes", "--N", "2", "--count", "3", "--prime", "10")
    assert code == 2


def test_environment_sets_no_run_parameter(capsys, monkeypatch):
    # the command line is the only source of prime, seed and trials
    monkeypatch.setenv("STEINERLAB_PRIME", "abc")
    monkeypatch.setenv("STEINERLAB_SEED", "123")
    assert run(capsys, "slopes", "--N", "2", "--count", "3")[0] == 0
    code, payload = run_json(capsys, "matrix-iso", "--dim", "3", "--a", "1", "--b", "3", "--trials", "1")
    assert code == 0
    assert (payload["prime"], payload["seed"]) == (DEFAULT_PRIME, 0)


def test_help_names_no_environment_variable():
    top = cli.build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    for parser in (top, *sub.choices.values()):
        text = parser.format_help()
        assert "STEINERLAB" not in text and "environ" not in text


def _rerun_argv(cert: dict) -> list[str]:
    """The invocation a certificate's command, params, prime, seed and
    trials spell out, through the command table's flags."""
    flags = {spec[3] if len(spec) > 3 else spec[0][2:]: spec for spec in cli.COMMANDS[cert["command"]].args}
    argv = [cert["command"]]
    for dest, value in cert["params"].items():
        flag, kind = flags[dest][:2]
        if kind is bool:
            argv += [flag] if value else []
        else:
            argv += [flag, str(value)]
    return argv + ["--prime", str(cert["prime"]), "--seed", str(cert["seed"]),
                   "--trials", str(cert["trials"]), "--json"]


@pytest.mark.parametrize("argv, code, run_fields", [
    (("slopes", "--N", "2", "--count", "3", "--prime", "10"), 2, (10, 0, 5)),
    (("matrix-iso", "--dim", "3", "--a", "1", "--b", "3", "--trials", "0"), 2, (2147483647, 0, 0)),
    (("interpolation", "--r", "3", "--s", "2", "--prime", "2", "--seed", "7", "--trials", "1"), 3, (2, 7, 1)),
    (("in-phi", "--N", "2", "--q", "inf", "--seed", "-4"), 2, (2147483647, -4, 5)),
    (("cone-table", "--from", "5", "--to", "2", "--trials", "9"), 2, (2147483647, 0, 9)),
])
def test_failure_certificate_reruns_from_its_fields(capsys, argv, code, run_fields):
    first_code, first = run(capsys, *argv, "--json")
    cert = json.loads(first)
    assert first_code == code and cert["status"] != "ok"
    assert (cert["prime"], cert["seed"], cert["trials"]) == run_fields
    assert run(capsys, *_rerun_argv(cert)) == (code, first)


def test_selftest_exit_zero(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 11
    assert all(l.startswith("PASS") for l in lines)


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_slopes_print_numerators_past_4300_digits():
    # a fresh interpreter, whose int-to-str limit is the 4300-digit default;
    # the digits per rung grow with N, so no count guard would do
    argv = [sys.executable, "-m", "steinerlab.cli", "slopes", "--N", str(10**100), "--count", "50"]
    for extra in ([], ["--json"]):
        proc = subprocess.run(argv + extra, env=_child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout[-300:]
        if extra:
            nums = [q["num"] for q in json.loads(proc.stdout)["result"]]
        else:
            nums = [line.split("/")[0] for line in proc.stdout.split()]
        assert len(nums) == 50 and max(map(len, nums)) > 4300


def _no_rungs(n_dim):
    raise AssertionError("a rung was built")


def test_slopes_work_guard_trips_from_the_arguments(capsys, monkeypatch):
    # the bound is on N and count together, and a refusal builds no rung:
    # 5001 slopes at N = 2 are refused, and so are 166 at N = 10**100
    monkeypatch.setattr(slopes, "_rungs", _no_rungs)
    for n_dim, count in ((2, 5001), (10**100, 166)):
        argv = ("slopes", "--N", str(n_dim), "--count", str(count))
        work = count**3 * (n_dim + 1).bit_length() ** 2
        error = f"count**3 * (N+1).bit_length()**2 = {work} exceeds the bound {slopes.MAX_SLOPE_WORK}"
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {error}\n"
        code, payload = run_json(capsys, *argv)
        assert code == 2 and payload["status"] == "invalid-params"
        assert payload["result"] == {"error": error}


def test_slopes_work_guard_admits_exactly_the_bound(capsys, monkeypatch):
    # the selftest's cold start, criterion 1 and the 4300-digit test stay
    # admitted: 6 slopes at N = 2 and 50 at N = 10**100
    for n_dim, count in ((2, 6), (10**100, 50), (2, 5000), (10**100, 165)):
        assert count**3 * (n_dim + 1).bit_length() ** 2 <= slopes.MAX_SLOPE_WORK
    monkeypatch.setattr(slopes, "MAX_SLOPE_WORK", 3**3 * 2**2)
    code, payload = run_json(capsys, "slopes", "--N", "2", "--count", "3")
    assert code == 0 and len(payload["result"]) == 3
    code, payload = run_json(capsys, "slopes", "--N", "2", "--count", "4")
    assert code == 2 and payload["result"] == {"error": "count**3 * (N+1).bit_length()**2 = 256 exceeds the bound 108"}


def test_closed_pipe_ends_quietly_with_the_command_code():
    # the table is far larger than a pipe buffer, so writing it must hit
    # the closed pipe once the reader has taken its first line
    proc = subprocess.Popen(
        [sys.executable, "-m", "steinerlab.cli", "cone-table", "--from", "2", "--to", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert first.decode().startswith("n\tr\ts\t")
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


def _raise_genericity(*args, **kwargs):
    raise GenericityError("draws kept degenerating")


def test_internal_error_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(steiner, "pullback_splitting", _raise_genericity)
    argv = ("splitting", "--N", "2", "--s", "2", "--r", "5", "--trials", "1")
    assert main(list(argv)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: GenericityError: draws kept degenerating\n"
    code, payload = run_json(capsys, *argv)
    assert code == 3
    assert payload["status"] == "internal-error"
    assert payload["result"] == {"error": "GenericityError: draws kept degenerating"}


def test_zero_division_stays_invalid_params(capsys, monkeypatch):
    def divide(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(hilbert, "cone_report", divide)
    code, payload = run_json(capsys, "cone", "--n", "30")
    assert code == 2
    assert payload["status"] == "invalid-params"


def test_in_phi_deep_ladder_slope(capsys):
    from steinerlab.slopes import exceptional_slopes

    deep = exceptional_slopes(2, 80)[-1]
    code, out = run(capsys, "in-phi", "--N", "2", "--q", str(deep))
    assert code == 0
    assert out.strip().endswith("True")
    code, payload = run_json(capsys, "in-phi", "--N", "2", "--q", str(deep))
    assert code == 0 and payload["result"]["member"] is True


# sha256 of the --json certificate of each invocation, recorded before the
# product and point-evaluation paths were merged; any change in the exact
# arithmetic or in the draw order shows up here
GOLDEN_CERTIFICATES = [
    (("matrix-iso", "--dim", "3", "--a", "3", "--b", "8", "--k", "2", "--seed", "5", "--trials", "3"),
     "b47eb4a6766db45694db9abaad1c66ed12db08972d9f6712b77fca2481bf9ece"),
    (("splitting", "--N", "2", "--s", "2", "--r", "5", "--seed", "2", "--trials", "2"),
     "e5ca2c5f4b5edf290406e6731cf781a6b1a7805b80a550be1138f14b35be551b"),
    (("interpolation", "--r", "4", "--s", "2", "--k", "2", "--seed", "1", "--trials", "2"),
     "5bd462aa8673ecbbf99e6a902c67bf412e894446a5dd260a8ea468b2026d836f"),
    (("interpolation", "--r", "3", "--s", "2", "--kernel", "--seed", "1", "--trials", "2"),
     "28758c8334b0ee91af9b92c0ed1b8e86d6631f93a92c450d779ecbad50e48915"),
    (("interpolation", "--r", "2", "--s", "1", "--kernel", "--seed", "4", "--trials", "2"),
     "1bbe579135a21361cb8bdaf344e59d570fca6586070d2c5ec6df098723e4930d"),
    (("filling", "--a", "5", "--b", "8", "--N", "3"),
     "dab575654241c35080fc05af9cb5b62edecfd4f0535c6b76c2777ee9bbb29e74"),
    (("sumset-verify", "--a", "7", "--b", "12"),
     "1a89d9766bc09db4cddc30474d18482d8bd8dc17e3ab9fb769769841022e154d"),
    (("cone-table", "--from", "2", "--to", "60"),
     "33eb88ba22cb6981a55b85e16fefe2aff39e5a93573d0558991d9ba5abc0afbf"),
    (("gaeta", "--n", "12"),
     "2fb9573b8a8e5c113446548ff181c08986f1ff34a4cae5abc70e8c565726811e"),
    (("selftest", "--seed", "3", "--trials", "2"),
     "d45b8acf0dd11471790765b6461320eee203036e7481cf4d09534eff2d40f736"),
]


def test_golden_certificates(capsys):
    for argv, digest in GOLDEN_CERTIFICATES:
        code, out = run(capsys, *argv, "--json")
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# one cheap invocation of every command
CHEAP_INVOCATIONS = {
    "slopes": ("--N", "2", "--count", "4"),
    "in-phi": ("--N", "2", "--q", "8/13"),
    "in-psi": ("--N", "3", "--q", "inf"),
    "sumset-verify": ("--a", "5", "--b", "8"),
    "filling": ("--a", "5", "--b", "8", "--N", "3"),
    "matrix-iso": ("--dim", "3", "--a", "1", "--b", "3", "--trials", "2"),
    "splitting": ("--N", "2", "--s", "2", "--r", "5", "--trials", "1"),
    "interpolation": ("--r", "2", "--s", "1", "--kernel", "--trials", "1"),
    "cone": ("--n", "142"),
    "cone-table": ("--from", "2", "--to", "12"),
    "secant": ("--n", "4", "--g", "1", "--s", "3", "--d", "3", "--r", "1"),
    "gaeta": ("--n", "12"),
    "selftest": ("--trials", "1"),
}


def test_parser_commands_are_the_table():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli.COMMANDS)
    assert set(CHEAP_INVOCATIONS) == set(cli.COMMANDS)


@pytest.mark.parametrize("name", list(CHEAP_INVOCATIONS))
def test_text_is_rendered_from_the_certificate(capsys, name):
    argv = (name, *CHEAP_INVOCATIONS[name])
    code, cert = run_json(capsys, *argv)
    text_code, text = run(capsys, *argv)
    assert code == text_code == 0
    assert text == "".join(line + "\n" for line in cli.COMMANDS[name].render(cert["result"]))


_SLOPES = ("cli", "primes", "slopes")
_HILBERT = ("cli", "hilbert", "primes", "slopes")
_SERIES = ("cli", "linalg", "primes", "series")
_STEINER = ("cli", "linalg", "primes", "series", "slopes", "steiner")

# per command: the steinerlab modules it loads, and whether dataclasses and
# numpy are loaded; "import" is the bare import of steinerlab.cli
LOADS = {
    "import": (("cli", "primes"), False, False),
    "slopes": (_SLOPES, False, False),
    "in-phi": (_SLOPES, False, False),
    "in-psi": (_SLOPES, False, False),
    "cone": (_HILBERT, True, False),
    "cone-table": (_HILBERT, True, False),
    "gaeta": (_HILBERT, True, False),
    "secant": (("cli", "primes", "secant"), True, False),
    "sumset-verify": (_SERIES, False, True),
    "filling": (_SERIES, False, True),
    "matrix-iso": (_STEINER, True, True),
    "splitting": (_STEINER, True, True),
    "interpolation": (_STEINER, True, True),
    "selftest": (("acceptance", "cli", "hilbert", "linalg", "primes", "secant", "series", "slopes", "steiner"),
                 True, True),
}

# runs argv (none: the bare import) through cli.main and prints its exit
# code, the steinerlab modules loaded, and whether dataclasses and numpy are
_LOAD_PROBE = """
import contextlib, io, json, sys
from steinerlab import cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("steinerlab."))
print(json.dumps([code, loaded, "dataclasses" in sys.modules, "numpy" in sys.modules]))
"""


def _loads(argv: list) -> list:
    # a fresh interpreter per command, since this process has imported everything
    proc = subprocess.run([sys.executable, "-c", _LOAD_PROBE, *argv],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_load_table_covers_every_command():
    assert set(LOADS) == {"import", *cli.COMMANDS}


@pytest.mark.parametrize("name", list(LOADS))
def test_command_loads_only_the_module_it_runs(name):
    argv = [] if name == "import" else [name, *CHEAP_INVOCATIONS[name], "--json"]
    modules, dataclasses_loaded, numpy_loaded = LOADS[name]
    assert _loads(argv) == [None if name == "import" else 0, list(modules), dataclasses_loaded, numpy_loaded]


def test_a_refused_prime_loads_no_command_module():
    assert _loads(["slopes", "--N", "2", "--count", "3", "--prime", "4", "--json"]) == [2, ["cli", "primes"], False, False]
