"""CLI tests: command behavior, JSON determinism, and exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import pytest

from steinerlab import cli
from steinerlab.cli import main
from steinerlab.linalg import GenericityError


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


def test_splitting_command(capsys):
    code, payload = run_json(capsys, "splitting", "--N", "2", "--s", "2", "--r", "5", "--trials", "2")
    assert code == 0
    for entry in payload["result"]["per_seed"]:
        assert sorted(entry["parts"], reverse=True) == entry["parts"]
        assert sum(entry["parts"]) == 10
    assert payload["result"]["predicted_decomposition"] == {"n": 0, "k1": 1, "k2": 2}


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


def test_gaeta_command(capsys):
    code, payload = run_json(capsys, "gaeta", "--n", "5")
    assert code == 0
    assert payload["result"]["middle"] == [[-2, 1], [-3, 2]]
    assert payload["result"]["left"] == [[-4, 2]]
    assert payload["result"]["euler_identity_holds"] is True


def test_invalid_params_exit_2(capsys):
    code, _ = run(capsys, "cone", "--n", "1")
    assert code == 2
    code, _ = run(capsys, "filling", "--a", "2", "--b", "5", "--N", "3")
    assert code == 2


def test_invalid_params_json_mode(capsys):
    code, payload = run_json(capsys, "cone", "--n", "1")
    assert code == 2
    assert payload["status"] == "invalid-params"
    assert payload["params"] == {"n": 1}


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


def test_property_violation_exit_1(capsys, monkeypatch):
    # a minimum below the bound b/a is what a counterexample would return
    monkeypatch.setattr(cli, "verify_lemma_ba2", lambda a, b: (Fraction(1), (0,)))
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


def test_env_defaults(capsys, monkeypatch):
    monkeypatch.setenv("STEINERLAB_SEED", "123")
    monkeypatch.setenv("STEINERLAB_PRIME", "1000003")
    code, payload = run_json(capsys, "matrix-iso", "--dim", "3", "--a", "1", "--b", "3", "--trials", "1")
    assert code == 0
    assert payload["seed"] == 123
    assert payload["prime"] == 1000003
    # explicit flags override the environment
    code, payload = run_json(capsys, "matrix-iso", "--dim", "3", "--a", "1", "--b", "3", "--trials", "1", "--seed", "4")
    assert payload["seed"] == 4


def test_selftest_exit_zero(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 11
    assert all(l.startswith("PASS") for l in lines)


def test_closed_pipe_ends_quietly_with_the_command_code():
    # the table is far larger than a pipe buffer, so writing it must hit
    # the closed pipe once the reader has taken its first line
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "steinerlab.cli", "cone-table", "--from", "2", "--to", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
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
    monkeypatch.setattr(cli, "pullback_splitting", _raise_genericity)
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

    monkeypatch.setattr(cli, "cone_report", divide)
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
