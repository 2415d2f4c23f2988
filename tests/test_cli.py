"""CLI tests: command behavior, JSON determinism, and exit codes."""

import json

import pytest

from steinerlab.cli import main


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


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["slopes", "--N", "2", "--count", "3", "--bogus"])
    assert exc.value.code == 2


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


def test_in_phi_deep_ladder_slope(capsys):
    from steinerlab.slopes import exceptional_slopes

    deep = exceptional_slopes(2, 80)[-1]
    code, out = run(capsys, "in-phi", "--N", "2", "--q", str(deep))
    assert code == 0
    assert out.strip().endswith("True")
    code, payload = run_json(capsys, "in-phi", "--N", "2", "--q", str(deep))
    assert code == 0 and payload["result"]["member"] is True
