"""Tests of the benchmark itself.

    python3 -m pytest -q bench/check_bench.py

The file name keeps these out of the program's own test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402
from steinerlab import acceptance, hilbert, linalg, steiner  # noqa: E402

COUNT_SUFFIXES = (".calls", ".cells", ".ops_est", ".masks", ".sequences", ".small_calls", ".elims_per_call")


def _targets():
    """Every object the tracer may replace, read fresh from where it lives."""
    return {
        "rank": linalg.FieldMatrix.__dict__["rank"],
        "below": linalg.RandomSource.__dict__["below"],
        "steiner.multiplication_matrix": steiner.multiplication_matrix,
        "steiner.matrix_iso_test": steiner.matrix_iso_test,
        "acceptance.matrix_iso_test": acceptance.matrix_iso_test,
        "hilbert.cone_report": hilbert.cone_report,
        "criteria": tuple(acceptance.ALL_CRITERIA),
    }


def test_untraced_pass_runs_the_unpatched_functions():
    before = _targets()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _targets()
        assert all(during[k] is not before[k] for k in before if k != "criteria")
        assert all(a is not b for a, b in zip(during["criteria"], before["criteria"]))
    finally:
        tracer.uninstall()
    after = _targets()
    assert all(after[k] is before[k] for k in before if k != "criteria")
    assert all(a is b for a, b in zip(after["criteria"], before["criteria"]))

    w = workloads.cone_arith(0)
    ops = w.ops[:50]
    runner = run.Runner(w, workloads.canon)
    tracer.reset()
    runner.run_pass(ops)
    assert tracer.spans == []
    tracer.install()
    try:
        runner.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    assert len(tracer.spans) >= len(ops)
    assert runner.failed == []


def test_injected_wrong_answer_raises_fail_share(monkeypatch):
    w = workloads.cone_arith(3)
    ops = [op for op in w.ops if op.key.startswith("cone:")][:40]
    clean = run.Runner(w, workloads.canon)
    clean.run_pass(ops)
    assert clean.failed == []

    real = hilbert.cone_report
    monkeypatch.setattr(hilbert, "cone_report", lambda n: real(n + 1))
    broken = run.Runner(w, workloads.canon)
    broken.run_pass(ops)
    assert len(broken.failed) == len(ops)


def test_changed_answer_between_passes_fails(monkeypatch):
    w = workloads.cone_arith(4)
    ops = [op for op in w.ops if op.key.startswith("cone:")][:10]
    runner = run.Runner(w, workloads.canon)
    runner.run_pass(ops)
    real = hilbert.cone_report
    # same case and edge, different object: only the digest can tell
    monkeypatch.setattr(hilbert, "cone_report", lambda n: real(n).__class__(
        **{**real(n).__dict__, "moving_description": "changed"}))
    runner.run_pass(ops)
    assert len(runner.failed) == len(ops)
    assert all("differs between passes" in text for _, text in runner.failed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_their_count_or_sizes(name):
    a, b = workloads.WORKLOADS[name](1), workloads.WORKLOADS[name](2)
    assert len(a.ops) == len(b.ops) and len(a.probes) == len(b.probes)
    assert [op.size for op in a.ops + a.probes] == [op.size for op in b.ops + b.probes]
    assert [repr(op.args) for op in a.ops] != [repr(op.args) for op in b.ops]
    again = workloads.WORKLOADS[name](1)
    assert [repr(op.args) for op in a.ops] == [repr(op.args) for op in again.ops]


def test_count_metrics_repeat_exactly_between_traced_runs():
    def traced_counts():
        w = workloads.interpolation(5)
        # every operation for r = 5: n = 15..20 and their interpolation tests
        ops = [op for op in w.ops if (op.size[0] == 5 if len(op.size) == 2 else 15 <= op.size[0] <= 20)]
        tracer = spans.Tracer()
        tracer.install()
        try:
            run.Runner(w, workloads.canon).run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        return {k: v for k, v in tracer.layer_metrics().items() if k.endswith(COUNT_SUFFIXES)}

    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first["linalg.elim.calls"] > 0 and first["steiner.interp.elims_per_call"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "cone-arith", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
