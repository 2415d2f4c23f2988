"""The benchmark reaches the program by name: its tracer wraps the functions
that bench/spans.py lists as strings, and bench/run.py asks the CLI for one
cheap certificate per workload.  These tests load both files read-only and
check that every such name still resolves and every certificate still
passes, so a deletion in src/ that the benchmark depends on fails here.
The same holds for the L0 timing code and the splitting code of
tools/bench_record.py, which run in a parent checkout and in the change
alike."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from steinerlab import cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load(name, where=BENCH):
    """<where>/<name>.py as a module of its own, writing no bytecode there;
    it is registered in sys.modules, where its dataclasses look it up."""
    spec = importlib.util.spec_from_file_location(f"_{where.name}_{name}", where / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


SPANS = _load("spans")
RUN = _load("run")


@pytest.mark.parametrize("module,path", [(t[0], t[1]) for t in SPANS.TARGETS])
def test_traced_target_resolves(module, path):
    owner = importlib.import_module(f"{SPANS.PACKAGE}.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("workload", sorted(RUN.CHEAPEST))
def test_cheapest_certificate_passes(capsys, workload):
    argv, ok = RUN.CHEAPEST[workload]
    code = cli.main([*argv, "--json"])
    cert = json.loads(capsys.readouterr().out)
    assert code == 0
    assert cert["status"] == "ok"
    assert ok(cert["result"])


def test_bench_record_l0_code_ranks_a_small_matrix():
    record = _load("bench_record", ROOT / "tools")
    seconds = [record.rank_seconds(ROOT, 40) for _ in range(record.L0_REPEATS)]
    assert len(seconds) == record.L0_REPEATS
    assert all(t >= 0 for t in seconds)


def test_bench_record_splitting_code_reports_seconds_and_peak():
    # the spec's one round ranks a 714 x 714 map, so the peak holds it
    record = _load("bench_record", ROOT / "tools")
    assert record.splitting_cost(ROOT, "seconds") > 0
    assert record.splitting_cost(ROOT, "peak") >= 8 * 714 * 714 / 1e6


def _synthetic_run(workload, seed, certificate, wall_s):
    return {"workload": workload, "seed": seed, "certificate": certificate, "passes": 10,
            "result": {"metrics": {"wall_s": {"value": wall_s, "unit": "s"}}}}


def _synthetic_pair(mismatch=True):
    """Parent and change runs of two workloads, three seeds each; with
    mismatch, the change's cone-arith seed 2 has another digest."""
    parent, change = [], []
    for workload in ("cone-arith", "selftest"):
        for seed in (1, 2, 3):
            parent.append(_synthetic_run(workload, seed, f"{workload}-{seed}", 0.10 + seed / 100))
            differs = mismatch and (workload, seed) == ("cone-arith", 2)
            change.append(_synthetic_run(workload, seed, "other" if differs else f"{workload}-{seed}", 0.09))
    return parent, change


def test_bench_record_summary_counts_pairs_whose_certificates_differ():
    record = _load("bench_record", ROOT / "tools")
    parent, change = _synthetic_pair()
    paired = record.summary(change, parent)
    assert paired["cone-arith"]["certificates_differ"] == 1
    assert paired["selftest"]["certificates_differ"] == 0
    assert paired["cone-arith"]["wall_s"]["pairs_better"] == 3
    # the parent's wall_s is 0.11, 0.12, 0.13 per workload
    assert paired["cone-arith"]["wall_s"]["parent_iqr"] == pytest.approx(0.01)
    # the parent's own summary pairs nothing
    assert all("certificates_differ" not in per for per in record.summary(parent).values())


@pytest.mark.parametrize("mismatch", [True, False])
def test_bench_record_exits_1_after_writing_when_certificates_differ(tmp_path, monkeypatch, capsys, mismatch):
    record = _load("bench_record", ROOT / "tools")
    parent, change = _synthetic_pair(mismatch)
    queue = {str(tmp_path / "parent"): parent, str(tmp_path / "change"): change}

    def run_once(root, workload, seed):
        run = queue[str(root)].pop(0)
        assert (run["workload"], run["seed"]) == (workload, seed)
        return run["result"], {}, run["certificate"], run["passes"]

    monkeypatch.setattr(record, "ROOT", tmp_path / "change")
    monkeypatch.setattr(record, "git", lambda root, *args: "")
    monkeypatch.setattr(record, "run_once", run_once)
    monkeypatch.setattr(record, "L0_SIZES", ())
    monkeypatch.setattr(record, "splitting_cost", lambda root, what: 1.0)
    monkeypatch.setattr(record, "COLD_STARTS", 3)
    # the parent's starts read 0.20, 0.21, 0.22 per workload, after the
    # unrecorded one; the change's all read 0.205
    starts = {"parent": iter([0.19, 0.20, 0.21, 0.22] * 2), "change": iter([0.205] * 8)}
    monkeypatch.setattr(record, "cold_start", lambda root, cheapest: next(starts[Path(root).name]))
    monkeypatch.setattr(record, "load_bench_run",
                        lambda: type("Run", (), {"CHEAPEST": {"cone-arith": ([], None), "selftest": ([], None)}}))
    (tmp_path / "change").mkdir()
    argv = ["t", str(tmp_path / "parent"), "--workloads", "cone-arith", "selftest", "--seeds", "1", "2", "3"]
    assert record.main(argv) == int(mismatch)
    written = json.loads((tmp_path / "change" / "BENCH_t.json").read_text())
    assert written["summary"]["cone-arith"]["certificates_differ"] == int(mismatch)
    assert written["dont_write_bytecode"] is bool(sys.flags.dont_write_bytecode)
    cold = written["cold_start_s"]["selftest"]
    assert cold["runs"] == [0.205] * 3
    assert cold["pairs_better"] == 2 and cold["parent_iqr"] == pytest.approx(0.01)
    parent_cold = json.loads((tmp_path / "change" / "BENCH_t-parent.json").read_text())["cold_start_s"]["selftest"]
    assert parent_cold["runs"] == pytest.approx([0.20, 0.21, 0.22])
    assert "pairs_better" not in parent_cold
    assert ("cone-arith seed 2: the certificates differ" in capsys.readouterr().out) is mismatch
