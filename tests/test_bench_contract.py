"""The benchmark reaches the program by name: its tracer wraps the functions
that bench/spans.py lists as strings, and bench/run.py asks the CLI for one
cheap certificate per workload.  These tests load both files read-only and
check that every such name still resolves and every certificate still
passes, so a deletion in src/ that the benchmark depends on fails here."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from steinerlab import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """bench/<name>.py as a module of its own, writing no bytecode there."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
