"""Record alternating benchmark runs of a parent and a change checkout.

    python3 tools/bench_record.py TAG PARENT_DIR --workloads interpolation --seeds 1 2 3

The change is the checkout holding this script; PARENT_DIR is a git
checkout of the commit it is measured against.  For every workload and
seed the recorder runs `bench/run.py --trace 0` once in each checkout,
swapping which of the two runs first from one seed to the next.  Every run
lasts BENCHMARK.json's run_seconds, the same on both sides.

Two files are written next to this checkout's BENCHMARK.json:
BENCH_<TAG>-parent.json and BENCH_<TAG>.json.  Each holds the last stdout
line of every run with its certificate digest and its pass count (peak RSS
grows with the number of passes a run fits in), the checkout's
`git rev-parse HEAD`, whether its tracked files differed from HEAD, the
seeds, the environment block of its first run, and the median, quartiles
and sample count of each metric and of the pass count; the change's file
also gives, per workload and metric, the pairs on which the change is
better (ties count for neither side) and the parent's interquartile
distance, and, per workload, certificates_differ: the pairs whose two
certificate digests differ.  A change counts only if its certificates stay
byte-identical, so the recorder exits 1, after writing both files, when
any pair differs.  Each file also holds the L0 numbers of its checkout: the
seconds of FieldMatrix.rank() on a random n x n matrix mod 2^31 - 1, drawn
by numpy's default_rng(n) so that both checkouts rank the same matrix, for
each n in L0_SIZES, L0_REPEATS times, each time in a fresh process, the
checkouts alternating which goes first from one repeat to the next; and,
per workload, COLD_STARTS cold starts of that workload's cheapest CLI
certificate (CHEAPEST in bench/run.py, read from this checkout), the
checkouts alternating start by start after one unrecorded start each.  In
the change's file each workload's cold starts also get pairs_better (start
i against the parent's start i) and parent_iqr.  Each file records
dont_write_bytecode, the recorder's sys.flags.dont_write_bytecode, which
its children inherit: when it is set (PYTHONDONTWRITEBYTECODE), no start
writes bytecode, so every recorded start compiles the steinerlab sources
it imports and the unrecorded start only warms the file cache.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]
# which way each metric improves; more passes in a fixed time is faster
BETTER = {"passes": "higher", **{m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}}
ENV_PREFIX = "environment: "
CERT_PREFIX = "certificate sha256 "
PASSES = re.compile(r"^workload \S+ seed -?\d+: (\d+) passes")
L0_SIZES = (200, 400, 800)
L0_REPEATS = 5
# single cold starts of one commit spread from about 0.16 to 0.30 s on a
# 2-core host, so a setup_s claim rests on at least 21 per side
COLD_STARTS = 21
# prints the seconds of one rank; the matrix is drawn, and one unrecorded
# rank of it run, before timing
L0_CODE = """
import sys, time
import numpy as np
from steinerlab.linalg import FieldMatrix
n = int(sys.argv[1])
m = np.random.default_rng(n).integers(0, 2**31 - 1, (n, n))
FieldMatrix(m, 2**31 - 1).rank()
fresh = FieldMatrix(m, 2**31 - 1)
t = time.perf_counter()
fresh.rank()
print(time.perf_counter() - t)
"""


def load_bench_run():
    """bench/run.py of this checkout as a module of its own, writing no
    bytecode there."""
    spec = importlib.util.spec_from_file_location("_bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True, text=True).stdout.strip()


def run_once(root: Path, workload: str, seed: int) -> tuple[dict, dict, str, int]:
    """(last-line result, environment block, certificate digest, passes) of one run."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    env = next((json.loads(ln[len(ENV_PREFIX):]) for ln in lines if ln.startswith(ENV_PREFIX)), {})
    cert = next((ln[len(CERT_PREFIX):] for ln in lines if ln.startswith(CERT_PREFIX)), "")
    passes = next(int(m[1]) for m in map(PASSES.match, lines) if m)
    return json.loads(lines[-1]), env, cert, passes


def rank_seconds(root: Path, n: int) -> float:
    """Seconds of rank() on the random n x n matrix, in a fresh process in root."""
    cmd = [sys.executable, "-c", L0_CODE, str(n)]
    proc = subprocess.run(cmd, cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
                          check=True, capture_output=True, text=True)
    return float(proc.stdout)


def cold_start(root: Path, cheapest: tuple) -> float:
    """Seconds for one fresh `python -m steinerlab.cli <argv> --json` in root;
    a failed or wrong certificate stops the recording."""
    argv, ok = cheapest
    cmd = [sys.executable, "-m", "steinerlab.cli", *argv, "--json"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t
    cert = json.loads(proc.stdout or "null")
    if proc.returncode != 0 or not (cert and cert["status"] == "ok" and ok(cert["result"])):
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return elapsed


def quartiles(xs: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def metric_values(runs: list[dict]) -> dict[str, dict[str, list[float]]]:
    """Each metric's values in run order, per workload."""
    values: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        per = values.setdefault(run["workload"], {})
        for name, metric in run["result"]["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
        per.setdefault("passes", []).append(run["passes"])
    return values


def paired(xs: list[float], base: list[float], better: str = "lower") -> dict:
    """The acceptance rule's two numbers for xs against the parent's base,
    paired by position: pairs_better, the pairs on which xs is better (a
    tie counts for neither side), and parent_iqr, the parent's q3 - q1."""
    sign = -1 if better == "lower" else 1
    parent = quartiles(base)
    return {"pairs_better": sum(sign * (x - y) > 0 for x, y in zip(xs, base)),
            "parent_iqr": parent["q3"] - parent["q1"]}


def summary(runs: list[dict], parent_runs: list[dict] | None = None) -> dict:
    """Median, quartiles and sample count of each metric, per workload.

    Given the parent's runs, paired with these by position (same workload
    and seed), each metric also gets paired()'s two numbers, and each
    workload gets certificates_differ, the pairs whose certificate digests
    differ.
    """
    values = metric_values(runs)
    out = {workload: {name: quartiles(xs) for name, xs in per.items()} for workload, per in values.items()}
    if parent_runs is not None:
        for workload, per in metric_values(parent_runs).items():
            for name, base in per.items():
                out[workload][name].update(paired(values[workload][name], base, BETTER[name]))
        for workload, per in out.items():
            per["certificates_differ"] = sum(run["certificate"] != base["certificate"]
                                             for run, base in zip(runs, parent_runs) if run["workload"] == workload)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tag")
    parser.add_argument("parent", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args(argv)

    sides = [
        {"tag": tag, "root": root, "commit": git(root, "rev-parse", "HEAD"),
         "dirty": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
         "environment": None, "runs": [], "l0_rank_s": {}, "cold_start_s": {}}
        for tag, root in ((f"{args.tag}-parent", args.parent.resolve()), (args.tag, ROOT))
    ]

    pair = 0
    for workload in args.workloads:
        for seed in args.seeds:
            for side in (sides if pair % 2 == 0 else sides[::-1]):
                result, env, cert, passes = run_once(side["root"], workload, seed)
                if side["environment"] is None:
                    side["environment"] = {k: v for k, v in env.items() if k != "seed"}
                side["runs"].append({"workload": workload, "seed": seed, "certificate": cert,
                                     "passes": passes, "result": result})
                print(f"{workload} seed {seed} {side['tag']}: wall_s {result['metrics']['wall_s']['value']}", flush=True)
            if sides[0]["runs"][-1]["certificate"] != sides[1]["runs"][-1]["certificate"]:
                print(f"{workload} seed {seed}: the certificates differ", flush=True)
            pair += 1

    for n in L0_SIZES:
        times = {side["tag"]: [] for side in sides}
        for i in range(L0_REPEATS):
            for side in (sides if i % 2 == 0 else sides[::-1]):
                times[side["tag"]].append(rank_seconds(side["root"], n))
        for side in sides:
            runs = times[side["tag"]]
            side["l0_rank_s"][str(n)] = {"runs": runs, "median": statistics.median(runs)}
            print(f"rank n={n} {side['tag']}: median {statistics.median(runs):.4f} s", flush=True)

    cheapest = load_bench_run().CHEAPEST
    for workload in args.workloads:
        for side in sides:
            cold_start(side["root"], cheapest[workload])  # not recorded
        times = {side["tag"]: [] for side in sides}
        for i in range(COLD_STARTS):
            for side in (sides if i % 2 == 0 else sides[::-1]):
                times[side["tag"]].append(cold_start(side["root"], cheapest[workload]))
        for side in sides:
            runs = times[side["tag"]]
            side["cold_start_s"][workload] = {"argv": cheapest[workload][0], "runs": runs, **quartiles(runs)}
            if side is sides[1]:
                side["cold_start_s"][workload].update(paired(runs, times[sides[0]["tag"]]))
            print(f"cold start {workload} {side['tag']}: median {statistics.median(runs):.4f} s", flush=True)

    for side in sides:
        record = {
            "tag": side["tag"],
            "commit": side["commit"],
            "dirty": side["dirty"],
            "command": "bench/run.py --trace 0",
            "seconds": RUN_SECONDS,
            "workloads": args.workloads,
            "seeds": args.seeds,
            "environment": side["environment"],
            "runs": side["runs"],
            "summary": summary(side["runs"], None if side is sides[0] else sides[0]["runs"]),
            "l0_rank_s": side["l0_rank_s"],
            "cold_start_s": side["cold_start_s"],
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        }
        (ROOT / f"BENCH_{side['tag']}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    # record is the change's, the only one whose summary pairs the runs
    return 1 if any(per["certificates_differ"] for per in record["summary"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
