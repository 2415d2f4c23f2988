"""The steinerlab benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): selftest, restriction, interpolation,
cone-arith.  Everything is measured from outside the program, in this one
process, which starts no threads; BLAS threads are capped at the CPU count.

--trace 0 prints the end-to-end metrics: setup_s (median cold start of the
workload's cheapest CLI certificate), and wall_s, cpu_s, peak_rss_mb and
pass_share over untraced passes after a warm-up pass.  --trace 1 alternates
untraced and traced passes and prints the per-layer metrics, with
trace.overhead_s = median traced pass minus median untraced pass; the spans
of one traced pass are written to .bench_out/trace-<workload>-<seed>.json.gz.

Every output is checked against an independent oracle, and every result is
hashed into a certificate digest; a result that differs between two passes
of one seed is a failed operation.  The last line of stdout is the JSON
result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

COLD_STARTS = 9  # per run; one cold start varies about 15%
MIN_PASSES = 3
PROBE_SECONDS = 0.5

# the cheapest certificate each workload's users would ask the CLI for,
# with the part of its payload that must come back
CHEAPEST = {
    "selftest": (["slopes", "--N", "2", "--count", "6"], lambda r: len(r) == 6 and r[3] == {"num": "8", "den": "13"}),
    "restriction": (["matrix-iso", "--dim", "3", "--a", "1", "--b", "3", "--trials", "1"], lambda r: r["per_seed"] == [True]),
    "interpolation": (["interpolation", "--r", "2", "--s", "0", "--trials", "1"], lambda r: r["per_seed"] == [True]),
    "cone-arith": (["cone", "--n", "142"], lambda r: r["case"] == "open" and r["possibility1"]["slope"] == {"num": "277", "den": "18"}),
}


def cap_blas_threads() -> str:
    """Never let BLAS start more threads than there are CPUs to run them."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        raw = os.environ.get(var, "")
        if not raw.isdigit() or int(raw) > NPROC or int(raw) < 1:
            os.environ[var] = str(NPROC)
    return os.environ["OPENBLAS_NUM_THREADS"]


def environment(seed: int, blas_threads: str) -> dict:
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"l{level}"] = size

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(blas_threads),
        "nproc": NPROC,
        "cpu": cpu,
        "caches": caches,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# cold starts


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _timed_child(argv: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed, proc.stdout


def cli_cold_start(workload: str, runner: "Runner") -> float:
    """Seconds for one fresh `python -m steinerlab.cli <cheapest> --json`;
    a wrong certificate is a failed operation."""
    args, ok = CHEAPEST[workload]
    argv = [sys.executable, "-m", "steinerlab.cli", *args, "--json"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    runner.attempted += 1
    try:
        cert = json.loads(proc.stdout)
        good = proc.returncode == 0 and cert["status"] == "ok" and ok(cert["result"])
    except (ValueError, KeyError, TypeError, IndexError):
        good = False
    if not good:
        runner.failed.append((f"cli {' '.join(args)}", f"exit {proc.returncode}: {(proc.stdout + proc.stderr)[-300:]}"))
    return elapsed


def interp_start() -> float:
    return _timed_child([sys.executable, "-c", "pass"])[0]


def import_time() -> float:
    """In-process seconds of `import steinerlab.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import steinerlab.cli; print(time.perf_counter() - t)"
    return float(_timed_child([sys.executable, "-c", code])[1])


def median_of(fn, count: int) -> float:
    fn()  # the first start in a checkout compiles bytecode; not measured
    return statistics.median(fn() for _ in range(count))


# ---------------------------------------------------------------------------
# passes


class Runner:
    """Runs passes over a workload's operations and keeps the accounts."""

    def __init__(self, workload, canon):
        self.w = workload
        self.canon = canon
        self.attempted = 0
        self.failed: list[tuple[str, str]] = []
        self.known: dict[str, str] = {}
        self.digests: dict[str, str] | None = None
        self.certificate = ""

    def run_pass(self, ops, tracer=None) -> tuple[float, float]:
        """One pass; returns (wall seconds, CPU seconds).  Oracles run after
        the clock stops."""
        results = {}
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in ops:
            if tracer is not None:
                tracer.op = op.key
            try:
                results[op.key] = op.call()
            except Exception as exc:  # counted as a failed operation below
                results[op.key] = exc
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self._account(results)
        return wall, cpu

    def run_probes(self):
        """Operations that do not finish today, each under a time limit."""
        results = {}

        def expire(signum, frame):
            raise TimeoutError()

        old = signal.signal(signal.SIGALRM, expire)
        try:
            for op in self.w.probes:
                signal.setitimer(signal.ITIMER_REAL, PROBE_SECONDS)
                try:
                    results[op.key] = op.call()
                except Exception as exc:
                    results[op.key] = exc
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, old)
        self._account(results, digest=False)

    def _account(self, results, digest=True):
        self.attempted += len(results)
        bad, known = self.w.check(results)
        failed = dict(bad)
        self.known.update(known)
        if digest:
            texts = {k: self.canon(k, v) for k, v in results.items()}
            if self.digests is None:
                self.digests = texts
                h = hashlib.sha256()
                for key in sorted(texts):
                    h.update(texts[key].encode() + b"\n")
                self.certificate = h.hexdigest()
            else:
                for key, text in texts.items():
                    if text != self.digests.get(key):
                        failed.setdefault(key, f"result differs between passes: {text[:200]}")
        self.failed += sorted(failed.items())


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from spans import Tracer, median_metrics

    w = workloads.WORKLOADS[workload_name](seed)
    runner = Runner(w, workloads.canon)
    metrics = {}
    if trace:
        metrics["cli.interp_s"] = (median_of(interp_start, COLD_STARTS), "s")
        metrics["cli.import_s"] = (median_of(import_time, COLD_STARTS), "s")
    else:
        metrics["setup_s"] = (median_of(lambda: cli_cold_start(workload_name, runner), COLD_STARTS), "s")

    if w.probes:
        runner.run_probes()
    runner.run_pass(w.ops)  # warm-up; also the reference certificate

    walls, cpus, traced_walls, layers = [], [], [], []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    step = 0.0  # seconds the last loop iteration took
    # start another iteration only if it should end by the deadline
    while len(walls) < MIN_PASSES or time.perf_counter() + step < deadline:
        t0 = time.perf_counter()
        wall, cpu = runner.run_pass(w.ops)
        walls.append(wall)
        cpus.append(cpu)
        if trace:
            tracer.reset()
            tracer.install()
            try:
                traced_walls.append(runner.run_pass(w.ops, tracer)[0])
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics())
            span_dump = tracer.dump()
        step = time.perf_counter() - t0

    if trace:
        per_layer = median_metrics(layers)
        for name, unit in layer_units().items():
            metrics[name] = (per_layer.get(name, 0), unit)
        metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls), "s")
        OUT_DIR.mkdir(exist_ok=True)
        with gzip.open(OUT_DIR / f"trace-{workload_name}-{seed}.json.gz", "wt") as fh:
            json.dump({"workload": workload_name, "seed": seed, "spans": span_dump}, fh)
    else:
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["cpu_s"] = (statistics.median(cpus), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["pass_share"] = (1 - len(runner.failed) / runner.attempted, "share")
    print("pass wall seconds: untraced " + " ".join(f"{x:.3f}" for x in walls)
          + ("; traced " + " ".join(f"{x:.3f}" for x in traced_walls) if trace else ""))
    return {"runner": runner, "metrics": metrics, "passes": len(walls) + len(traced_walls) + 1}


def layer_units() -> dict[str, str]:
    """Units of the span-derived per-layer metrics named in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured_apart = ("cli.interp_s", "cli.import_s", "trace.overhead_s")
    return {m["name"]: m["unit"] for m in spec["per_layer"] if m["name"] not in measured_apart}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["selftest", "restriction", "interpolation", "cone-arith"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "steinerlab" / "__init__.py").is_file():
        print(f"error: no steinerlab sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))

    env = environment(args.seed, blas_threads)
    print("environment: " + json.dumps(env, sort_keys=True))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    runner, metrics = out["runner"], out["metrics"]

    print(f"workload {args.workload} seed {args.seed}: {out['passes']} passes, "
          f"{runner.attempted} operations, {len(runner.failed)} failed "
          f"(fail_share {len(runner.failed) / runner.attempted:.6f}), {len(runner.known)} known defects")
    print(f"certificate sha256 {runner.certificate}")
    for key, text in runner.failed[:20]:
        print(f"FAILED {key}: {text}")
    by_item: dict[str, list[str]] = {}
    for key, text in sorted(runner.known.items()):
        by_item.setdefault(text.split(":")[0], []).append(f"{key}: {text}")
    for item, lines in sorted(by_item.items()):
        print(f"known defect {item} (ROADMAP open item 3): {len(lines)} operations")
        for line in lines:
            print(f"  {line[:300]}")
    shown = dict(metrics)
    if not args.trace:
        shown["fail_share"] = (len(runner.failed) / runner.attempted, "share")
    for name, (value, unit) in shown.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    result = {
        "correct": not runner.failed,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
