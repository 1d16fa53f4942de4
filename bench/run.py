"""sparseloc benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload mc_realizations --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each iteration of the workload runs in
a fresh interpreter (bench/iteration.py), one after another, until the
next one would end past ``--seconds``; at least one always runs.  With
``--trace 0``, ``wall_s`` is the mean over the run's iterations (the
host's speed drifts over tens of seconds, and the mean averages the whole
window where a median of three or four keeps one of them), ``setup_s``
the median over every set-up timed in the run and ``peak_rss_mb`` the
median over iterations.  With ``--trace 1`` untraced and traced
iterations alternate in pairs; the per-layer metrics are medians over
the traced ones, and ``trace.overhead_s`` is the mean traced minus the
mean untraced ``wall_s``.

Output: human-readable lines, one ``report`` JSON line (run environment,
seed, per-iteration samples, spread, reference checks), and last the
result line {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 whenever a result is printed, also when outputs were wrong; it is
nonzero without a result when the harness itself cannot run (no package
under ./src, an iteration crashed or timed out).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("mc_realizations", "large_volume", "quadrature", "sparse_caps")
# every run ends well inside the 180 s a run may take
ITERATION_TIMEOUT_S = 150.0
SCRATCH = ".bench_runs"

def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _single_threaded_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: the workloads run threads=1 and a 2-core host is shared
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_iteration(workload: str, seed: int, trace: bool, index: int, deadline: float) -> dict:
    out = ROOT / SCRATCH / f"{os.getpid()}-{index}"
    cmd = [sys.executable, str(BENCH / "iteration.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--out", str(out)]
    timeout = max(1.0, min(ITERATION_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_single_threaded_env(), capture_output=True,
                              text=True, timeout=timeout)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"iteration exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> float | None:
    """(Q3 - Q1) / median, or None below three samples."""
    if len(values) < 3:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else None


def _cpu_record() -> dict:
    rec = {"nproc": os.cpu_count(), "model": platform.processor() or None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                rec["model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            rec["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return rec


def _src_record() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files)
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_py_files": len(files), "src_lines": lines}


def environment(versions: dict) -> dict:
    env = _single_threaded_env()
    return {
        **_src_record(),
        "cpu": _cpu_record(),
        "python": platform.python_version(),
        **versions,
        "blas_threads": {v: env[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "platform": platform.platform(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + 175.0
    untraced, traced = [], []
    step = 0
    while True:
        began = time.monotonic()
        untraced.append(_run_iteration(workload, seed, False, step, deadline))
        step += 1
        if trace:
            traced.append(_run_iteration(workload, seed, True, step, deadline))
            step += 1
        took = time.monotonic() - began
        elapsed = time.monotonic() - start
        if elapsed + took > seconds:
            break
    return {"untraced": untraced, "traced": traced, "elapsed_s": time.monotonic() - start}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sparseloc benchmark: one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "sparseloc" / "__init__.py").is_file():
        print("no package at ./src/sparseloc: run from the root of a sparseloc checkout",
              file=sys.stderr)
        return 2

    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / SCRATCH, ignore_errors=True)

    iterations = runs["untraced"] + runs["traced"]
    attempted = sum(len(it["ops"]) for it in iterations)
    failures = [(op["name"], op["problems"]) for it in iterations for op in it["ops"]
                if not op["ok"]]
    walls = [it["wall_s"] for it in runs["untraced"]]
    setups = [s for it in runs["untraced"] for s in it["setup_samples"]]
    metrics = {}
    correct = not failures
    if args.trace:
        layer_runs = [it["layers"] for it in runs["traced"]]
        for name in layer_runs[0]:
            values = [lr[name] for lr in layer_runs]
            unit = _layer_unit(name)
            if unit in ("count", "bytes") and len(set(values)) != 1:
                print(f"count {name} differs between traced iterations: {values}")
                correct = False
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        traced_walls = [it["wall_s"] for it in runs["traced"]]
        metrics["trace.overhead_s"] = {
            "value": statistics.fmean(traced_walls) - statistics.fmean(walls), "unit": "s"}
    else:
        metrics["wall_s"] = {"value": statistics.fmean(walls), "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": statistics.median(it["maxrss_mb"] for it in runs["untraced"]), "unit": "MB"}

    fail_frac = len(failures) / attempted if attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  iterations {len(walls)} untraced, "
          f"{len(runs['traced'])} traced  in {runs['elapsed_s']:.1f} s")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':34s} {fail_frac:.6g} ratio  ({len(failures)} of {attempted} ops)")
    for name, problems in failures[:10]:
        print(f"  FAILED {name}: {'; '.join(problems)[:300]}")
    report = {
        "report": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "fail_frac": fail_frac,
            "iterations": len(walls),
            "wall_s_samples": walls,
            "setup_s_sample_count": len(setups),
            "setup_s_per_iteration": [statistics.median(it["setup_samples"])
                                      for it in runs["untraced"]],
            "peak_rss_mb_samples": [it["maxrss_mb"] for it in runs["untraced"]],
            "wall_s_spread": _spread(walls),
            "setup_s_spread": _spread(setups),
            "ops_checked_against_reference": sum(it["compared"] for it in iterations),
            "environment": environment(iterations[0]["versions"]),
        }
    }
    if args.trace:
        report["report"]["call_tree"] = runs["traced"][0]["call_tree"]
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
