"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Run from the root of a checkout.  Runs every workload once untraced and
once traced (``--seconds 1``, so one iteration or one pair each) and
checks that the result line has exactly the four keys, that every metric
BENCHMARK.json names is present with its unit and nothing else is, and
that every output was correct.  Then copies BENCHMARK.json and bench/
into an otherwise empty directory and checks that the benchmark refuses
to run there: nonzero exit, no result line.  Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics differ: missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        metric = got.get(name, {})
        if metric.get("unit") != unit or not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{where}: {name} = {metric}, expected a number in {unit}")
    print(f"{where}: {'ok' if not problems else 'FAILED'}", flush=True)
    return problems


def check_refuses_without_package(spec: dict) -> list[str]:
    bare = ROOT / ".bench_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", "mc_realizations", "--seed", "0",
                                 "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"bare directory: {'refused, ok' if ok else 'FAILED'}", flush=True)
    return [] if ok else [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]}"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_refuses_without_package(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    for p in problems:
        print(p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
