"""Run one benchmark iteration in this process and print its outcome as
one JSON line.

run.py starts a fresh interpreter for every iteration, so the process's
peak resident memory (ru_maxrss) belongs to that iteration alone and
every iteration pays the same cold-start costs a CLI user pays.

    python3 bench/iteration.py --workload mc_realizations --seed 0 --trace 0

Run from the root of a checkout: the package is imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import sparseloc  # noqa: E402

import spans  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import workloads  # noqa: E402

REFERENCE = Path(__file__).with_name("reference.json")
SETUP_REPEAT_S = 0.3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="scratch directory for artifacts")
    args = parser.parse_args(argv)

    if not Path(sparseloc.__file__).resolve().is_relative_to(ROOT.resolve()):
        print(f"sparseloc imported from {sparseloc.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    result = workloads.run_iteration(args.workload, args.seed, Path(args.out), reference)
    del result["seeded"]
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ops"] = [op.as_json() for op in result["ops"]]
    # set-up is a small share of an iteration (under a millisecond for
    # quadrature), so it is timed again here until SETUP_REPEAT_S has gone
    # by; the median over all of them is steadier than the one in-wall
    # sample.  Not in traced iterations: the repeats would change counts.
    result["setup_samples"] = [result.pop("setup_s")]
    if tracer is None:
        began = time.perf_counter()
        while True:
            result["setup_samples"].append(workloads.setup_only(args.workload, args.seed))
            if time.perf_counter() - began >= SETUP_REPEAT_S:
                break
    else:
        result["layers"] = spans.layer_metrics(tracer)
        result["call_tree"] = tracer.call_tree()
    result["versions"] = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": numpy.__config__.CONFIG.get("Build Dependencies", {})
        .get("blas", {}).get("version"),
        "sparseloc": sparseloc.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
