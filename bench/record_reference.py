"""Record the reference outputs every benchmark iteration is checked against.

    python3 bench/record_reference.py

Run from the root of a checkout whose outputs are trusted.  Records each
op's headline outputs (verdicts, counts, headline numbers) at the default
workload seed 0 and at the held-out seed.  Ops whose outputs cannot
depend on the seed are stored once under "any" and apply to every seed;
the held-out run must reproduce them.  Writes bench/reference.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402

OUT = Path(__file__).with_name("reference.json")
SCRATCH = Path(".bench_runs") / "record"


def main() -> int:
    table: dict = {}
    for workload in workloads.WORKLOADS:
        by_key: dict = {}
        for seed in (0, workloads.HELD_OUT_SEED):
            result = workloads.run_iteration(workload, seed, SCRATCH, {})
            for op, seeded in zip(result["ops"], result["seeded"]):
                if not op.ok:
                    print(f"{workload} seed {seed}: {op.name} failed: {op.problems}")
                    return 1
                key = str(seed) if seeded else "any"
                if key in by_key and op.name in by_key[key]:
                    drift = workloads.compare(op.head, by_key[key][op.name])
                    if drift:
                        print(f"{workload}: seed-free op {op.name} moved with the seed: {drift}")
                        return 1
                    continue
                by_key.setdefault(key, {})[op.name] = op.head
            print(f"{workload} seed {seed}: {len(result['ops'])} ops in {result['wall_s']:.1f} s")
        table[workload] = by_key
    OUT.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
