"""The four benchmark workloads: inputs built from the workload seed,
one iteration (set-up, runs, output checks) and its headline outputs.

Every config is a copy of an acceptance preset (criteria c06-c10, c12),
frozen here so a change to the package cannot change what the benchmark
feeds it.  Workload seed 0 reproduces the presets' own seeds; seed n
shifts the disorder and sparse-set seeds of c08, c12 and the 2D moments
run by n, and moves the ``sparse_caps`` Bernoulli seeds to the block
40n .. 40n+39.  c09 and c10-pp keep their preset seed 11 at every
workload seed: their verdicts are statistical at these sample sizes and
do not hold at every seed (at preset seeds 11+0 .. 11+19 the c09 fit
found too few reliable bins at 7 seeds and raised, and c10-pp's trend
ratio exceeded 1.2 at one), so a varied seed would turn measured runs
into failed operations without any change to the code.

The package is reached only through its public functions, looked up on
their modules at call time, so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import time
from pathlib import Path

from sparseloc import config, experiments, lattice

WORKLOADS = ("mc_realizations", "large_volume", "quadrature", "sparse_caps")

# seed whose outputs are recorded in reference.json next to the default seed 0
HELD_OUT_SEED = 5

CAPS_SEEDS_PER_SET = 40
# criterion 6: exhaustive centered sub-cubes for nu <= 3, dyadic ones above
CAPS_HALF_SIDE = {1: 31, 2: 15, 3: 7, 4: 16, 5: 30}


def _uniform(lam: float) -> dict:
    return {"law": "uniform", "params": [-1.0, 1.0], "lambda": lam}


def _moments(seed: int, energy: float) -> dict:
    return {
        "kind": "moments",
        "seed": 11 + seed,
        "symbol": {"delta": 1},
        "volume": {"center": [0], "half_side": 200},
        "sparse_set": {"generator": "full_cube", "alpha": 0.5},
        "disorder": _uniform(30.0),
        "query": {"energy": energy, "epsilon": 1e-3, "s": 0.5, "source": [0],
                  "realizations": 200},
        "check_am_bound": True,
    }


def _decay_fit() -> dict:
    # kappa_hat given, as in criterion 13's variant, so run-time decoupling stays out
    return {
        "kind": "decay_fit",
        "seed": 11,
        "symbol": {"delta": 1},
        "volume": {"center": [0], "half_side": 200},
        "sparse_set": {"generator": "full_cube", "alpha": 0.5},
        "disorder": _uniform(30.0),
        "query": {"energy": 5.0, "epsilon": 1e-3, "s": 0.5, "source": [0],
                  "realizations": 800},
        "kappa_hat": 0.61,
    }


_LADDER = [1e-1, 1e-2, 1e-3, 1e-4]


def _simon_wolff_pp() -> dict:
    return {
        "kind": "simon_wolff",
        "seed": 11,
        "symbol": {"delta": 1},
        "volume": {"center": [0], "half_side": 200},
        "sparse_set": {"generator": "full_cube", "alpha": 0.5},
        "disorder": _uniform(30.0),
        "query": {"energy": 5.0, "epsilon": 0.1, "s": 0.5, "source": [0], "realizations": 100},
        "eps_ladder": _LADDER,
        "expect": "pp",
    }


def _simon_wolff_ac(seed: int) -> dict:
    # free operator (empty S, lambda 0): outputs do not depend on the seed
    return {
        "kind": "simon_wolff",
        "seed": 1 + seed,
        "symbol": {"delta": 1},
        "volume": {"center": [0], "half_side": 240000},
        "sparse_set": {"generator": "explicit_list", "alpha": 0.5, "sites": []},
        "disorder": _uniform(0.0),
        "query": {"energy": 1.0, "epsilon": 0.1, "s": 0.5, "source": [0], "realizations": 1},
        "eps_ladder": _LADDER,
        "expect": "ac",
    }


def _edge_scan(seed: int) -> dict:
    return {
        "kind": "edge_scan",
        "seed": 31 + seed,
        "symbol": {"delta": 1},
        "volume": {"center": [0], "half_side": 200},
        "sparse_set": {"generator": "bernoulli_thinned", "alpha": 0.5, "seed": 5 + seed},
        "disorder": {"law": "uniform", "params": [-1.0, 1.0], "weight": {"gamma": 0.5}},
        "realizations": 20,
        "s": 0.5,
        "bin_width": 0.1,
        "contrast": {"offset": 0.5, "min_ratio": 10.0},
    }


def _moments_2d(seed: int) -> dict:
    return {
        "kind": "moments",
        "seed": 11 + seed,
        "symbol": {"delta": 2},
        "volume": {"center": [0, 0], "half_side": 100},
        "sparse_set": {"generator": "full_cube", "alpha": 0.5},
        "disorder": _uniform(30.0),
        "query": {"energy": 5.0, "epsilon": 1e-3, "s": 0.5, "source": [0, 0],
                  "realizations": 4},
        "check_am_bound": True,
    }


def _sparseness(seed: int, weighted: bool) -> dict:
    # deterministic_powers ignores seeds: outputs do not depend on the seed
    cfg = {
        "kind": "sparseness",
        "seed": seed,
        "symbol": {"delta": 5},
        "sparse_set": {"generator": "deterministic_powers", "alpha": 0.25,
                       "half_side": 30, "center": [0, 0, 0, 0, 0]},
        "phi": [{"site": [0, 0, 0, 0, 0], "re": 1.0}],
        "t_max": 64.0,
    }
    if weighted:
        cfg["weight_gamma"] = 0.25
    return cfg


def _thresholds(seed: int) -> dict:
    # no sampling: outputs do not depend on the seed
    return {
        "kind": "thresholds",
        "seed": seed,
        "symbol": {"delta": 1},
        "disorder": _uniform(30.0),
        "s_grid": [0.3, 0.5, 0.7],
        "energies": [5.0],
    }


def config_ops(workload: str, seed: int) -> list[tuple[str, dict, bool]]:
    """(op name, raw config, outputs depend on the seed) for a config workload."""
    if workload == "mc_realizations":
        return [
            ("moments_E3", _moments(seed, 3.0), True),
            ("moments_E5", _moments(seed, 5.0), True),
            ("decay_fit", _decay_fit(), False),
            ("simon_wolff_pp", _simon_wolff_pp(), False),
            ("edge_scan", _edge_scan(seed), True),
        ]
    if workload == "large_volume":
        return [
            ("simon_wolff_ac", _simon_wolff_ac(seed), False),
            ("moments_2d", _moments_2d(seed), True),
        ]
    if workload == "quadrature":
        return [
            ("sparseness_u", _sparseness(seed, False), False),
            ("sparseness_w", _sparseness(seed, True), False),
            ("thresholds", _thresholds(seed), False),
        ]
    raise ValueError(f"{workload} is not a config workload")


# ---------------------------------------------------------------- outputs


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(text: str):
    value = float(text)
    return None if math.isnan(value) else value


def headline(kind: str, out: Path, verdicts: dict) -> dict:
    """The numbers an op is judged by, read back from its artifacts."""
    head = {"verdicts": {k: bool(v) for k, v in sorted(verdicts.items())}}
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if kind in ("moments", "decay_fit"):
        rows = _csv_rows(out / "moments.csv")
        head["moment_means"] = [float(r["mean_absG_s"]) for r in rows]
        head["moment_samples"] = int(rows[0]["n_samples"])
        if kind == "decay_fit":
            head["decay_rate"] = float(summary["rate"])
            head["fit_bins"] = len(summary["distances"])
    elif kind == "simon_wolff":
        rows = _csv_rows(out / "simon_wolff.csv")
        head["sum_g2"] = [float(r["mean_sum_G2"]) for r in rows]
    elif kind == "edge_scan":
        rows = _csv_rows(out / "edge_scan.csv")
        head["bin_counts"] = [int(r["count"]) for r in rows]
        head["median_ipr"] = [_num(r["median_ipr"]) for r in rows]
        head["contrast"] = float(summary["contrast"])
    elif kind == "sparseness":
        head["window_integrals"] = [float(w[2]) for w in summary["windows"]]
        head["profile_rows"] = len(_csv_rows(out / "profile.csv"))
    elif kind == "thresholds":
        rows = _csv_rows(out / "thresholds.csv")
        head["kappa_hat"] = [float(r["kappa_hat"]) for r in rows]
        head["lambda_s"] = [float(r["lambda_threshold"]) for r in rows]
    return head


# Relative tolerance per headline float; counts and verdicts compare exactly.
# kappa_hat and lambda_s: 1e-6, the agreement asked of any faster decoupling
# quadrature.  Window integrals: 1e-6, the window quadrature's own settling
# test.  Monte-Carlo and solver outputs: 1e-8, far above reordered-sum and
# solver round-off yet far below any change of potential, energy or law.
# ABS_FLOOR (times the largest entry of the same list) covers far-tail
# moments that sit near round-off of the solve.
REL_TOL = {
    "kappa_hat": 1e-6,
    "lambda_s": 1e-6,
    "window_integrals": 1e-6,
    "moment_means": 1e-8,
    "decay_rate": 1e-8,
    "sum_g2": 1e-8,
    "median_ipr": 1e-8,
    "contrast": 1e-8,
}
ABS_FLOOR = 1e-12


def compare(got: dict, ref: dict) -> list[str]:
    """Differences between a headline and its reference, as messages."""
    problems = []
    for key, want in ref.items():
        have = got.get(key)
        if key not in REL_TOL:
            if have != want:
                problems.append(f"{key}: {have!r} != reference {want!r}")
            continue
        have_list = have if isinstance(have, list) else [have]
        want_list = want if isinstance(want, list) else [want]
        if have is None or len(have_list) != len(want_list):
            problems.append(f"{key}: shape {have!r} differs from reference")
            continue
        scale = max((abs(w) for w in want_list if w is not None), default=0.0)
        for i, (h, w) in enumerate(zip(have_list, want_list)):
            if (h is None) != (w is None):
                problems.append(f"{key}[{i}]: {h!r} vs reference {w!r}")
            elif w is not None and abs(h - w) > REL_TOL[key] * abs(w) + ABS_FLOOR * scale:
                problems.append(f"{key}[{i}]: {h!r} vs reference {w!r}")
    return problems


def _ref_key(seed: int, seeded: bool) -> str:
    return str(seed) if seeded else "any"


# ---------------------------------------------------------------- iterations


class Op:
    """Outcome of one operation: a config run or one sparse set."""

    def __init__(self, name: str):
        self.name = name
        self.head: dict | None = None
        self.problems: list[str] = []

    @property
    def ok(self) -> bool:
        return self.head is not None and not self.problems

    def as_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "problems": self.problems}


def _run_config(name, raw, out_root: Path):
    """Validate, run and read back one config; returns (op, setup seconds)."""
    op = Op(name)
    t0 = time.perf_counter()
    try:
        cfg = config.validate_config(raw)
    except Exception as exc:  # any raise is a failed operation, reported by name
        op.problems.append(f"validate_config raised {type(exc).__name__}: {exc}")
        return op, time.perf_counter() - t0
    setup = time.perf_counter() - t0
    out = out_root / name
    try:
        manifest = experiments.run_experiment(cfg, out_dir=str(out), threads=1)
        if manifest.status != "ok":
            op.problems.append(f"manifest status {manifest.status}")
        op.head = headline(cfg.kind, out, manifest.verdicts)
    except Exception as exc:
        op.problems.append(f"run raised {type(exc).__name__}: {exc}")
        return op, setup
    for verdict, passed in op.head["verdicts"].items():
        if not passed:
            op.problems.append(f"verdict {verdict} is false, expected true")
    if not op.head["verdicts"]:
        op.problems.append("no verdicts reported")
    return op, setup


def _caps_plan():
    """(nu, cube, alphas, dyadic) per dimension, as criterion 6 lays them out."""
    for nu, half in CAPS_HALF_SIDE.items():
        alphas = (0.3, 0.6) if nu <= 3 else (0.25, 0.3)
        yield nu, lattice.Cube((0,) * nu, half), alphas, nu >= 4


def build_cube_lists() -> dict:
    return {nu: lattice.centered_subcubes(cube, dyadic_only=dyadic)
            for nu, cube, _, dyadic in _caps_plan()}


def _run_caps(seed: int, cube_lists: dict) -> list[tuple[Op, bool]]:
    """One op per sparse set: the deterministic set (seed-free) and the
    Bernoulli sets of this workload seed, for every (nu, alpha)."""
    results = []
    bernoulli = range(CAPS_SEEDS_PER_SET * seed, CAPS_SEEDS_PER_SET * (seed + 1))
    plan = [("deterministic_powers", 0)] + [("bernoulli_thinned", s) for s in bernoulli]
    for nu, cube, alphas, _ in _caps_plan():
        for alpha in alphas:
            for generator, set_seed in plan:
                op = Op(f"caps_nu{nu}_a{alpha}_{generator}_{set_seed}")
                results.append((op, generator == "bernoulli_thinned"))
                try:
                    sparse = lattice.generate_sparse_set(alpha, cube, generator, set_seed)
                    rows = lattice.sparseness_profile(sparse, cube_lists[nu])
                except Exception as exc:
                    op.problems.append(f"raised {type(exc).__name__}: {exc}")
                    continue
                violations = sum(0 if r.passed else 1 for r in rows)
                op.head = {"sites": len(sparse), "rows": len(rows), "violations": violations}
                if violations:
                    op.problems.append(f"{violations} cap violations")
    return results


def run_iteration(workload: str, seed: int, out_root: Path, reference: dict) -> dict:
    """One timed iteration.  ``wall_s`` runs from the raw inputs to the last
    output checked; ``setup_s`` is the part spent building validated inputs."""
    t0 = time.perf_counter()
    if workload == "sparse_caps":
        cube_lists = build_cube_lists()
        setup = time.perf_counter() - t0
        results = _run_caps(seed, cube_lists)
    else:
        results = []
        setup = 0.0
        for name, raw, seeded in config_ops(workload, seed):
            op, op_setup = _run_config(name, raw, out_root)
            setup += op_setup
            results.append((op, seeded))
    compared = 0
    table = reference.get(workload, {})
    for op, seeded in results:
        refs = table.get(_ref_key(seed, seeded))
        if refs is None or op.head is None:
            continue
        want = refs.get(op.name)
        if want is None:
            op.problems.append("op missing from the reference table")
            continue
        op.problems.extend(compare(op.head, want))
        compared += 1
    wall = time.perf_counter() - t0
    shutil.rmtree(out_root, ignore_errors=True)
    return {
        "wall_s": wall,
        "setup_s": setup,
        "ops": [op for op, _ in results],
        "seeded": [seeded for _, seeded in results],
        "compared": compared,
    }


def setup_only(workload: str, seed: int) -> float:
    """Seconds to build the validated inputs once more, nothing run."""
    t0 = time.perf_counter()
    if workload == "sparse_caps":
        build_cube_lists()
    else:
        for _, raw, _ in config_ops(workload, seed):
            config.validate_config(raw)
    return time.perf_counter() - t0
