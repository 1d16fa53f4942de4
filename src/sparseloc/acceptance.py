"""Desk-scale acceptance suite.

Thirteen named criteria, each returning a pass/fail verdict with a
one-line numeric summary.  The CLI ``verify`` subcommand runs them and
prints one line per criterion; the pytest suite asserts them one by one.

The preset criteria (7-10, 12) are rows over ``_run_preset``, which runs
a preset into ``workdir/<artifact directory>`` and returns its summary:
7, 8 and 10 are tables of (label, directory, config, verdict key) rows;
9 and 12 format numbers from the summary (9 reads kappa_hat from it).

Criterion 2 checks the Neumann fractional bound twice: it must dominate
the directly computed fractional row-sum of the free resolvent at
E = 3, 4, 6, and its value at E = 3 must match the closed form
|E|^(-s) / (1 - ||H0||_s^s / |E|^s) = 3^-0.9 / (1 - 2/3^0.9).  A 1/|E|
prefactor instead of |E|^(-s) is not a bound (the direct sum exceeds it
at E = 4 and E = 6, e.g. 0.6147 > 0.5873) and fails both clauses.
"""

from __future__ import annotations

import filecmp
import itertools
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from .config import validate_config
from .disorder import DisorderModel, UniformLaw
from .errors import ConfigError
from .dynamics import (
    axis_factor_bessel,
    axis_factor_table,
    kernel_elements,
    light_cone,
    verify_offdiagonal_decay,
    verify_time_decay,
)
from .experiments import run_experiment
from .lattice import (
    Cube,
    centered_subcubes,
    generate_sparse_set,
    max_norm,
    sparse_set_from_sites,
    sparseness_profile,
)
from .operators import delta_symbol, neumann_fractional_bound, s_norm
from .resolvent import RealizationEngine, lambda_threshold, theorem2_cube

PINNED_NEUMANN_E3 = 1.4537516965565431  # 3^-0.9 / (1 - 2/3^0.9): |E|^(-s) / (1 - ||H0||_s^s/|E|^s)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str


def criterion_01_s_norm_exactness(workdir, threads=1) -> CriterionResult:
    worst = 0.0
    for nu in (1, 2, 3):
        for s in (0.3, 0.5, 0.9):
            exact = (2.0 * nu) ** (1.0 / s)
            rel = abs(s_norm(delta_symbol(nu), s) - exact) / exact
            worst = max(worst, rel)
    return CriterionResult(
        1, "s-norm exactness (2 nu)^(1/s)", worst < 1e-12, f"worst rel err {worst:.2e}"
    )


def criterion_02_neumann_domination(workdir, threads=1) -> CriterionResult:
    delta = delta_symbol(1)
    # lambda = 0 on an empty S: the engine's rows are rows of the free resolvent
    engine = RealizationEngine(delta, Cube((0,), 1000), sparse_set_from_sites([], 0.5, 1),
                               DisorderModel(UniformLaw(-1.0, 1.0), coupling=0.0), (0,))
    free = engine.diagonals(range(1))
    s = 0.9
    dominated = True
    details = []
    for energy in (3.0, 4.0, 6.0):
        row = engine.green_rows(complex(energy, 1e-6), free)[0][0]
        direct = float(np.sum(np.abs(row) ** s))
        bound = neumann_fractional_bound(delta, energy, s)
        holds = direct <= bound
        dominated = dominated and holds
        details.append(f"E={energy:g}: direct {direct:.6f} {'<=' if holds else '>'} bound "
                       f"{bound:.6f}{'' if holds else ' (FAILS: not dominated)'}")
    pinned = neumann_fractional_bound(delta, 3.0, s)
    value_clause = abs(pinned - PINNED_NEUMANN_E3) < 1e-6
    details.append(
        f"pinned-value clause: bound(3)={pinned:.7f} vs pinned {PINNED_NEUMANN_E3:.7f} "
        f"({'ok' if value_clause else 'FAILS: bound(3) no longer matches the |E|^(-s) closed form'})"
    )
    return CriterionResult(
        2, "Neumann fractional-sum domination", dominated and value_clause, "; ".join(details)
    )


def criterion_03_propagator(workdir, threads=1) -> CriterionResult:
    worst = 0.0
    worst_unitarity = 0.0
    times = (0.5, 1.0, 5.0, 20.0)
    for nu in (1, 2):
        spec = delta_symbol(nu)
        box = list(itertools.product(range(-30, 31), repeat=nu))
        for t, kernel in zip(times, kernel_elements(spec, box, times).tolist()):
            for off, value in zip(box, kernel):
                oracle = 1.0 + 0.0j
                for axis in range(nu):
                    oracle *= axis_factor_bessel(1, 1.0, t, off[axis])
                worst = max(worst, abs(value - oracle))
            table = axis_factor_table(spec, 0, t, int(light_cone(t, spec.axis_derivative_sup(0))))
            worst_unitarity = max(worst_unitarity, abs(np.sum(np.abs(table) ** 2) - 1.0))
    passed = worst < 1e-8 and worst_unitarity < 1e-8
    return CriterionResult(
        3,
        "propagator vs Bessel product + unitarity",
        passed,
        f"max |quad - bessel| {worst:.2e}; max |sum|k|^2 - 1| {worst_unitarity:.2e}",
    )


def criterion_04_time_decay_exponents(workdir, threads=1) -> CriterionResult:
    t_grid = np.geomspace(50.0, 800.0, 25)
    fits = verify_time_decay(delta_symbol(1), t_grid)
    fit = fits[0]
    passed = fit.max_pass and fit.fixed_pass
    return CriterionResult(
        4,
        "stationary-phase exponents -1/3 (max) and -1/2 (d=0)",
        passed,
        f"max slope {fit.max_slope:.4f} (target {fit.max_target:.4f}), "
        f"d=0 slope {fit.fixed_slope:.4f} (target {fit.fixed_target:.4f})",
    )


def criterion_05_offdiagonal_regime(workdir, threads=1) -> CriterionResult:
    check = verify_offdiagonal_decay(delta_symbol(1), 5.0, [(d,) for d in range(20, 61)])
    violations = [r for r in check.rows if not r.passed]
    return CriterionResult(
        5,
        "cubic envelope in the admissible regime (t=5)",
        not violations,
        f"{len(check.rows)} admissible offsets from |d|={check.admissible_from}, "
        f"{len(violations)} violations, C={check.calibration:.4g}",
    )


def criterion_06_sparse_caps(workdir, threads=1) -> CriterionResult:
    exhaustive = {1: 31, 2: 15, 3: 7}
    sampled = {4: 16, 5: 30}
    violations = 0
    checked = 0
    for nu, half in {**exhaustive, **sampled}.items():
        cube = Cube((0,) * nu, half)
        cubes = centered_subcubes(cube, dyadic_only=nu in sampled)
        alphas = (0.3, 0.6) if nu <= 3 else (0.25, 0.3)
        for alpha in alphas:
            sets = [generate_sparse_set(alpha, cube, "deterministic_powers", 0)]
            for seed in range(100):
                sets.append(generate_sparse_set(alpha, cube, "bernoulli_thinned", seed))
            for sparse in sets:
                rows = sparseness_profile(sparse, cubes)
                checked += len(rows)
                violations += sum(0 if r.passed else 1 for r in rows)
    return CriterionResult(
        6,
        "sparse-set cap on centered sub-cubes (100 seeds)",
        violations == 0,
        f"{checked} cap rows checked, {violations} violations",
    )


def _run_preset(workdir, name, raw, threads) -> dict:
    """Validate and run the preset ``raw`` into ``workdir/name``; its parsed
    ``summary.json``, verdicts included."""
    out = Path(workdir) / name
    run_experiment(validate_config(raw), out_dir=str(out), threads=threads)
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


def _verdict_criterion(index: int, name: str, rows):
    """A criterion that runs one preset per row, (detail label, artifact
    directory, config, verdict key), and passes when every verdict holds."""
    def criterion(workdir, threads=1) -> CriterionResult:
        oks = [_run_preset(workdir, directory, raw, threads)["verdicts"].get(key, False)
               for _, directory, raw, key in rows]
        details = "; ".join(f"{label}{ok}" for (label, *_), ok in zip(rows, oks))
        return CriterionResult(index, name, all(oks), details)
    return criterion


def _lambda30(kind, energy, epsilon, realizations, half_side=200, **fields) -> dict:
    """The 1D uniform lambda = 30 preset with S the full cube, at s = 0.5."""
    return {
        "kind": kind,
        "seed": 11,
        "symbol": {"delta": 1},
        "volume": {"center": [0], "half_side": half_side},
        "sparse_set": {"generator": "full_cube", "alpha": 0.5},
        "disorder": {"law": "uniform", "params": [-1.0, 1.0], "lambda": 30.0},
        "query": {"energy": energy, "epsilon": epsilon, "s": 0.5, "source": [0],
                  "realizations": realizations},
        **fields,
    }


def sparseness_config(weight: bool, t_max: float = 64.0) -> dict:
    cfg = {
        "kind": "sparseness",
        "seed": 0,
        "symbol": {"delta": 5},
        "sparse_set": {
            "generator": "deterministic_powers",
            "alpha": 0.25,
            "half_side": 30,
            "center": [0, 0, 0, 0, 0],
        },
        "phi": [{"site": [0, 0, 0, 0, 0], "re": 1.0}],
        "t_max": t_max,
    }
    if weight:
        cfg["weight_gamma"] = 0.25
    return cfg


criterion_07_sparseness_integral = _verdict_criterion(
    7, "sparseness integral dyadic-window convergence (nu=5)",
    [(f"{label}: converging=", f"sparseness_{tag}", sparseness_config(weight), "converging")
     for label, tag, weight in (("unweighted", "u", False), ("weighted", "w", True))],
)


def moments_config(energy: float, realizations: int = 200, check_am: bool = True) -> dict:
    return _lambda30("moments", energy, 1e-3, realizations, check_am_bound=check_am)


criterion_08_am_uniform_bound = _verdict_criterion(
    8, "uniform fractional-moment bound (lambda=30)",
    [(f"E={energy:g}: within bound + 2 stderr = ", f"moments_E{energy:g}",
      moments_config(energy), "am_bound") for energy in (3.0, 5.0)],
)


def decay_fit_config(realizations: int = 800, half_side: int = 200) -> dict:
    return _lambda30("decay_fit", 5.0, 1e-3, realizations, half_side)


def criterion_09_localization_decay(workdir, threads=1) -> CriterionResult:
    summary = _run_preset(workdir, "decay_fit", decay_fit_config(), threads)
    delta = delta_symbol(1)
    lam_hat = lambda_threshold(delta, 0.5, summary["kappa_hat"])
    regime_ok = 30.0 >= 2.0 * lam_hat and abs(5.0 - 1.25 * s_norm(delta, 0.5)) < 1e-12
    fit_ok = summary["verdicts"].get("decay_rate", False)
    passed = regime_ok and fit_ok
    details = (f"lambda=30 >= 2 lambda_s = {2 * lam_hat:.2f}; "
               f"fitted rate {summary['rate']:.3f} <= log k_s + 0.05 = "
               f"{summary['log_k_s'] + 0.05:.3f}: {fit_ok}")
    return CriterionResult(9, "geometric decay of fractional moments", passed, details)


def simon_wolff_config(branch: str) -> dict:
    if branch == "ac":
        return {
            "kind": "simon_wolff",
            "seed": 1,
            "symbol": {"delta": 1},
            "volume": {"center": [0], "half_side": 240000},
            "sparse_set": {"generator": "explicit_list", "alpha": 0.5, "sites": []},
            "disorder": {"law": "uniform", "params": [-1.0, 1.0], "lambda": 0.0},
            "query": {"energy": 1.0, "epsilon": 0.1, "s": 0.5, "source": [0], "realizations": 1},
            "eps_ladder": [1e-1, 1e-2, 1e-3, 1e-4],
            "expect": "ac",
        }
    return _lambda30("simon_wolff", 5.0, 0.1, 100,
                     eps_ladder=[1e-1, 1e-2, 1e-3, 1e-4], expect="pp")


criterion_10_simon_wolff = _verdict_criterion(
    10, "Simon-Wolff trend contrast (free a.c. vs localized)",
    [(f"{branch}: ", f"sw_{branch}", simon_wolff_config(branch), f"{branch}_trend")
     for branch in ("ac", "pp")],
)


def criterion_11_theorem2_cube(workdir, threads=1) -> CriterionResult:
    sparse = sparse_set_from_sites([(i,) for i in range(-10, 11)], 0.5, 1)
    result = theorem2_cube((0,), 0.5, 1.0, delta_symbol(1), 1.0, sparse)
    algebraic_ok = result.radius == 3
    rng = np.random.Generator(np.random.Philox(20240808))
    mismatches = 0
    for _ in range(50):
        nu = int(rng.integers(1, 3))
        delta = delta_symbol(nu)
        gamma = float(rng.uniform(0.3, 2.0))
        s = float(rng.uniform(0.3, 0.9))
        kappa = float(rng.uniform(0.5, 1.5))
        center = tuple(int(c) for c in rng.integers(-3, 4, size=nu))
        n_sites = int(rng.integers(1, 30))
        sites = {tuple(int(c) for c in rng.integers(-12, 13, size=nu)) for _ in range(n_sites)}
        sp = sparse_set_from_sites(list(sites), 0.5, nu)
        got = theorem2_cube(center, s, gamma, delta, kappa, sp)
        threshold = s_norm(delta, s) ** s
        brute = 0
        for radius in range(0, 64):
            outside = [m for m in sp.coords.tolist() if max_norm(m, center) > radius]
            if all((1.0 + max_norm(m)) ** (gamma * s) * kappa > threshold for m in outside):
                brute = radius
                break
        if got.radius != brute:
            mismatches += 1
    return CriterionResult(
        11,
        "smallest clearing cube: algebra + brute force",
        algebraic_ok and mismatches == 0,
        f"algebraic radius {result.radius} (expected 3); {mismatches}/50 brute-force mismatches",
    )


def edge_scan_config(half_side: int = 200, realizations: int = 20) -> dict:
    return {
        "kind": "edge_scan",
        "seed": 31,
        "symbol": {"delta": 1},
        "volume": {"center": [0], "half_side": half_side},
        "sparse_set": {"generator": "bernoulli_thinned", "alpha": 0.5, "seed": 5},
        "disorder": {"law": "uniform", "params": [-1.0, 1.0], "weight": {"gamma": 0.5}},
        "realizations": realizations,
        "s": 0.5,
        "bin_width": 0.1,
        "contrast": {"offset": 0.5, "min_ratio": 10.0},
    }


def criterion_12_mobility_edge_contrast(workdir, threads=1) -> CriterionResult:
    summary = _run_preset(workdir, "edge_scan", edge_scan_config(), threads)
    ok = summary["verdicts"].get("ipr_contrast", False)
    details = (f"outer median {summary.get('outer_median', float('nan')):.4f} vs center "
               f"{summary.get('center_median', float('nan')):.5f}: contrast "
               f"{summary.get('contrast', float('nan')):.1f}x >= 10x: {ok}")
    return CriterionResult(12, "mobility-edge IPR contrast (weighted sparse model)", ok, details)


def _thread_variant_configs() -> list[dict]:
    theorem2 = {
        "kind": "theorem2_cube",
        "seed": 0,
        "symbol": {"delta": 1},
        "sparse_set": {
            "generator": "explicit_list",
            "alpha": 0.5,
            "sites": [[i] for i in range(-10, 11)],
        },
        "center": [0],
        "s": 0.5,
        "gamma": 1.0,
        "kappa_hat": 1.0,
    }
    return [
        sparseness_config(False, t_max=16.0),
        moments_config(5.0, realizations=60, check_am=False),
        decay_fit_config(realizations=400, half_side=50) | {"kappa_hat": 0.61},
        _lambda30("simon_wolff", 5.0, 0.1, 30, half_side=50,
                  eps_ladder=[1e-1, 1e-2, 1e-3], expect="pp"),
        theorem2,
        edge_scan_config(half_side=50, realizations=20),
    ]


def criterion_13_reproducibility(workdir, threads=1) -> CriterionResult:
    base = Path(workdir)
    mismatched = []
    for cfg_raw in _thread_variant_configs():
        kind = cfg_raw["kind"]
        dirs = []
        for n_threads in (1, 4, 8):
            out = base / f"repro_{kind}_t{n_threads}"
            if out.exists():
                shutil.rmtree(out)
            run_experiment(validate_config(cfg_raw), out_dir=str(out), threads=n_threads)
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir() if p.name != "manifest.json")
        for other in dirs[1:]:
            _, mismatch, errors = filecmp.cmpfiles(dirs[0], other, names, shallow=False)
            if mismatch or errors:
                mismatched.append(f"{kind}: {mismatch or errors}")
    return CriterionResult(
        13,
        "byte-identical artifacts under 1/4/8 threads",
        not mismatched,
        "all artifact bytes identical" if not mismatched else "; ".join(mismatched),
    )


CRITERIA = {
    1: criterion_01_s_norm_exactness,
    2: criterion_02_neumann_domination,
    3: criterion_03_propagator,
    4: criterion_04_time_decay_exponents,
    5: criterion_05_offdiagonal_regime,
    6: criterion_06_sparse_caps,
    7: criterion_07_sparseness_integral,
    8: criterion_08_am_uniform_bound,
    9: criterion_09_localization_decay,
    10: criterion_10_simon_wolff,
    11: criterion_11_theorem2_cube,
    12: criterion_12_mobility_edge_contrast,
    13: criterion_13_reproducibility,
}


def run_acceptance(indices=None, workdir=None, threads: int = 1, printer=print):
    """Run the selected criteria (all by default), printing one line each.

    Artifacts go under ``workdir``; without one, under a temporary
    directory that is removed when the run ends, passed or failed.
    """
    unknown = sorted(set(indices or ()) - CRITERIA.keys())
    if unknown:
        raise ConfigError([("--criteria", f"unknown criteria {', '.join(map(str, unknown))}; "
                                          f"the criteria are 1-{len(CRITERIA)}")])
    if threads < 1:
        raise ConfigError([("--threads", f"must be >= 1, got {threads}")])
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="sparseloc-acceptance-") as scratch:
            return run_acceptance(indices, scratch, threads, printer)
    results = []
    for idx, fn in CRITERIA.items():
        if indices and idx not in indices:
            continue
        result = fn(workdir=workdir, threads=threads)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        printer(f"{status} criterion {result.index:2d}: {result.name} -- {result.details}")
    return results
