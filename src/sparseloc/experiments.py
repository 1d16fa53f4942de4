"""Experiment pipelines: dispatch a validated config, write CSV/JSON
artifacts and a manifest, atomically.

Artifacts are staged in a scratch directory and renamed into place only
after the pipeline finishes; on failure the partial files are kept under
``<out>/failed`` together with a manifest naming the failure site.  A
rerun into the same directory clears what the last run left: an ok run
removes a stale ``failed/``, a failed run replaces it and removes the
previous manifest and the files it lists.
Floats are formatted with 17 significant digits so rerunning a config
with the same seed reproduces byte-identical CSV bodies regardless of
the thread count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .dynamics import cook_integrand, kernel_elements, sparseness_integral
from .lattice import centered_subcubes, sparseness_profile, sparse_set_to_text
from .operators import kernel_decay_check, periodized_gaussian, s_norm
from .resolvent import (
    GreenQuery,
    am_uniform_bound,
    decay_rate_fit,
    estimate_decoupling,
    fractional_moment_estimate,
    k_s,
    lambda_threshold,
    simon_wolff_proxy,
    theorem2_cube,
)
from .spectra import mobility_edge_scan


def fmt_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    kind: str
    config_hash: str
    seed: int
    version: str
    wall_time_s: float
    files: tuple
    verdicts: dict
    status: str
    failure: str | None = None

    @property
    def all_passed(self) -> bool:
        return self.status == "ok" and all(self.verdicts.values())


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def _remove_previous_run(out: Path) -> None:
    """Delete the manifest of an earlier successful run in ``out`` and the
    files it lists, so a failed rerun leaves no stale "ok" beside
    ``failed/``.  Nothing the manifest does not name is touched."""
    manifest = out / "manifest.json"
    try:
        listed = json.loads(manifest.read_text(encoding="utf-8")).get("files", [])
    except (OSError, ValueError, AttributeError):
        return
    for entry in listed:
        name = entry[0] if isinstance(entry, list) and entry else None
        if isinstance(name, str) and Path(name).name == name and (out / name).is_file():
            (out / name).unlink()
    manifest.unlink()


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | None = None, threads: int | None = None
) -> RunManifest:
    """Execute the config's pipeline and persist artifacts + manifest."""
    out = Path(out_dir or cfg.out or os.path.join("runs", cfg.kind))
    threads = threads if threads is not None else cfg.threads
    stage = out.parent / (out.name + f".staging-{os.getpid()}")
    if stage.exists():
        shutil.rmtree(stage)
    stage.mkdir(parents=True)
    config_hash = hashlib.sha256(cfg.canonical_json().encode()).hexdigest()
    start = time.time()
    try:
        verdicts, summary = _RUNNERS[cfg.kind](cfg, stage, threads)
    except Exception as exc:
        _remove_previous_run(out)
        failed = out / "failed"
        shutil.rmtree(failed, ignore_errors=True)  # an earlier failed run's files
        failed.mkdir(parents=True)
        for item in sorted(stage.iterdir()):
            os.replace(item, failed / item.name)
        stage.rmdir()
        manifest = RunManifest(
            cfg.kind, config_hash, cfg.seed, __version__, time.time() - start,
            tuple(), {}, "failed", f"{type(exc).__name__}: {exc}",
        )
        write_json(failed / "manifest.json", _json_safe(asdict(manifest)))
        raise
    summary["verdicts"] = verdicts
    write_json(stage / "summary.json", _json_safe(summary))
    out.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(out / "failed", ignore_errors=True)  # left by an earlier failed run
    files = []
    for item in sorted(stage.iterdir()):
        target = out / item.name
        os.replace(item, target)
        files.append((item.name, _sha256(target), target.stat().st_size))
    stage.rmdir()
    manifest = RunManifest(
        cfg.kind, config_hash, cfg.seed, __version__, time.time() - start,
        tuple(files), verdicts, "ok",
    )
    write_json(out / "manifest.json", _json_safe(asdict(manifest)))
    return manifest


def _run_norms(cfg, stage, threads):
    o = cfg.objects
    rows = [(s, s_norm(o["spec"], s)) for s in o["s_grid"]]
    write_csv(stage / "norms.csv", ["s", "norm"], rows)
    return {}, {"dim": o["spec"].dim}


def _run_kernel(cfg, stage, threads):
    o = cfg.objects
    spec = o["spec"]
    header = [f"d{i+1}" for i in range(spec.dim)] + ["amplitude"]
    write_csv(stage / "kernel.csv", header, [off + (amp,) for off, amp in spec.hopping])
    if o.get("s_grid"):
        write_csv(stage / "norms.csv", ["s", "norm"], [(s, s_norm(spec, s)) for s in o["s_grid"]])
    return {}, {"offsets": len(spec.hopping)}


def _run_propagator(cfg, stage, threads):
    o = cfg.objects
    spec = o["spec"]
    header = ["t"] + [f"d{i+1}" for i in range(spec.dim)] + ["re", "im", "abs"]
    kernel = kernel_elements(spec, o["offsets"], o["times"])
    rows = [(float(t),) + tuple(off) + (v.real, v.imag, abs(v))
            for t, row in zip(o["times"], kernel.tolist()) for off, v in zip(o["offsets"], row)]
    write_csv(stage / "propagator.csv", header, rows)
    return {}, {}


def _run_decay_check(cfg, stage, threads):
    o = cfg.objects
    rows_out = []
    checks = []
    if o["spec"] is not None:
        spec = o["spec"]
        for axis in range(spec.dim):
            h = lambda th, a=axis: float(spec.axis_values(a, np.array([th]))[0])
            checks.append((axis, kernel_decay_check(h, spec.dim, o["offsets"], o["c_h"])))
    else:
        sampled = o["sampled"]
        h = periodized_gaussian(sampled["width"])
        checks.append((0, kernel_decay_check(h, sampled["dim"], o["offsets"], o["c_h"])))
    all_pass = True
    for axis, check in checks:
        for row in check.rows:
            rows_out.append((axis, row.offset, row.coefficient, row.bound, row.passed))
            if row.offset != 0:
                all_pass = all_pass and row.passed
    write_csv(
        stage / "decay_check.csv",
        ["axis", "d", "coefficient", "bound", "passed"],
        rows_out,
    )
    meta = {"c_h": {str(a): c.c_h for a, c in checks},
            "achieved_tol": {str(a): c.achieved_tol for a, c in checks}}
    return {"coefficient_bound": all_pass}, meta


def _run_sparseness(cfg, stage, threads):
    o = cfg.objects
    res = sparseness_integral(o["spec"], o["sparse"], o["phi"], o["t_max"], o["gamma"])
    write_csv(stage / "sparseness.csv", ["t", "c_t"], zip(res.t_grid, res.c_values))
    cube = o["sparse"].cube
    if cube is not None:
        rows = sparseness_profile(o["sparse"], centered_subcubes(cube, dyadic_only=True))
        write_csv(
            stage / "profile.csv",
            ["volume", "count", "cap", "passed"],
            [(r.volume, r.count, r.cap, r.passed) for r in rows],
        )
    (stage / "sparse_set.txt").write_text(sparse_set_to_text(o["sparse"]), encoding="utf-8")
    summary = {
        "windows": [list(w) for w in res.windows],
        "ratios": list(res.ratios),
        "verdict": res.verdict,
        "head_bound": res.head_bound,
        "total": res.total,
    }
    return {"converging": res.verdict == "converging"}, summary


def _run_cook(cfg, stage, threads):
    o = cfg.objects
    rows = cook_integrand(o["spec"], o["sparse"], o["model"], o["phi"], o["t_grid"], o["n_samples"])
    write_csv(
        stage / "cook.csv",
        ["t", "bound", "q10", "q50", "q90", "mc_mean_sq"],
        [(r.t, r.bound, r.q10, r.q50, r.q90, r.mc_mean_sq) for r in rows],
    )
    ok = all(r.q50 <= r.bound * (1 + 1e-12) for r in rows)
    return {"median_below_bound": ok}, {}


def _moments_csv(stage, est, model):
    q = est.query
    rows = []
    for d, mean, err, _ in est.distance_profile():
        rows.append((q.energy, q.epsilon, q.s, model.coupling, d, mean, err, est.count))
    write_csv(
        stage / "moments.csv",
        ["E", "epsilon", "s", "lambda", "distance", "mean_absG_s", "stderr", "n_samples"],
        rows,
    )


def _run_moments(cfg, stage, threads):
    o = cfg.objects
    q = GreenQuery(volume=o["volume"], **o["query"])
    est = fractional_moment_estimate(q, o["spec"], o["sparse"], o["model"], threads=threads)
    _moments_csv(stage, est, o["model"])
    verdicts = {}
    summary = {"h0_norm_s": cfg.derived.get("h0_norm_s")}
    if o.get("check_am_bound"):
        bound = am_uniform_bound(o["model"].coupling, q.s)
        on_set = est.set_index  # every site of S; the check holds trivially when S is empty
        ok = bool(np.all(est.mean[on_set] <= bound + 2.0 * est.stderr[on_set]))
        verdicts["am_bound"] = ok
        summary["am_bound"] = bound
    return verdicts, summary


def _run_decay_fit(cfg, stage, threads):
    o = cfg.objects
    q = GreenQuery(volume=o["volume"], **o["query"])
    est = fractional_moment_estimate(q, o["spec"], o["sparse"], o["model"], threads=threads)
    _moments_csv(stage, est, o["model"])
    kappa = o["kappa_hat"]
    if kappa is None:
        kappa = estimate_decoupling(o["model"].law, q.s).kappa_hat
    n_on = len(o["sparse"])
    c_on, c_off = abs(o["model"].coupling) ** q.s * kappa, abs(q.energy) ** q.s
    c = [c_on] if n_on else []  # C of each kind of site the volume has
    if o["volume"].volume > n_on:
        c.append(c_off)
    ks = max(k_s(o["spec"], q.s, c_site) for c_site in c)
    fit = decay_rate_fit(est, ks)
    summary = {
        "rate": fit.rate,
        "intercept": fit.intercept,
        "passed": fit.passed,
        "k_s": ks,
        "log_k_s": math.log(ks),
        "kappa_hat": kappa,
        "distances": list(fit.distances),
        "localized_regime": ks < 1.0,
    }
    return {"decay_rate": fit.passed}, summary


def _run_simon_wolff(cfg, stage, threads):
    o = cfg.objects
    q = GreenQuery(volume=o["volume"], **o["query"])
    rows = simon_wolff_proxy(q, o["spec"], o["sparse"], o["model"], o["eps_ladder"], threads=threads)
    write_csv(
        stage / "simon_wolff.csv",
        ["E", "epsilon", "mean_sum_G2", "stderr", "trend_ratio"],
        [(q.energy, r.epsilon, r.mean_sum_g2, r.stderr, r.trend_ratio) for r in rows],
    )
    verdicts = {}
    ratios = [r.trend_ratio for r in rows[1:]]
    if o["expect"] == "ac":
        verdicts["ac_trend"] = bool(ratios and all(r >= 2.0 for r in ratios))
    elif o["expect"] == "pp":
        verdicts["pp_trend"] = bool(ratios and ratios[-1] <= 1.2)
    return verdicts, {"ratios": ratios}


def _run_thresholds(cfg, stage, threads):
    o = cfg.objects
    model = o["model"]
    rows = []
    ks_rows = []
    interior_ok = True
    for s in o["s_grid"]:
        dec = estimate_decoupling(model.law, s)
        interior_ok = interior_ok and dec.interior
        lam_s = lambda_threshold(o["spec"], s, dec.kappa_hat)
        rows.append((s, s_norm(o["spec"], s), dec.kappa_hat, dec.d_eff, lam_s,
                     am_uniform_bound(model.coupling, s)))
        for energy in o["energies"] or []:
            c_on, c_off = abs(model.coupling) ** s * dec.kappa_hat, abs(energy) ** s
            ks_on, ks_off = k_s(o["spec"], s, c_on), k_s(o["spec"], s, c_off)
            ks_rows.append((s, energy, c_on, c_off, ks_on, ks_off, max(ks_on, ks_off)))
    write_csv(
        stage / "thresholds.csv",
        ["s", "h0_norm_s", "kappa_hat", "d_eff", "lambda_threshold", "am_uniform_bound"],
        rows,
    )
    if ks_rows:
        write_csv(
            stage / "ks.csv",
            ["s", "E", "C_on", "C_off", "k_s_on", "k_s_off", "k_s_mixed"],
            ks_rows,
        )
    return {"interior_minimizer": interior_ok}, {}


def _run_edge_scan(cfg, stage, threads):
    o = cfg.objects
    scan = mobility_edge_scan(
        o["spec"], o["sparse"], o["model"], o["volume"], o["realizations"], o["s"],
        bin_width=o["bin_width"], threads=threads,
    )
    write_csv(
        stage / "edge_scan.csv",
        ["bin_lo", "bin_hi", "count", "median_ipr", "r_stat"],
        [(b.lo, b.hi, b.count, b.median_ipr, b.r_stat) for b in scan.bins],
    )
    write_json(
        stage / "markers.json",
        {"h0_norm_1": scan.h0_norm_1, "h0_norm_s": scan.h0_norm_s, "s": scan.s},
    )
    verdicts = {}
    summary = {}
    if o["contrast"]:
        threshold = scan.h0_norm_1 + o["contrast"]["offset"]
        outer = scan.pooled_median_outside(threshold)
        center = scan.band_center_median()
        # None: no populated bin to measure, and no contrast to claim
        ratio = None if None in (outer, center) else outer / center if center > 0 else math.inf
        verdicts["ipr_contrast"] = ratio is not None and ratio >= o["contrast"]["min_ratio"]
        summary = {"outer_median": outer, "center_median": center, "contrast": ratio}
    return verdicts, summary


def _run_theorem2(cfg, stage, threads):
    o = cfg.objects
    kappa = o["kappa_hat"]
    if kappa is None:
        kappa = estimate_decoupling(o["model"].law, o["s"]).kappa_hat
    result = theorem2_cube(o["center"], o["s"], o["gamma"], o["spec"], kappa, o["sparse"])
    rows = [(*site, v, v > result.threshold)
            for site, v in zip(o["sparse"].coords.tolist(), result.values.tolist())]
    write_csv(
        stage / "theorem2_sites.csv",
        [f"m{i+1}" for i in range(o["spec"].dim)] + ["weighted_value", "cleared"],
        rows,
    )
    summary = {
        "radius": result.radius,
        "infimum": result.infimum,
        "covers_all_sites": result.covers_all_sites,
        "kappa_hat": kappa,
        "threshold": result.threshold,
    }
    return {"cube_found": True}, summary


_RUNNERS = {
    "norms": _run_norms,
    "kernel": _run_kernel,
    "propagator": _run_propagator,
    "decay_check": _run_decay_check,
    "sparseness": _run_sparseness,
    "cook": _run_cook,
    "moments": _run_moments,
    "decay_fit": _run_decay_fit,
    "simon_wolff": _run_simon_wolff,
    "thresholds": _run_thresholds,
    "edge_scan": _run_edge_scan,
    "theorem2_cube": _run_theorem2,
}
