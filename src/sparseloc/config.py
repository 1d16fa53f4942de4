"""Strict experiment-config validation and object builders.

Configs are JSON documents with one block per ingredient (symbol,
volume, disorder, sparse_set, query, ...).  Validation is total: it
never throws on malformed input mid-way but collects every violation
and reports them all at once.  Unknown keys are errors, not warnings;
silent typos in experiment configs are the main operational hazard.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .lattice import (
    Cube, SparseSet, cap_violation, cube_sites, generate_sparse_set, sparse_set_from_sites,
)
from .operators import SymbolSpec, kernel_from_symbol, s_norm
from .disorder import DisorderModel, make_law

KINDS = (
    "norms",
    "kernel",
    "propagator",
    "decay_check",
    "sparseness",
    "cook",
    "moments",
    "decay_fit",
    "simon_wolff",
    "thresholds",
    "edge_scan",
    "theorem2_cube",
)

_TOP_KEYS = {"kind", "seed", "out", "threads"}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    out: str | None
    threads: int
    params: dict
    derived: dict = field(default_factory=dict, compare=False)

    def canonical_json(self) -> str:
        body = {"kind": self.kind, "seed": self.seed, "threads": self.threads}
        body.update(self.params)
        return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class _Checker:
    def __init__(self):
        self.violations: list[tuple[str, str]] = []

    def fail(self, path: str, reason: str):
        self.violations.append((path, reason))

    def keys(self, block: dict, path: str, required: set, optional: set) -> bool:
        if not isinstance(block, dict):
            self.fail(path, f"expected an object, got {type(block).__name__}")
            return False
        ok = True
        for key in block:
            if key not in required and key not in optional:
                self.fail(f"{path}.{key}", "unknown key")
                ok = False
        for key in required:
            if key not in block:
                self.fail(f"{path}.{key}", "missing required key")
                ok = False
        return ok

    def number(self, block, path, key, lo=None, hi=None, lo_open=False, hi_open=False):
        val = block.get(key)
        if not _is_number(val):
            self.fail(f"{path}.{key}", "must be a number")
            return None
        if lo is not None and (val <= lo if lo_open else val < lo):
            self.fail(f"{path}.{key}", f"must be {'>' if lo_open else '>='} {lo}")
            return None
        if hi is not None and (val >= hi if hi_open else val > hi):
            self.fail(f"{path}.{key}", f"must be {'<' if hi_open else '<='} {hi}")
            return None
        return float(val)

    def integer(self, block, path, key, lo=None):
        val = block.get(key)
        if not _is_int(val):
            self.fail(f"{path}.{key}", "must be an integer")
            return None
        if lo is not None and val < lo:
            self.fail(f"{path}.{key}", f"must be >= {lo}")
            return None
        return int(val)

    def site(self, value, path):
        if not isinstance(value, list) or not value or not all(_is_int(c) for c in value):
            self.fail(path, "must be a nonempty list of integers")
            return None
        return tuple(int(c) for c in value)


def _validate_symbol(chk: _Checker, block, path="symbol") -> SymbolSpec | None:
    if not isinstance(block, dict):
        chk.fail(path, "missing or malformed symbol block")
        return None
    if "delta" in block:
        if not chk.keys(block, path, {"delta"}, set()):
            return None
        dim = chk.integer(block, path, "delta", lo=1)
        if dim is None:
            return None
        return SymbolSpec(tuple(((1, 1.0),) for _ in range(dim)))
    if not chk.keys(block, path, {"axes"}, set()):
        return None
    axes_raw = block["axes"]
    if not isinstance(axes_raw, list) or not axes_raw:
        chk.fail(f"{path}.axes", "must be a nonempty list of axis series")
        return None
    axes = []
    for i, series in enumerate(axes_raw):
        if not isinstance(series, list):
            chk.fail(f"{path}.axes[{i}]", "must be a list of {{k, c}} terms")
            return None
        terms = []
        for j, term in enumerate(series):
            tp = f"{path}.axes[{i}][{j}]"
            if not chk.keys(term, tp, {"k", "c"}, set()):
                return None
            k = chk.integer(term, tp, "k", lo=1)
            c = chk.number(term, tp, "c")
            if k is None or c is None:
                return None
            terms.append((k, c))
        axes.append(tuple(terms))
    try:
        return SymbolSpec(tuple(axes))
    except ValueError as exc:
        chk.fail(path, str(exc))
        return None


def _validate_volume(chk: _Checker, block, dim: int | None, path="volume") -> Cube | None:
    if not isinstance(block, dict):
        chk.fail(path, "missing or malformed volume block")
        return None
    if not chk.keys(block, path, {"center", "half_side"}, set()):
        return None
    center = chk.site(block["center"], f"{path}.center")
    half = chk.integer(block, path, "half_side", lo=0)
    if center is None or half is None:
        return None
    if dim is not None and len(center) != dim:
        chk.fail(f"{path}.center", f"dimension {len(center)} does not match symbol dimension {dim}")
        return None
    return Cube(center, half)


def _validate_disorder(chk: _Checker, block, path="disorder") -> DisorderModel | None:
    if not isinstance(block, dict):
        chk.fail(path, "missing or malformed disorder block")
        return None
    if not chk.keys(block, path, {"law", "params"}, {"lambda", "weight", "seed"}):
        return None
    law_name = block.get("law")
    if law_name not in ("uniform", "gaussian", "truncated_cauchy"):
        chk.fail(f"{path}.law", "must be one of uniform, gaussian, truncated_cauchy")
        return None
    params = block.get("params")
    if not isinstance(params, list) or len(params) != 2 or not all(_is_number(p) for p in params):
        chk.fail(f"{path}.params", "must be a list of two numbers")
        return None
    lam = chk.number(block, path, "lambda", lo=0.0) if "lambda" in block else 1.0
    gamma = None
    if "weight" in block:
        wb = block["weight"]
        if not chk.keys(wb, f"{path}.weight", {"gamma"}, set()):
            return None
        gamma = chk.number(wb, f"{path}.weight", "gamma", lo=0.0, lo_open=True)
        if gamma is None:
            return None
    seed = chk.integer(block, path, "seed", lo=0) if "seed" in block else 0
    if lam is None or seed is None:
        return None
    try:
        law = make_law(law_name, [float(p) for p in params])
        return DisorderModel(law, lam, gamma, seed)
    except ValueError as exc:
        chk.fail(path, str(exc))
        return None


def _validate_sparse_set(
    chk: _Checker, block, dim: int | None, volume: Cube | None, path="sparse_set"
) -> SparseSet | None:
    if not isinstance(block, dict):
        chk.fail(path, "missing or malformed sparse_set block")
        return None
    if not chk.keys(block, path, {"generator", "alpha"}, {"seed", "half_side", "center", "sites"}):
        return None
    gen = block.get("generator")
    alpha = chk.number(block, path, "alpha", lo=0.0, hi=1.0, lo_open=True, hi_open=True)
    seed = chk.integer(block, path, "seed", lo=0) if "seed" in block else 0
    if alpha is None or seed is None:
        return None
    if gen in ("deterministic_powers", "bernoulli_thinned"):
        if "half_side" in block:
            half = chk.integer(block, path, "half_side", lo=0)
        elif volume is not None:
            half = volume.half_side
        else:
            chk.fail(f"{path}.half_side", "required when no volume block sets the cube")
            return None
        if "center" in block:
            center = chk.site(block["center"], f"{path}.center")
        elif volume is not None:
            center = volume.center
        elif dim is not None:
            center = (0,) * dim
        else:
            chk.fail(f"{path}.center", "required when dimension cannot be inferred")
            return None
        if half is None or center is None:
            return None
        if dim is not None and len(center) != dim:
            chk.fail(f"{path}.center", "dimension mismatch")
            return None
        return generate_sparse_set(alpha, Cube(center, half), gen, seed)
    if gen == "explicit_list":
        sites_raw = block.get("sites")
        if not isinstance(sites_raw, list):
            chk.fail(f"{path}.sites", "required for explicit_list")
            return None
        sites = []
        for i, s in enumerate(sites_raw):
            site = chk.site(s, f"{path}.sites[{i}]")
            if site is None:
                return None
            sites.append(site)
        d = dim if dim is not None else (len(sites[0]) if sites else None)
        if d is None:
            chk.fail(f"{path}.sites", "cannot infer dimension from an empty list")
            return None
        if any(len(s) != d for s in sites):
            chk.fail(f"{path}.sites", "sites of mixed dimension")
            return None
        outside = [i for i, s in enumerate(sites) if volume is not None and not volume.contains(s)]
        for i in outside:
            chk.fail(f"{path}.sites[{i}]", f"site {list(sites[i])} lies outside the volume")
        if outside:
            return None
        return sparse_set_from_sites(sites, alpha, d, seed)
    if gen == "full_cube":
        target = volume
        if "half_side" in block or "center" in block:
            half = chk.integer(block, path, "half_side", lo=0) if "half_side" in block else (
                volume.half_side if volume else None
            )
            center = (
                chk.site(block["center"], f"{path}.center")
                if "center" in block
                else (volume.center if volume else ((0,) * dim if dim else None))
            )
            if half is None or center is None:
                chk.fail(path, "full_cube needs a resolvable cube")
                return None
            target = Cube(center, half)
        if target is None:
            chk.fail(path, "full_cube requires a volume block or explicit cube")
            return None
        return sparse_set_from_sites(cube_sites(target), alpha, target.dim, seed)
    chk.fail(
        f"{path}.generator",
        "must be one of deterministic_powers, bernoulli_thinned, explicit_list, full_cube",
    )
    return None


def _validate_query(chk: _Checker, block, volume: Cube | None, path="query", min_real=1):
    if not isinstance(block, dict):
        chk.fail(path, "missing or malformed query block")
        return None
    if not chk.keys(block, path, {"energy", "epsilon", "s", "source", "realizations"}, set()):
        return None
    energy = chk.number(block, path, "energy")
    epsilon = chk.number(block, path, "epsilon", lo=0.0, lo_open=True)
    s = chk.number(block, path, "s", lo=0.0, hi=1.0, lo_open=True, hi_open=True)
    source = chk.site(block["source"], f"{path}.source")
    realizations = chk.integer(block, path, "realizations", lo=min_real)
    if None in (energy, epsilon, s, source, realizations) or volume is None:
        return None
    if not volume.contains(source):
        chk.fail(f"{path}.source", "must lie inside the volume")
        return None
    return {
        "energy": energy,
        "epsilon": epsilon,
        "s": s,
        "source": source,
        "realizations": realizations,
    }


def _validate_phi(chk: _Checker, block, dim: int, path="phi"):
    if not isinstance(block, list) or not block:
        chk.fail(path, "must be a nonempty list of {site, re[, im]} terms")
        return None
    phi = {}
    for i, term in enumerate(block):
        tp = f"{path}[{i}]"
        if not chk.keys(term, tp, {"site", "re"}, {"im"}):
            return None
        site = chk.site(term["site"], f"{tp}.site")
        re = chk.number(term, tp, "re")
        im = chk.number(term, tp, "im") if "im" in term else 0.0
        if site is None or re is None or im is None:
            return None
        if len(site) != dim:
            chk.fail(f"{tp}.site", f"dimension {len(site)} != {dim}")
            return None
        phi[site] = complex(re, im)
    return phi


def _validate_s_grid(chk: _Checker, block, path, hi_open=False):
    if not isinstance(block, list) or not block or not all(_is_number(x) for x in block):
        chk.fail(path, "must be a nonempty list of numbers")
        return None
    out = []
    for i, s in enumerate(block):
        top_ok = (s < 1.0) or (not hi_open and s == 1.0)
        if not (0.0 < s and top_ok):
            rng = "(0, 1)" if hi_open else "(0, 1]"
            chk.fail(f"{path}[{i}]", f"s must lie in {rng}")
            return None
        out.append(float(s))
    return out


def validate_config(raw, kind: str | None = None) -> ExperimentConfig:
    """Parse and validate a config document (dict or JSON text).

    Raises ConfigError carrying the complete list of violations; on
    success returns the config with derived echo quantities.
    """
    chk = _Checker()
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError([("<document>", f"not valid JSON: {exc}")])
    if not isinstance(raw, dict):
        raise ConfigError([("<document>", "top level must be an object")])
    raw = json.loads(json.dumps(raw))  # deep copy; also rejects non-JSON payloads early

    # the top-level seed is the default for blocks that omit their own
    top_seed = raw.get("seed", 0)
    if _is_int(top_seed):
        for block_name in ("disorder", "sparse_set"):
            block = raw.get(block_name)
            if isinstance(block, dict) and "seed" not in block:
                block["seed"] = top_seed

    cfg_kind = raw.get("kind", kind)
    if cfg_kind is None:
        chk.fail("kind", "missing experiment kind")
    elif cfg_kind not in KINDS:
        chk.fail("kind", f"unknown kind {cfg_kind!r}; expected one of {', '.join(KINDS)}")
    if kind is not None and cfg_kind is not None and cfg_kind != kind:
        chk.fail("kind", f"config kind {cfg_kind!r} does not match requested {kind!r}")
    if chk.violations:
        raise ConfigError(chk.violations)

    seed = chk.integer(raw, "<top>", "seed", lo=0) if "seed" in raw else 0
    threads = chk.integer(raw, "<top>", "threads", lo=1) if "threads" in raw else 1
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        chk.fail("out", "must be a string path")

    handler = _KIND_VALIDATORS[cfg_kind]
    allowed = _TOP_KEYS | _KIND_KEYS[cfg_kind]
    for key in raw:
        if key not in allowed:
            chk.fail(key, "unknown key")
    params, derived = handler(chk, raw)
    if chk.violations:
        raise ConfigError(chk.violations)
    raw_params = {k: raw[k] for k in raw if k not in _TOP_KEYS}
    return ExperimentConfig(
        cfg_kind, seed or 0, out, threads or 1, raw_params, derived | {"objects": params}
    )


def _norms_like(chk: _Checker, raw, need_grid=True):
    spec = _validate_symbol(chk, raw.get("symbol"))
    grid = None
    if need_grid or "s_grid" in raw:
        grid = _validate_s_grid(chk, raw.get("s_grid"), "s_grid")
    derived = {}
    if spec is not None and grid:
        kernel = kernel_from_symbol(spec)
        derived["h0_norms"] = {f"{s:g}": s_norm(kernel, s) for s in grid}
    return {"spec": spec, "s_grid": grid}, derived


def _v_norms(chk, raw):
    return _norms_like(chk, raw, need_grid=True)


def _v_kernel(chk, raw):
    return _norms_like(chk, raw, need_grid="s_grid" in raw)


def _v_propagator(chk, raw):
    spec = _validate_symbol(chk, raw.get("symbol"))
    times = raw.get("times")
    if not isinstance(times, list) or not times or not all(_is_number(t) for t in times):
        chk.fail("times", "must be a nonempty list of numbers")
        times = None
    offsets = None
    if spec is not None and isinstance(raw.get("offsets"), list):
        offsets = []
        for i, o in enumerate(raw["offsets"]):
            site = chk.site(o, f"offsets[{i}]")
            if site is None or len(site) != spec.dim:
                chk.fail(f"offsets[{i}]", "offset dimension mismatch")
                offsets = None
                break
            offsets.append(site)
    elif raw.get("offsets") is None:
        chk.fail("offsets", "missing offsets list")
    return {"spec": spec, "times": times, "offsets": offsets}, {}


def _v_decay_check(chk, raw):
    spec = None
    sampled = None
    if "symbol" in raw and "sampled_symbol" in raw:
        chk.fail("symbol", "give either symbol or sampled_symbol, not both")
    elif "symbol" in raw:
        spec = _validate_symbol(chk, raw.get("symbol"))
    elif "sampled_symbol" in raw:
        sb = raw["sampled_symbol"]
        if chk.keys(sb, "sampled_symbol", {"name"}, {"width", "dim"}):
            if sb.get("name") != "periodized_gaussian":
                chk.fail("sampled_symbol.name", "only periodized_gaussian is built in")
            width = chk.number(sb, "sampled_symbol", "width", lo=0.0, lo_open=True) if "width" in sb else 0.5
            dim = chk.integer(sb, "sampled_symbol", "dim", lo=1) if "dim" in sb else 1
            sampled = {"name": "periodized_gaussian", "width": width, "dim": dim}
    else:
        chk.fail("symbol", "need a symbol or sampled_symbol block")
    offsets = raw.get("offsets")
    if not isinstance(offsets, list) or not offsets or not all(_is_int(d) for d in offsets):
        chk.fail("offsets", "must be a nonempty list of integers")
        offsets = None
    c_h = chk.number(raw, "<top>", "c_h", lo=0.0, lo_open=True) if "c_h" in raw else None
    return {"spec": spec, "sampled": sampled, "offsets": offsets, "c_h": c_h}, {}


def _admissible_alpha_window(dim: int) -> float:
    return 2.0 * (1.0 / 3.0 - 1.0 / dim)


def _v_sparseness(chk, raw):
    spec = _validate_symbol(chk, raw.get("symbol"))
    t_max = chk.number(raw, "<top>", "t_max", lo=8.0)
    gamma = (
        chk.number(raw, "<top>", "weight_gamma", lo=0.0, lo_open=True)
        if "weight_gamma" in raw
        else None
    )
    sparse = phi = None
    if spec is not None:
        dim = spec.dim
        window = _admissible_alpha_window(dim)
        if window <= 0.0:
            chk.fail(
                "symbol",
                f"sparseness claims need nu >= 4: the admissible window "
                f"0 < alpha < 2*(1/3 - 1/nu) is empty at nu = {dim}",
            )
        sparse = _validate_sparse_set(chk, raw.get("sparse_set"), dim, None)
        if sparse is not None and window > 0.0 and not (0.0 < sparse.alpha < window):
            chk.fail(
                "sparse_set.alpha",
                f"must lie in the admissible window (0, {window:.6g}) "
                f"= (0, 2*(1/3 - 1/nu)) for nu = {dim}",
            )
        # generated sets obey the caps by construction; listed ones (explicit_list,
        # full_cube) may not, and would fail mid-run
        if sparse is not None and sparse.generator == "explicit_list":
            too_dense = cap_violation(sparse)
            if too_dense:
                chk.fail("sparse_set", too_dense)
        phi = _validate_phi(chk, raw.get("phi"), dim)
    return {"spec": spec, "sparse": sparse, "phi": phi, "t_max": t_max, "gamma": gamma}, {}


def _v_cook(chk, raw):
    spec = _validate_symbol(chk, raw.get("symbol"))
    model = _validate_disorder(chk, raw.get("disorder"))
    sparse = phi = None
    if spec is not None:
        sparse = _validate_sparse_set(chk, raw.get("sparse_set"), spec.dim, None)
        phi = _validate_phi(chk, raw.get("phi"), spec.dim)
    t_grid = raw.get("t_grid")
    if not isinstance(t_grid, list) or not t_grid or not all(_is_number(t) for t in t_grid):
        chk.fail("t_grid", "must be a nonempty list of numbers")
        t_grid = None
    n_samples = chk.integer(raw, "<top>", "n_samples", lo=30) if "n_samples" in raw else 30
    return {
        "spec": spec,
        "model": model,
        "sparse": sparse,
        "phi": phi,
        "t_grid": t_grid,
        "n_samples": n_samples,
    }, {}


def _moments_core(chk, raw, min_real=2):
    spec = _validate_symbol(chk, raw.get("symbol"))
    dim = spec.dim if spec is not None else None
    volume = _validate_volume(chk, raw.get("volume"), dim)
    sparse = _validate_sparse_set(chk, raw.get("sparse_set"), dim, volume)
    model = _validate_disorder(chk, raw.get("disorder"))
    query = _validate_query(chk, raw.get("query"), volume, min_real=min_real)
    derived = {}
    if spec is not None and query is not None:
        kernel = kernel_from_symbol(spec)
        derived["h0_norm_s"] = s_norm(kernel, query["s"])
    return {"spec": spec, "volume": volume, "sparse": sparse, "model": model, "query": query}, derived


def _v_moments(chk, raw):
    params, derived = _moments_core(chk, raw)
    if "check_am_bound" in raw and not isinstance(raw["check_am_bound"], bool):
        chk.fail("check_am_bound", "must be a boolean")
    params["check_am_bound"] = bool(raw.get("check_am_bound", False))
    return params, derived


def _v_decay_fit(chk, raw):
    params, derived = _moments_core(chk, raw)
    kappa = chk.number(raw, "<top>", "kappa_hat", lo=0.0, lo_open=True) if "kappa_hat" in raw else None
    params["kappa_hat"] = kappa
    return params, derived


def _v_simon_wolff(chk, raw):
    params, derived = _moments_core(chk, raw, min_real=1)
    ladder = raw.get("eps_ladder")
    if (
        not isinstance(ladder, list)
        or len(ladder) < 2
        or not all(_is_number(e) and e > 0 for e in ladder)
        or any(b >= a for a, b in zip(ladder, ladder[1:]))
    ):
        chk.fail("eps_ladder", "must be a strictly decreasing list of positive numbers")
        ladder = None
    expect = raw.get("expect")
    if expect is not None and expect not in ("ac", "pp"):
        chk.fail("expect", "must be 'ac' or 'pp' when present")
    params["eps_ladder"] = ladder
    params["expect"] = expect
    return params, derived


def _v_thresholds(chk, raw):
    spec = _validate_symbol(chk, raw.get("symbol"))
    model = _validate_disorder(chk, raw.get("disorder"))
    grid = _validate_s_grid(chk, raw.get("s_grid"), "s_grid", hi_open=True)
    energies = raw.get("energies")
    if energies is not None and (
        not isinstance(energies, list) or not all(_is_number(e) for e in energies)
    ):
        chk.fail("energies", "must be a list of numbers")
        energies = None
    return {"spec": spec, "model": model, "s_grid": grid, "energies": energies}, {}


def _v_edge_scan(chk, raw):
    spec = _validate_symbol(chk, raw.get("symbol"))
    dim = spec.dim if spec is not None else None
    volume = _validate_volume(chk, raw.get("volume"), dim)
    sparse = _validate_sparse_set(chk, raw.get("sparse_set"), dim, volume)
    model = _validate_disorder(chk, raw.get("disorder"))
    realizations = chk.integer(raw, "<top>", "realizations", lo=20)
    s = chk.number(raw, "<top>", "s", lo=0.0, hi=1.0, lo_open=True, hi_open=True)
    bin_width = chk.number(raw, "<top>", "bin_width", lo=0.0, lo_open=True) if "bin_width" in raw else 0.1
    contrast = None
    if "contrast" in raw:
        cb = raw["contrast"]
        if chk.keys(cb, "contrast", {"offset", "min_ratio"}, set()):
            off = chk.number(cb, "contrast", "offset")
            ratio = chk.number(cb, "contrast", "min_ratio", lo=0.0, lo_open=True)
            if off is not None and ratio is not None:
                contrast = {"offset": off, "min_ratio": ratio}
    if volume is not None and volume.volume > 4096:
        chk.fail("volume", f"volume {volume.volume} exceeds the dense-diagonalization cap 4096")
    return {
        "spec": spec,
        "volume": volume,
        "sparse": sparse,
        "model": model,
        "realizations": realizations,
        "s": s,
        "bin_width": bin_width,
        "contrast": contrast,
    }, {}


def _v_theorem2(chk, raw):
    spec = _validate_symbol(chk, raw.get("symbol"))
    dim = spec.dim if spec is not None else None
    sparse = _validate_sparse_set(chk, raw.get("sparse_set"), dim, None)
    center = chk.site(raw.get("center"), "center") if raw.get("center") is not None else None
    if center is None:
        chk.fail("center", "missing cube center")
    elif dim is not None and len(center) != dim:
        chk.fail("center", "dimension mismatch")
    s = chk.number(raw, "<top>", "s", lo=0.0, hi=1.0, lo_open=True, hi_open=True)
    gamma = chk.number(raw, "<top>", "gamma", lo=0.0, lo_open=True)
    kappa = chk.number(raw, "<top>", "kappa_hat", lo=0.0, lo_open=True) if "kappa_hat" in raw else None
    model = _validate_disorder(chk, raw.get("disorder")) if "disorder" in raw else None
    if kappa is None and model is None:
        chk.fail("kappa_hat", "give kappa_hat or a disorder block to estimate it from")
    return {
        "spec": spec,
        "sparse": sparse,
        "center": center,
        "s": s,
        "gamma": gamma,
        "kappa_hat": kappa,
        "model": model,
    }, {}


_KIND_VALIDATORS = {
    "norms": _v_norms,
    "kernel": _v_kernel,
    "propagator": _v_propagator,
    "decay_check": _v_decay_check,
    "sparseness": _v_sparseness,
    "cook": _v_cook,
    "moments": _v_moments,
    "decay_fit": _v_decay_fit,
    "simon_wolff": _v_simon_wolff,
    "thresholds": _v_thresholds,
    "edge_scan": _v_edge_scan,
    "theorem2_cube": _v_theorem2,
}

_KIND_KEYS = {
    "norms": {"symbol", "s_grid"},
    "kernel": {"symbol", "s_grid"},
    "propagator": {"symbol", "times", "offsets"},
    "decay_check": {"symbol", "sampled_symbol", "offsets", "c_h"},
    "sparseness": {"symbol", "sparse_set", "phi", "t_max", "weight_gamma"},
    "cook": {"symbol", "sparse_set", "disorder", "phi", "t_grid", "n_samples"},
    "moments": {"symbol", "volume", "sparse_set", "disorder", "query", "check_am_bound"},
    "decay_fit": {"symbol", "volume", "sparse_set", "disorder", "query", "kappa_hat"},
    "simon_wolff": {"symbol", "volume", "sparse_set", "disorder", "query", "eps_ladder", "expect"},
    "thresholds": {"symbol", "disorder", "s_grid", "energies"},
    "edge_scan": {
        "symbol", "volume", "sparse_set", "disorder", "realizations", "s", "bin_width", "contrast",
    },
    "theorem2_cube": {"symbol", "sparse_set", "center", "s", "gamma", "kappa_hat", "disorder"},
}


def periodized_gaussian(width: float):
    """Smooth periodic bump: wrapped Gaussian centered at pi."""
    def h(theta: float) -> float:
        total = 0.0
        for k in range(-6, 7):
            x = theta - math.pi + 2.0 * math.pi * k
            total += math.exp(-0.5 * (x / width) ** 2)
        return total
    return h
