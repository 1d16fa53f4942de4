"""Strict experiment-config validation and object builders.

Configs are JSON documents with one block per ingredient (symbol,
volume, disorder, sparse_set, query, ...).  Validation is total: it
never throws on malformed input mid-way but collects every violation
and reports them all at once.  Unknown keys are errors, not warnings;
silent typos in experiment configs are the main operational hazard.

Every block is a table ``{key: (parser, default or REQUIRED)}`` read by
one walker; every kind is a field table plus one function holding the
rules that span fields (dimensions, the volume, the sparseness window).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .lattice import (Cube, SparseSet, cap_violation, generate_sparse_set, max_norm,
                      sparse_set_from_sites)
from .operators import SymbolSpec, delta_symbol, s_norm
from .disorder import DisorderModel, make_law


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    out: str | None
    threads: int
    params: dict
    derived: dict = field(default_factory=dict, compare=False)
    objects: dict = field(default_factory=dict, compare=False)

    def canonical_json(self) -> str:
        body = {"kind": self.kind, "seed": self.seed, "threads": self.threads}
        body.update(self.params)
        return json.dumps(body, sort_keys=True, separators=(",", ":"))


REQUIRED = object()  # the default of a key that must be given
_FAILED = object()  # what a field that failed leaves behind
_ENUMERATION_GUARD = 2_000_000  # most sites a full_cube set may list
_COORD_LIMIT = 2 ** 62  # |coordinate| bound: sites and their differences fit in int64


class _Bad(Exception):
    """Raised by a parser; its args are (path below the value, reason) pairs."""


def _bad(reason: str) -> _Bad:
    return _Bad(("", reason))


def _join(path: str, sub: str) -> str:
    return path + sub if not sub or sub.startswith("[") else f"{path}.{sub}"


def _parse(parse, value, path: str, bad: list, failed=_FAILED):
    """``parse(value)``, or record under ``path`` why not and return ``failed``:
    the one place where parser violations and builder ValueErrors (SymbolSpec,
    make_law, DisorderModel, Cube, generate_sparse_set) land."""
    try:
        return parse(value)
    except _Bad as exc:
        bad.extend((_join(path, sub), reason) for sub, reason in exc.args)
    except ValueError as exc:
        bad.append((path, str(exc)))
    return failed


def _walk(fields: dict, block: dict, top=False):
    """(parsed fields, violations): unknown and missing keys are violations,
    absent optional keys take their default, and a field that fails is left
    out while the walk goes on.  At the top level a missing required key
    reads as null, which its parser rejects."""
    bad = [(key, "unknown key") for key in block if key not in fields]
    out = {}
    for key, (parse, default) in fields.items():
        if key in block or (top and default is REQUIRED):
            value = _parse(parse, block.get(key), key, bad)
            if value is not _FAILED:
                out[key] = value
        elif default is REQUIRED:
            bad.append((key, "missing required key"))
        else:
            out[key] = default
    return out, bad


class _Table:
    """A block parser: fields, a builder of the parsed fields, and the reason
    given when the block is not an object."""

    def __init__(self, fields: dict, build=None, malformed: str | None = None):
        self.fields, self.build, self.malformed = fields, build, malformed

    def __call__(self, block):
        if not isinstance(block, dict):
            raise _bad(self.malformed or f"expected an object, got {type(block).__name__}")
        out, bad = _walk(self.fields, block)
        if bad:
            raise _Bad(*bad)
        return self.build(out) if self.build else out


def _is_number(x) -> bool:  # finite (x - x is NaN for NaN and Infinity, which JSON readers accept)
    return isinstance(x, (int, float)) and not isinstance(x, bool) and x - x == 0


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check(ok, reason: str):
    def parse(v):
        if not ok(v):
            raise _bad(reason)
        return v
    return parse


def _num(lo=None, hi=None, lo_open=False, hi_open=False):
    def parse(v):
        if not _is_number(v):
            raise _bad("must be a number")
        if lo is not None and (v <= lo if lo_open else v < lo):
            raise _bad(f"must be {'>' if lo_open else '>='} {lo}")
        if hi is not None and (v >= hi if hi_open else v > hi):
            raise _bad(f"must be {'<' if hi_open else '<='} {hi}")
        return float(v)
    return parse


def _int(lo: int):
    def parse(v):
        if not _is_int(v):
            raise _bad("must be an integer")
        if v < lo:
            raise _bad(f"must be >= {lo}")
        return int(v)
    return parse


def _site(v):
    if not isinstance(v, list) or not v or not all(_is_int(c) for c in v):
        raise _bad("must be a nonempty list of integers")
    if any(abs(c) >= _COORD_LIMIT for c in v):
        raise _bad("coordinates must lie strictly between -2^62 and 2^62")
    return tuple(int(c) for c in v)


def _seq(reason: str, item=_is_number, min_len=1, ok=lambda v: True):
    """A list of plain values, judged as a whole and kept as given."""
    return _check(lambda v: isinstance(v, list) and len(v) >= min_len
                  and all(map(item, v)) and ok(v), reason)


def _list_of(item, reason: str, min_len=0):
    """A list parsed item by item; the first item that fails is reported."""
    def parse(v):
        if not isinstance(v, list) or len(v) < min_len:
            raise _bad(reason)
        out = []
        for i, x in enumerate(v):
            try:
                out.append(item(x))
            except _Bad as exc:
                raise _Bad(*((_join(f"[{i}]", sub), r) for sub, r in exc.args)) from None
        return out
    return parse


_NUMBERS = _seq("must be a nonempty list of numbers")


def _s_grid(hi_open: bool):
    rng = "(0, 1)" if hi_open else "(0, 1]"

    def parse(v):
        for i, s in enumerate(_NUMBERS(v)):
            if not (0.0 < s and (s < 1.0 or (not hi_open and s == 1.0))):
                raise _Bad((f"[{i}]", f"s must lie in {rng}"))
        return [float(s) for s in v]
    return parse


def _given(reason: str, parse):
    def given(v):
        if v is None:
            raise _bad(reason)
        return parse(v)
    return given


_UNIT = _num(0.0, 1.0, lo_open=True, hi_open=True)
_POSITIVE = _num(0.0, lo_open=True)

_DELTA = _Table({"delta": (_int(1), REQUIRED)},
                build=lambda f: delta_symbol(f["delta"]),
                malformed="missing or malformed symbol block")
_TERM = _Table({"k": (_int(1), REQUIRED), "c": (_num(), REQUIRED)}, lambda f: (f["k"], f["c"]))
_AXES = _Table({"axes": (_list_of(_list_of(_TERM, "must be a list of {k, c} terms"),
                                  "must be a nonempty list of axis series", min_len=1), REQUIRED)},
               build=lambda f: SymbolSpec(tuple(map(tuple, f["axes"]))),
               malformed=_DELTA.malformed)


def _symbol(v):
    return (_DELTA if isinstance(v, dict) and "delta" in v else _AXES)(v)


def _cube(center, half: int) -> Cube:
    if max(map(abs, center)) + half >= _COORD_LIMIT:
        raise _bad(f"cube {list(center)} +/- {half} reaches |coordinate| >= 2^62, "
                   "past int64 arithmetic")
    return Cube(center, half)


_VOLUME = _Table({"center": (_site, REQUIRED), "half_side": (_int(0), REQUIRED)},
                 build=lambda f: _cube(f["center"], f["half_side"]),
                 malformed="missing or malformed volume block")
_DISORDER = _Table(
    {"law": (_check(lambda v: v in ("uniform", "gaussian", "truncated_cauchy"),
                     "must be one of uniform, gaussian, truncated_cauchy"), REQUIRED),
     "params": (_seq("must be a list of two numbers", ok=lambda v: len(v) == 2), REQUIRED),
     "lambda": (_num(0.0), 1.0),
     "weight": (_Table({"gamma": (_POSITIVE, REQUIRED)}, lambda f: f["gamma"]), None),
     "seed": (_int(0), 0)},
    build=lambda f: DisorderModel(make_law(f["law"], [float(p) for p in f["params"]]),
                                  f["lambda"], f["weight"], f["seed"]),
    malformed="missing or malformed disorder block",
)
_GENERATORS = ("deterministic_powers", "bernoulli_thinned", "explicit_list", "full_cube")
_SPARSE_SET = _Table(
    {"generator": (_check(lambda v: v in _GENERATORS,
                          f"must be one of {', '.join(_GENERATORS)}"), REQUIRED),
     "alpha": (_UNIT, REQUIRED), "seed": (_int(0), 0),
     "half_side": (_int(0), None), "center": (_site, None),
     "sites": (_list_of(_site, "required for explicit_list"), None)},
    malformed="missing or malformed sparse_set block",
)


def _query(min_realizations: int) -> _Table:
    return _Table({"energy": (_num(), REQUIRED), "epsilon": (_POSITIVE, REQUIRED),
                   "s": (_UNIT, REQUIRED), "source": (_site, REQUIRED),
                   "realizations": (_int(min_realizations), REQUIRED)},
                  malformed="missing or malformed query block")


_PHI = _list_of(
    _Table({"site": (_site, REQUIRED), "re": (_num(), REQUIRED), "im": (_num(), 0.0)},
           lambda f: (f["site"], complex(f["re"], f["im"]))),
    "must be a nonempty list of {site, re[, im]} terms", min_len=1,
)
_SAMPLED_SYMBOL = _Table({
    "name": (_check(lambda v: v == "periodized_gaussian", "only periodized_gaussian is built in"),
             REQUIRED),
    "width": (_POSITIVE, 0.5),
    "dim": (_int(1), 1),
})
_CONTRAST = _Table({"offset": (_num(), REQUIRED), "min_ratio": (_POSITIVE, REQUIRED)})


# Rules that span fields.  Each reads the parsed fields ``p`` (a field that
# failed is absent), records violations in ``bad``, puts the objects built
# from raw blocks in their place and returns the echo quantities.


def _dim(p) -> int | None:
    return p["symbol"].dim if p.get("symbol") is not None else None


def _build_sparse_set(f: dict, dim: int, volume: Cube | None):
    gen, alpha, seed = f["generator"], f["alpha"], f["seed"]
    if gen == "explicit_list":
        sites = f["sites"]
        if sites is None:
            raise _Bad(("sites", "required for explicit_list"))
        if any(len(s) != dim for s in sites):
            raise _Bad(("sites", "sites of mixed dimension"))
        outside = [(f"sites[{i}]", f"site {list(s)} lies outside the volume")
                   for i, s in enumerate(sites) if volume is not None and not volume.contains(s)]
        if outside:
            raise _Bad(*outside)
        return sparse_set_from_sites(sites, alpha, dim, seed)
    half = f["half_side"] if f["half_side"] is not None else getattr(volume, "half_side", None)
    if half is None:
        raise _Bad(("half_side", "required when no volume block sets the cube"))
    center = f["center"] or (volume.center if volume is not None else (0,) * dim)
    if len(center) != dim:
        raise _Bad(("center", "dimension mismatch"))
    cube = _cube(center, half)
    if gen == "full_cube":
        if cube.volume > _ENUMERATION_GUARD:
            raise _bad(f"refusing to enumerate {cube.volume} sites "
                       f"(guard {_ENUMERATION_GUARD}); use arithmetic indexing instead")
        sparse = SparseSet(cube.coords(), alpha, gen, seed, dim)
    else:
        sparse = generate_sparse_set(alpha, cube, gen, seed)
    # S lies in its cube, so only a cube reaching out of the volume needs the sites checked
    if volume is not None and max_norm(center, volume.center) + half > volume.half_side:
        far = np.max(np.abs(sparse.coords - volume.center), axis=1) > volume.half_side
        if far.any():
            raise _bad(f"site {sparse.coords[np.argmax(far)].tolist()} lies outside the volume")
    return sparse


def _sparse_set(p, bad, volume: Cube | None = None) -> None:
    """S in the symbol's dimension, its cube defaulting to the volume and
    every site inside it; with no dimension known nothing is built."""
    f, dim = p.get("sparse_set"), _dim(p)
    p["sparse_set"] = None if f is None or dim is None else _parse(
        lambda f: _build_sparse_set(f, dim, volume), f, "sparse_set", bad, failed=None)


def _cook(p, bad):
    """S and phi in the symbol's dimension."""
    _sparse_set(p, bad)
    terms, dim = p.get("phi"), _dim(p)
    if terms is not None and dim is not None:
        wrong = next((i for i, (site, _) in enumerate(terms) if len(site) != dim), None)
        if wrong is not None:
            bad.append((f"phi[{wrong}].site", f"dimension {len(terms[wrong][0])} != {dim}"))
        p["phi"] = dict(terms)


def _sparseness(p, bad):
    """As cook, with alpha inside the admissible window and a listed set
    (explicit_list, full_cube) under its caps: generated sets obey them by
    construction, a listed one that does not would fail mid-run."""
    _cook(p, bad)
    dim, sparse = _dim(p), p["sparse_set"]
    window = 2.0 * (1.0 / 3.0 - 1.0 / dim) if dim is not None else 0.0
    if dim is not None and window <= 0.0:
        bad.append(("symbol", f"sparseness claims need nu >= 4: the admissible window "
                              f"0 < alpha < 2*(1/3 - 1/nu) is empty at nu = {dim}"))
    elif sparse is not None and not 0.0 < sparse.alpha < window:
        bad.append(("sparse_set.alpha", f"must lie in the admissible window (0, {window:.6g}) "
                                        f"= (0, 2*(1/3 - 1/nu)) for nu = {dim}"))
    too_dense = (sparse is not None and sparse.generator in ("explicit_list", "full_cube")
                 and cap_violation(sparse))
    if too_dense:
        bad.append(("sparse_set", too_dense))


def _monte_carlo(p, bad):
    """The volume in the symbol's dimension, S and the query source inside
    it, and lambda > 0 for an AM check, whose bound diverges at lambda = 0;
    echoes ||H0||_s at the query's s.  With no volume, neither S nor the
    query is checked further."""
    dim, volume, query, model = _dim(p), p.get("volume"), p.get("query"), p.get("disorder")
    if p.get("check_am_bound") and model is not None and model.coupling == 0:
        bad.append(("disorder.lambda", "must be > 0 when check_am_bound is true: "
                                       "the AM bound diverges at lambda = 0"))
    if volume is not None and dim is not None and volume.dim != dim:
        bad.append(("volume.center",
                    f"dimension {volume.dim} does not match symbol dimension {dim}"))
        volume = p["volume"] = None
    if volume is None:
        return {}
    _sparse_set(p, bad, volume)
    if query is not None and not volume.contains(query["source"]):
        bad.append(("query.source", "must lie inside the volume"))
    elif query is not None and dim is not None:
        return {"h0_norm_s": s_norm(p["symbol"], query["s"])}
    return {}


def _decay_fit(p, bad):
    """As the Monte-Carlo kinds, with k_s finite: C(E, ., s) is lambda^s
    kappa_hat on the sites of S and |E|^s off them, and must be positive."""
    derived = _monte_carlo(p, bad)
    volume, sparse, model, query = (p.get(k) for k in ("volume", "sparse_set", "disorder", "query"))
    if sparse is not None and len(sparse) and model is not None and model.coupling == 0:
        bad.append(("disorder.lambda", "must be > 0 when S is nonempty: k_s divides by lambda^s"))
    if (sparse is not None and volume is not None and len(sparse) < volume.volume
            and query is not None and query["energy"] == 0):
        bad.append(("query.energy", "must be nonzero when S leaves sites of the volume free: "
                                    "k_s divides by |E|^s"))
    return derived


def _edge_scan(p, bad):
    # imported on use: a top-level import loads spectra and resolvent before dynamics,
    # and that load order alone raised peak RSS by about 0.1 MB
    from .spectra import DENSE_CAP

    _monte_carlo(p, bad)
    volume = p.get("volume")
    if volume is not None and volume.volume > DENSE_CAP:
        bad.append(("volume", f"volume {volume.volume} exceeds the dense-diagonalization cap "
                              f"{DENSE_CAP}"))


def _echo_norms(p, bad):
    spec, grid = p.get("symbol"), p.get("s_grid")
    if spec is None or not grid:
        return {}
    return {"h0_norms": {f"{s:g}": s_norm(spec, s) for s in grid}}


def _propagator(p, bad):
    dim, offsets = _dim(p), p.get("offsets") or ()
    wrong = next((i for i, o in enumerate(offsets) if dim is not None and len(o) != dim), None)
    if wrong is not None:
        bad.append((f"offsets[{wrong}]", "offset dimension mismatch"))


def _decay_check(p, bad):
    given = [p.get(key, _FAILED) is not None for key in ("symbol", "sampled_symbol")]
    if all(given):  # a given block that failed its parser counts as given
        bad.append(("symbol", "give either symbol or sampled_symbol, not both"))
    elif not any(given):
        bad.append(("symbol", "need a symbol or sampled_symbol block"))


def _theorem2(p, bad):
    _sparse_set(p, bad)
    center, dim = p.get("center"), _dim(p)
    if center is not None and dim is not None and len(center) != dim:
        bad.append(("center", "dimension mismatch"))
    if p.get("kappa_hat") is None and p.get("disorder") is None:
        bad.append(("kappa_hat", "give kappa_hat or a disorder block to estimate it from"))


_SYMBOL_F = {"symbol": (_symbol, REQUIRED)}
_MC_F = _SYMBOL_F | {"volume": (_VOLUME, REQUIRED), "sparse_set": (_SPARSE_SET, REQUIRED),
                     "disorder": (_DISORDER, REQUIRED)}
_KINDS = {
    "norms": (_SYMBOL_F | {"s_grid": (_s_grid(False), REQUIRED)}, _echo_norms),
    "kernel": (_SYMBOL_F | {"s_grid": (_s_grid(False), None)}, _echo_norms),
    "propagator": (_SYMBOL_F | {
        "times": (_NUMBERS, REQUIRED),
        "offsets": (_list_of(_site, "missing offsets list"), REQUIRED),
    }, _propagator),
    "decay_check": ({
        "symbol": (_symbol, None), "sampled_symbol": (_SAMPLED_SYMBOL, None),
        "offsets": (_seq("must be a nonempty list of integers", item=_is_int), REQUIRED),
        "c_h": (_POSITIVE, None),
    }, _decay_check),
    "sparseness": (_SYMBOL_F | {
        "sparse_set": (_SPARSE_SET, REQUIRED), "phi": (_PHI, REQUIRED),
        "t_max": (_num(8.0), REQUIRED), "weight_gamma": (_POSITIVE, None),
    }, _sparseness),
    "cook": (_SYMBOL_F | {
        "disorder": (_DISORDER, REQUIRED), "sparse_set": (_SPARSE_SET, REQUIRED),
        "phi": (_PHI, REQUIRED), "t_grid": (_NUMBERS, REQUIRED), "n_samples": (_int(30), 30),
    }, _cook),
    "moments": (_MC_F | {
        "query": (_query(2), REQUIRED),
        "check_am_bound": (_check(lambda v: isinstance(v, bool), "must be a boolean"), False),
    }, _monte_carlo),
    "decay_fit": (_MC_F | {"query": (_query(2), REQUIRED), "kappa_hat": (_POSITIVE, None)},
                  _decay_fit),
    "simon_wolff": (_MC_F | {
        "query": (_query(1), REQUIRED),
        "eps_ladder": (_seq("must be a strictly decreasing list of positive numbers", min_len=2,
                            ok=lambda v: all(e > 0 for e in v)
                            and all(b < a for a, b in zip(v, v[1:]))), REQUIRED),
        "expect": (_check(lambda v: v in (None, "ac", "pp"), "must be 'ac' or 'pp' when present"),
                   None),
    }, _monte_carlo),
    "thresholds": (_SYMBOL_F | {
        "disorder": (_DISORDER, REQUIRED),
        "s_grid": (_s_grid(True), REQUIRED),
        "energies": (_check(lambda v: v is None or isinstance(v, list) and all(map(_is_number, v)),
                            "must be a list of numbers"), None),
    }, lambda p, bad: None),
    "edge_scan": (_MC_F | {
        "realizations": (_int(20), REQUIRED), "s": (_UNIT, REQUIRED),
        "bin_width": (_POSITIVE, 0.1), "contrast": (_CONTRAST, None),
    }, _edge_scan),
    "theorem2_cube": (_SYMBOL_F | {
        "sparse_set": (_SPARSE_SET, REQUIRED),
        "center": (_given("missing cube center", _site), REQUIRED),
        "s": (_UNIT, REQUIRED), "gamma": (_POSITIVE, REQUIRED),
        "kappa_hat": (_POSITIVE, None), "disorder": (_DISORDER, None),
    }, _theorem2),
}
KINDS = tuple(_KINDS)

_TOP = {
    "kind": (str, None),  # checked before the walk
    "seed": (_int(0), 0),
    "out": (_check(lambda v: v is None or isinstance(v, str), "must be a string path"), None),
    "threads": (_int(1), 1),
}
# the runners know some blocks by the name of what is built from them
_OBJECT_NAMES = {"symbol": "spec", "disorder": "model", "sparse_set": "sparse",
                 "sampled_symbol": "sampled", "weight_gamma": "gamma"}


def validate_config(raw, kind: str | None = None) -> ExperimentConfig:
    """Parse and validate a config document (dict or JSON text): the config
    with its built objects and derived echo quantities, or ConfigError
    carrying the complete list of violations."""
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError([("<document>", f"not valid JSON: {exc}")])
    if not isinstance(raw, dict):
        raise ConfigError([("<document>", "top level must be an object")])
    try:
        raw = json.loads(json.dumps(raw))  # deep copy
    except (TypeError, ValueError) as exc:  # a value JSON cannot hold, or a cycle
        raise ConfigError([("<document>", f"not a JSON document: {exc}")])

    # the top-level seed is the default for blocks that omit their own
    top_seed = raw.get("seed", 0)
    if _is_int(top_seed):
        for block_name in ("disorder", "sparse_set"):
            block = raw.get(block_name)
            if isinstance(block, dict) and "seed" not in block:
                block["seed"] = top_seed

    bad = []
    cfg_kind = raw.get("kind", kind)
    if cfg_kind is None:
        bad.append(("kind", "missing experiment kind"))
    elif cfg_kind not in KINDS:
        bad.append(("kind", f"unknown kind {cfg_kind!r}; expected one of {', '.join(KINDS)}"))
    if kind is not None and cfg_kind is not None and cfg_kind != kind:
        bad.append(("kind", f"config kind {cfg_kind!r} does not match requested {kind!r}"))
    if bad:
        raise ConfigError(bad)

    fields, rules = _KINDS[cfg_kind]
    p, bad = _walk(_TOP | fields, raw, top=True)
    derived = rules(p, bad) or {}
    if bad:
        raise ConfigError(bad)
    objects = {_OBJECT_NAMES.get(k, k): v for k, v in p.items() if k not in _TOP}
    params = {k: raw[k] for k in raw if k not in _TOP}
    return ExperimentConfig(cfg_kind, p["seed"], p["out"], p["threads"], params, derived, objects)
