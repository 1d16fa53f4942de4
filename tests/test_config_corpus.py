"""The error contract of validation on a type-mutation corpus.

One small valid config per kind; every value at every key path is
replaced in turn by each of a handful of ill-typed values.  Validation
must either accept the result or raise ConfigError: never anything else.
"""

import copy

from sparseloc import config, experiments
from sparseloc.cli import build_parser
from sparseloc.config import ExperimentConfig, validate_config
from sparseloc.errors import ConfigError

_DISORDER = {"law": "uniform", "params": [-1.0, 1.0], "lambda": 20.0}
_QUERY = {"energy": 5.0, "epsilon": 1e-3, "s": 0.5, "source": [0], "realizations": 4}

BASES = [
    {"kind": "norms", "seed": 1, "threads": 1, "symbol": {"delta": 2}, "s_grid": [0.5, 1.0]},
    {"kind": "kernel", "symbol": {"axes": [[{"k": 1, "c": 1.0}, {"k": 2, "c": 0.5}]]},
     "s_grid": [0.5]},
    {"kind": "propagator", "symbol": {"delta": 2}, "times": [0.5, 1.0],
     "offsets": [[0, 0], [1, 0]]},
    {"kind": "decay_check",
     "sampled_symbol": {"name": "periodized_gaussian", "width": 0.6, "dim": 1},
     "offsets": [0, 1, 2], "c_h": 1.0},
    {"kind": "sparseness", "symbol": {"delta": 5},
     "sparse_set": {"generator": "deterministic_powers", "alpha": 0.25, "half_side": 8},
     "phi": [{"site": [0, 0, 0, 0, 0], "re": 1.0, "im": 0.0}], "t_max": 16.0,
     "weight_gamma": 0.5},
    {"kind": "cook", "seed": 3, "symbol": {"delta": 1},
     "sparse_set": {"generator": "explicit_list", "alpha": 0.5, "sites": [[-2], [0], [2]]},
     "disorder": dict(_DISORDER, weight={"gamma": 0.5}),
     "phi": [{"site": [0], "re": 1.0}], "t_grid": [0.5, 1.0], "n_samples": 30},
    {"kind": "moments", "seed": 3, "out": "runs/m", "symbol": {"delta": 1},
     "volume": {"center": [0], "half_side": 10},
     "sparse_set": {"generator": "full_cube", "alpha": 0.5},
     "disorder": _DISORDER, "query": _QUERY, "check_am_bound": True},
    {"kind": "decay_fit", "symbol": {"delta": 1}, "volume": {"center": [0], "half_side": 10},
     "sparse_set": {"generator": "bernoulli_thinned", "alpha": 0.5, "seed": 2},
     "disorder": _DISORDER, "query": _QUERY, "kappa_hat": 0.6},
    {"kind": "simon_wolff", "symbol": {"delta": 1}, "volume": {"center": [0], "half_side": 10},
     "sparse_set": {"generator": "full_cube", "alpha": 0.5, "half_side": 5},
     "disorder": _DISORDER, "query": _QUERY, "eps_ladder": [0.1, 0.01], "expect": "pp"},
    {"kind": "thresholds", "symbol": {"delta": 1},
     "disorder": {"law": "gaussian", "params": [0.0, 1.0], "lambda": 30.0},
     "s_grid": [0.5], "energies": [5.0]},
    {"kind": "edge_scan", "symbol": {"delta": 1}, "volume": {"center": [0], "half_side": 10},
     "sparse_set": {"generator": "full_cube", "alpha": 0.5}, "disorder": _DISORDER,
     "realizations": 20, "s": 0.5, "bin_width": 0.1,
     "contrast": {"offset": 1.0, "min_ratio": 2.0}},
    {"kind": "theorem2_cube", "symbol": {"delta": 1},
     "sparse_set": {"generator": "explicit_list", "alpha": 0.5, "sites": [[-1], [1]]},
     "center": [0], "s": 0.5, "gamma": 1.0, "kappa_hat": 1.0, "disorder": _DISORDER},
]

# the last three are not JSON: a library caller can still pass them
MUTATIONS = [None, True, "x", [], {}, -1, 0.5, [0.5], [[]], [{}], {0.5}, b"x", object()]


def _paths(value, prefix=()):
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, sub in items:
        yield prefix + (key,)
        yield from _paths(sub, prefix + (key,))


def corpus():
    """(base index, key path, mutation, config) for every mutation."""
    for i, base in enumerate(BASES):
        for path in _paths(base):
            for mutation in MUTATIONS:
                raw = copy.deepcopy(base)
                node = raw
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = copy.deepcopy(mutation)
                yield i, path, mutation, raw


def test_bases_are_valid_and_cover_every_kind():
    assert [b["kind"] for b in BASES] == list(config.KINDS)
    for base in BASES:
        assert isinstance(validate_config(copy.deepcopy(base)), ExperimentConfig)


def test_mutation_corpus_returns_or_raises_config_error():
    count = 0
    for _, path, mutation, raw in corpus():
        count += 1
        try:
            validate_config(raw)
        except ConfigError as exc:
            assert exc.violations, (path, mutation)
        except Exception as exc:  # anything else breaks the error contract
            raise AssertionError(f"{raw['kind']} {path} <- {mutation!r}: {exc!r}") from exc
    assert count > 2000


_TIME_FIELDS = {"propagator": "times", "sparseness": "t_max", "cook": "t_grid"}
_SITE_FIELDS = ("offsets", "sites", "site")


def size_mutants():
    """(key path, config) for each time field at 1e300 and each site
    coordinate at +/-2^61, in the bases of the kinds that build axis tables."""
    for base in BASES:
        if base["kind"] not in _TIME_FIELDS:
            continue
        for path in _paths(base):
            leaf = _get(base, path)
            timed = path[0] == _TIME_FIELDS[base["kind"]] and not isinstance(leaf, list)
            in_site = any(key in _SITE_FIELDS for key in path[:-1]) and isinstance(leaf, int)
            for value in [1e300] if timed else [2 ** 61, -2 ** 61] if in_site else []:
                raw = copy.deepcopy(base)
                _get(raw, path[:-1])[path[-1]] = value
                yield path, raw


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def test_size_mutants_are_config_errors():
    """A time past any table, or a site 2^61 from the others, asks for an axis
    table over the node cap: validation refuses it rather than the run."""
    count = 0
    for path, raw in size_mutants():
        count += 1
        try:
            validate_config(raw)
        except ConfigError:
            continue
        raise AssertionError(f"{raw['kind']} {path} validated")
    assert count == 31


def cap_mutants():
    """(key path, config) for each half_side in the bases, of a volume or of a
    sparse set, at 2^40, and each bin_width at 1e-9 and at 5e-324."""
    for base in BASES:
        for path in _paths(base):
            values = {"half_side": [2 ** 40], "bin_width": [1e-9, 5e-324]}.get(path[-1], [])
            for value in values:
                raw = copy.deepcopy(base)
                _get(raw, path[:-1])[path[-1]] = value
                yield path, raw


def test_cap_mutants_are_config_errors():
    """A cube, a sparse set or an energy-bin grid past its cap is refused at
    validation, by the rule the code that builds it calls."""
    count = 0
    for path, raw in cap_mutants():
        count += 1
        try:
            validate_config(raw)
        except ConfigError:
            continue
        raise AssertionError(f"{raw['kind']} {path} validated")
    assert count == 8


def test_lambda_zero_is_rejected_at_validation_or_runs_ok(tmp_path):
    """Every base with a disorder block at lambda = 0 either fails validation
    or runs to an ok manifest: nothing that validates fails mid-run."""
    rejected = set()
    for base in BASES:
        if "disorder" not in base:
            continue
        raw = copy.deepcopy(base)
        raw["disorder"] = dict(raw["disorder"], **{"lambda": 0.0})
        try:
            cfg = validate_config(raw)
        except ConfigError:
            rejected.add(raw["kind"])
            continue
        manifest = experiments.run_experiment(cfg, out_dir=str(tmp_path / raw["kind"]))
        assert manifest.status == "ok", raw["kind"]
    # an AM check and a k_s with lambda^s kappa_hat = 0 on S cannot be made
    assert rejected == {"moments", "decay_fit"}


def test_one_runner_and_one_subcommand_per_kind():
    assert set(experiments._RUNNERS) == set(config.KINDS)
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(subparsers.choices) == set(config.KINDS) | {"verify"}
