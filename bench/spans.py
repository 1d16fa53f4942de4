"""Spans around calls into each layer of the package, installed from the
benchmark by wrapping module and class attributes.  Nothing under
``src/`` knows about them.

A span is one call of a wrapped function.  Spans nest on a stack; when a
span ends, its duration is added to its parent's child time, and its
self time is its duration minus that child time (the part of its
interval covered by wrapped calls it made).  Hot leaf functions are
called hundreds of thousands of times, so spans are not kept one by one:
each is folded on exit into a per-(parent, name) record of calls, total
and self seconds, which is the call tree the run writes out at the end.
Counts (sites generated, fill-in, FFT points, bytes written, distinct
draws) are taken at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = [["<root>", 0.0, 0.0]]  # name, start, child seconds
        self.edges: dict = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total, self
        self.counts: dict = defaultdict(int)
        self.keys: dict = defaultdict(set)

    def enter(self, name: str) -> None:
        self.stack.append([name, _now(), 0.0])

    def exit(self) -> None:
        end = _now()
        name, start, child = self.stack.pop()
        duration = end - start
        parent = self.stack[-1]
        parent[2] += duration
        edge = self.edges[(parent[0], name)]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - child

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so every call is a span; ``on_result(result, args)``
        runs inside the span (keep it cheap) to take counts."""

        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result, args, kwargs)
                return result
            finally:
                self.exit()

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_totals(self) -> dict:
        """name -> (calls, total seconds, self seconds) summed over parents."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), (calls, total, self_s) in self.edges.items():
            rec = out[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return dict(out)

    def call_tree(self) -> list[dict]:
        return [
            {"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
            for (p, n), (c, t, s) in sorted(self.edges.items())
        ]


def _replace_everywhere(original, replacement) -> int:
    """Rebind every sparseloc module attribute that is ``original``; modules
    that imported the function by name hold their own reference."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sparseloc" or mod_name.startswith("sparseloc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    if hits == 0:
        raise RuntimeError(f"{original.__qualname__} is bound in no sparseloc module")
    return hits


class _LUProxy:
    """SuperLU factor whose ``solve`` is a span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class _ModuleProxy:
    """Stand-in for a module reference held by one package module, with
    some attributes overridden; all others resolve on the real module."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    from sparseloc import (
        _stats, config, disorder, dynamics, experiments, lattice, operators, resolvent, spectra,
    )

    t = tracer

    def wrap_function(module, attr, name, on_result=None):
        original = getattr(module, attr)
        _replace_everywhere(original, t.span(name, original, on_result))

    def wrap_method(cls, attr, name, on_result=None):
        setattr(cls, attr, t.span(name, getattr(cls, attr), on_result))

    def count(key, value):
        t.counts[key] += value

    wrap_function(config, "validate_config", "config.validate")
    wrap_function(experiments, "run_experiment", "experiments.run")

    wrap_function(lattice, "generate_sparse_set", "lattice.generate",
                  lambda res, a, k: count("lattice.sites_generated", len(res)))
    wrap_function(lattice, "sparseness_profile", "lattice.profile",
                  lambda res, a, k: count("lattice.profile_rows", len(res)))

    set_ids: dict = {}  # id(SparseSet) -> (the set, index of its content)
    contents: dict = {}  # site tuple -> index, so equal sets share a key

    def sample_key(res, args, kwargs):
        model, sparse, realization = args[:3]
        entry = set_ids.get(id(sparse))
        if entry is None:
            entry = set_ids[id(sparse)] = (sparse, contents.setdefault(sparse.sites, len(contents)))
        t.keys["disorder.sample"].add((model, realization, entry[1]))

    wrap_function(disorder, "sample_potential", "disorder.sample", sample_key)

    wrap_method(operators.AssembledOperator, "index_of", "operators.scatter")
    wrap_function(operators, "assemble_finite_volume", "operators.assemble")
    wrap_method(operators.SymbolSpec, "axis_derivative_sup", "operators.deriv_sup")

    splu_original = resolvent.spla.splu
    factor = t.span("resolvent.factor", splu_original)
    solve = t.span("resolvent.solve", lambda lu, *a, **k: lu.solve(*a, **k))

    def splu(matrix, *args, **kwargs):
        lu = factor(matrix, *args, **kwargs)
        # the fill count builds L and U copies: its own span, so no layer pays it
        t.enter("trace.bookkeeping")
        try:
            count("resolvent.factor_fill_nnz", int(lu.L.nnz) + int(lu.U.nnz))
        finally:
            t.exit()
        return _LUProxy(lu, lambda *a, **k: solve(lu, *a, **k))

    resolvent.spla = _ModuleProxy(resolvent.spla, splu=splu)

    # the realization loops of the Monte-Carlo kinds only (spectra keeps its own)
    resolvent.run_indexed = t.span("resolvent.loop", resolvent.run_indexed)
    wrap_function(resolvent, "estimate_decoupling", "resolvent.decoupling")
    wrap_function(resolvent, "_frac_integral", "resolvent.quad")

    wrap_method(_stats.RunningMoments, "add", "stats.reduce")
    wrap_method(_stats.RunningMoments, "stderr", "stats.reduce")

    def table_key(res, args, kwargs):
        spec, axis, time_value, d_max = args[:4]
        t.keys["dynamics.axis_table"].add((spec.axes[axis], float(time_value), int(d_max)))

    wrap_function(dynamics, "axis_factor_table", "dynamics.axis_table", table_key)
    node_count = dynamics._node_count

    def counted_nodes(*args, **kwargs):
        n = node_count(*args, **kwargs)
        count("dynamics.fft_points", n)
        return n

    dynamics._node_count = counted_nodes
    wrap_function(dynamics, "projected_norm", "dynamics.c_of_t")

    wrap_function(spectra, "eigensystem", "spectra.eigh")

    def written(res, args, kwargs):
        # a manifest holds the run's elapsed seconds, so its length varies
        path = Path(args[0])
        if path.name != "manifest.json":
            count("experiments.write_bytes", path.stat().st_size)

    wrap_function(experiments, "write_csv", "experiments.write", written)
    wrap_function(experiments, "write_json", "experiments.write", written)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric name -> value for one traced iteration."""
    totals = tracer.layer_totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def unique_frac(name):
        n = calls(name)
        return len(tracer.keys[name]) / n if n else 0.0

    c = tracer.counts
    return {
        "lattice.generate_s": self_s("lattice.generate"),
        "lattice.generate_calls": calls("lattice.generate"),
        "lattice.sites_generated": c["lattice.sites_generated"],
        "lattice.profile_s": self_s("lattice.profile"),
        "lattice.profile_rows": c["lattice.profile_rows"],
        "disorder.sample_s": self_s("disorder.sample"),
        "disorder.sample_calls": calls("disorder.sample"),
        "disorder.sample_unique_frac": unique_frac("disorder.sample"),
        "operators.scatter_s": self_s("operators.scatter"),
        "operators.scatter_calls": calls("operators.scatter"),
        "operators.assemble_s": self_s("operators.assemble"),
        "operators.assemble_calls": calls("operators.assemble"),
        "operators.deriv_sup_s": self_s("operators.deriv_sup"),
        "operators.deriv_sup_calls": calls("operators.deriv_sup"),
        "resolvent.factor_s": self_s("resolvent.factor"),
        "resolvent.factor_calls": calls("resolvent.factor"),
        "resolvent.factor_fill_nnz": c["resolvent.factor_fill_nnz"],
        "resolvent.solve_s": self_s("resolvent.solve"),
        "resolvent.loop_self_s": self_s("resolvent.loop"),
        "resolvent.decoupling_s": self_s("resolvent.decoupling"),
        "resolvent.decoupling_calls": calls("resolvent.decoupling"),
        "resolvent.quad_s": self_s("resolvent.quad"),
        "resolvent.quad_calls": calls("resolvent.quad"),
        "stats.reduce_s": self_s("stats.reduce"),
        "stats.reduce_calls": calls("stats.reduce"),
        "dynamics.axis_table_s": self_s("dynamics.axis_table"),
        "dynamics.axis_table_calls": calls("dynamics.axis_table"),
        "dynamics.axis_table_unique_frac": unique_frac("dynamics.axis_table"),
        "dynamics.fft_points": c["dynamics.fft_points"],
        "dynamics.c_of_t_calls": calls("dynamics.c_of_t"),
        "spectra.eigh_s": self_s("spectra.eigh"),
        "spectra.eigh_calls": calls("spectra.eigh"),
        "experiments.write_s": self_s("experiments.write"),
        "experiments.write_bytes": c["experiments.write_bytes"],
    }
