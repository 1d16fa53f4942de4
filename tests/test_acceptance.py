"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` or via the CLI as
``sparseloc verify``.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sparseloc import acceptance, experiments
from sparseloc.disorder import DisorderModel, UniformLaw
from sparseloc.lattice import Cube, sparse_set_from_sites
from sparseloc.operators import assemble_finite_volume, delta_symbol
from sparseloc.resolvent import RealizationEngine

from oracles import green_row


@pytest.fixture(scope="module")
def workdir():
    path = Path(tempfile.mkdtemp(prefix="sparseloc-acceptance-"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(fn, workdir):
    result = fn(workdir=workdir)
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status} criterion {result.index:2d}: {result.name} -- {result.details}")
    return result


def _written(directory):
    """The artifact directories a criterion left under its own workdir."""
    return sorted(p.name for p in directory.iterdir())


def test_criterion_01_s_norm_exactness(workdir):
    assert _run(acceptance.criterion_01_s_norm_exactness, workdir).passed


def test_criterion_02_neumann_domination(workdir):
    """The Neumann bound dominates the direct sum and has its closed form.

    Clause one: neumann_fractional_bound, |E|^(-s) (1 - ||H0||_s^s/|E|^s)^(-1)
    from the geometric series of (H0 - z)^(-1) with the termwise s-power
    inequality, dominates the directly computed fractional row-sum at
    E in {3, 4, 6}, s = 0.9, side 2001.  Clause two: bound(3) equals the
    closed form 3^-0.9 / (1 - 2/3^0.9) = 1.4537517 to 1e-6.  A 1/|E|
    prefactor in place of |E|^(-s) is NOT a bound: at E = 4 the direct
    sum is 0.614656 > 0.587336 and at E = 6 it is 0.318406 > 0.277197,
    so that regression fails both clauses.
    """
    result = _run(acceptance.criterion_02_neumann_domination, workdir)
    assert result.passed, result.details


def test_criterion_02_reports_a_failed_domination(workdir, monkeypatch):
    """With the 1/|E|-prefactor form put back, the verdict is false and
    the summary says where domination fails instead of printing "<="."""
    from sparseloc.operators import s_norm

    def one_over_e_form(kernel, energy, s):
        return (1.0 / abs(energy)) / (1.0 - s_norm(kernel, s) ** s / abs(energy) ** s)

    monkeypatch.setattr(acceptance, "neumann_fractional_bound", one_over_e_form)
    result = acceptance.criterion_02_neumann_domination(workdir=workdir)
    assert not result.passed
    details = dict(part.split(": ", 1) for part in result.details.split("; "))
    assert details["E=4"] == "direct 0.614656 > bound 0.587336 (FAILS: not dominated)"
    assert details["E=6"].startswith("direct 0.318406 > bound 0.277197")
    assert details["E=3"] == "direct 1.188253 <= bound 1.302501"


def test_criterion_02_engine_sums_equal_green_row_oracle(workdir):
    """Criterion 2 reads the free resolvent off the realization engine
    (lambda = 0 on an empty S, the banded path); its fractional sums are
    bitwise those of one default splu per row, and its line is unchanged."""
    kernel = delta_symbol(1)
    volume = Cube((0,), 1000)
    engine = RealizationEngine(kernel, volume, sparse_set_from_sites([], 0.5, 1),
                               DisorderModel(UniformLaw(-1.0, 1.0), coupling=0.0), (0,))
    op = assemble_finite_volume(kernel, volume)
    for energy in (3.0, 4.0, 6.0):
        z = complex(energy, 1e-6)
        row = engine.green_rows(z, engine.diagonals(range(1)))[0][0]
        assert float(np.sum(np.abs(row) ** 0.9)) == green_row(op, z, (0,)).sum_abs_pow(0.9)
    result = acceptance.criterion_02_neumann_domination(workdir=workdir)
    assert result.details.startswith(
        "E=3: direct 1.188253 <= bound 1.453752; E=4: direct 0.614656 <= bound 0.674672; "
        "E=6: direct 0.318406 <= bound 0.331592; ")


def test_criterion_03_propagator(workdir):
    assert _run(acceptance.criterion_03_propagator, workdir).passed


def test_criterion_04_time_decay_exponents(workdir):
    assert _run(acceptance.criterion_04_time_decay_exponents, workdir).passed


def test_criterion_05_offdiagonal_regime(workdir):
    assert _run(acceptance.criterion_05_offdiagonal_regime, workdir).passed


def test_criterion_06_sparse_caps(workdir):
    assert _run(acceptance.criterion_06_sparse_caps, workdir).passed


def test_criterion_07_sparseness_integral(workdir):
    result = _run(acceptance.criterion_07_sparseness_integral, workdir / "c07")
    assert result.passed
    assert result.details == "unweighted: converging=True; weighted: converging=True"
    assert _written(workdir / "c07") == ["sparseness_u", "sparseness_w"]


def test_criterion_08_am_uniform_bound(workdir):
    result = _run(acceptance.criterion_08_am_uniform_bound, workdir / "c08")
    assert result.passed
    assert result.details == ("E=3: within bound + 2 stderr = True; "
                              "E=5: within bound + 2 stderr = True")
    assert _written(workdir / "c08") == ["moments_E3", "moments_E5"]


def test_criterion_09_localization_decay(workdir, monkeypatch):
    """Criterion 9 reads lambda_s off the kappa_hat of its own decay_fit
    run: one decoupling estimate per run, not a second one of its own."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    estimate = experiments.estimate_decoupling
    monkeypatch.setattr(experiments, "estimate_decoupling", spy)
    monkeypatch.setattr(acceptance, "estimate_decoupling", spy, raising=False)
    result = _run(acceptance.criterion_09_localization_decay, workdir / "c09")
    assert result.passed
    assert result.details == ("lambda=30 >= 2 lambda_s = 21.46; "
                              "fitted rate -1.070 <= log k_s + 0.05 = -0.464: True")
    assert _written(workdir / "c09") == ["decay_fit"]
    assert len(calls) == 1


def test_criterion_10_simon_wolff(workdir):
    result = _run(acceptance.criterion_10_simon_wolff, workdir / "c10")
    assert result.passed
    assert result.details == "ac: True; pp: True"
    assert _written(workdir / "c10") == ["sw_ac", "sw_pp"]


def test_criterion_11_theorem2_cube(workdir):
    assert _run(acceptance.criterion_11_theorem2_cube, workdir).passed


def test_criterion_12_mobility_edge_contrast(workdir):
    result = _run(acceptance.criterion_12_mobility_edge_contrast, workdir / "c12")
    assert result.passed
    assert result.details == ("outer median 0.8978 vs center 0.02145: "
                              "contrast 41.9x >= 10x: True")
    assert _written(workdir / "c12") == ["edge_scan"]


def test_criterion_13_reproducibility(workdir):
    assert _run(acceptance.criterion_13_reproducibility, workdir / "c13").passed
    kinds = ("decay_fit", "edge_scan", "moments", "simon_wolff", "sparseness", "theorem2_cube")
    assert _written(workdir / "c13") == [f"repro_{kind}_t{n}" for kind in kinds
                                         for n in (1, 4, 8)]
