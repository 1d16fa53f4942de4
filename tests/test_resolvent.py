import contextlib
import itertools
import math
import os
import platform
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import get_lapack_funcs

from sparseloc import resolvent
from sparseloc.config import validate_config
from sparseloc.errors import NumericalError
from sparseloc.lattice import Cube, generate_sparse_set, sparse_set_from_sites
from sparseloc.operators import (
    AssembledOperator,
    SymbolSpec,
    assemble_finite_volume,
    delta_symbol,
    is_tridiagonal,
    s_norm,
)
from sparseloc.disorder import (
    DisorderModel,
    GaussianLaw,
    TruncatedCauchyLaw,
    UniformLaw,
    sample_potential,
)
from sparseloc.experiments import run_experiment
from sparseloc.resolvent import (
    GreenQuery,
    MomentEstimate,
    RealizationEngine,
    am_uniform_bound,
    decay_rate_fit,
    estimate_decoupling,
    fractional_moment_estimate,
    k_s,
    lambda_threshold,
    simon_wolff_proxy,
    theorem2_cube,
)

from oracles import banded_green_rows, green_row

DELTA1 = delta_symbol(1)
ZERO1 = SymbolSpec(((),))


def _assemble(kernel, potential, cube):
    """Free assembly plus a dict potential, placed site by site."""
    op = assemble_finite_volume(kernel, cube)
    diag = np.zeros(op.size)
    for site, value in potential.items():
        diag[op.index_of(site)] += value
    return AssembledOperator(cube, (op.matrix + sp.diags(diag)).tocsr())


def test_green_row_zero_operator():
    op = assemble_finite_volume(ZERO1, Cube((0,), 2))
    row = green_row(op, -1j, (0,))
    assert row.at(op, (0,)) == pytest.approx(-1j)
    assert abs(row.at(op, (1,))) < 1e-14


def test_green_row_free_value_outside_band():
    op = assemble_finite_volume(DELTA1, Cube((0,), 1000))
    row = green_row(op, 3 + 1e-6j, (0,))
    # (1/2pi) int dtheta / (2 cos theta - 3) = -1/sqrt(5)
    assert row.at(op, (0,)).real == pytest.approx(-1.0 / math.sqrt(5.0), abs=1e-9)


def test_green_row_huge_diagonal_suppresses_value():
    cube = Cube((0,), 4)
    op = _assemble(DELTA1, {(0,): 1e6}, cube)
    row = green_row(op, 0.5 + 1e-3j, (0,))
    dense = np.linalg.inv(op.matrix.toarray() - (0.5 + 1e-3j) * np.eye(op.size))
    assert abs(row.at(op, (0,))) == pytest.approx(1e-6, rel=1e-2)
    assert row.at(op, (2,)) == pytest.approx(dense[op.index_of((2,)), op.index_of((0,))])


def test_green_row_symmetry():
    cube = Cube((0,), 6)
    potential = {(i,): 0.3 * i for i in range(-6, 7)}
    op = _assemble(DELTA1, potential, cube)
    z = 0.7 + 1e-4j
    row_a = green_row(op, z, (2,))
    row_b = green_row(op, z, (-3,))
    assert row_a.at(op, (-3,)) == pytest.approx(row_b.at(op, (2,)), rel=1e-9)


def test_green_row_residual_and_preconditions():
    op = assemble_finite_volume(DELTA1, Cube((0,), 10))
    row = green_row(op, 1.0 + 1e-5j, (0,))
    assert row.residual <= 1e-10
    with pytest.raises(ValueError):
        green_row(op, 1.0, (0,))


def test_fractional_moments_deterministic_when_coupling_zero():
    volume = Cube((0,), 30)
    sparse = sparse_set_from_sites([(i,) for i in range(-30, 31)], 0.5, 1)
    model = DisorderModel(UniformLaw(-1, 1), coupling=0.0, seed=5)
    query = GreenQuery(3.0, 1e-4, 0.5, (0,), volume, 4)
    est = fractional_moment_estimate(query, DELTA1, sparse, model)
    op = assemble_finite_volume(DELTA1, volume)
    free = np.abs(green_row(op, query.z, (0,)).vector) ** 0.5
    np.testing.assert_allclose(est.mean, free, rtol=1e-12)
    assert np.max(est.stderr) == 0.0


def test_fractional_moments_empty_set_matches_free():
    volume = Cube((0,), 30)
    model = DisorderModel(UniformLaw(-1, 1), coupling=40.0, seed=5)
    query = GreenQuery(3.0, 1e-4, 0.5, (0,), volume, 3)
    est = fractional_moment_estimate(query, DELTA1, sparse_set_from_sites([], 0.5, 1), model)
    op = assemble_finite_volume(DELTA1, volume)
    free = np.abs(green_row(op, query.z, (0,)).vector) ** 0.5
    np.testing.assert_allclose(est.mean, free, rtol=1e-12)


def test_fractional_moments_thread_count_invariance(monkeypatch):
    volume = Cube((0,), 40)
    sparse = sparse_set_from_sites([(i,) for i in range(-40, 41)], 0.5, 1)
    model = DisorderModel(UniformLaw(-1, 1), coupling=20.0, seed=9)
    query = GreenQuery(4.0, 1e-3, 0.5, (0,), volume, 16)
    ladder = [1e-1, 1e-2, 1e-3]
    runs = []
    # default blocks (all 16 realizations in one), then blocks of 3 so
    # that 4 threads really split the work; neither may change a bit
    for chunk_entries in (resolvent._CHUNK_ENTRIES, 3 * volume.volume):
        monkeypatch.setattr(resolvent, "_CHUNK_ENTRIES", chunk_entries)
        for threads in (1, 4):
            est = fractional_moment_estimate(query, DELTA1, sparse, model, threads=threads)
            rows = simon_wolff_proxy(query, DELTA1, sparse, model, ladder, threads=threads)
            runs.append((est.mean.tobytes(), est.stderr.tobytes(),
                         [(r.mean_sum_g2, r.stderr, r.trend_ratio) for r in rows]))
    assert all(run == runs[0] for run in runs[1:])


def test_fractional_moments_requires_two_realizations():
    volume = Cube((0,), 5)
    query = GreenQuery(3.0, 1e-3, 0.5, (0,), volume, 1)
    with pytest.raises(ValueError):
        fractional_moment_estimate(
            query, DELTA1, sparse_set_from_sites([], 0.5, 1),
            DisorderModel(UniformLaw(-1, 1)),
        )


def test_green_query_validation():
    with pytest.raises(ValueError):
        GreenQuery(1.0, 0.0, 0.5, (0,), Cube((0,), 3), 2)
    with pytest.raises(ValueError):
        GreenQuery(1.0, 1e-3, 1.5, (0,), Cube((0,), 3), 2)
    with pytest.raises(ValueError):
        GreenQuery(1.0, 1e-3, 0.5, (9,), Cube((0,), 3), 2)


def _search_grid(monkeypatch, n_real, n_imag, zooms):
    """Point estimate_decoupling at an n_real x n_imag grid and ``zooms`` zoom rounds."""
    monkeypatch.setattr(resolvent, "_GRID_RE", n_real)
    monkeypatch.setattr(resolvent, "_GRID_IM", n_imag)
    monkeypatch.setattr(resolvent, "_ZOOMS", zooms)


def test_decoupling_small_s_limit_is_one(monkeypatch):
    _search_grid(monkeypatch, 7, 3, 1)
    dec = estimate_decoupling(UniformLaw(-1, 1), 0.02)
    assert dec.kappa_hat == pytest.approx(1.0, abs=0.05)


def test_decoupling_uniform_interior_and_regression():
    dec = estimate_decoupling(UniformLaw(-1, 1), 0.5)
    assert dec.interior
    # pinned after first computation; refinement stability guards drift
    assert dec.kappa_hat == pytest.approx(0.6106, abs=0.005)


def test_decoupling_refinement_consistency(monkeypatch):
    coarse = estimate_decoupling(UniformLaw(-1, 1), 0.5)
    _search_grid(monkeypatch, 17, 7, resolvent._ZOOMS)
    fine = estimate_decoupling(UniformLaw(-1, 1), 0.5)
    assert abs(fine.kappa_hat - coarse.kappa_hat) / coarse.kappa_hat < 0.005


def test_k_s_is_infinite_where_c_vanishes():
    # C = |lambda|^s kappa_hat on S vanishes at lambda = 0, and C = |E|^s off S at E = 0
    assert k_s(DELTA1, 0.5, 0.0) == math.inf
    assert k_s(DELTA1, 0.5, 30.0 ** 0.5 * 0.6) == pytest.approx(2.0 / (30.0 ** 0.5 * 0.6))


def test_k_s_examples():
    # ||H0||_s^s = 2 for the 1D Laplacian at s = 1/2; C = |E|^s off S
    value = k_s(DELTA1, 0.5, 9.0 ** 0.5)
    assert value == pytest.approx(2.0 / 3.0)
    assert value < 1.0
    boundary = k_s(DELTA1, 0.5, s_norm(DELTA1, 0.5) ** 0.5)
    assert boundary == pytest.approx(1.0)
    assert not boundary < 1.0
    # a volume with sites on and off S: the smaller C gives the larger k_s, bit for bit
    c_on, c_off = 30.0 ** 0.5 * 0.61, 9.0 ** 0.5
    mixed = k_s(DELTA1, 0.5, min(c_on, c_off))
    assert mixed == max(k_s(DELTA1, 0.5, c_on), k_s(DELTA1, 0.5, c_off))


def test_lambda_threshold_examples():
    assert lambda_threshold(DELTA1, 0.5, 1.0) == pytest.approx(4.0)
    assert lambda_threshold(DELTA1, 0.5, 0.5) == pytest.approx(16.0)
    with pytest.raises(ValueError):
        lambda_threshold(DELTA1, 0.5, 0.0)


def test_am_uniform_bound_values():
    assert am_uniform_bound(10.0, 0.5) == pytest.approx(1.0636591793889978, rel=1e-12)
    assert am_uniform_bound(10.0, 0.999) > 100.0
    assert am_uniform_bound(0.0, 0.5) == math.inf
    with pytest.raises(ValueError):
        am_uniform_bound(-1.0, 0.5)
    with pytest.raises(ValueError):
        am_uniform_bound(1.0, 1.0)


def _synthetic_estimate(rate: float, volume: Cube, count=100):
    op = assemble_finite_volume(DELTA1, volume)
    query = GreenQuery(5.0, 1e-3, 0.5, (0,), volume, count)
    dist = np.abs(volume.coords()[:, 0]).astype(float)
    mean = 0.37 * np.exp(rate * dist)
    stderr = mean * 1e-6
    return MomentEstimate(query, mean, stderr, count, op)


def test_decay_fit_recovers_exact_rate():
    est = _synthetic_estimate(math.log(0.43), Cube((0,), 40))
    fit = decay_rate_fit(est, 0.6)
    assert fit.rate == pytest.approx(math.log(0.43), abs=1e-12)
    assert fit.passed


def test_decay_fit_excludes_noise_dominated_bins():
    volume = Cube((0,), 40)
    op = assemble_finite_volume(DELTA1, volume)
    query = GreenQuery(5.0, 1e-3, 0.5, (0,), volume, 100)
    dist = np.abs(volume.coords()[:, 0]).astype(float)
    mean = np.exp(-0.8 * dist)
    stderr = np.where(dist > 10, mean, mean * 1e-3)  # far bins drown in noise
    est = MomentEstimate(query, mean, stderr, 100, op)
    fit = decay_rate_fit(est, 0.5)
    assert max(fit.distances) <= 10


def test_decay_fit_degenerate_raises():
    est = _synthetic_estimate(math.log(0.5), Cube((0,), 4))
    with pytest.raises(NumericalError):
        decay_rate_fit(est, 0.5)


def test_simon_wolff_zero_operator():
    volume = Cube((0,), 10)
    query = GreenQuery(2.0, 1.0, 0.5, (0,), volume, 2)
    model = DisorderModel(UniformLaw(-1, 1), coupling=0.0, seed=0)
    rows = simon_wolff_proxy(
        query, ZERO1, sparse_set_from_sites([], 0.5, 1), model, [1.0, 0.5, 0.25]
    )
    for row in rows:
        assert row.mean_sum_g2 == pytest.approx(1.0 / (4.0 + row.epsilon ** 2), rel=1e-10)
    assert rows[1].trend_ratio == pytest.approx(
        (4.0 + 1.0) / (4.0 + 0.25), rel=1e-10
    )


def test_simon_wolff_free_trends():
    volume = Cube((0,), 1000)
    model = DisorderModel(UniformLaw(-1, 1), coupling=0.0, seed=0)
    empty = sparse_set_from_sites([], 0.5, 1)
    inside = simon_wolff_proxy(
        GreenQuery(1.0, 1.0, 0.5, (0,), volume, 1), DELTA1, empty, model, [1.0, 0.5, 0.25]
    )
    ratios = [r.trend_ratio for r in inside[1:]]
    assert all(r >= 1.8 for r in ratios)  # ~ 1/eps scaling inside the band
    outside = simon_wolff_proxy(
        GreenQuery(3.0, 1e-2, 0.5, (0,), volume, 1), DELTA1, empty, model,
        [1e-2, 5e-3, 2.5e-3],
    )
    ratios = [r.trend_ratio for r in outside[1:]]
    assert all(abs(r - 1.0) < 0.05 for r in ratios)  # finite limit off the spectrum


def test_simon_wolff_requires_decreasing_ladder():
    volume = Cube((0,), 5)
    query = GreenQuery(1.0, 1.0, 0.5, (0,), volume, 1)
    with pytest.raises(ValueError):
        simon_wolff_proxy(
            query, DELTA1, sparse_set_from_sites([], 0.5, 1),
            DisorderModel(UniformLaw(-1, 1)), [0.1, 0.1],
        )


@pytest.mark.parametrize("realizations", [0, -1])
def test_simon_wolff_requires_one_realization(realizations):
    query = GreenQuery(1.0, 1.0, 0.5, (0,), Cube((0,), 5), realizations)
    with pytest.raises(ValueError, match="at least 1 realization"):
        simon_wolff_proxy(query, DELTA1, sparse_set_from_sites([], 0.5, 1),
                          DisorderModel(UniformLaw(-1, 1)), [0.1, 0.01])


def test_theorem2_cube_algebraic_radius():
    sparse = sparse_set_from_sites([(i,) for i in range(-10, 11)], 0.5, 1)
    result = theorem2_cube((0,), 0.5, 1.0, DELTA1, 1.0, sparse)
    assert result.radius == 3
    assert result.infimum > 1.0
    assert not result.covers_all_sites


def test_theorem2_cube_large_gamma_shrinks():
    sparse = sparse_set_from_sites([(i,) for i in range(1, 11)], 0.5, 1)
    small_gamma = theorem2_cube((0,), 0.5, 1.0, DELTA1, 1.0, sparse)
    large_gamma = theorem2_cube((0,), 0.5, 8.0, DELTA1, 1.0, sparse)
    assert large_gamma.radius <= small_gamma.radius
    assert large_gamma.radius == 0  # every site clears at gamma = 8


def test_theorem2_cube_covering_flag():
    sparse = sparse_set_from_sites([(0, 0), (1, 1)], 0.5, 2)
    kernel = delta_symbol(2)
    result = theorem2_cube((0, 0), 0.5, 0.3, kernel, 0.01, sparse)
    assert result.covers_all_sites
    assert math.isinf(result.infimum)


def test_theorem2_cube_brute_force_instance():
    kernel = delta_symbol(2)
    sites = [(-3, 2), (0, 0), (4, -1), (7, 7), (-6, -6)]
    sparse = sparse_set_from_sites(sites, 0.5, 2)
    s, gamma, kappa, center = 0.6, 0.8, 0.9, (1, -1)
    got = theorem2_cube(center, s, gamma, kernel, kappa, sparse)
    threshold = s_norm(kernel, s) ** s
    from sparseloc.lattice import max_norm

    brute = None
    for radius in range(0, 32):
        outside = [m for m in sites if max_norm(m, center) > radius]
        if all((1 + max_norm(m)) ** (gamma * s) * kappa > threshold for m in outside):
            brute = radius
            break
    assert got.radius == brute


def test_volume_doubling_convergence():
    # Dirichlet truncation control: doubling the side moves the interior
    # means by less than one percent (counter-based draws are shared site
    # by site, so the two runs use identical disorder where they overlap)
    model = DisorderModel(UniformLaw(-1, 1), coupling=30.0, seed=21)
    estimates = {}
    for half in (50, 100):
        volume = Cube((0,), half)
        sparse = sparse_set_from_sites([(i,) for i in range(-half, half + 1)], 0.5, 1)
        query = GreenQuery(5.0, 1e-3, 0.5, (0,), volume, 60)
        estimates[half] = fractional_moment_estimate(query, DELTA1, sparse, model)
    for m in range(-12, 13):
        small = estimates[50].mean[m + 50]  # row of site m: m + half_side
        large = estimates[100].mean[m + 100]
        assert abs(large - small) <= 0.01 * small


def test_moment_sums_bounded_down_epsilon_ladder():
    # in the localized regime the summed means stay bounded as eps drops
    volume = Cube((0,), 80)
    sparse = sparse_set_from_sites([(i,) for i in range(-80, 81)], 0.5, 1)
    model = DisorderModel(UniformLaw(-1, 1), coupling=30.0, seed=8)
    totals = []
    for eps in (1e-2, 1e-3, 1e-4):
        query = GreenQuery(5.0, eps, 0.5, (0,), volume, 60)
        est = fractional_moment_estimate(query, DELTA1, sparse, model)
        totals.append(float(np.sum(est.mean)))
    assert totals[1] <= 1.2 * totals[0]
    assert totals[2] <= 1.2 * totals[1]


def test_green_row_matches_quadrature_oracle():
    # independent route: (1/2pi) int dtheta / (2 cos theta - z)
    from scipy.integrate import quad

    z = 3 + 1e-6j
    oracle = complex(
        quad(lambda t: ((2 * np.cos(t) - z) ** -1).real / (2 * np.pi), 0, 2 * np.pi, limit=200)[0],
        quad(lambda t: ((2 * np.cos(t) - z) ** -1).imag / (2 * np.pi), 0, 2 * np.pi, limit=200)[0],
    )
    op = assemble_finite_volume(DELTA1, Cube((0,), 1000))
    value = green_row(op, z, (0,)).at(op, (0,))
    assert value == pytest.approx(oracle, abs=1e-10)


def test_simon_wolff_free_sum_matches_analytic():
    # inside the band, sum_m |G0|^2 = Im G0(0,0)/eps -> 1/(eps sqrt(4 - E^2))
    energy = 1.0
    volume = Cube((0,), 200000)
    model = DisorderModel(UniformLaw(-1, 1), coupling=0.0, seed=0)
    empty = sparse_set_from_sites([], 0.5, 1)
    rows = simon_wolff_proxy(
        GreenQuery(energy, 1e-1, 0.5, (0,), volume, 1), DELTA1, empty, model, [1e-1, 1e-2]
    )
    for row in rows:
        analytic = 1.0 / (row.epsilon * math.sqrt(4.0 - energy ** 2))
        assert row.mean_sum_g2 == pytest.approx(analytic, rel=0.01)


# ------------------------------------------------ realization engine: subnormal flush

def _glibc_x86_64() -> bool:
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):
        glibc = None
    return sys.platform == "linux" and platform.machine() == "x86_64" and bool(glibc)


needs_flush = pytest.mark.skipif(not _glibc_x86_64(),
                                 reason="FTZ/DAZ is set on Linux x86-64 glibc only")
TINY = np.finfo(float).tiny  # the smallest normal double, 2^-1022


def _subnormals(a: np.ndarray) -> int:
    parts = np.abs(np.concatenate([a.real.ravel(), a.imag.ravel()]))
    return int(np.count_nonzero((parts > 0) & (parts < TINY)))


@needs_flush
def test_flush_subnormals_is_active_and_restores_the_mode():
    assert resolvent._fenv() is not None  # the fast path is taken here
    half = TINY * 0.5
    assert half != 0 and half == TINY / 2  # gradual underflow outside
    with resolvent._flush_subnormals():
        assert TINY * 0.5 == 0  # flush to zero
        assert half * 1.0 == 0  # denormals are zero
        with resolvent._flush_subnormals():
            assert TINY * 0.5 == 0
        assert TINY * 0.5 == 0  # the inner exit restores the outer mode
    assert TINY * 0.5 == TINY / 2
    with pytest.raises(KeyError):
        with resolvent._flush_subnormals():
            raise KeyError("inside")
    assert TINY * 0.5 == TINY / 2


def test_flush_subnormals_is_a_no_op_without_fenv(monkeypatch):
    monkeypatch.setattr(resolvent, "_fenv", lambda: None)
    with resolvent._flush_subnormals():
        assert TINY * 0.5 == TINY / 2


def _free_chain_rows(half_side: int = 30000, eps: float = 0.1):
    # E = 1, eps = 0.1: |G(0, m)| falls below 2^-1022 about 12,000 sites out
    model = DisorderModel(UniformLaw(-1, 1), coupling=0.0, seed=0)
    empty = sparse_set_from_sites([], 0.5, 1)
    engine = RealizationEngine(DELTA1, Cube((0,), half_side), empty, model, (0,))
    return engine.green_rows(complex(1.0, eps), engine.diagonals(range(1)))


@needs_flush
def test_engine_rows_hold_no_subnormals(monkeypatch):
    rows, residuals = _free_chain_rows()
    assert _subnormals(rows) == 0
    assert np.all(residuals <= 1e-10)
    assert np.count_nonzero(rows == 0) > 0
    monkeypatch.setattr(resolvent, "_flush_subnormals", contextlib.nullcontext)
    slow, slow_residuals = _free_chain_rows()
    assert _subnormals(slow) > 10000  # the chain does underflow without the flush
    assert np.all(slow_residuals <= 1e-10)
    changed = rows != slow
    assert np.all(np.abs(slow[changed]) < 1e-290)  # only far-tail entries move
    want = np.sum(np.abs(slow) ** 2)
    assert np.sum(np.abs(rows) ** 2) == pytest.approx(want, rel=1e-15)


def test_simon_wolff_csv_with_underflow_is_thread_count_invariant(tmp_path):
    # a few random sites near the source, four realizations (one block each
    # at 60,001 sites), so 4 threads solve on 4 workers, each flushing
    raw = {
        "kind": "simon_wolff",
        "seed": 2,
        "symbol": {"delta": 1},
        "volume": {"center": [0], "half_side": 30000},
        "sparse_set": {"generator": "explicit_list", "alpha": 0.5,
                       "sites": [[-7], [0], [3], [50]]},
        "disorder": {"law": "uniform", "params": [-1.0, 1.0], "lambda": 0.5},
        "query": {"energy": 1.0, "epsilon": 0.1, "s": 0.5, "source": [0], "realizations": 4},
        "eps_ladder": [1e-1, 1e-2],
        "expect": "ac",
    }
    texts = []
    for threads in (1, 4):
        run_experiment(validate_config(raw), out_dir=str(tmp_path / str(threads)), threads=threads)
        texts.append((tmp_path / str(threads) / "simon_wolff.csv").read_bytes())
    assert texts[0] == texts[1]


# ------------------------------------------------ realization engine: banded vs splu

DELTA1_RANGE2 = SymbolSpec((((1, 1.0), (2, 0.35)),))


def _assert_close(got, want):
    """The differential tolerance: rtol 1e-12 plus an absolute floor of
    1e-14 times the largest entry (far-tail entries sit near round-off)."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.max(np.abs(want)))


def _green_row_reference(kernel, volume, sparse, model, source, z, realizations):
    """Green rows one realization at a time through green_row and splu,
    each potential placed site by site."""
    rows = []
    for r in realizations:
        op = _assemble(kernel, sample_potential(model, sparse, r), volume)
        rows.append(green_row(op, z, source).vector)
    return np.array(rows)


@pytest.mark.parametrize("kernel", [DELTA1, DELTA1_RANGE2], ids=["range1", "range2"])
@pytest.mark.parametrize("energy,eps", [(5.0, 1e-3), (0.5, 1e-4), (-1.7, 1e-2), (3.0, 1e-1)])
@pytest.mark.parametrize("coupling", [30.0, 1.0, 0.0], ids=["strong", "weak", "free"])
def test_banded_rows_match_splu_reference(kernel, energy, eps, coupling):
    volume = Cube((0,), 60)
    sparse = sparse_set_from_sites([(i,) for i in range(-60, 61, 2)], 0.5, 1)
    model = DisorderModel(UniformLaw(-1, 1), coupling=coupling, seed=4)
    engine = RealizationEngine(kernel, volume, sparse, model, (3,))
    assert is_tridiagonal(engine.op.matrix) == (engine.ab is not None) == (kernel is DELTA1)
    z = complex(energy, eps)
    rows, residuals = engine.green_rows(z, engine.diagonals(range(5, 17)), 5)
    ref_rows = _green_row_reference(kernel, volume, sparse, model, (3,), z, range(5, 17))
    assert np.max(residuals) <= 1e-10
    _assert_close(np.abs(rows) ** 0.5, np.abs(ref_rows) ** 0.5)
    _assert_close(np.sum(np.abs(rows) ** 2, axis=1), np.sum(np.abs(ref_rows) ** 2, axis=1))


@pytest.mark.parametrize("kernel,half", [
    (ZERO1, 12), (DELTA1, 40), (DELTA1_RANGE2, 40), (ZERO1, 0), (DELTA1, 0), (DELTA1_RANGE2, 0),
], ids=["band0", "band1", "band2", "one-site-band0", "one-site-band1", "one-site-band2"])
@pytest.mark.parametrize("threads", [1, 4])
def test_stacked_banded_rows_match_solve_banded_reference(monkeypatch, kernel, half, threads):
    # blocks of 3 realizations: 7 realizations are blocks 0-2, 3-5 and 6 (one site x one
    # realization in the one-site cases).  Tridiagonal matrices (every one-site volume
    # among them) must give solve_banded's bits; the range-2 chain goes to splu and is
    # held to green_row's at the differential tolerance.
    monkeypatch.setattr(resolvent, "_CHUNK_ENTRIES", 3 * (2 * half + 1))
    volume = Cube((3,), half)
    sparse = generate_sparse_set(0.5, volume, "bernoulli_thinned", 2) if half else \
        sparse_set_from_sites([(3,)], 0.5, 1)
    model = DisorderModel(UniformLaw(-1, 1), coupling=4.0, seed=6)
    source = (3 + half // 2,)
    engine = RealizationEngine(kernel, volume, sparse, model, source)
    tridiagonal = kernel is not DELTA1_RANGE2 or half == 0
    assert is_tridiagonal(engine.op.matrix) == (engine.ab is not None) == tridiagonal
    assert engine.chunk == 3
    for z in (complex(0.4, 1e-3), complex(2.9, 1e-2), complex(6.0, 1e-4)):
        blocks = {}

        def block(first, diags):
            blocks[first] = (diags, engine.green_rows(z, diags, first)[0])
            return np.zeros((len(diags), 1))

        engine.reduce(block, 7, 1, threads)
        assert sorted(blocks) == [0, 3, 6]
        for first, (diags, rows) in blocks.items():
            if not tridiagonal:
                _assert_close(rows, [green_row(AssembledOperator(volume, engine.op.matrix
                                                                 + sp.diags(d)), z, source).vector
                                     for d in diags])
                continue
            with resolvent._flush_subnormals():
                want = banded_green_rows(engine.op, z, diags, source)
            assert rows.tobytes() == want.tobytes(), (z, first)


@pytest.mark.parametrize("energy,eps", [(5.0, 1e-3), (0.5, 1e-4), (2.5, 1e-2)])
@pytest.mark.parametrize("coupling,step", [(30.0, 1), (2.0, 3), (0.0, 1), (9.0, 200)],
                         ids=["full", "sparse", "zero-coupling", "empty-set"])
def test_moments_and_simon_wolff_match_green_row_reference(energy, eps, coupling, step):
    volume = Cube((0,), 50)
    sites = [(i,) for i in range(-50, 51, step)] if step < 200 else []
    sparse = sparse_set_from_sites(sites, 0.5, 1)
    model = DisorderModel(UniformLaw(-1, 1), coupling=coupling, seed=17)
    count = 6
    query = GreenQuery(energy, eps, 0.5, (-7,), volume, count)
    ref = _green_row_reference(DELTA1, volume, sparse, model, (-7,), query.z, range(count))
    est = fractional_moment_estimate(query, DELTA1, sparse, model)
    _assert_close(est.mean, np.mean(np.abs(ref) ** 0.5, axis=0))
    ladder = [eps * 10, eps]
    rows = simon_wolff_proxy(query, DELTA1, sparse, model, ladder)
    want = []
    for e in ladder:
        g = _green_row_reference(DELTA1, volume, sparse, model, (-7,), complex(energy, e),
                                 range(count))
        want.append(np.mean(np.sum(np.abs(g) ** 2, axis=1)))
    _assert_close([r.mean_sum_g2 for r in rows], want)


# ------------------------------------------------ realization engine: nu >= 2 vs splu

# The symmetric-mode factor plus one refinement step against green_row's
# default splu, over every case below: worst normwise relative difference
# 5.2e-13 and worst elementwise one 3.7e-12 (above an absolute floor of
# 1e-14 times the row's largest entry); without the refinement step they
# reach 4.1e-12 and 2.9e-10.
_NU_ROW_RTOL = 1e-12
_NU_ENTRY_RTOL = 1e-11

_LAWS = {"uniform": UniformLaw(-1, 1), "gaussian": GaussianLaw(0.3, 1.0),
         "cauchy": TruncatedCauchyLaw(1.0, 25.0)}
_MODELS = {"strong": {"coupling": 30.0}, "weak": {"coupling": 1.0},
           "weighted": {"weight_gamma": 0.5}}
_HALF_SIDE = {2: 6, 3: 3, 5: 1}


def _range2_kernel(nu):
    return SymbolSpec(tuple(((1, 1.0), (2, 0.35)) for _ in range(nu)))


def _check_engine_against_splu(kernel, half, sets, law, model_kw, energy, eps,
                               realizations=range(3, 7)):
    nu = kernel.dim
    volume = Cube((0,) * nu, half)
    coords = volume.coords().tolist()
    sites = {"full": coords, "checkerboard": [c for c in coords if sum(c) % 2 == 0],
             "empty": []}[sets]
    sparse = sparse_set_from_sites(sites, 0.5, nu)
    model = DisorderModel(law, seed=7, **model_kw)
    source = (1,) + (0,) * (nu - 1)
    engine = RealizationEngine(kernel, volume, sparse, model, source)
    assert not is_tridiagonal(engine.op.matrix) and engine.ab is None
    z = complex(energy, eps)
    rows, residuals = engine.green_rows(z, engine.diagonals(realizations), realizations[0])
    ref = _green_row_reference(kernel, volume, sparse, model, source, z, realizations)
    assert np.max(residuals) <= 1e-10
    norm = np.linalg.norm(rows - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert np.max(norm) <= _NU_ROW_RTOL
    for got, want in zip(rows, ref):
        np.testing.assert_allclose(got, want, rtol=_NU_ENTRY_RTOL,
                                   atol=1e-14 * np.max(np.abs(want)))


@pytest.mark.parametrize("nu", [2, 3, 5])
@pytest.mark.parametrize("law", list(_LAWS))
@pytest.mark.parametrize("model", list(_MODELS))
@pytest.mark.parametrize("band,eps", [("inside", 1e-2), ("inside", 1e-4),
                                      ("outside", 1e-2), ("outside", 1e-4)])
def test_symmetric_mode_rows_match_splu_reference(nu, law, model, band, eps):
    energy = 0.5 if band == "inside" else 2.0 * nu + 1.0  # free band [-2 nu, 2 nu]
    _check_engine_against_splu(delta_symbol(nu), _HALF_SIDE[nu],
                               "checkerboard", _LAWS[law], _MODELS[model], energy, eps)


@pytest.mark.parametrize("nu", [2, 3, 5])
@pytest.mark.parametrize("sets", ["full", "empty"])
@pytest.mark.parametrize("energy", [0.5, 11.0])
def test_symmetric_mode_full_and_empty_sets_match_splu_reference(nu, sets, energy):
    _check_engine_against_splu(delta_symbol(nu), _HALF_SIDE[nu], sets,
                               UniformLaw(-1, 1), {"coupling": 30.0}, energy, 1e-4)


@pytest.mark.parametrize("nu", [2, 3])
@pytest.mark.parametrize("model", list(_MODELS))
@pytest.mark.parametrize("energy,eps", [(0.5, 1e-4), (0.5, 1e-2), (12.0, 1e-4)])
def test_symmetric_mode_range2_rows_match_splu_reference(nu, model, energy, eps):
    _check_engine_against_splu(_range2_kernel(nu), _HALF_SIDE[nu], "checkerboard",
                               _LAWS["gaussian"], _MODELS[model], energy, eps)


def test_symmetric_mode_5d_interior_matches_splu_reference():
    _check_engine_against_splu(delta_symbol(5), 2, "full",
                               UniformLaw(-1, 1), {"coupling": 30.0}, 5.0, 1e-3, range(2))


def test_engine_scatters_the_set_onto_its_sites():
    volume = Cube((2,), 5)
    sparse = sparse_set_from_sites([(6,), (-3,), (0,)], 0.5, 1)
    model = DisorderModel(UniformLaw(-1, 1), coupling=3.0, seed=2)
    engine = RealizationEngine(DELTA1, volume, sparse, model, (2,))
    assert engine.index.tolist() == [engine.op.index_of(s) for s in sparse.sites]
    diags = engine.diagonals(range(4))
    for r in range(4):
        pot = sample_potential(model, sparse, r)
        want = np.zeros(volume.volume)
        for site, value in pot.items():
            want[engine.op.index_of(site)] = value
        assert diags[r].tobytes() == want.tobytes()
    with pytest.raises(KeyError):
        RealizationEngine(DELTA1, volume, sparse_set_from_sites([(9,)], 0.5, 1), model, (2,))


# ------------------------------------------------ error contract on the engine path

def _fail_on_call(fn, n, fault):
    """Wrap fn so that call number n (0-based) is replaced by ``fault``."""
    calls = itertools.count()

    def wrapped(*args, **kwargs):
        if next(calls) == n:
            return fault(fn, *args, **kwargs)
        return fn(*args, **kwargs)

    return wrapped


def _raise(exc):
    def fault(fn, *args, **kwargs):
        raise exc
    return fault


def _banded_fault(realization, sites, fault, calls=(0,)):
    """A ``get_lapack_funcs`` whose banded solver applies ``fault`` to the
    output of the listed calls (0-based) for block realization
    ``realization`` of a ``sites``-site volume."""
    counter = itertools.count()

    def fetch(names, arrays):
        routine, = get_lapack_funcs(names, arrays)

        def solve(*args, **kwargs):
            out = routine(*args, **kwargs)
            return fault(out, realization, sites) if next(counter) in calls else out

        return (solve,)

    return fetch


def _zero_pivot(out, realization, sites):
    """LAPACK's report of an exactly zero pivot in the realization's last row."""
    return (*out[:-1], (realization + 1) * sites)


def _nan_rows(out, realization, sites):
    out[-2][realization * sites:(realization + 1) * sites] = np.nan
    return out


def _run_kind(kind, kernel, volume, source):
    sparse = sparse_set_from_sites([source], 0.5, len(source))
    model = DisorderModel(UniformLaw(-1, 1), coupling=5.0, seed=3)
    query = GreenQuery(0.3, 1e-2, 0.5, source, volume, 4)
    if kind == "moments":
        fractional_moment_estimate(query, kernel, sparse, model)
    else:
        simon_wolff_proxy(query, kernel, sparse, model, [1e-1, 1e-2])


@pytest.mark.parametrize("kind", ["moments", "simon_wolff"])
@pytest.mark.parametrize("fault", [_zero_pivot, _nan_rows], ids=["lapack-singular", "non-finite"])
def test_banded_path_faults_raise_tagged_numerical_error(monkeypatch, kind, fault):
    # the 4 realizations of 21 sites are one block and one ?gtsv call
    monkeypatch.setattr(resolvent, "get_lapack_funcs", _banded_fault(2, 21, fault))
    with pytest.raises(NumericalError, match="realization 2") as info:
        _run_kind(kind, DELTA1, Cube((0,), 10), (0,))
    assert info.value.diagnostics["realization"] == 2


def test_banded_zero_pivot_in_second_block_names_its_realization(monkeypatch):
    monkeypatch.setattr(resolvent, "_CHUNK_ENTRIES", 2 * 21)  # blocks of 2 realizations
    monkeypatch.setattr(resolvent, "get_lapack_funcs", _banded_fault(1, 21, _zero_pivot, (1,)))
    with pytest.raises(NumericalError, match="realization 3: solve failed") as info:
        _run_kind("moments", DELTA1, Cube((0,), 10), (0,))
    assert info.value.diagnostics["realization"] == 3


@pytest.mark.parametrize("kernel,diag", [
    (DELTA1, [2.0, 1.0, 2.0]),  # ?gtsv: the last pivot of the elimination is exactly 0
    (ZERO1, [0.5, 0.0, -1.0]),  # ?gtsv on the zero band: the middle pivot is 0
    (DELTA1_RANGE2, [0.35, 1.0, 0.35]),  # splu: rows 0 and 2 are equal
], ids=["gtsv", "gtsv-zero-band", "splu-range2"])
def test_banded_singular_realization_is_named(kernel, diag):
    engine = RealizationEngine(kernel, Cube((0,), 1), sparse_set_from_sites([], 0.5, 1),
                               DisorderModel(UniformLaw(-1, 1), seed=1), (0,))
    diags = np.array([[0.25, 0.5, 0.75], diag, [0.5, 0.25, 0.5]])
    with pytest.raises(NumericalError, match="realization 8: solve failed") as info:
        engine.green_rows(0j, diags, first=7)
    assert info.value.diagnostics["realization"] == 8


@pytest.mark.parametrize("kind", ["moments", "simon_wolff"])
def test_splu_path_faults_raise_tagged_numerical_error(monkeypatch, kind):
    splu = _fail_on_call(resolvent.spla.splu, 2, _raise(RuntimeError("Factor is exactly singular")))
    monkeypatch.setattr(resolvent, "spla", SimpleNamespace(splu=splu))
    with pytest.raises(NumericalError, match="realization 2") as info:
        _run_kind(kind, delta_symbol(2), Cube((0, 0), 3), (0, 0))
    assert info.value.diagnostics["realization"] == 2


class _NanSolve:
    """A SuperLU factor whose solves return NaN."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, rhs):
        return np.full_like(self._lu.solve(rhs), np.nan)


@pytest.mark.parametrize("kind", ["moments", "simon_wolff"])
def test_splu_path_non_finite_solve_raises_tagged_numerical_error(monkeypatch, kind):
    splu = _fail_on_call(resolvent.spla.splu, 2, lambda fn, *a, **k: _NanSolve(fn(*a, **k)))
    monkeypatch.setattr(resolvent, "spla", SimpleNamespace(splu=splu))
    with pytest.raises(NumericalError, match="realization 2: solver residual") as info:
        _run_kind(kind, delta_symbol(2), Cube((0, 0), 3), (0, 0))
    assert info.value.diagnostics["realization"] == 2
    assert math.isnan(info.value.diagnostics["residual"])


# --- the batched decoupling rule against quad --------------------------------


def _quad_frac_integral(law, s, eta, beta):
    """Reference for one decoupling integral: adaptive QUADPACK, with Re eta,
    Re beta and the mode as breakpoints and a tolerance far below the 1e-8
    the batched rule is held to."""
    lo, hi = law.support()

    def f(x):
        value = abs(x - eta) ** s * float(law.pdf(x))
        return value if beta is None else value * abs(x - beta) ** s

    points = sorted({p.real for p in (eta, beta) if p is not None} | {law.mode})
    points = [p for p in points if lo < p < hi]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)  # round-off near 1e-11
        return quad(f, lo, hi, points=points or None, epsabs=0.0, epsrel=1e-11, limit=500)[0]


def _quad_batch(law, s, eta, beta):
    """``_frac_integral`` driven by the quad reference, integral by integral."""
    betas = [None] * eta.size if beta is None else beta.tolist()
    return np.array([_quad_frac_integral(law, s, e, b) for e, b in zip(eta.tolist(), betas)])


_RULE_LAWS = {
    "uniform": UniformLaw(-1.0, 1.0),
    "gaussian": GaussianLaw(0.0, 1.0),
    "cauchy": TruncatedCauchyLaw(1.0, 1.0),
    "cauchy_peaked": TruncatedCauchyLaw(0.01, 1.0),  # scale / cut = 1e-2
}


def _rule_points(law):
    lo, hi = law.support()
    width, im = hi - lo, 10.0 * law.scale / 96.0  # R / 96, the finest zoom's Im step
    return [
        complex(lo + 0.3 * width), complex(lo + 0.71 * width),  # real inside
        complex(lo - 0.4 * width), complex(hi + 0.2 * width),  # real outside
        complex(lo + 0.03), complex(hi + 0.04),  # within 0.05 of an end, in and out
        complex(lo + 0.4 * width, im), complex(hi - 0.01 * width, im),  # complex, Im = R / 96
    ]


@pytest.mark.parametrize("name", sorted(_RULE_LAWS))
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_frac_integral_matches_quad(name, s):
    law = _RULE_LAWS[name]
    points = _rule_points(law)
    pairs = list(itertools.combinations_with_replacement(points, 2))  # coincident included
    eta = np.array([e for e, _ in pairs])
    beta = np.array([b for _, b in pairs])
    numerators = resolvent._frac_integral(law, s, eta, beta)
    denominators = resolvent._frac_integral(law, s, np.array(points), None)
    for (e, b), got in zip(pairs, numerators):
        assert got == pytest.approx(_quad_frac_integral(law, s, e, b), rel=1e-8, abs=0.0)
    for e, got in zip(points, denominators):
        assert got == pytest.approx(_quad_frac_integral(law, s, e, None), rel=1e-8, abs=0.0)


def test_frac_integral_does_not_depend_on_batch_or_block(monkeypatch):
    law = GaussianLaw(0.0, 1.0)
    points = np.array(_rule_points(law))
    eta, beta = np.repeat(points, points.size), np.tile(points, points.size)
    whole = resolvent._frac_integral(law, 0.5, eta, beta)
    single = [resolvent._frac_integral(law, 0.5, eta[i:i + 1], beta[i:i + 1])[0]
              for i in range(eta.size)]
    swapped = resolvent._frac_integral(law, 0.5, beta, eta)
    monkeypatch.setattr(resolvent, "_CHUNK_ENTRIES", 3000)  # blocks of 2 integrals
    blocked = resolvent._frac_integral(law, 0.5, eta, beta)
    assert whole.tobytes() == np.array(single).tobytes() == swapped.tobytes() == blocked.tobytes()


def test_frac_integral_non_finite_raises():
    with pytest.raises(NumericalError, match="decoupling quadrature failed"):
        resolvent._frac_integral(UniformLaw(-1.0, 1.0), 0.5, np.array([complex(np.nan, 0.0)]), None)


def _mirrored(law, point):
    """The image of a point under the reflection of the law about its mode."""
    return complex(2.0 * law.mode - point.real, point.imag)


# Quad-driven searches (estimate_decoupling with _frac_integral replaced by
# _quad_batch, default grid): kappa_hat and minimizer per (law, s).  The
# uniform s = 0.5 entry is recomputed below; the others take 2-7 s each.
_QUAD_SEARCHES = {
    ("uniform", 0.3): (0.7451367382936345, (0.2734375, -0.8203125)),
    ("uniform", 0.5): (0.6105876095901545, (0.3515625, -0.78125)),
    ("uniform", 0.7): (0.49776589509952984, (0.4296875, -0.78125)),
    ("gaussian", 0.3): (0.8548495628305371, (-0.1953125, 1.640625)),
    ("gaussian", 0.5): (0.7945185121153331, (-0.3125, 1.6015625)),
    ("gaussian", 0.7): (0.7533175658667663, (0.390625, -1.640625)),
    ("cauchy_peaked", 0.3): (0.2738805841593414, (0.0, 0.6640625)),
    ("cauchy_peaked", 0.5): (0.12877058017575332, (0.0, 0.7421875)),
    ("cauchy_peaked", 0.7): (0.06638276499142744, (0.0, -0.859375)),
}


@pytest.mark.parametrize("case", sorted(_QUAD_SEARCHES))
def test_decoupling_search_matches_quad_driven_search(case):
    """Same kappa_hat to 1e-9 and the same minimizer.  The laws are symmetric
    about their mode, so a minimizer and its mirror image have equal ratios
    in exact arithmetic and round-off picks one of the two: both searches
    report the canonical image."""
    name, s = case
    law = _RULE_LAWS[name]
    kappa, (eta, beta) = _QUAD_SEARCHES[case]
    dec = estimate_decoupling(law, s)
    assert dec.kappa_hat == pytest.approx(kappa, rel=1e-9, abs=0.0)
    assert dec.minimizer == resolvent._canonical_image(law, complex(eta), complex(beta))


@pytest.mark.parametrize("law", [UniformLaw(-1.0, 1.0), GaussianLaw(0.0, 1.0),
                                 UniformLaw(0.5, 1.5), TruncatedCauchyLaw(0.01, 1.0)])
def test_decoupling_minimizer_mirror_images_report_one_point(law):
    m = law.mode
    for eta, beta in [(complex(m + 0.1953125, 0.25), complex(m - 1.640625, 0.0)),
                      (complex(m, 0.5), complex(m + 0.859375, 0.125))]:
        mirror = (_mirrored(law, eta), _mirrored(law, beta))
        assert resolvent._canonical_image(law, *mirror) == (eta, beta)
        assert resolvent._canonical_image(law, eta, beta) == (eta, beta)
    on_mode = (complex(m, 0.0), complex(m, 0.5))  # its own mirror image
    assert resolvent._canonical_image(law, *on_mode) == on_mode


def test_decoupling_quad_driven_search_reproduces_pinned_entry(monkeypatch):
    monkeypatch.setattr(resolvent, "_frac_integral", _quad_batch)
    dec = estimate_decoupling(_RULE_LAWS["uniform"], 0.5)
    kappa, (eta, beta) = _QUAD_SEARCHES[("uniform", 0.5)]
    assert dec.kappa_hat == pytest.approx(kappa, rel=1e-12, abs=0.0)
    assert dec.minimizer == (complex(eta), complex(beta))


# --- one integral per distinct decoupling key ----------------------------------


def _decoupling_reference(law, s, n_real=9, n_imag=4, refine_rounds=5):
    """Grid + zoom search that integrates every (eta, beta) numerator and
    every denominator afresh, one integral per call.  Points are (Re, Im)
    grid units, as in estimate_decoupling.  Returns the estimate's fields
    and the keys of every integral it needed (beta for a denominator,
    {eta, beta} for a numerator)."""
    radius = 10.0 * law.scale
    step_re = 2.0 * radius / (n_real - 1)
    step_im = radius / (n_imag - 1)
    needed = set()

    def point(units):
        return complex(-radius + units[0] * step_re, units[1] * step_im)

    def integral(eta, beta):
        return resolvent._frac_integral(
            law, s, np.array([eta]), None if beta is None else np.array([beta]))[0]

    def ratio(eta_units, beta_units):
        eta, beta = point(eta_units), point(beta_units)
        needed.add(beta)
        den = integral(beta, None)
        if den <= 0:
            return math.inf
        needed.add(frozenset((eta, beta)))
        return integral(eta, beta) / den

    coarse = [(float(a), float(b)) for a in range(n_real) for b in range(n_imag)]
    best = (math.inf, coarse[0], coarse[0])
    for eta in coarse:
        for beta in coarse:
            r = ratio(eta, beta)
            if r < best[0]:
                best = (r, eta, beta)
    kappa, eta0, beta0 = best
    interior = all(abs(abs(point(p).real) - radius) > 1e-12
                   and abs(point(p).imag - radius) > 1e-12 for p in (eta0, beta0))
    shifts = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)
    for k in range(refine_rounds):
        zoom = 0.5 ** k
        etas = [(eta0[0] + u * zoom, max(0.0, eta0[1] + v * zoom))
                for u in shifts for v in (-0.5, 0.0, 0.5)]
        betas = [(beta0[0] + u * zoom, max(0.0, beta0[1] + v * zoom))
                 for u in shifts for v in (-0.5, 0.0, 0.5)]
        for eta in etas:
            for beta in betas:
                r = ratio(eta, beta)
                if r < kappa:
                    kappa, eta0, beta0 = r, eta, beta
    fields = (float(kappa), float(kappa / (1.0 - s) ** s),
              resolvent._canonical_image(law, point(eta0), point(beta0)), interior)
    return fields, needed


@pytest.mark.parametrize(
    "law, s, grid",
    [
        (UniformLaw(-1, 1), 0.3, (9, 4, 2)),
        (UniformLaw(-1, 1), 0.5, (9, 4, 5)),  # the default grid
        (UniformLaw(-1, 1), 0.7, (9, 4, 2)),
        (GaussianLaw(0.0, 1.0), 0.5, (7, 3, 3)),
    ],
)
def test_decoupling_reuse_matches_brute_force(monkeypatch, law, s, grid):
    want, needed = _decoupling_reference(law, s, *grid)

    original = resolvent._frac_integral
    keys = []
    calls = []

    def spy(law_, s_, eta, beta):
        calls.append(eta.size)
        betas = [None] * eta.size if beta is None else beta.tolist()
        keys.extend(e if b is None else frozenset((e, b)) for e, b in zip(eta.tolist(), betas))
        return original(law_, s_, eta, beta)

    monkeypatch.setattr(resolvent, "_frac_integral", spy)
    _search_grid(monkeypatch, *grid)
    dec = estimate_decoupling(law, s)
    assert (dec.kappa_hat, dec.d_eff, dec.minimizer, dec.interior) == want
    assert len(keys) == len(set(keys))  # one integral per distinct key
    assert set(keys) == needed
    assert len(calls) <= 2 * (1 + grid[2])  # denominators, numerators: per round


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_decoupling_zoom_points_coincide_without_integration_warnings(monkeypatch, s):
    # eta and beta zoom lists come from one grid, so a point reached from
    # both minimizers is one complex number and never a pair of
    # breakpoints 1e-15 apart (a zero-length piece of the graded rule)
    _search_grid(monkeypatch, 7, 3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        dec = estimate_decoupling(UniformLaw(-1, 1), s)
    assert 0.0 < dec.kappa_hat < 1.0


def test_decoupling_uniform_half_regression_to_1e6():
    dec = estimate_decoupling(UniformLaw(-1, 1), 0.5)
    assert dec.kappa_hat == pytest.approx(0.6105876, rel=1e-6)
