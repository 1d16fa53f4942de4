import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eig_banded

from sparseloc import config, operators, spectra
from sparseloc.cli import main
from sparseloc.config import validate_config
from sparseloc.disorder import DisorderModel, GaussianLaw, UniformLaw, sample_potential
from sparseloc.errors import NumericalError
from sparseloc.lattice import Cube, sparse_set_from_sites, generate_sparse_set
from sparseloc.operators import (
    AssembledOperator,
    SymbolSpec,
    assemble_finite_volume,
    delta_symbol,
)
from sparseloc.spectra import (
    eigensystem,
    mobility_edge_scan,
    spacing_ratios,
)

from oracles import ipr

DELTA1 = delta_symbol(1)


def _assemble(kernel, potential, cube):
    """Free assembly plus a dict potential, placed site by site."""
    op = assemble_finite_volume(kernel, cube)
    diag = np.zeros(op.size)
    for site, value in potential.items():
        diag[op.index_of(site)] += value
    return AssembledOperator(cube, (op.matrix + sp.diags(diag)).tocsr())


def test_ipr_point_mass():
    psi = np.zeros(50)
    psi[7] = 1.0
    assert ipr(psi) == pytest.approx(1.0)


def test_ipr_uniform_profiles():
    n = 64
    psi = np.full(n, 1.0 / math.sqrt(n))
    assert ipr(psi) == pytest.approx(1.0 / n)
    half = np.zeros(n)
    half[: n // 2] = 1.0 / math.sqrt(n // 2)
    assert ipr(half) == pytest.approx(2.0 / n)


def test_ipr_requires_normalization():
    with pytest.raises(ValueError):
        ipr(np.ones(4))


def test_eigensystem_zero_operator():
    zero = SymbolSpec(((),))
    op = assemble_finite_volume(zero, Cube((0,), 4))
    eigenvalues, iprs = eigensystem(op.matrix)
    assert np.max(np.abs(eigenvalues)) == 0.0
    assert np.all(iprs >= 1.0 / op.size - 1e-12)
    assert np.all(iprs <= 1.0 + 1e-12)


def test_eigensystem_dirichlet_spectrum():
    n_half = 10
    op = assemble_finite_volume(DELTA1, Cube((0,), n_half))
    eigenvalues, _ = eigensystem(op.matrix)
    n = 2 * n_half + 1
    expected = np.sort(2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
    np.testing.assert_allclose(eigenvalues, expected, atol=1e-10)


def test_eigensystem_trace_identity():
    rng = np.random.default_rng(3)
    cube = Cube((0,), 15)
    potential = {tuple(s): float(rng.normal()) for s in cube.coords().tolist()}
    op = _assemble(DELTA1, potential, cube)
    eigenvalues, _ = eigensystem(op.matrix)
    assert np.sum(eigenvalues) == pytest.approx(
        float(op.matrix.diagonal().sum()), abs=1e-8
    )


def test_eigensystem_single_strong_site():
    op = _assemble(DELTA1, {(0,): 10.0}, Cube((0,), 5))
    eigenvalues, iprs = eigensystem(op.matrix)
    top = np.argmax(eigenvalues)
    # rank-one dominated state: eigenvalue near 10, sharply peaked
    assert eigenvalues[top] == pytest.approx(10.0, abs=0.5)
    assert iprs[top] > 0.8


def test_eigensystem_respects_cap():
    op = assemble_finite_volume(DELTA1, Cube((0,), 2048))
    assert op.size == spectra.DENSE_CAP + 1
    with pytest.raises(ValueError, match="cap 4096"):
        eigensystem(op.matrix)


@pytest.mark.parametrize("width", [0.05, 5.0])
@pytest.mark.parametrize("weight", [None, {"gamma": 0.5}])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("law, params", [("uniform", [-1.0, 1.0]), ("gaussian", [0.5, 1.0]),
                                         ("truncated_cauchy", [1.0, 5.0])])
def test_edge_scan_bins_stay_within_the_validated_count(monkeypatch, law, params, dim, weight,
                                                        width):
    """Validation sizes the bin grid over [-B, B], B = ||H0||_1 + the largest
    coupling times the largest |x| of the law's support; every eigenvalue lies
    there (Gershgorin), so the run makes no more bins than validation allowed."""
    spans = []

    def check_bins(span, w):
        spans.append(span)
        return operators.check_bins(span, w)

    monkeypatch.setattr(config, "check_bins", check_bins)
    disorder = {"law": law, "params": params, "lambda": 3.0, "seed": 4}
    if weight is not None:
        disorder["weight"] = weight
    cfg = validate_config({
        "kind": "edge_scan", "symbol": {"delta": dim},
        "volume": {"center": [0] * dim, "half_side": 10 if dim == 1 else 3},
        "sparse_set": {"generator": "full_cube", "alpha": 0.5}, "disorder": disorder,
        "realizations": 20, "s": 0.5, "bin_width": width,
    })
    o = cfg.objects
    scan = mobility_edge_scan(o["symbol"], o["sparse_set"], o["disorder"], o["volume"], 20, 0.5,
                              bin_width=width)
    (span,) = spans
    assert len(scan.bins) <= operators.check_bins(span, width)
    assert all(-span / 2 < b.lo + width and b.lo <= span / 2 for b in scan.bins if b.count)


def test_bin_rule_boundary():
    assert operators.check_bins(operators.BIN_CAP - 3.0, 1.0) == operators.BIN_CAP
    for span, width in [(operators.BIN_CAP - 2.0, 1.0), (1.0, 5e-324), (math.inf, 1.0)]:
        with pytest.raises(ValueError, match="over the cap 10000"):
            operators.check_bins(span, width)


def test_spacing_ratios_poisson_reference():
    rng = np.random.default_rng(11)
    values = []
    for _ in range(300):
        _, r = spacing_ratios(np.sort(rng.uniform(0, 1, 200)))
        values.append(r)
    mean = float(np.nanmean(np.concatenate(values)))
    assert mean == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=0.01)


def test_spacing_ratios_short_input():
    e, r = spacing_ratios(np.array([0.0, 1.0]))
    assert e.size == 0 and r.size == 0


def _scan(model, sparse, realizations=20, half=30):
    return mobility_edge_scan(
        DELTA1, sparse, model, Cube((0,), half), realizations, 0.5, bin_width=0.1
    )


def test_edge_scan_empty_set_matches_zero_coupling():
    empty = sparse_set_from_sites([], 0.5, 1)
    full = sparse_set_from_sites([(i,) for i in range(-30, 31)], 0.5, 1)
    strong = DisorderModel(UniformLaw(-1, 1), coupling=25.0, seed=4)
    silent = DisorderModel(UniformLaw(-1, 1), coupling=0.0, seed=4)
    scan_empty = _scan(strong, empty)
    scan_zero = _scan(silent, full)
    assert scan_empty.bins == scan_zero.bins


def test_edge_scan_markers_computed():
    empty = sparse_set_from_sites([], 0.5, 1)
    scan = _scan(DisorderModel(UniformLaw(-1, 1), coupling=0.0, seed=1), empty)
    assert scan.h0_norm_1 == pytest.approx(2.0)
    assert scan.h0_norm_s == pytest.approx(4.0)  # (2 nu)^(1/s) at s = 1/2


def test_edge_scan_free_states_are_extended():
    empty = sparse_set_from_sites([], 0.5, 1)
    scan = _scan(DisorderModel(UniformLaw(-1, 1), coupling=0.0, seed=1), empty, half=50)
    populated = [b for b in scan.bins if b.count > 0]
    # all free eigenvalues inside the band, IPR at the extended scale
    assert all(abs(b.lo) <= 2.1 for b in populated)
    assert max(b.median_ipr for b in populated) < 10.0 / 101


def test_edge_scan_reports_empty_bins():
    # one strong site splits an isolated eigenvalue off the band
    sparse = sparse_set_from_sites([(0,)], 0.5, 1)
    model = DisorderModel(UniformLaw(0.99, 1.0), coupling=8.0, seed=6)
    scan = _scan(model, sparse)
    empty_bins = [b for b in scan.bins if b.count == 0]
    assert empty_bins  # gap bins are present, not dropped
    assert all(math.isnan(b.median_ipr) for b in empty_bins)


def test_edge_scan_weighted_contrast_smoke():
    cube = Cube((0,), 100)
    sparse = generate_sparse_set(0.5, cube, "bernoulli_thinned", 5)
    model = DisorderModel(UniformLaw(-1, 1), weight_gamma=0.5, seed=31)
    scan = mobility_edge_scan(DELTA1, sparse, model, cube, 20, 0.5, bin_width=0.1)
    outer = scan.pooled_median_outside(2.5)
    center = scan.band_center_median()
    assert outer > center


def _edge_bins_reference(kernel, sparse, model, volume, realizations, bin_width):
    """Edge-scan bins with every realization re-assembled from its dict
    potential, placed site by site; each bin is [lo, next lo)."""
    reports = [eigensystem(_assemble(kernel, sample_potential(model, sparse, r), volume).matrix, r)
               for r in range(realizations)]
    energies = np.concatenate([values for values, _ in reports])
    iprs = np.concatenate([ipr for _, ipr in reports])
    ratios = [spacing_ratios(values) for values, _ in reports]
    r_energy = np.concatenate([e for e, _ in ratios])
    r_value = np.concatenate([r for _, r in ratios])
    lo_edge = math.floor(float(energies.min()) / bin_width) * bin_width
    n_bins = int(math.ceil((float(energies.max()) - lo_edge) / bin_width)) + 1
    bins = []
    for i in range(n_bins):
        lo, top = lo_edge + i * bin_width, lo_edge + (i + 1) * bin_width
        mask = (energies >= lo) & (energies < top)
        rmask = (r_energy >= lo) & (r_energy < top) & np.isfinite(r_value)
        bins.append((lo, lo + bin_width, int(mask.sum()),
                     float(np.median(iprs[mask])) if mask.any() else math.nan,
                     float(np.mean(r_value[rmask])) if rmask.any() else math.nan))
    return bins


@pytest.mark.parametrize(
    "kernel,volume,sparse,model,threads",
    [
        (DELTA1, Cube((3,), 30), sparse_set_from_sites([(i,) for i in range(-27, 34, 2)], 0.5, 1),
         DisorderModel(UniformLaw(-1, 1), coupling=4.0, seed=3), 1),
        (SymbolSpec((((1, 1.0), (2, 0.35)),)), Cube((-5,), 25),
         sparse_set_from_sites([(i,) for i in range(-30, 21, 3)], 0.5, 1),
         DisorderModel(GaussianLaw(0.5, 2.0), weight_gamma=0.5, seed=9), 3),
        (delta_symbol(2), Cube((1, -1), 5),
         generate_sparse_set(0.5, Cube((1, -1), 5), "bernoulli_thinned", 7),
         DisorderModel(UniformLaw(-1, 1), weight_gamma=0.5, seed=31), 1),
        (DELTA1, Cube((0,), 30), sparse_set_from_sites([], 0.5, 1),
         DisorderModel(UniformLaw(-1, 1), coupling=25.0, seed=4), 1),
    ],
    ids=["uniform", "weighted-gaussian-range2", "bernoulli-2d", "empty-set"],
)
def test_edge_scan_bins_match_site_by_site_reference(kernel, volume, sparse, model, threads):
    scan = mobility_edge_scan(kernel, sparse, model, volume, 20, 0.5, bin_width=0.1,
                              threads=threads)
    got = [(b.lo, b.hi, b.count, b.median_ipr, b.r_stat) for b in scan.bins]
    want = _edge_bins_reference(kernel, sparse, model, volume, 20, 0.1)
    assert repr(got) == repr(want)  # bitwise: repr round-trips every float
    assert sum(b.count for b in scan.bins) == 20 * volume.volume


def test_edge_scan_realization_floor():
    empty = sparse_set_from_sites([], 0.5, 1)
    with pytest.raises(ValueError):
        _scan(DisorderModel(UniformLaw(-1, 1), coupling=0.0, seed=1), empty, realizations=5)


# the solver each path calls: LAPACK's ?stevd on nearest-neighbour 1D volumes, dense eigh above
_SOLVERS = {1: (spectra, "dstevd"), 2: (np.linalg, "eigh")}


def _perturbed(exact):
    def solve(*args, **kwargs):
        values, vectors, *info = exact(*args, **kwargs)
        return (values, vectors + 1e-4, *info)
    return solve


def _diverging(exact):
    """?stevd reports a failed divide and conquer through info > 0; eigh raises."""
    def solve(*args, **kwargs):
        if exact is spectra.dstevd:
            values, vectors, _ = exact(*args, **kwargs)
            return values, vectors, 1
        raise np.linalg.LinAlgError("eig algorithm did not converge")
    return solve


def _patch_solver(monkeypatch, dim, fault):
    owner, name = _SOLVERS[dim]
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))


def test_eigensystem_residual_fault_raises_numerical_error(monkeypatch):
    for dim in (1, 2):
        op = assemble_finite_volume(delta_symbol(dim), Cube((0,) * dim, 5))
        with monkeypatch.context() as m:
            _patch_solver(m, dim, _perturbed)
            with pytest.raises(NumericalError) as err:
                eigensystem(op.matrix, realization=7)
        assert err.value.diagnostics["realization"] == 7
        assert err.value.diagnostics["residual"] > 1e-8


def _edge_scan_config(tmp_path, dim):
    raw = {
        "kind": "edge_scan",
        "seed": 31,
        "symbol": {"delta": dim},
        "volume": {"center": [0] * dim, "half_side": 10 if dim == 1 else 3},
        "sparse_set": {"generator": "full_cube", "alpha": 0.5},
        "disorder": {"law": "uniform", "params": [-1.0, 1.0], "lambda": 1.0},
        "realizations": 20,
        "s": 0.5,
    }
    path = tmp_path / f"config_{dim}d.json"
    path.write_text(json.dumps(raw))
    return ["edge_scan", "--config", str(path), "--out", str(tmp_path / f"out_{dim}d")]


def _exits_three_naming_realization_zero(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert "'realization': 0" in err
    assert "Traceback" not in err


def test_edge_scan_residual_fault_exits_three(monkeypatch, tmp_path, capsys):
    for dim in (1, 2):
        with monkeypatch.context() as m:
            _patch_solver(m, dim, _perturbed)
            _exits_three_naming_realization_zero(_edge_scan_config(tmp_path, dim), capsys)


@pytest.mark.parametrize("dim", [1, 2], ids=["banded-1d", "dense-2d"])
def test_edge_scan_eigensolver_failure_exits_three(monkeypatch, tmp_path, capsys, dim):
    _patch_solver(monkeypatch, dim, _diverging)
    _exits_three_naming_realization_zero(_edge_scan_config(tmp_path, dim), capsys)


RANGE2 = SymbolSpec((((1, 1.0), (2, 0.35)),))
ZERO = SymbolSpec(((),))


def _lower_band(matrix, k):
    """LAPACK lower band storage of a symmetric matrix: row d holds the
    d-th subdiagonal."""
    n = matrix.shape[0]
    band = np.zeros((k + 1, n))
    for d in range(k + 1):
        band[d, :n - d] = matrix.diagonal(-d)
    return band


@pytest.mark.parametrize(
    "kernel,bandwidth,cube,sparse,model",
    [
        (ZERO, 0, Cube((0,), 8), sparse_set_from_sites([(i,) for i in range(-8, 9)], 0.5, 1),
         DisorderModel(UniformLaw(-1, 1), coupling=2.0, seed=5)),
        (DELTA1, 0, Cube((4,), 0), sparse_set_from_sites([(4,)], 0.5, 1),  # no neighbour in V
         DisorderModel(UniformLaw(-1, 1), coupling=3.0, seed=2)),
        (DELTA1, 1, Cube((3,), 30), sparse_set_from_sites([(i,) for i in range(-27, 34, 2)], 0.5, 1),
         DisorderModel(UniformLaw(-1, 1), coupling=4.0, seed=3)),
        (DELTA1, 1, Cube((0,), 40), sparse_set_from_sites([], 0.5, 1),
         DisorderModel(UniformLaw(-1, 1), coupling=25.0, seed=4)),
        (RANGE2, 2, Cube((-5,), 25), sparse_set_from_sites([(i,) for i in range(-30, 21, 3)], 0.5, 1),
         DisorderModel(GaussianLaw(0.5, 2.0), weight_gamma=0.5, seed=9)),
        (RANGE2, 2, Cube((0,), 100), generate_sparse_set(0.5, Cube((0,), 100), "bernoulli_thinned", 5),
         DisorderModel(UniformLaw(-1, 1), weight_gamma=0.5, seed=31)),
    ],
    ids=["zero-kernel", "one-site", "uniform", "empty-set", "weighted-gaussian-range2",
         "bernoulli-range2"],
)
def test_banded_path_matches_dense_eigh(monkeypatch, kernel, bandwidth, cube, sparse, model):
    stevd = []  # what each ?stevd call returned
    exact = spectra.dstevd

    def spy(*args, **kwargs):
        stevd.append(exact(*args, **kwargs))
        return stevd[-1]

    monkeypatch.setattr(spectra, "dstevd", spy)
    for r in range(2):
        op = _assemble(kernel, sample_potential(model, sparse, r), cube)
        assert spectra.is_tridiagonal(op.matrix) == (bandwidth <= 1)
        eigenvalues, iprs = eigensystem(op.matrix, realization=r)
        dense = op.matrix.toarray()
        values, vectors = np.linalg.eigh(dense)
        scale = max(1.0, float(np.linalg.norm(dense, 2)))
        np.testing.assert_allclose(eigenvalues, values, rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(iprs, np.sum(np.abs(vectors) ** 4, axis=0),
                                   rtol=1e-10, atol=0.0)
        # ?sbevd (eig_banded) on the band is the reference: ?stevd must give its
        # eigenpairs bit for bit, the dense ?syevd of wider bands must match it closely
        sb_values, sb_vectors = eig_banded(_lower_band(op.matrix, bandwidth), lower=True,
                                           check_finite=False)
        sb_iprs = np.sum(np.square(np.square(sb_vectors)), axis=0)
        if bandwidth > 1:
            np.testing.assert_allclose(eigenvalues, sb_values, rtol=0.0, atol=1e-12 * scale)
            np.testing.assert_allclose(iprs, sb_iprs, rtol=1e-10, atol=0.0)
        else:
            assert eigenvalues.tobytes() == sb_values.tobytes()
            assert iprs.tobytes() == sb_iprs.tobytes()
            _, st_vectors, info = stevd.pop()
            assert info == 0
            # ?sbevd multiplies by an identity Q, which turns a -0.0 into +0.0
            assert (st_vectors + 0.0).tobytes() == sb_vectors.tobytes()
    assert not stevd  # called only where the band is tridiagonal


@pytest.mark.parametrize("kernel,half", [(DELTA1, 200), (RANGE2, 150), (ZERO, 150), (DELTA1, 0)],
                         ids=["nn-401", "range2-301", "zero-kernel-301", "one-site"])
def test_ipr_sum_equals_abs_fourth_power(kernel, half):
    # eigensystem squares the vectors twice; the sum must match |v|**4 to 1e-14, and the
    # vectors of the same solver give it bit for bit: ?sbevd's (eig_banded) on a tridiagonal
    # matrix, where ?stevd runs, and the dense ?syevd's (eigh) on range 2
    cube = Cube((0,), half)
    model = DisorderModel(UniformLaw(-1, 1), coupling=3.0, seed=8)
    sparse = generate_sparse_set(0.5, cube, "bernoulli_thinned", 2) if half else \
        sparse_set_from_sites([(0,)], 0.5, 1)
    op = _assemble(kernel, sample_potential(model, sparse, 0), cube)
    _, iprs = eigensystem(op.matrix)
    if kernel is RANGE2:
        _, vectors = np.linalg.eigh(op.matrix.toarray())
    else:
        _, vectors = eig_banded(_lower_band(op.matrix, 1), lower=True, check_finite=False)
    np.testing.assert_allclose(iprs, np.sum(np.abs(vectors) ** 4, axis=0), rtol=1e-14, atol=0.0)
    assert iprs.tobytes() == np.sum(np.square(np.square(vectors)), axis=0).tobytes()
