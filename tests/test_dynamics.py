import itertools
import math

import numpy as np
import pytest
from scipy.fft import dct, next_fast_len

from sparseloc import dynamics
from sparseloc.disorder import DisorderModel, UniformLaw
from sparseloc.dynamics import (
    _axis_tables,
    _site_amplitudes,
    axis_factor_bessel,
    axis_factor_table,
    cook_integrand,
    fit_loglog,
    kernel_elements,
    projected_norm,
    sparseness_integral,
    verify_offdiagonal_decay,
    verify_time_decay,
)
from sparseloc.errors import NumericalError
from sparseloc.lattice import Cube, generate_sparse_set, max_norm, sparse_set_from_sites
from sparseloc.operators import SymbolSpec, delta_symbol

from oracles import evolution_kernel, fft_axis_factor_table, weight_value

DELTA1 = delta_symbol(1)
DELTA2 = delta_symbol(2)


def test_kernel_at_time_zero_is_identity():
    kernel = kernel_elements(DELTA1, [(0,), (1,), (-4,)], [0.0])[0]
    assert kernel[0] == pytest.approx(1.0)
    assert abs(kernel[1]) < 1e-14
    assert abs(kernel[2]) < 1e-14


def test_kernel_matches_bessel_value():
    value = kernel_elements(DELTA1, [(0,)], [1.0])[0, 0]
    assert value.real == pytest.approx(0.22389077914123562, abs=1e-12)
    assert abs(value.imag) < 1e-12


@pytest.mark.parametrize("t", [5.0, 37.5, 100.0])
def test_kernel_bessel_cross_check_wide_range(t):
    table = axis_factor_table(DELTA1, 0, t, 200)
    d = np.arange(-200, 201)
    oracle = np.array([axis_factor_bessel(1, 1.0, t, int(x)) for x in d])
    np.testing.assert_allclose(table, oracle, atol=1e-10)


def test_kernel_separable_product():
    t = 2.5
    offsets = tuple((a, b) for a in range(-5, 6) for b in range(-5, 6))
    kernel = kernel_elements(DELTA2, offsets, [t])[0]
    for (a, b), value in zip(offsets, kernel):
        oracle = axis_factor_bessel(1, 1.0, t, a) * axis_factor_bessel(1, 1.0, t, b)
        assert value == pytest.approx(oracle, abs=1e-10)


def test_kernel_conjugation_under_time_reversal():
    offsets = tuple((d,) for d in range(-8, 9))
    forward, backward = kernel_elements(DELTA1, offsets, [3.0, -3.0])
    np.testing.assert_allclose(backward, np.conj(forward), rtol=0, atol=1e-12)


def test_kernel_unitarity_and_group_law():
    t1, t2 = 1.25, 2.0
    d_max = 60
    table = axis_factor_table(DELTA1, 0, t1 + t2, d_max)
    assert np.sum(np.abs(axis_factor_table(DELTA1, 0, t1 + t2, 200)) ** 2) == pytest.approx(
        1.0, abs=1e-10
    )
    # group law by convolution on a wide box
    wide = 200
    f1 = axis_factor_table(DELTA1, 0, t1, wide)
    f2 = axis_factor_table(DELTA1, 0, t2, wide)
    conv = np.convolve(f1, f2)
    mid = 2 * wide
    for d in range(-d_max, d_max + 1):
        assert conv[mid + d] == pytest.approx(table[d_max + d], abs=1e-8)


def test_mixed_harmonic_axis_kernel():
    spec = SymbolSpec((((1, 1.0), (2, 0.25)),))
    t = 1.7
    table = axis_factor_table(spec, 0, t, 50)

    def oracle(d):
        # convolution of the two commuting harmonic factors
        total = 0.0j
        for j in range(-30, 31):
            if (d - 2 * j) % 1 == 0:
                total += axis_factor_bessel(1, 1.0, t, d - 2 * j) * (
                    axis_factor_bessel(2, 0.25, t, 2 * j)
                )
        return total

    for d in (0, 1, 2, 5, -3):
        assert table[50 + d] == pytest.approx(oracle(d), abs=1e-9)


def test_offdiagonal_decay_regime():
    check = verify_offdiagonal_decay(DELTA1, 5.0, [(d,) for d in range(18, 61)])
    assert check.admissible_from == 20  # 2 nu t sup|h'| = 20
    assert all(r.passed for r in check.rows)
    assert all(max_norm(r.offset) >= 20 for r in check.rows)


def test_offdiagonal_decay_no_admissible_offsets():
    with pytest.raises(ValueError):
        verify_offdiagonal_decay(DELTA1, 5.0, [(d,) for d in range(1, 10)])


def test_offdiagonal_time_zero_trivially_passes():
    check = verify_offdiagonal_decay(DELTA1, 0.0, [(d,) for d in range(1, 8)])
    assert all(r.passed for r in check.rows)


def test_fit_loglog_exact_powers():
    ts = np.geomspace(50, 800, 20)
    assert fit_loglog(ts, ts ** (-1.0 / 3.0)) == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert fit_loglog(ts, 2.7 * ts ** (-0.5)) == pytest.approx(-0.5, abs=1e-12)


def test_time_decay_targets_and_fits():
    fits = verify_time_decay(DELTA1, np.geomspace(50, 800, 20))
    fit = fits[0]
    assert fit.max_target == pytest.approx(-1.0 / 3.0)
    assert fit.fixed_target == pytest.approx(-0.5)
    assert fit.max_pass
    assert fit.fixed_pass


def _grid_zeros_reference(values):
    """The sign-change scan one index at a time, wrapping at the end."""
    sign = np.sign(values)
    n = len(values)
    return [i for i in range(n)
            if sign[i] == 0 or (sign[i] != sign[(i + 1) % n] and sign[(i + 1) % n] != 0)]


@pytest.mark.parametrize("series, targets", [
    (((1, 1.0),), (-1.0 / 3.0, -0.5)),  # Delta
    (((1, 1.0), (3, -0.25)), (-1.0 / 3.0, -0.5)),
    (((1, 1.0), (2, 0.25)), (-1.0 / 3.0, -1.0 / 3.0)),  # h' and h'' vanish together at pi
    ((), (-0.5, -1.0 / 3.0)),  # h = 0: every grid point is a degenerate zero, no caustic
])
def test_axis_targets_and_grid_zeros_match_the_scan(series, targets):
    spec = SymbolSpec((series,))
    for values in spec.axis_derivatives(0):
        assert dynamics._grid_zeros(values).tolist() == _grid_zeros_reference(values)
    assert dynamics._axis_targets(spec, 0) == targets


def test_time_decay_rejects_bad_grid():
    with pytest.raises(ValueError):
        verify_time_decay(DELTA1, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(ValueError):
        verify_time_decay(DELTA1, [50.0, 60.0])


def test_projected_norm_identity_time():
    sparse = sparse_set_from_sites([(0,), (2,)], 0.5, 1)
    t0 = np.array([0.0])
    assert projected_norm(DELTA1, sparse, {(0,): 1.0}, t0)[0] == pytest.approx(1.0)
    weighted = projected_norm(DELTA1, sparse, {(0,): 1.0}, t0, weight_gamma=2.0)
    assert weighted[0] == pytest.approx(1.0)  # only the origin carries amplitude at t=0


def test_sparseness_empty_set():
    sparse = sparse_set_from_sites([], 0.5, 1)
    res = sparseness_integral(DELTA1, sparse, {(0,): 1.0}, 16.0)
    assert res.total == 0.0
    assert res.verdict == "converging"


def test_sparseness_refuses_dense_set():
    dense = sparse_set_from_sites([(i,) for i in range(-40, 41)], 0.2, 1)
    with pytest.raises(ValueError, match="too dense"):
        sparseness_integral(DELTA1, dense, {(0,): 1.0}, 16.0)


def test_sparseness_windows_converge_high_dimension():
    spec = delta_symbol(5)
    sparse = generate_sparse_set(0.25, Cube((0,) * 5, 12), "deterministic_powers", 0)
    res = sparseness_integral(spec, sparse, {(0,) * 5: 1.0}, 32.0)
    assert res.verdict == "converging"
    assert all(r < 0.9 for r in res.ratios[-2:])
    assert res.head_bound >= 1.0


def test_sparseness_requires_enough_windows():
    sparse = sparse_set_from_sites([(0,)], 0.5, 1)
    with pytest.raises(ValueError):
        sparseness_integral(DELTA1, sparse, {(0,): 1.0}, 4.0)


def test_cook_zero_coupling():
    sparse = sparse_set_from_sites([(0,), (4,)], 0.5, 1)
    model = DisorderModel(UniformLaw(-1, 1), coupling=0.0, seed=2)
    rows = cook_integrand(DELTA1, sparse, model, {(0,): 1.0}, [0.5, 1.0], n_samples=30)
    for row in rows:
        assert row.q90 == 0.0
        assert row.q50 <= row.bound


def test_cook_empty_set():
    sparse = sparse_set_from_sites([], 0.5, 1)
    model = DisorderModel(UniformLaw(-1, 1), coupling=3.0, seed=2)
    rows = cook_integrand(DELTA1, sparse, model, {(0,): 1.0}, [1.0], n_samples=30)
    assert rows[0].bound == 0.0
    assert rows[0].q90 == 0.0


def test_cook_second_moment_identity():
    sparse = sparse_set_from_sites([(i,) for i in range(-8, 9, 2)], 0.5, 1)
    model = DisorderModel(UniformLaw(-1, 1), coupling=2.0, seed=3)
    rows = cook_integrand(DELTA1, sparse, model, {(0,): 1.0}, [0.5, 2.0, 5.0], n_samples=300)
    for row in rows:
        # E||V psi||^2 = sigma^2 sum w^2 |psi|^2 = bound^2; 300 samples
        assert row.mc_mean_sq == pytest.approx(row.bound ** 2, rel=0.2)
        assert row.q50 <= row.bound * (1 + 1e-9)


def test_cook_requires_enough_samples():
    sparse = sparse_set_from_sites([(0,)], 0.5, 1)
    model = DisorderModel(UniformLaw(-1, 1), coupling=1.0)
    with pytest.raises(ValueError):
        cook_integrand(DELTA1, sparse, model, {(0,): 1.0}, [1.0], n_samples=10)


def test_kernel_elements_validate_offsets():
    with pytest.raises(ValueError):
        kernel_elements(DELTA2, ((0,),), [1.0])
    assert kernel_elements(DELTA2, [], [1.0, 2.0]).shape == (2, 0)


def test_negative_amplitude_axis_matches_bessel():
    spec = SymbolSpec((((2, -0.75),),))
    t = 4.0
    table = axis_factor_table(spec, 0, t, 40)
    for d in range(-40, 41):
        oracle = axis_factor_bessel(2, -0.75, t, d)
        assert table[40 + d] == pytest.approx(oracle, abs=1e-10)


# --- batched c(t) against the scalar path ------------------------------------


def _axis_factor_table_reference(spec, axis, t, d_max):
    """One time, one 1-D DCT-I over the half period: the scalar axis table."""
    n = dynamics._node_count(t, spec.axis_derivative_sup(axis), d_max)
    m = n // 2
    g = np.exp(-1j * t * spec.axis_values(axis, math.pi * np.arange(m + 1) / m))
    return dct(g, type=1)[np.abs(np.arange(-d_max, d_max + 1))] / n


def _site_amplitudes_reference(spec, phi, sites, t):
    """One scalar axis table per axis, shared by no other axis."""
    sources = list(phi.items())
    d_maxes = []
    tables = []
    for axis in range(spec.dim):
        lo = int(sites[:, axis].min()) - max(n[axis] for n, _ in sources)
        hi = int(sites[:, axis].max()) - min(n[axis] for n, _ in sources)
        d_max = max(abs(lo), abs(hi))
        d_maxes.append(d_max)
        tables.append(_axis_factor_table_reference(spec, axis, t, d_max))
    psi = np.zeros(sites.shape[0], dtype=complex)
    for n, amp in sources:
        factors = np.ones(sites.shape[0], dtype=complex)
        for axis in range(spec.dim):
            factors *= tables[axis][sites[:, axis] - n[axis] + d_maxes[axis]]
        psi += amp * factors
    return psi


def _projected_norm_reference(spec, sparse, phi, t, gamma):
    psi = _site_amplitudes_reference(spec, phi, sparse.coords, t)
    w = np.array([1.0 if gamma is None else weight_value(gamma, m) for m in sparse.sites])
    return float(np.sqrt(np.sum((w * np.abs(psi)) ** 2)))


_SHARED_TABLE_CASES = {
    # equal axes, symmetric set: one table serves all five axes
    "delta5": (
        delta_symbol(5),
        [(0, 0, 0, 0, 0), (3, -3, 3, -3, 3), (-3, 3, -3, 3, -3), (2, 0, -1, 0, 1)],
        {(0, 0, 0, 0, 0): 1.0, (1, 1, 1, 1, 1): 0.5j},
        1,
    ),
    # distinct c on one axis and distinct k on another: no sharing
    "anisotropic": (
        SymbolSpec((((1, 1.0),), ((1, 0.5),), ((2, 1.0), (1, 0.3)))),
        [(0, 0, 0), (4, -1, 2), (-3, 5, 0), (1, 1, -6)],
        {(0, 0, 0): 1.0},
        3,
    ),
    # equal axes whose d_max differ (set not symmetric): axes 0 and 2 share
    "equal_axes_unequal_reach": (
        delta_symbol(3),
        [(7, 1, -7), (-2, 3, 0), (0, 0, 4)],
        {(0, 0, 0): 1.0, (1, 0, 0): -0.25},
        2,
    ),
}


@pytest.mark.parametrize("case", sorted(_SHARED_TABLE_CASES))
@pytest.mark.parametrize("t", [0.7, 3.0, 25.0])
def test_shared_axis_tables_bitwise_equal_reference(monkeypatch, case, t):
    spec, sites, phi, n_tables = _SHARED_TABLE_CASES[case]
    sparse = sparse_set_from_sites(sites, 0.5, spec.dim)
    coords = sparse.coords
    ts = np.array([t, 1.5 * t, 7.0 * t])  # one batch, several node counts
    want = np.array([_site_amplitudes_reference(spec, phi, coords, x) for x in ts])

    calls = []

    def counted(*args):
        calls.append(args)
        return _axis_tables(*args)

    monkeypatch.setattr(dynamics, "_axis_tables", counted)
    got = _site_amplitudes(spec, phi, coords, ts)
    assert len(calls) == n_tables  # one build per distinct (series, d_max) per batch
    assert got.tobytes() == want.tobytes()
    for gamma in (None, 1.5):
        c = projected_norm(spec, sparse, phi, ts, gamma)
        assert c.tolist() == [_projected_norm_reference(spec, sparse, phi, x, gamma) for x in ts]
        assert projected_norm(spec, sparse, phi, ts[:1], gamma).tolist() == c[:1].tolist()


def test_axis_factor_table_bitwise_equal_reference():
    for t in (0.0, 0.7, 3.0, 25.0, 400.0):
        got = axis_factor_table(DELTA1, 0, t, 30)
        assert got.tobytes() == _axis_factor_table_reference(DELTA1, 0, t, 30).tobytes()
        # the full-period FFT on the same nodes: 7.9e-15 at t = 400, exact at t = 0
        np.testing.assert_allclose(got, fft_axis_factor_table(DELTA1, 0, t, 30), rtol=0, atol=5e-14)


def _bench_times(t_max=64.0):
    """Every time c(t) is taken at by sparseness_integral: the nodes of each
    Gauss level on each dyadic window, and the sample times."""
    ts = []
    for lo, hi in dynamics._dyadic_windows(t_max):
        for n in (48, 96, 192, 384, 768):
            ts += (0.5 * (hi - lo) * dynamics._leggauss(n)[0] + 0.5 * (hi + lo)).tolist()
        ts += np.linspace(lo, hi, 9)[:-1].tolist()
    return np.array(ts + [t_max])


@pytest.mark.parametrize("series", [((1, 1.0),), ((1, 1.0), (2, 0.3)), ((2, -0.75),)])
def test_axis_tables_match_full_period_fft(series):
    """The half-period DCT-I against the full-period FFT rule on every time
    of a t_max = 64 sparseness run (8,977 times, reach 30): at most
    3.7e-15 apart."""
    spec, ts = SymbolSpec((series,)), _bench_times()
    want = np.array([fft_axis_factor_table(spec, 0, t, 30) for t in ts])
    np.testing.assert_allclose(_axis_tables(spec, 0, ts, 30), want, rtol=0, atol=1e-14)


def test_node_count_is_even_and_never_below_the_fast_full_period_count():
    slope = DELTA1.axis_derivative_sup(0)
    for t in np.geomspace(0.1, 2000.0, 300):
        for d_max in (0, 30, 500):
            n = dynamics._node_count(t, slope, d_max)
            reach = t * slope
            raw = max(256, int(2.2 * (reach + d_max + 64.0 + 12.0 * (reach + 1.0) ** (1.0 / 3.0))))
            assert n % 2 == 0 and n >= next_fast_len(raw) and d_max < n // 2
            assert next_fast_len(n // 2) == n // 2


def test_light_cone_gives_the_counts_and_reaches_of_the_inline_formulas():
    slope = DELTA1.axis_derivative_sup(0)
    assert slope == 2.0
    for t in (0.5, 1.0, 5.0, 20.0):  # criterion 3's tables
        assert int(dynamics.light_cone(t, slope)) == int(2 * t + 12 * (2 * t + 1) ** (1 / 3) + 64)
    for t in np.geomspace(50.0, 800.0, 25):  # criterion 4's tables
        want = int(t * slope + 12 * (t * slope + 1) ** (1 / 3) + 64)
        assert int(dynamics.light_cone(t, slope)) == want
    for t in np.geomspace(0.1, 1e6, 200):  # the node count keeps its float evaluation order
        for d_max in (0, 30, 500):
            reach = t * slope
            pad = 64.0 + 12.0 * (reach + 1.0) ** (1.0 / 3.0)
            assert (2.2 * dynamics.light_cone(-t, slope, d_max)).hex() == \
                (2.2 * (reach + d_max + pad)).hex()


def test_node_count_over_the_cap_raises_before_any_fast_length():
    # 2.2 (2e300 + pad) nodes: the count is refused as a number, not handed to next_fast_len
    with pytest.raises(ValueError, match=r"axis table needs 4\.4e\+300 quadrature nodes, "
                                         r"over the guard 2000000"):
        kernel_elements(delta_symbol(1), [[0]], [1e300])
    with pytest.raises(ValueError, match="5.072855e[+]18 quadrature nodes"):
        dynamics._node_count(1.0, 2.0, 2 ** 61)


def test_axis_reaches_is_the_largest_offset_per_axis():
    sites = np.array([[-3, 5], [4, -1], [0, 2]])
    sources = [(1, 0), (-2, 7)]
    want = [max(abs(m[i] - n[i]) for m in sites.tolist() for n in sources) for i in range(2)]
    assert dynamics.axis_reaches(sites, sources) == want == [6, 8]


def test_gauss_window_that_does_not_settle_reports_its_last_two_levels():
    def f(ts):
        return np.sin(1000.0 * ts)

    with pytest.raises(NumericalError, match="did not settle") as info:
        dynamics._gauss_window(f, 0.0, 100.0)
    levels = []
    for n in (1536, 3072):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        levels.append(50.0 * float(np.dot(weights, f(50.0 * nodes + 50.0))))
    last_two = info.value.diagnostics["last_two"]
    assert last_two == pytest.approx(tuple(levels), rel=1e-12, abs=1e-15)
    assert last_two[0] != last_two[1]


def test_axis_tables_non_finite_raises(monkeypatch):
    monkeypatch.setattr(SymbolSpec, "axis_values", lambda self, axis, thetas: thetas * np.nan)
    with pytest.raises(NumericalError, match="non-finite") as info:
        _axis_tables(DELTA1, 0, np.array([2.0, 1.0]), 3)
    nodes = dynamics._node_count(2.0, DELTA1.axis_derivative_sup(0), 3)
    assert info.value.diagnostics == {"t": 2.0, "nodes": nodes}


def _level_case():
    """The bench sparseness set (5D, deterministic_powers, alpha 0.25,
    half side 30) and the 192 nodes of a Gauss level on [32, 64]."""
    sparse = generate_sparse_set(0.25, Cube((0,) * 5, 30), "deterministic_powers", 0)
    nodes, _ = dynamics._leggauss(192)
    return delta_symbol(5), sparse, {(0,) * 5: 1.0}, 16.0 * nodes + 48.0


@pytest.mark.parametrize("gamma", [None, 0.25])
def test_c_of_t_level_bitwise_equal_scalar_reference(monkeypatch, gamma):
    spec, sparse, phi, ts = _level_case()
    d_max = 30
    counts = {dynamics._node_count(t, spec.axis_derivative_sup(0), d_max) for t in ts}
    assert len(counts) >= 3  # the level spans several node counts
    want = [_projected_norm_reference(spec, sparse, phi, t, gamma) for t in ts]
    assert projected_norm(spec, sparse, phi, ts, gamma).tolist() == want
    # small blocks: time blocks of 17 and DCT blocks of one to three rows
    monkeypatch.setattr(dynamics, "_CHUNK_ENTRIES", 1000)
    assert projected_norm(spec, sparse, phi, ts, gamma).tolist() == want


def test_sparseness_integral_calls_c_of_t_once_per_level(monkeypatch):
    calls = []
    original = dynamics.projected_norm

    def counted(spec, sparse, phi, t, gamma=None):
        calls.append(np.size(t))
        return original(spec, sparse, phi, t, gamma)

    monkeypatch.setattr(dynamics, "projected_norm", counted)
    spec, sparse, phi, _ = _level_case()
    res = sparseness_integral(spec, sparse, phi, 16.0)
    assert calls[-1] == len(res.t_grid) == 4 * 8 + 1  # the samples: one batch
    assert set(calls[:-1]) <= {48, 96, 192, 384, 768, 1536, 3072}  # one batch per Gauss level


def test_leggauss_levels_are_cached_read_only():
    nodes, weights = dynamics._leggauss(96)
    assert dynamics._leggauss(96)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("n", [15, 48, 96, 192, 384, 768, 1536, 3072])
def test_leggauss_bitwise_equal_numpy(n):
    """The ?sterf eigenvalues give numpy's nodes and weights bit for bit at
    the decoupling rule's 15 nodes and at every window level."""
    nodes, weights = dynamics._leggauss(n)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert weights.tobytes() == want_weights.tobytes()


# --- the array propagator against the Bessel closed form and the dict path ---

_PROPAGATOR_TIMES = [0.0, 0.5, 3.0, 11.0]


def _box(nu, half):
    return [tuple(d) for d in itertools.product(range(-half, half + 1), repeat=nu)]


@pytest.mark.parametrize("nu,half", [(1, 40), (2, 12), (3, 5)])
def test_kernel_elements_match_bessel_products(nu, half):
    offsets = _box(nu, half)
    kernel = kernel_elements(delta_symbol(nu), offsets, _PROPAGATOR_TIMES)
    for t, row in zip(_PROPAGATOR_TIMES, kernel):
        oracle = [math.prod(axis_factor_bessel(1, 1.0, t, x) for x in d) for d in offsets]
        np.testing.assert_allclose(row, oracle, rtol=0, atol=1e-12)


_MIXED = {
    1: SymbolSpec((((1, 1.0), (2, 0.3)),)),
    2: SymbolSpec((((1, 1.0), (2, 0.3)), ((1, 0.5),))),
    3: delta_symbol(3),
}


@pytest.mark.parametrize("nu,half", [(1, 60), (2, 15), (3, 6)])
def test_kernel_elements_match_dict_reference(nu, half):
    """nu = 1: one factor per element, so the array product is the dict
    path bit for bit; nu >= 2 multiplies the factors in numpy rather
    than in Python complex arithmetic, which may move the last bit."""
    spec, offsets = _MIXED[nu], _box(nu, half)
    kernel = kernel_elements(spec, offsets, _PROPAGATOR_TIMES)
    for t, row in zip(_PROPAGATOR_TIMES, kernel):
        ref = evolution_kernel(spec, t, offsets)
        want = np.array([ref[d] for d in offsets])
        if nu == 1:
            assert row.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("gamma", [0.25, 1.5])
def test_weighted_projected_norm_matches_weight_oracle(gamma):
    """c(t) with (1 + |n|)^gamma weights against the weights taken one
    site at a time.  At c07's gamma = 0.25 the package weights of its 51
    sites also equal the numpy power over the radius array bit for bit,
    so c07's weighted c(t) did not move when c(t) took them."""
    spec, sparse, phi, ts = _level_case()
    psi = _site_amplitudes(spec, phi, sparse.coords, ts)
    w = np.array([weight_value(gamma, m) for m in sparse.sites])
    want = np.sqrt(np.sum((w * np.abs(psi)) ** 2, axis=1))
    assert projected_norm(spec, sparse, phi, ts, gamma).tobytes() == want.tobytes()
    if gamma == 0.25:
        radii = np.max(np.abs(sparse.coords), axis=1)
        assert len(sparse) == 51
        assert sparse.weights(gamma).tobytes() == ((1.0 + radii) ** gamma).tobytes()


def test_time_decay_fixed_probe_matches_mean_reference():
    """The d = 0 probe reads the axis table's d = 0 column; the reference
    takes the mean of e^{-i t h} at the same node counts.  The two sums
    differ in order only."""
    t_grid = np.geomspace(50.0, 800.0, 25)
    slope = DELTA1.axis_derivative_sup(0)
    fixed = []
    for t in t_grid:
        amps = []
        for tw in t * (1.0 + np.linspace(-0.08, 0.08, 65)):
            n = dynamics._node_count(tw, slope, 0)
            thetas = 2.0 * math.pi * np.arange(n) / n
            amps.append(abs(np.mean(np.exp(-1j * tw * DELTA1.axis_values(0, thetas)))))
        fixed.append(max(amps))
    fit = verify_time_decay(DELTA1, t_grid)[0]
    assert fit.fixed_slope == pytest.approx(fit_loglog(t_grid, fixed), abs=1e-12)
