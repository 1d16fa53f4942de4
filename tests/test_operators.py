import itertools
import math
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseloc.lattice import Cube
from sparseloc.operators import (
    AssembledOperator,
    SymbolSpec,
    assemble_finite_volume,
    band_storage,
    delta_symbol,
    is_tridiagonal,
    kernel_decay_check,
    neumann_fractional_bound,
    periodized_gaussian,
    s_norm,
)

from oracles import green_row, kernel_from_symbol


def test_kernel_from_cosine_is_nearest_neighbor():
    assert dict(delta_symbol(1).hopping) == {(1,): 1.0, (-1,): 1.0}


def test_kernel_from_third_harmonic_two_dims():
    assert dict(SymbolSpec((((3, 1.0),), ((3, 1.0),))).hopping) == {
        (3, 0): 1.0, (-3, 0): 1.0, (0, 3): 1.0, (0, -3): 1.0,
    }


def test_zero_symbol_gives_zero_kernel():
    spec = SymbolSpec(((),))
    assert spec.hopping == ()
    assert s_norm(spec, 0.5) == 0.0


def test_empty_symbol_rejected():
    with pytest.raises(ValueError):
        SymbolSpec(())


def test_symbol_rejects_bad_harmonics():
    with pytest.raises(ValueError):
        SymbolSpec((((0, 1.0),),))
    with pytest.raises(ValueError):
        SymbolSpec((((1, 1.0), (1, 2.0)),))


# Axis series with distinct harmonics 1..4; c = 0 terms and several
# harmonics per axis are both drawn often.
_SERIES = st.lists(
    st.tuples(st.integers(1, 4), st.one_of(st.just(0.0), st.floats(-3.0, 3.0))),
    max_size=4, unique_by=lambda term: term[0],
)


@given(st.lists(_SERIES, min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_symbol_hopping_equals_kernel_reference(axes):
    spec = SymbolSpec(tuple(map(tuple, axes)))
    want = kernel_from_symbol(spec)
    assert spec.hopping == want
    hopping = dict(spec.hopping)
    assert all(amp != 0.0 for amp in hopping.values())
    assert all(hopping[tuple(-x for x in offset)] == amp for offset, amp in hopping.items())
    assert all(len(offset) == spec.dim for offset in hopping)
    assert len(hopping) == 2 * sum(c != 0.0 for series in spec.axes for _, c in series)


@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.9, 1.0])
def test_s_norm_matches_closed_form(nu, s):
    spec = delta_symbol(nu)
    assert s_norm(spec, s) == pytest.approx((2 * nu) ** (1 / s), rel=1e-14)


def test_s_norm_mixed_kernel():
    # range 2, hoppings 1 at +-1 and 0.5 at +-2: (2 + 2*0.5^0.5)^2
    range2 = SymbolSpec((((1, 1.0), (2, 0.5)),))
    expected = (2.0 + 2.0 * 0.5 ** 0.5) ** 2
    assert expected == pytest.approx(11.65685424949238, rel=1e-12)
    assert s_norm(range2, 0.5) == pytest.approx(expected, rel=1e-14)
    # range 3 in 2D, hoppings 0.7 at +-e1 and -0.2 at +-3 e2: (2 0.7^0.5 + 2 0.2^0.5)^2
    range3 = SymbolSpec((((1, 0.7),), ((3, -0.2),)))
    expected = (2.0 * 0.7 ** 0.5 + 2.0 * 0.2 ** 0.5) ** 2
    assert s_norm(range3, 0.5) == pytest.approx(expected, rel=1e-14)
    assert s_norm(range3, 1.0) == pytest.approx(1.8, rel=1e-14)


def test_s_norm_rejects_bad_s():
    spec = delta_symbol(1)
    for s in (0.0, -0.5, 1.0001):
        with pytest.raises(ValueError):
            s_norm(spec, s)


@given(st.floats(0.1, 0.95), st.floats(0.1, 0.95),
       st.sampled_from([((1, 1.0), (2, 0.35)), ((1, 0.7), (3, 0.2))]))
@settings(max_examples=50, deadline=None)
def test_s_norm_monotone_nonincreasing(s1, s2, series):
    spec = SymbolSpec((series,))  # range 2 or range 3
    lo, hi = min(s1, s2), max(s1, s2)
    assert s_norm(spec, lo) >= s_norm(spec, hi) - 1e-12


def test_neumann_bound_value_and_limits():
    spec = delta_symbol(1)
    # |E|^(-s) / (1 - 2/|E|^s) at E=3, s=0.9
    assert neumann_fractional_bound(spec, 3.0, 0.9) == pytest.approx(
        1.4537516965565431, rel=1e-12
    )
    assert neumann_fractional_bound(spec, 1e9, 0.9) < 1e-8
    with pytest.raises(ValueError):
        neumann_fractional_bound(spec, s_norm(spec, 0.9), 0.9)


@pytest.mark.parametrize("energy", [3.0, 4.0, 6.0])
def test_neumann_bound_dominates_direct_sum(energy):
    spec = delta_symbol(1)
    op = assemble_finite_volume(spec, Cube((0,), 200))
    direct = green_row(op, complex(energy, 1e-6), (0,)).sum_abs_pow(0.9)
    assert direct <= neumann_fractional_bound(spec, energy, 0.9)


def _with_potential(op, potential):
    """The operator plus a dict potential, placed site by site."""
    diag = np.zeros(op.size)
    for site, value in potential.items():
        diag[op.index_of(site)] += value
    return AssembledOperator(op.cube, (op.matrix + sp.diags(diag)).tocsr())


def test_assemble_tridiagonal():
    spec = delta_symbol(1)
    op = assemble_finite_volume(spec, Cube((0,), 1))
    np.testing.assert_array_equal(
        op.matrix.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    )


def test_assemble_with_potential():
    spec = delta_symbol(1)
    op = _with_potential(assemble_finite_volume(spec, Cube((0,), 1)), {(0,): 5.0})
    np.testing.assert_array_equal(
        op.matrix.toarray(), [[0, 1, 0], [1, 5, 1], [0, 1, 0]]
    )


def test_assemble_zero_everything():
    spec = SymbolSpec(((),))
    op = assemble_finite_volume(spec, Cube((0,), 2))
    assert op.matrix.nnz == 0


def test_assembly_is_symmetric():
    spec = SymbolSpec((((2, 1.0),), ((2, 1.0),)))
    rng = np.random.default_rng(0)
    cube = Cube((0, 0), 3)
    potential = {tuple(s): float(rng.normal()) for s in cube.coords().tolist()}
    op = _with_potential(assemble_finite_volume(spec, cube), potential)
    diff = (op.matrix - op.matrix.T).toarray()
    assert np.max(np.abs(diff)) == 0.0


def test_index_site_round_trip():
    op = assemble_finite_volume(delta_symbol(2), Cube((1, -2), 2))
    coords = op.cube.coords()
    lexicographic = itertools.product(range(-1, 4), range(-4, 1))
    for i, site in enumerate(lexicographic):
        assert op.index_of(site) == i
        assert tuple(coords[i].tolist()) == site


def test_indices_of_vectorizes_index_of_and_rejects_outside_sites():
    op = assemble_finite_volume(delta_symbol(2), Cube((1, -2), 2))
    sites = [tuple(s) for s in op.cube.coords().tolist()[::-3]]
    assert op.cube.indices_of(np.array(sites)).tolist() == [op.index_of(s) for s in sites]
    for bad in ((4, 0), (1, -2, 0), (1,)):
        with pytest.raises(KeyError):
            op.index_of(bad)


def _coo_assembly_reference(hopping, cube):
    """The free matrix as the COO assembly with an explicit stride map built it."""
    side, dim, n = cube.side, cube.dim, cube.volume
    lo = np.array([c - cube.half_side for c in cube.center], dtype=np.int64)
    strides = np.array([side ** (dim - 1 - j) for j in range(dim)], dtype=np.int64)
    axes = [range(c - cube.half_side, c + cube.half_side + 1) for c in cube.center]
    coords = np.array(list(itertools.product(*axes)), dtype=np.int64).reshape(n, dim)
    rows, cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for offset, amp in hopping:
        rel = coords + np.asarray(offset, dtype=np.int64) - lo
        valid = np.all((rel >= 0) & (rel < side), axis=1)
        rows.append(np.nonzero(valid)[0])
        cols.append(rel[valid] @ strides)
        vals.append(np.full(int(valid.sum()), amp))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()


@pytest.mark.parametrize(
    "spec,cube",
    [
        (delta_symbol(1), Cube((7,), 9)),
        (SymbolSpec((((1, 1.0), (3, -0.25)),)), Cube((-4,), 2)),
        (SymbolSpec((((2, 1.0),), ((2, 1.0),))), Cube((3, -5), 4)),
        (SymbolSpec((((1, 0.5),), ((2, 1.5),))), Cube((0, 0), 1)),
        (SymbolSpec(((),)), Cube((2,), 3)),
    ],
    ids=["1d", "1d-range3-exceeds-side", "2d-k2", "2d-anisotropic-small", "empty-kernel"],
)
def test_free_assembly_equals_coo_reference(spec, cube):
    op = assemble_finite_volume(spec, cube)
    ref = _coo_assembly_reference(kernel_from_symbol(spec), cube)
    assert op.matrix.shape == ref.shape and op.matrix.dtype == ref.dtype
    assert (op.matrix != ref).nnz == 0
    np.testing.assert_array_equal(op.matrix.toarray(), ref.toarray())


def test_decay_check_pure_cosine():
    h = lambda th: 2.0 * np.cos(th)
    check = kernel_decay_check(h, 1, range(0, 6))
    coeff = {r.offset: r.coefficient for r in check.rows}
    assert coeff[1] == pytest.approx(1.0, abs=1e-12)
    assert all(coeff[d] < 1e-12 for d in (2, 3, 4, 5))
    assert all(r.passed for r in check.rows if r.offset != 0)


def test_decay_check_two_harmonics_exact():
    h = lambda th: 2.0 * np.cos(th) + 0.5 * np.cos(2 * th)
    check = kernel_decay_check(h, 1, range(0, 5))
    coeff = {r.offset: r.coefficient for r in check.rows}
    assert coeff[1] == pytest.approx(1.0, abs=1e-10)
    assert coeff[2] == pytest.approx(0.25, abs=1e-10)
    assert all(r.passed for r in check.rows if r.offset != 0)


def test_decay_check_smooth_bump_beats_power_law():
    h = periodized_gaussian(0.6)
    offsets = list(range(1, 13))
    check = kernel_decay_check(h, 1, offsets)
    mags = np.array([r.coefficient for r in check.rows])
    usable = mags > 1e-14
    d = np.array(offsets, dtype=float)[usable]
    slope = np.polyfit(np.log(d), np.log(mags[usable]), 1)[0]
    assert slope <= -(2 * 1 + 1)
    assert all(r.passed for r in check.rows)


def test_decay_ladder_stops_at_the_node_cap(monkeypatch):
    """A one-node spike never converges: the ladder doubles up to NODE_CAP and
    raises, and validation refuses a first level over the cap through the
    same function."""
    from sparseloc import operators
    from sparseloc.config import validate_config
    from sparseloc.errors import ConfigError, NumericalError

    monkeypatch.setattr(operators, "NODE_CAP", 16_384)
    sizes = []
    fourier = operators._fourier_coefficients
    monkeypatch.setattr(operators, "_fourier_coefficients",
                        lambda h, n: sizes.append(n) or fourier(h, n))
    with pytest.raises(NumericalError, match="did not converge"):
        kernel_decay_check(periodized_gaussian(1e-9), 1, [0, 1, 1000])
    assert sizes == [8000, 16000]  # the next level, 32,000 nodes, passes the cap
    raw = {"kind": "decay_check", "sampled_symbol": {"name": "periodized_gaussian", "width": 1e-9},
           "offsets": [0, 1, 1024]}
    validate_config(raw)  # 2 * 8192 nodes: at the cap
    raw["offsets"][0] = -1025
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert err.value.violations == [
        ("offsets[0]", "|d| = 1025 needs 16400 quadrature nodes, over the guard 16384")]


def test_c_h_estimate_for_pure_cosine():
    from sparseloc.operators import _estimate_c_h

    # every derivative of 2 cos(theta) has sup exactly 2
    assert _estimate_c_h(lambda th: 2.0 * np.cos(th), 1) == pytest.approx(2.0, rel=1e-9)
    assert _estimate_c_h(lambda th: 2.0 * np.cos(th), 2) == pytest.approx(2.0, rel=1e-9)


def test_decay_check_on_axis_values_bitwise_equals_per_angle_evaluation():
    # the array symbol gives the coefficients of one evaluation per angle, bit for bit
    spec = SymbolSpec((((1, 1.0), (3, -0.25)), ((2, 0.5),)))
    offsets = [0, 1, 2, 3, 5, -4]
    for axis in range(spec.dim):
        got = kernel_decay_check(partial(spec.axis_values, axis), spec.dim, offsets)

        def per_angle(thetas, a=axis):
            return np.array([spec.axis_values(a, np.array([th]))[0] for th in thetas])

        want = kernel_decay_check(per_angle, spec.dim, offsets)
        assert [r.coefficient.hex() for r in got.rows] == [r.coefficient.hex() for r in want.rows]
        assert got.c_h.hex() == want.c_h.hex()
        assert got.achieved_tol == want.achieved_tol


def test_periodized_gaussian_matches_scalar_image_sum():
    width = 0.6
    thetas = 2.0 * math.pi * np.arange(4096) / 4096
    want = np.array([sum(math.exp(-0.5 * ((th - math.pi + 2.0 * math.pi * k) / width) ** 2)
                         for k in range(-6, 7)) for th in thetas])
    np.testing.assert_allclose(periodized_gaussian(width)(thetas), want, rtol=1e-14, atol=0)


def _derivatives_reference(series):
    """First, second and third derivatives by the 8192-point grid formula,
    evaluated afresh on every call."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 8192, endpoint=False)
    d1, d2, d3 = np.zeros(8192), np.zeros(8192), np.zeros(8192)
    for k, c in series:
        d1 -= 2.0 * c * k * np.sin(k * thetas)
        d2 -= 2.0 * c * k * k * np.cos(k * thetas)
        d3 += 2.0 * c * k ** 3 * np.sin(k * thetas)
    return d1, d2, d3


def _derivative_sup_reference(series):
    return float(np.max(np.abs(_derivatives_reference(series)[0])))


_DERIVATIVE_AXES = [
    (((1, 1.0),),),
    (((3, -0.7),), ((1, 1.0),)),
    (((1, 0.25), (2, -0.5), (5, 0.125)), ((2, 1.0),), ((1, 0.25), (2, -0.5), (5, 0.125))),
    ((),),
]


@pytest.mark.parametrize("axes", _DERIVATIVE_AXES)
def test_axis_derivatives_match_grid_formula(axes):
    """One cached, read-only set of profiles per distinct series, bitwise
    equal to the grid formula: the sup and the time-decay targets both
    read it."""
    first, second = SymbolSpec(axes), SymbolSpec(axes)
    for axis in range(len(axes)):
        got = first.axis_derivatives(axis)
        assert second.axis_derivatives(axis) is got
        for profile, want in zip(got, _derivatives_reference(first.axes[axis])):
            assert profile.tobytes() == want.tobytes()
            assert not profile.flags.writeable


@pytest.mark.parametrize("axes", _DERIVATIVE_AXES)
def test_axis_derivative_sup_matches_grid_formula(axes):
    first, second = SymbolSpec(axes), SymbolSpec(axes)  # built separately, equal series
    for axis in range(len(axes)):
        want = _derivative_sup_reference(first.axes[axis])
        assert first.axis_derivative_sup(axis) == want
        assert second.axis_derivative_sup(axis) == want
    assert first.derivative_sup() == max(
        _derivative_sup_reference(series) for series in first.axes
    )


@pytest.mark.parametrize("k,n", [(0, 1), (1, 7), (3, 10), (2, 2)])
def test_band_storage_holds_each_diagonal_in_its_row(k, n):
    # a symmetric matrix with k diagonals each side; it is tridiagonal when every
    # stored entry has |i - j| <= 1, and band storage holds its three central diagonals
    rng = np.random.default_rng(k * 10 + n)
    dense = np.triu(np.tril(rng.standard_normal((n, n)), k), -k)
    dense = dense + dense.T
    assert is_tridiagonal(sp.csr_matrix(dense)) == (min(k, n - 1) <= 1)
    ab = band_storage(sp.csr_matrix(dense), dtype=complex)
    assert ab.shape == (3, n) and ab.dtype == complex
    for i, j in itertools.product(range(n), repeat=2):  # LAPACK: ab[1 + i - j, j] = A[i, j]
        if abs(i - j) <= 1:
            assert ab[1 + i - j, j] == dense[i, j]
    lower = band_storage(sp.csr_matrix(dense))[1:]  # row d: the d-th subdiagonal
    for d in (0, 1):
        assert lower[d, :n - d].tolist() == np.diagonal(dense, -d).tolist()
        assert not lower[d, n - d:].any()
