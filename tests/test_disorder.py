import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseloc._rng import key_uniforms
from sparseloc.disorder import (
    DisorderModel,
    GaussianLaw,
    TruncatedCauchyLaw,
    UniformLaw,
    make_law,
    sample_potential,
    sample_potentials,
)
from sparseloc.lattice import sparse_set_from_sites

from oracles import weight_value


def _line_set(lo, hi):
    return sparse_set_from_sites([(i,) for i in range(lo, hi + 1)], 0.5, 1)


def test_empty_set_gives_empty_potential():
    model = DisorderModel(UniformLaw(-1, 1), coupling=5.0, seed=1)
    assert sample_potential(model, sparse_set_from_sites([], 0.5, 1), 0) == {}


def test_zero_coupling_gives_zeros():
    model = DisorderModel(UniformLaw(-1, 1), coupling=0.0, seed=1)
    values = sample_potential(model, _line_set(-3, 3), 0)
    assert set(values) == {(i,) for i in range(-3, 4)}
    assert all(v == 0.0 for v in values.values())


def test_replay_determinism_and_per_site_keying():
    model = DisorderModel(UniformLaw(-1, 1), coupling=10.0, seed=42)
    big = _line_set(-10, 10)
    small = sparse_set_from_sites([(-4,), (0,), (7,)], 0.5, 1)
    a = sample_potential(model, big, 3)
    b = sample_potential(model, big, 3)
    assert a == b
    # values depend on (seed, realization, site) only, not on the set
    c = sample_potential(model, small, 3)
    for site, value in c.items():
        assert value == a[site]
    # different realizations decorrelate
    d = sample_potential(model, big, 4)
    assert d != a


def test_uniform_law_of_large_numbers():
    model = DisorderModel(UniformLaw(-1, 1), coupling=10.0, seed=7)
    sites = _line_set(0, 9)
    total = 0.0
    n_real = 10_000
    for r in range(n_real):
        total += sum(sample_potential(model, sites, r).values())
    mean = total / (n_real * 10)
    # sigma = lambda/sqrt(3); three-sigma band for the mean of 1e5 draws
    assert abs(mean) < 3.0 * (10.0 / math.sqrt(3.0)) / math.sqrt(n_real * 10)


@pytest.mark.parametrize(
    "law,second_moment",
    [
        (UniformLaw(-1, 1), 1.0 / 3.0),
        (GaussianLaw(0.0, 2.0), 4.0),
        (TruncatedCauchyLaw(1.0, 5.0), (5.0 - math.atan(5.0)) / math.atan(5.0)),
    ],
)
def test_empirical_second_moment_matches_law(law, second_moment):
    u = key_uniforms(99, 1, (0, np.arange(1_000_000, dtype=np.int64)))
    x = np.asarray(law.inverse_cdf(u))
    assert np.mean(x ** 2) == pytest.approx(second_moment, rel=0.01)
    assert law.second_moment() == pytest.approx(second_moment, rel=1e-12)


def test_weighted_sampling_scales_by_distance():
    gamma = 0.5
    model = DisorderModel(UniformLaw(-1, 1), weight_gamma=gamma, seed=13)
    flat = DisorderModel(UniformLaw(-1, 1), coupling=1.0, seed=13)
    sites = _line_set(-99, 99)
    weighted = sample_potential(model, sites, 0)
    raw = sample_potential(flat, sites, 0)
    for site, value in weighted.items():
        assert value == pytest.approx(weight_value(gamma, site) * raw[site], rel=1e-12)


def test_weight_value_examples():
    assert weight_value(1.0, (0,)) == 1.0
    assert weight_value(2.0, (3,)) == 16.0
    assert weight_value(0.5, (99,)) == 10.0
    sparse = sparse_set_from_sites([(0,), (3,), (-99,)], 0.5, 1)  # rows -99, 0, 3
    assert sparse.weights(2.0).tolist() == [10000.0, 1.0, 16.0]
    assert sparse.weights(0.5).tolist() == [10.0, 1.0, 2.0]
    with pytest.raises(ValueError):
        weight_value(0.0, (1,))


def test_weight_value_nondecreasing():
    values = [weight_value(0.7, (n,)) for n in range(0, 50)]
    assert values == sorted(values)
    assert values[0] == 1.0


def test_truncated_cauchy_measures():
    law = TruncatedCauchyLaw(1.0, 4.0)
    u = np.linspace(1e-6, 1 - 1e-6, 1001)
    x = law.inverse_cdf(u)
    assert np.all(np.abs(x) <= 4.0 + 1e-9)
    assert np.all(np.diff(x) > 0)


def test_gaussian_inverse_cdf_median():
    law = GaussianLaw(3.0, 2.0)
    assert float(law.inverse_cdf(np.array([0.5]))[0]) == pytest.approx(3.0)


def test_make_law_dispatch():
    assert isinstance(make_law("uniform", [-1, 1]), UniformLaw)
    assert isinstance(make_law("gaussian", [0, 1]), GaussianLaw)
    assert isinstance(make_law("truncated_cauchy", [1, 3]), TruncatedCauchyLaw)
    with pytest.raises(ValueError):
        make_law("cauchy", [1])
    with pytest.raises(ValueError):
        make_law("uniform", [1, -1])


def test_gaussian_law_requires_positive_sd():
    for sd in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="sd > 0"):
            GaussianLaw(0.0, sd)
    with pytest.raises(ValueError):
        make_law("gaussian", [0, 0])


def test_key_uniforms_pinned_draws():
    # the counter-based hash is part of the reproducibility contract:
    # these draws must never change, whether taken one realization at a
    # time or batched; the key columns are the realization, then the coordinates
    one = key_uniforms(7, 201, (3, [0, 5, -2]))
    assert [float(x).hex() for x in one] == [
        "0x1.d02d0a3f88408p-1", "0x1.86ae1df4d1c5ep-1", "0x1.2de671ce403d6p-1",
    ]
    two = key_uniforms(2 ** 40 + 1, 201, ([[9], [123456]], [1, 0], [-4, 0]))
    assert [float(x).hex() for x in two[1]] == ["0x1.0ba8c4c8084c2p-1", "0x1.baa96eda12348p-1"]
    cauchy = DisorderModel(TruncatedCauchyLaw(1.0, 5.0), coupling=0.7, seed=9)
    sparse = sparse_set_from_sites([(0,), (3,), (-8,)], 0.5, 1)
    assert [v.hex() for v in sample_potential(cauchy, sparse, 17).values()] == [
        "0x1.21fced565713ap-4", "-0x1.ed5b267d29348p-4", "0x1.741281aaf0af4p-1",
    ]
    weighted = DisorderModel(GaussianLaw(0.5, 2.0), weight_gamma=0.5, seed=9)
    sparse = sparse_set_from_sites([(0, 1), (3, 3), (-8, 2)], 0.5, 2)
    assert [v.hex() for v in sample_potential(weighted, sparse, 4).values()] == [
        "0x1.84629453955dap+1", "0x1.0971823ee5176p+2", "0x1.c2fddc3e88f00p-9",
    ]


_LAWS = [UniformLaw(-1.0, 1.0), UniformLaw(0.25, 3.0), GaussianLaw(0.0, 1.0),
         GaussianLaw(-0.5, 2.5), TruncatedCauchyLaw(1.0, 5.0), TruncatedCauchyLaw(0.3, 40.0)]


@settings(max_examples=60, deadline=None)
@given(
    law=st.sampled_from(_LAWS),
    gamma=st.one_of(st.none(), st.floats(0.1, 3.0)),
    coupling=st.floats(0.0, 50.0),
    seed=st.integers(0, 2 ** 63 - 1),
    dim=st.integers(1, 3),
    raw_sites=st.lists(st.lists(st.integers(-40, 40), min_size=3, max_size=3),
                       max_size=30),
    realizations=st.lists(st.integers(0, 10 ** 6), max_size=12),
)
def test_batched_sampling_bitwise_equals_row_by_row(
    law, gamma, coupling, seed, dim, raw_sites, realizations
):
    sites = list(dict.fromkeys(tuple(c[:dim]) for c in raw_sites))  # may be empty
    sparse = sparse_set_from_sites(sites, 0.5, dim)
    model = DisorderModel(law, coupling=coupling, weight_gamma=gamma, seed=seed)
    batch = sample_potentials(model, sparse, realizations)
    assert batch.shape == (len(realizations), len(sites))
    for row, r in zip(batch, realizations):
        one = np.array(list(sample_potential(model, sparse, r).values()), dtype=float)
        assert row.tobytes() == one.reshape(len(sites)).tobytes()
    if realizations:  # each site alone, so SIMD main loops and tails both show
        for j, site in enumerate(sparse.sites):
            alone = sample_potentials(model, sparse_set_from_sites([site], 0.5, dim),
                                      realizations[:1])
            assert alone.tobytes() == batch[0, j:j + 1].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    law=st.sampled_from(_LAWS),
    gamma=st.one_of(st.none(), st.floats(0.1, 3.0)),
    coupling=st.one_of(st.floats(0.0, 50.0), st.integers(0, 50)),
    seed=st.integers(0, 2 ** 63 - 1),
    raw_sites=st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), max_size=30),
    realizations=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6),
)
def test_sampling_bitwise_equals_per_site_coupling_reference(
    law, gamma, coupling, seed, raw_sites, realizations
):
    # reference: one coupling per site in a list, multiplied row-wise
    sparse = sparse_set_from_sites(raw_sites, 0.5, 2)
    model = DisorderModel(law, coupling=coupling, weight_gamma=gamma, seed=seed)
    got = sample_potentials(model, sparse, realizations)
    if not sparse.sites:
        assert got.shape == (len(realizations), 0)
        return
    per_site = np.array([coupling if gamma is None else weight_value(gamma, s)
                         for s in sparse.sites])
    u = key_uniforms(seed, 201, (np.asarray(realizations)[:, None],
                                *np.asarray(sparse.sites, dtype=np.int64).T))
    want = per_site * np.asarray(law.inverse_cdf(u), dtype=float)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.one_of(st.floats(0.01, 8.0), st.integers(1, 4)),
    dim=st.integers(1, 5),
    raw_sites=st.lists(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=5, max_size=5),
                       max_size=40),
)
def test_site_weights_bitwise_equal_weight_value(gamma, dim, raw_sites):
    sparse = sparse_set_from_sites({tuple(c[:dim]) for c in raw_sites}, 0.5, dim)
    model = DisorderModel(UniformLaw(-1, 1), weight_gamma=gamma)
    got = model.couplings(sparse)
    want = np.array([weight_value(gamma, site) for site in sparse.sites], dtype=float)
    assert got.shape == (len(sparse),)
    assert got.tobytes() == want.tobytes()


def test_site_weights_recomputed_per_call_and_gamma():
    sparse = sparse_set_from_sites([(i, j) for i in range(-100, 101) for j in range(-100, 101)],
                                   0.5, 2)
    model = DisorderModel(UniformLaw(-1, 1), weight_gamma=0.5, seed=3)
    weights = model.couplings(sparse)
    want = np.array([weight_value(0.5, site) for site in sparse.sites])
    assert weights.tobytes() == want.tobytes()
    # a fresh array per call: changing one leaves the set's weights as they were
    weights[0] = -1.0
    assert model.couplings(sparse).tobytes() == want.tobytes()
    assert DisorderModel(GaussianLaw(0.0, 1.0), weight_gamma=0.5).couplings(sparse).tobytes() \
        == want.tobytes()
    other = DisorderModel(UniformLaw(-1, 1), weight_gamma=0.25).couplings(sparse)
    assert other.tobytes() == np.array([weight_value(0.25, s) for s in sparse.sites]).tobytes()
