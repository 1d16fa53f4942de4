import bisect
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sparseloc import lattice
from sparseloc._rng import key_uniforms
from sparseloc.config import validate_config
from sparseloc.lattice import (
    _TAG_SHELL_COUNT,
    _TAG_SHELL_PLACE,
    _TAG_SITE_BERNOULLI,
    Cube,
    SparseSet,
    _axis_shell_sites,
    _binomial_cdf,
    _distinct_indices,
    _shell_radii,
    _shell_sites,
    _shell_size,
    _thinning_plan,
    cap_for,
    centered_subcubes,
    generate_sparse_set,
    max_norm,
    sparse_set_from_sites,
    sparse_set_to_text,
    sparseness_profile,
)

from oracles import binomial_icdf


def _product_sites(cube):
    """The cube's sites in lexicographic order, enumerated axis by axis."""
    return list(itertools.product(*(range(c - cube.half_side, c + cube.half_side + 1)
                                    for c in cube.center)))


def _sites(cube):
    return [tuple(s) for s in cube.coords().tolist()]


def test_cube_sites_1d():
    assert _sites(Cube((0,), 1)) == [(-1,), (0,), (1,)]


def test_cube_sites_single_site():
    assert _sites(Cube((0, 0), 0)) == [(0, 0)]


def test_cube_sites_lexicographic_order():
    sites = _sites(Cube((1, 1), 1))
    assert len(sites) == 9
    assert sites[0] == (0, 0)
    assert sites[-1] == (2, 2)
    assert sites == sorted(sites)


def test_cube_rejects_bad_dimension():
    with pytest.raises(ValueError):
        Cube((), 1)
    with pytest.raises(ValueError):
        Cube((0,), -1)


@given(st.integers(1, 3), st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_cube_sites_enumeration_is_bijective(dim, half):
    cube = Cube((0,) * dim, half)
    sites = _sites(cube)
    assert len(sites) == cube.volume
    assert len(set(sites)) == cube.volume
    assert all(cube.contains(s) for s in sites)


def test_cap_arithmetic():
    # side 15 in two dimensions: volume 225, cap ceil(225^(1/4)) = 4
    assert cap_for(225, 0.25) == 4
    assert cap_for(1, 0.37) == 1
    # side 61 in five dimensions: cap ceil(61^(5/4)) = 171
    assert cap_for(61 ** 5, 0.25) == 171
    # exact integer powers must not be bumped by float noise
    assert cap_for(16, 0.5) == 4
    assert cap_for(10 ** 6, 0.5) == 1000


def test_generate_rejects_bad_alpha():
    with pytest.raises(ValueError):
        generate_sparse_set(0.0, Cube((0,), 5), "deterministic_powers", 0)
    with pytest.raises(ValueError):
        generate_sparse_set(1.0, Cube((0,), 5), "deterministic_powers", 0)
    with pytest.raises(ValueError):
        generate_sparse_set(0.5, Cube((0,), 5), "no_such_rule", 0)


def test_generate_single_site_cube():
    for gen in ("deterministic_powers", "bernoulli_thinned"):
        sparse = generate_sparse_set(0.5, Cube((2, 2), 0), gen, 3)
        assert set(sparse.sites) <= {(2, 2)}
        assert len(sparse) <= 1


def test_generate_full_cube_cap():
    cube = Cube((0, 0), 7)
    sparse = generate_sparse_set(0.25, cube, "deterministic_powers", 0)
    assert len(sparse) <= cap_for(cube.volume, 0.25)


@pytest.mark.parametrize("generator", ["deterministic_powers", "bernoulli_thinned"])
@pytest.mark.parametrize("dim,half", [(1, 31), (2, 15), (3, 7)])
def test_caps_hold_on_all_centered_subcubes(generator, dim, half):
    cube = Cube((0,) * dim, half)
    sparse = generate_sparse_set(0.3, cube, generator, 17)
    rows = sparseness_profile(sparse, centered_subcubes(cube))
    assert all(r.passed for r in rows)


def test_caps_hold_high_dimension_dyadic():
    cube = Cube((0,) * 5, 30)
    for generator in ("deterministic_powers", "bernoulli_thinned"):
        sparse = generate_sparse_set(0.25, cube, generator, 9)
        rows = sparseness_profile(sparse, centered_subcubes(cube, dyadic_only=True))
        assert all(r.passed for r in rows)


def test_generation_is_replay_deterministic():
    cube = Cube((0, 0, 0), 7)
    a = generate_sparse_set(0.3, cube, "bernoulli_thinned", 123)
    b = generate_sparse_set(0.3, cube, "bernoulli_thinned", 123)
    assert a.sites == b.sites
    c = generate_sparse_set(0.3, cube, "bernoulli_thinned", 124)
    assert a.sites != c.sites or len(a) == 0


def test_profile_empty_set():
    sparse = sparse_set_from_sites([], 0.5, 2)
    assert sparse.coords.shape == (0, 2)
    rows = sparseness_profile(sparse, [Cube((0, 0), 3), Cube((5, 5), 1), Cube((0,), 4)])
    assert all(r.count == 0 and r.passed for r in rows)


def test_profile_full_cube_fails_cap():
    cube = Cube((0, 0), 5)  # volume 121, cap ceil(sqrt(121)) = 11
    sparse = sparse_set_from_sites(cube.coords(), 0.5, 2)
    rows = sparseness_profile(sparse, [cube])
    assert rows[0].count == 121
    assert rows[0].cap == 11
    assert not rows[0].passed


def test_profile_requires_cubes():
    sparse = sparse_set_from_sites([(0,)], 0.5, 1)
    with pytest.raises(ValueError):
        sparseness_profile(sparse, [])


def test_subgroup_lattice_is_negative_control():
    # arithmetic progressions are never cap-sparse at scale
    sites = [(3 * k,) for k in range(-40, 41)]
    sparse = sparse_set_from_sites(sites, 0.5, 1)
    rows = sparseness_profile(sparse, [Cube((0,), 120)])
    assert not rows[0].passed


def test_serialization_pinned_text():
    sparse = sparse_set_from_sites([(2, -1), (0, 0), (-3, 4)], 0.4, 2, seed=5)
    assert sparse_set_to_text(sparse) == (
        "# alpha=0.40000000000000002 generator=explicit_list seed=5 nu=2\n"
        "-3 4\n"
        "0 0\n"
        "2 -1\n"
    )


@pytest.mark.parametrize("center,half", [((7,), 3), ((1, -2), 2), ((-4, 3, 9), 1), ((5, 5), 0)],
                         ids=["1d", "2d", "3d", "single-site"])
def test_cube_coords_match_cube_sites_and_invert(center, half):
    cube = Cube(center, half)
    coords = cube.coords()
    assert coords.dtype == np.int64 and coords.shape == (cube.volume, cube.dim)
    assert [tuple(row) for row in coords.tolist()] == _product_sites(cube)
    assert cube.indices_of(coords).tolist() == list(range(cube.volume))
    picked = coords[::-3]
    assert cube.indices_of(picked).tolist() == list(range(cube.volume))[::-3]


def test_cube_indices_of_rejects_outside_sites_and_wrong_shapes():
    cube = Cube((1, -2), 2)
    assert cube.indices_of(np.zeros((0, 2), dtype=np.int64)).shape == (0,)
    with pytest.raises(KeyError, match=r"\(4, 0\)"):
        cube.indices_of([(1, -2), (4, 0)])  # first outside site named
    for bad in ([(1, -2, 0)], [(1,)], [1, -2], np.zeros((2, 2, 2))):
        with pytest.raises(KeyError):
            cube.indices_of(bad)
    with pytest.raises(KeyError):
        Cube((3,), 1).indices_of([(1,)])


def test_sites_are_sorted_and_deduplicated():
    sparse = sparse_set_from_sites([(3,), (1,), (3,), (-2,)], 0.5, 1)
    assert sparse.sites == ((-2,), (1,), (3,))


def test_max_norm():
    assert max_norm((3, -5)) == 5
    assert max_norm((1, 1), (0, 0)) == 1
    assert max_norm((0,)) == 0


@given(st.integers(1, 10 ** 6), st.floats(0.05, 0.95))
@settings(max_examples=100, deadline=None)
def test_cap_is_at_least_one_and_monotone(volume, alpha):
    cap = cap_for(volume, alpha)
    assert cap >= 1
    assert cap >= cap_for(max(1, volume // 2), alpha)
    assert cap - 1 < math.pow(volume, alpha) + 1e-9


# Scalar reference: the site-by-site generator and cap profile that the
# array code replaced, kept verbatim in behaviour.  Every set and every
# profile row must match it exactly.

def _ref_shell(center, r):
    return [s for s in _product_sites(Cube(center, r)) if max_norm(s, center) > r - 1]


def _shell_axes(r, dim):
    """Per block i of the shell (|x_i| = r first at axis i), its axis values:
    [-(r-1), r-1] before i, -r and r at i, [-r, r] after i."""
    return [[range(1 - r, r)] * i + [(-r, r)] + [range(-r, r + 1)] * (dim - 1 - i)
            for i in range(dim)]


def _ref_shell_order(r, dim):
    """The shell's offsets in the documented order, listed block by block."""
    return [s for axes in _shell_axes(r, dim) for s in itertools.product(*axes)]


def _ref_shell_site(r, dim, x):
    """Offset ``x`` of ``_ref_shell_order`` without listing the shell: the
    block that holds x, then its entry of the block's axis lists, so that
    shells of 10^8 sites are within reach."""
    for axes in _shell_axes(r, dim):
        size = math.prod(map(len, axes))
        if x < size:
            return tuple(axis[(x // math.prod(map(len, axes[a + 1:]))) % len(axis)]
                         for a, axis in enumerate(axes))
        x -= size
    raise IndexError(x)


def _ref_floyd(seed, r, n, k):
    """Floyd's k distinct indices of [0, n), one key_uniforms call per draw."""
    chosen = set()
    for j in range(n - k, n):
        u = float(key_uniforms(seed, _TAG_SHELL_PLACE, (r, j))[0])
        t = min(math.floor(u * (j + 1)), j)
        chosen.add(j if t in chosen else t)
    return chosen


def _ref_place(center, r, k, seed, dim):
    n = _shell_size(r, dim)
    return sorted(tuple(c + x for c, x in zip(center, _ref_shell_site(r, dim, i)))
                  for i in _ref_floyd(seed, r, n, k))


def _ref_generate(alpha, cube, generator, seed):
    dim = cube.dim

    def cap_at(r):
        return cap_for((2 * r + 1) ** dim, alpha)

    sites = [cube.center] if cap_at(0) >= 1 else []
    count = len(sites)
    if generator == "deterministic_powers":
        for r in _shell_radii(alpha, dim, cube.half_side):
            budget = min(2 * dim, cap_at(r) - count)
            if budget > 0:
                new = _axis_shell_sites(cube.center, r, budget)
                sites.extend(new)
                count += len(new)
        return sorted(sites)
    for r in range(1, cube.half_side + 1):
        allowed = cap_at(r) - count
        if allowed <= 0:
            continue
        p = min(1.0, (2.0 * r) ** (dim * (alpha - 1.0)))
        if _shell_size(r, dim) <= 1024:
            shell = _ref_shell(cube.center, r)
            u = key_uniforms(seed, _TAG_SITE_BERNOULLI, (r, *np.asarray(shell, dtype=np.int64).T))
            cand = sorted(s for s, ui in zip(shell, u) if ui < p)
        else:
            u = key_uniforms(seed, _TAG_SHELL_COUNT, (r, 0))
            k = min(binomial_icdf(float(u[0]), _shell_size(r, dim), p), allowed)
            cand = _ref_place(cube.center, r, k, seed, dim) if k > 0 else []
        sites.extend(cand[:allowed])
        count += len(cand[:allowed])
    return sorted(sites)


def _ref_profile(sites, alpha, cubes):
    rows = []
    for cube in cubes:
        count = sum(1 for s in sites if cube.contains(s))
        cap = cap_for(cube.volume, alpha)
        rows.append((cube.volume, count, cap, count <= cap))
    return rows


def _rows(sparse, cubes):
    return [(r.volume, r.count, r.cap, r.passed) for r in sparseness_profile(sparse, cubes)]


# half-sides that keep the scalar reference fast at every alpha
_REF_HALF = {1: 40, 2: 20, 3: 8, 4: 4, 5: 3}


@given(
    generator=st.sampled_from(["deterministic_powers", "bernoulli_thinned"]),
    dim=st.integers(1, 5),
    alpha=st.floats(0.05, 0.95),
    seed=st.integers(0, 2 ** 40),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_generation_and_profile_equal_scalar_reference(generator, dim, alpha, seed, data):
    center = tuple(data.draw(st.lists(st.integers(-50, 50), min_size=dim, max_size=dim)))
    half = data.draw(st.integers(0, _REF_HALF[dim]))
    cube = Cube(center, half)
    sparse = generate_sparse_set(alpha, cube, generator, seed)
    want = _ref_generate(alpha, cube, generator, seed)
    assert list(sparse.sites) == want
    cubes = centered_subcubes(cube) + [
        Cube(tuple(c + 1 for c in center), max(half - 1, 0)),  # off-center
        Cube((0,) * (dim % 5 + 1), half + 60),  # another dimension: counts 0
    ]
    assert _rows(sparse, cubes) == _ref_profile(want, alpha, cubes)
    assert sparse.coords.tolist() == [list(s) for s in want]


@pytest.mark.parametrize("dim,half,alpha", [(4, 16, 0.25), (4, 16, 0.3), (5, 30, 0.25), (5, 30, 0.3)])
def test_high_dimension_sets_equal_scalar_reference(dim, half, alpha):
    cube = Cube((0,) * dim, half)
    cubes = centered_subcubes(cube, dyadic_only=True)
    for seed in (3, 71):
        sparse = generate_sparse_set(alpha, cube, "bernoulli_thinned", seed)
        want = _ref_generate(alpha, cube, "bernoulli_thinned", seed)
        assert list(sparse.sites) == want
        assert _rows(sparse, cubes) == _ref_profile(want, alpha, cubes)


def test_profile_rows_keep_cube_order_across_interleaved_centers():
    # cubes are counted per center, but the rows follow the order they came in
    cube = Cube((0, 0), 12)
    sparse = generate_sparse_set(0.6, cube, "bernoulli_thinned", 5)
    cubes = [Cube((0, 0), 3), Cube((2, -1), 5), Cube((0,), 2), Cube((0, 0), 1),
             Cube((2, -1), 0), Cube((0, 0), 3), Cube((0, 0), 12), Cube((-4, 7), 2)]
    assert _rows(sparse, cubes) == _ref_profile(list(sparse.sites), 0.6, cubes)


@pytest.mark.parametrize("dim,half,alpha", [(3, 12, 0.1), (3, 12, 0.3), (4, 8, 0.1)])
def test_binomial_count_sets_equal_scalar_reference(dim, half, alpha):
    # here some large shells take their Binomial count, not the remaining cap
    cube = Cube((0,) * dim, half)
    for seed in range(10):
        sparse = generate_sparse_set(alpha, cube, "bernoulli_thinned", seed)
        assert list(sparse.sites) == _ref_generate(alpha, cube, "bernoulli_thinned", seed)


def _probe_uniforms(sums):
    """Uniforms on, just below and just above the finite sums (every
    len // 40-th of a long row), and near both ends of (0, 1]."""
    u = {2.0 ** -54, 0.5, 1.0 - 2.0 ** -53, 1.0}
    for x in sums[np.isfinite(sums)][:: max(1, len(sums) // 40)].tolist():
        u.update(v for v in (x, np.nextafter(x, 0.0), np.nextafter(x, 2.0)) if 0.0 < v <= 1.0)
    return sorted(u)


@pytest.mark.parametrize("n,p", [
    (0, 0.3),                 # no trials
    (50, -0.5), (50, 0.0),    # p <= 0
    (50, 1.0), (50, 1.5),     # p >= 1: every trial succeeds
    (1, 0.5), (7, 0.02),
    (1178, 0.04),             # a 3D shell at r = 7
    (20000, 0.001),
    (20000, 0.25),            # the first pmf underflows: every u is above cdf[kmax]
    (20000, 0.9),             # kmax < n
    (3 ** 41 - 1, 1e-18),     # n past 2**53: (n - k) / (k + 1) must be one rounding
])
@pytest.mark.parametrize("stop", [None, 3])
def test_binomial_sums_bisect_to_the_scalar_inverse_cdf(n, p, stop):
    # a capped count: min(inverse CDF, stop); None stands for no cut
    cut = n + 1 if stop is None else stop
    sums = _binomial_cdf(n, p, cut)
    assert sums[-1] == np.inf and np.all(sums[1:] >= sums[:-1])
    table = sums.tolist()
    for u in _probe_uniforms(sums):
        assert bisect.bisect_left(table, u) == min(binomial_icdf(u, n, p), cut), u


@pytest.mark.parametrize("dim,half,alpha", [(3, 12, 0.1), (4, 16, 0.25), (5, 30, 0.3), (3, 9, 0.95)])
def test_plan_counts_equal_capped_scalar_inverse_cdf(dim, half, alpha):
    # each large shell's count is the first sum >= u in its padded row
    plan = _thinning_plan(dim, half, alpha)
    large = plan.large.tolist()
    assert large and plan.cdf.shape[0] == len(large)
    for i, r in enumerate(large):
        n, p = _shell_size(r, dim), min(1.0, (2.0 * r) ** (dim * (alpha - 1.0)))
        for u in _probe_uniforms(plan.cdf[i]):
            got = plan.binomial_counts(np.full(len(large), u))[i]
            assert got == min(binomial_icdf(u, n, p), plan.caps[r]), (r, u)


def _assert_placement(center, radii, ks, seed):
    # one batch for every shell, as the generator places them
    dim = len(center)
    index = _distinct_indices(seed, radii, [_shell_size(r, dim) for r in radii], ks)
    sites = _shell_sites(np.repeat(radii, ks), index, dim) + np.asarray(center, dtype=np.int64)
    ends = np.cumsum(ks).tolist()
    for r, k, a, b in zip(radii, ks, [0] + ends, ends):
        assert sorted(map(tuple, sites[a:b].tolist())) == _ref_place(center, r, k, seed, dim)


@pytest.mark.parametrize("center,radii,ks,seed", [
    ((0, 0, 0), [5, 6, 7], [300, 1, 300], 4),          # half of a 602-site shell: many taken picks
    ((2, -1, 7), [7, 8], [1178, 5], 11),               # the whole shell, k = n
    ((0,), [3, 3000], [2, 1], 1),                      # a whole 1D shell, then one of two sites
    ((4, 4), [1, 2, 3], [8, 1, 8], 9),                 # every site of r = 1: many picks taken
    ((0,) * 5, [2, 3], [40, 1], 6),
    ((1,) * 33, [1], [5], 3),                          # 3^33 - 1 sites: indices near 2^52
], ids=["half-shell", "whole-3d-shell", "whole-1d-shell", "duplicates", "5d", "dim33"])
def test_shell_placement_equals_scalar_reference(center, radii, ks, seed):
    _assert_placement(center, radii, ks, seed)


@given(dim=st.integers(1, 4), seed=st.integers(0, 2 ** 40), data=st.data())
@settings(max_examples=30, deadline=None)
def test_batched_placement_equals_scalar_reference(dim, seed, data):
    radii = data.draw(st.lists(st.integers(1, {1: 3000, 2: 60, 3: 12, 4: 5}[dim]),
                               min_size=1, max_size=6, unique=True))
    ks = data.draw(st.lists(st.integers(1, 8), min_size=len(radii), max_size=len(radii)))
    radii = sorted(radii)
    _assert_placement((0,) * dim, radii, [min(k, _shell_size(r, dim)) for r, k in zip(radii, ks)],
                      seed)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
@pytest.mark.parametrize("r", [1, 2, 4])
def test_shell_sites_list_each_shell_in_the_documented_order(dim, r):
    # a bijection from [0, n) onto the shell, in the order itertools lists it
    n = _shell_size(r, dim)
    want = _ref_shell_order(r, dim)
    assert len(want) == n == len(set(want))
    assert all(max(map(abs, s)) == r for s in want)
    assert _shell_sites(np.full(n, r), np.arange(n), dim).tolist() == [list(s) for s in want]
    assert [_ref_shell_site(r, dim, x) for x in range(0, n, 7)] == want[::7]
    # rows of another radius in the same call decode as they do alone
    index = np.column_stack((np.arange(n), np.arange(n) % _shell_size(1, dim))).ravel()
    assert _shell_sites(np.tile([r, 1], n), index, dim)[::2].tolist() == [list(s) for s in want]


@pytest.mark.parametrize("n,k", [(5, 2), (6, 4)])
def test_floyd_draws_every_subset_equally_often(n, k):
    # 20,000 shells (one radius key each) of n sites: each k-subset about as
    # often as the others, by a chi-square test at the 0.1% level (fixed keys,
    # so a fixed outcome: 5.36 and 8.69 against 27.9 and 36.1)
    shells = 20_000
    index = _distinct_indices(17, list(range(1, shells + 1)), [n] * shells, [k] * shells)
    assert index.min() == 0 and index.max() == n - 1
    subsets = [frozenset(row) for row in index.reshape(shells, k).tolist()]
    assert all(len(sub) == k for sub in subsets)
    counts = np.array([subsets.count(frozenset(c)) for c in itertools.combinations(range(n), k)])
    expected = shells / math.comb(n, k)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert counts.sum() == shells
    assert chi2 < stats.chi2.isf(1e-3, len(counts) - 1), (counts, chi2)


# SHA-256 of the concatenated sparse_set_to_text of the criterion-6 sets
# (nu, half-side, alphas below) for one generator and seed.  Recorded from
# the generator, which the scalar reference matches; any drift in a set,
# even one that keeps every site count, changes a digest.
_C06_PLAN = [(1, 31, (0.3, 0.6)), (2, 15, (0.3, 0.6)), (3, 7, (0.3, 0.6)),
             (4, 16, (0.25, 0.3)), (5, 30, (0.25, 0.3))]


@pytest.mark.parametrize("generator,seed,digest", [
    ("deterministic_powers", 0, "93caecba9122012686153ebba251cbef812e7b55b9e9a37b4592fc85e0808f0a"),
    ("bernoulli_thinned", 0, "3c985a624841e6843ed243f691e6ca22599032917bd3514ad5c700b5a13e31bd"),
    ("bernoulli_thinned", 7, "3ea5b119a599e988dee699fb6fd12481e5ccb188d640c098468d7160580c63a4"),
    ("bernoulli_thinned", 42, "fa886f3c3f5537d1d9cdd07cbbaf2c1a2a7f15dae8a577918c995e1960f5a7b8"),
    ("bernoulli_thinned", 99, "858b8f1c7dae348afa2bb338cbe94662905ace0f0d3014815bf2d81a2061550c"),
])
def test_criterion_6_sets_are_pinned(generator, seed, digest):
    text = "".join(
        sparse_set_to_text(generate_sparse_set(alpha, Cube((0,) * nu, half), generator, seed))
        for nu, half, alphas in _C06_PLAN for alpha in alphas
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_2d_set_of_half_side_1500_is_pinned():
    # 1,341 large shells (r >= 129 in 2D) place sites, each exactly its count:
    # 3,001 sites, the cap at r = 1500
    sparse = generate_sparse_set(0.5, Cube((0, 0), 1500), "bernoulli_thinned", 0)
    assert len(sparse) == 3001
    assert hashlib.sha256(sparse_set_to_text(sparse).encode()).hexdigest() == \
        "d399bdd34846db4b476527f16171d269c8ff11dfd94e7db6d18e4f96784d6302"


@pytest.mark.parametrize("dim, alpha, half, binding", [
    (1, 0.5, 23_889, "generation steps"),  # 23,889 x (218.6 + 200) = 9,999,555
    (3, 0.95, 27, "sites, over the cap 100000"),  # 55^2.85 = 91,208 sites; 57^2.85 = 100,982
    (5, 0.05, 775, "shell indices are not exact"),  # 1551^5 = 8.975e15; 1553^5 = 9.033e15
])
def test_set_size_rule_boundaries(monkeypatch, dim, alpha, half, binding):
    """One rule sizes every set before generation allocates anything: the
    largest accepted bernoulli_thinned cube is generated, the next one is
    refused without a thinning plan, and so is a full_cube past 2,000,000 sites."""
    assert len(generate_sparse_set(alpha, Cube((0,) * dim, half), "bernoulli_thinned", 0)) > 1

    def build(*args):
        raise AssertionError("the thinning plan was built")

    monkeypatch.setattr(lattice, "_thinning_plan", build)
    with pytest.raises(ValueError, match=binding):
        generate_sparse_set(alpha, Cube((0,) * dim, half + 1), "bernoulli_thinned", 0)
    lattice.check_set_size(Cube((0,), 999_999), 0.5, "full_cube")
    with pytest.raises(ValueError, match="refusing to enumerate 2000001 sites"):
        generate_sparse_set(0.5, Cube((0,), 1_000_000), "full_cube", 0)


def test_shell_indices_stay_exact_up_to_2_53_sites():
    # 3^33 = 5.6e15 sites: the one large shell's indices run to 3^33 - 2, and
    # each lands on a distinct site of the shell; 3^34 = 1.7e16 is refused
    sparse = generate_sparse_set(0.05, Cube((0,) * 33, 1), "bernoulli_thinned", 2)
    radius = np.max(np.abs(sparse.coords), axis=1)
    assert len(sparse) == 7 and radius.tolist().count(1) == 6
    assert list(sparse.sites) == _ref_generate(0.05, Cube((0,) * 33, 1), "bernoulli_thinned", 2)
    with pytest.raises(ValueError, match=r"3\^34 sites, over 2\^53"):
        generate_sparse_set(0.05, Cube((0,) * 34, 1), "bernoulli_thinned", 2)


def test_full_cube_set_is_the_whole_cube_with_no_cube_to_certify():
    cube = Cube((2, -1), 3)
    sparse = generate_sparse_set(0.5, cube, "full_cube", 7)
    assert sparse.coords.tolist() == cube.coords().tolist()
    assert (sparse.generator, sparse.seed, sparse.cube) == ("full_cube", 7, None)


def test_coords_array_is_built_once_and_read_only():
    sparse = sparse_set_from_sites([(2, 1), (-1, 0)], 0.5, 2)
    coords = sparse.coords
    assert coords is sparse.coords
    assert coords.tolist() == [[-1, 0], [2, 1]]
    with pytest.raises(ValueError):
        coords[0, 0] = 5


# The array constructor against the tuple constructor it replaced: a
# sorted tuple of distinct int tuples.  Narrow coordinates make duplicates;
# +-2^40 makes the bounding box too large for an int64 linear key in nu >= 2.
_COORDINATE = st.one_of(st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40))


@given(dim=st.integers(1, 5), gamma=st.floats(0.01, 4.0), data=st.data())
@settings(max_examples=120, deadline=None)
def test_sparse_set_equals_tuple_reference(dim, gamma, data):
    site = st.tuples(*[_COORDINATE] * dim)
    sites = data.draw(st.lists(site, max_size=30))
    if sites:
        sites += data.draw(st.lists(st.sampled_from(sites), max_size=10))  # duplicates
    want = tuple(sorted(set(map(tuple, sites))))
    sparse = sparse_set_from_sites(sites, 0.5, dim)
    assert len(sparse) == len(want)
    assert sparse.sites == want
    assert sparse.coords.dtype == np.int64 and sparse.coords.shape == (len(want), dim)
    assert sparse.coords.tolist() == [list(s) for s in want]
    with pytest.raises(ValueError):
        sparse.coords[..., :1] = 0
    twin = sparse_set_from_sites(np.array(sites[::-1], dtype=np.int64).reshape(-1, dim), 0.5, dim)
    assert twin.coords.tobytes() == sparse.coords.tobytes()
    weights = np.array([(1.0 + max_norm(s)) ** gamma for s in want], dtype=float)
    assert sparse.weights(gamma).tobytes() == weights.tobytes()


def test_sparse_set_rejects_sites_of_another_dimension():
    for sites in ([(1, 2)], [(1,), (1, 2)], [[[0]]]):
        with pytest.raises(ValueError):
            sparse_set_from_sites(sites, 0.5, 1)
    assert sparse_set_from_sites([], 0.5, 3).coords.shape == (0, 3)
    assert SparseSet(set(), 0.5, "explicit_list", 0, 2).coords.shape == (0, 2)


@pytest.mark.parametrize("center,half", [((0, 0), 100), ((3, -7, 2), 4), ((-5,), 0)])
def test_full_cube_set_is_the_cube_coords(center, half):
    dim = len(center)
    raw = {
        "kind": "moments", "symbol": {"delta": dim},
        "volume": {"center": list(center), "half_side": half},
        "sparse_set": {"generator": "full_cube", "alpha": 0.5},
        "disorder": {"law": "uniform", "params": [-1.0, 1.0], "lambda": 20.0},
        "query": {"energy": 5.0, "epsilon": 1e-3, "s": 0.5, "source": list(center),
                  "realizations": 8},
    }
    sparse = validate_config(raw).objects["sparse_set"]
    coords = Cube(center, half).coords()
    assert sparse.coords.shape == coords.shape
    assert sparse.coords.tobytes() == coords.tobytes()
    assert sparse.sites == tuple(_product_sites(Cube(center, half)))


@pytest.mark.parametrize("center,r_max", [((0,), 200), ((3, -2), 15), ((0, 0, 0), 6),
                                          ((1, 2, 3, 4), 2), ((0,) * 5, 1)])
def test_one_ball_draw_equals_shell_by_shell_draws(center, r_max):
    # the generator draws every small shell at once, the radius as each row's counter
    ball = Cube(center, r_max).coords()
    radius = np.max(np.abs(ball - np.asarray(center)), axis=1)
    got = key_uniforms(11, _TAG_SITE_BERNOULLI, (radius, *ball.T))
    for r in range(r_max + 1):
        shell = radius == r
        want = key_uniforms(11, _TAG_SITE_BERNOULLI, (r, *ball[shell].T))
        assert got[shell].tobytes() == want.tobytes()


# SHA-256 of the concatenated sparse_set_to_text of every criterion-6 set of
# one (nu, alpha): the deterministic set, then Bernoulli seeds 0..99.  The
# 1D and 2D sets have no large shell; their digests date from the
# tuple-sorting constructor.  The 3D-5D rows are recorded from the placement
# by shell index.
@pytest.mark.parametrize("nu,half,alpha,digest", [
    (1, 31, 0.3, "c706ad7b50e8ecef37b3a8c1ee28836a306465a4cebfba7fb74aaa620dc031b6"),
    (1, 31, 0.6, "743cc09c49ebbccb5f41864776a9ec864cee8e26878c66af291bf7344770027a"),
    (2, 15, 0.3, "48a89a26aca791a6c09df34f0362dd1aa951d44c4a91ef02989d11d039615220"),
    (2, 15, 0.6, "a20514fab8e272affe81baf0cf556a7ec554d9be32d5905f64ddd6a5c39e2477"),
    (3, 7, 0.3, "61d12e82f4564582f5e55a5cdaa35e63c9fa89afb075680d5fa3b6e73e6c6705"),
    (3, 7, 0.6, "19726a00d8bc8506ce6622f71cd5d350fe72fe1f29085a15b93b336d57546e88"),
    (4, 16, 0.25, "1a5224e7f90ea5f839ec4c6ecdac5774bb0ee4750338b80943c7c8c8cb6eb35c"),
    (4, 16, 0.3, "f66eae4c50d2839a61fe5abc7bef29bbf1f220f661a9abd02f6802459804fdca"),
    (5, 30, 0.25, "e256abca8098ffeb913e515a3accdc415df3d9fc90d5a5806d8b6c1cf350761c"),
    (5, 30, 0.3, "abc5cb0a54910da015e500366b5b8cdd02d57293e2a0556aac15bff49e526b5b"),
])
def test_every_criterion_6_set_is_pinned(nu, half, alpha, digest):
    cube = Cube((0,) * nu, half)
    plan = [("deterministic_powers", 0)] + [("bernoulli_thinned", seed) for seed in range(100)]
    text = "".join(sparse_set_to_text(generate_sparse_set(alpha, cube, generator, seed))
                   for generator, seed in plan)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_criterion_6_radius_counts_are_pinned():
    # SHA-256 of the per-radius site counts of every criterion-6 Bernoulli set
    # at seeds 0..99.  Placement within a shell moves no count: this digest
    # was recorded from the rejection sampler that the shell indexing replaced.
    text = ""
    for nu, half, alphas in _C06_PLAN:
        for alpha in alphas:
            for seed in range(100):
                sparse = generate_sparse_set(alpha, Cube((0,) * nu, half), "bernoulli_thinned", seed)
                counts = np.bincount(np.max(np.abs(sparse.coords), axis=1), minlength=half + 1)
                text += " ".join(map(str, counts.tolist())) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "dac92ea5869b0464858eac42cf3436a589a793865d149832c36ea4ce3d696104"


def test_interleaved_keys_evict_the_plan_and_keep_every_set():
    # criterion 6 makes its sets one (nu, alpha) at a time; interleaving the
    # keys rebuilds the one held plan on every call and changes no set
    keys = [(nu, half, alpha) for nu, half, alphas in _C06_PLAN for alpha in alphas]
    seeds = range(6)
    sequential = {(key, seed): generate_sparse_set(key[2], Cube((0,) * key[0], key[1]),
                                                   "bernoulli_thinned", seed)
                  for key in keys for seed in seeds}
    for seed in seeds:
        for key in keys:
            sparse = generate_sparse_set(key[2], Cube((0,) * key[0], key[1]),
                                         "bernoulli_thinned", seed)
            assert sparse.coords.tobytes() == sequential[key, seed].coords.tobytes()
            assert _thinning_plan.cache_info().currsize == 1
    plan = _thinning_plan(*keys[-1])
    assert not any(a.flags.writeable for a in plan if isinstance(a, np.ndarray))
