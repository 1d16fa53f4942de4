import bisect
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseloc import lattice
from sparseloc._rng import key_uniforms, site_uniforms
from sparseloc.config import validate_config
from sparseloc.lattice import (
    _CHUNK_ENTRIES,
    _TAG_SHELL_COUNT,
    _TAG_SHELL_PLACE,
    _TAG_SITE_BERNOULLI,
    Cube,
    SparseSet,
    _axis_shell_sites,
    _binomial_cdf,
    _place_on_shells,
    _shell_radii,
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


def _ref_place(center, r, k, seed, dim):
    chosen = set()
    attempt = 0
    side = 2 * r + 1
    while len(chosen) < k and attempt < 512 * (k + 4):
        keys = np.array([[attempt + i, j] for i in range(256) for j in range(dim)], dtype=np.int64)
        u = site_uniforms(seed, _TAG_SHELL_PLACE, r, keys).reshape(256, dim)
        for row in np.floor(u * side).astype(np.int64) - r:
            if len(chosen) >= k:
                break
            if np.max(np.abs(row)) == r:
                chosen.add(tuple(int(c) + cc for c, cc in zip(row, center)))
        attempt += 256
    return sorted(chosen)


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
            u = site_uniforms(seed, _TAG_SITE_BERNOULLI, r, np.asarray(shell, dtype=np.int64))
            cand = sorted(s for s, ui in zip(shell, u) if ui < p)
        else:
            u = site_uniforms(seed, _TAG_SHELL_COUNT, r, np.array([[0]], dtype=np.int64))
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
    got = _place_on_shells(radii, ks, seed, len(center))
    assert len(got) == len(radii)
    for r, k, offs in zip(radii, ks, got):
        want = _ref_place(center, r, k, seed, len(center))
        assert len(offs) == len(want)
        assert sorted(map(tuple, (offs + np.asarray(center)).tolist())) == want


@pytest.mark.parametrize("center,r,k,seed", [
    ((0, 0, 0), 5, 300, 4),      # more hits needed than 256 attempts can give (k at 826)
    ((2, -1, 7), 5, 170, 11),    # k reached at attempt 408
    ((0,), 3, 5, 1),             # two shell sites: k never reached, attempt limit
    ((4, 4), 1, 20, 2),          # eight shell sites, k never reached
    ((4, 4), 1, 8, 9),           # every shell site, after many duplicate draws
    ((0,) * 5, 2, 40, 6),        # k reached at attempt 43, in the first chunk
    ((1,) * 40, 1, 5, 3),        # 3**40 sites: the cube index overflows int64
    ((0,), 3000, 2, 12),         # both shell sites, the second at attempt 2587
    ((0,), 3000, 2, 43),         # one site hit at attempt 3063, just inside the
                                 # limit of 3072, the other only at 3921
    ((0,), 3000, 2, 29),         # one site at 2954, the other at 3531, past the limit
], ids=["beyond-256", "second-chunk", "limit-1d", "limit-2d", "duplicates", "first-chunk",
        "dim40", "third-chunk", "limit-edge-inside", "limit-edge-past"])
def test_shell_placement_equals_scalar_reference(center, r, k, seed):
    # each named shell is placed in one call with two more shells of its dimension
    _assert_placement(center, [r, r + 1, r + 2], [k, 1, k], seed)


def test_one_placement_call_mixes_chunks_and_limits():
    # 1D, seed 43: shell r has sites +r and -r; attempts are drawn in chunks
    # 0-63, 64-255, 256-1023 and then up to the largest limit, 512 (k + 4)
    shells = [
        (2017, 1),  # +r at attempt 62: the first chunk
        (2040, 1),  # +r at 158: the second chunk
        (2076, 2),  # +r at 290, -r at 1023, the last attempt of the third chunk
        (2001, 2),  # -r at 458, +r at 2483: the fourth chunk
        (2087, 2),  # +r at 1766, -r at 3062, just inside the limit of 3072
        (2075, 2),  # +r at 2352, -r at 3093, past the limit: one site
        (2012, 2),  # -r first at 4183: no site at all
        (2100, 3),  # only -r (at 50) before 3584: this limit keeps the call
                    # drawing past the 3072 of the k = 2 shells
    ]
    _assert_placement((0,), *zip(*shells), 43)
    # 3D, seed 4: the k-th distinct site at attempts 826, 489, 7 and 161
    _assert_placement((0, 0, 0), [5, 6, 7, 9], [300, 170, 2, 40], 4)
    # 40D: (2r + 1)**40 overflows int64, so hits are compared as whole rows
    _assert_placement((1,) * 40, [1, 2, 3], [5, 9, 1], 3)


@given(dim=st.integers(1, 4), seed=st.integers(0, 2 ** 40), data=st.data())
@settings(max_examples=30, deadline=None)
def test_batched_placement_equals_scalar_reference(dim, seed, data):
    radii = data.draw(st.lists(st.integers(1, {1: 3000, 2: 60, 3: 12, 4: 5}[dim]),
                               min_size=1, max_size=6, unique=True))
    ks = data.draw(st.lists(st.integers(1, 8), min_size=len(radii), max_size=len(radii)))
    _assert_placement((0,) * dim, sorted(radii), ks, seed)


@pytest.mark.parametrize("center,radii,ks", [
    ((0, 0, 0), list(range(5, 41)), [300] * 36),  # about 330,000 draws in all
    ((1,) * 40, [1, 2, 3], [2000, 2000, 2000]),   # 40 draws per attempt, an overflowing key
], ids=["3d-many-shells", "dim40"])
def test_placement_draws_stay_within_the_chunk_bound(monkeypatch, center, radii, ks):
    sizes = []

    def counted(seed, tag, columns):
        u = key_uniforms(seed, tag, columns)
        sizes.append(u.size)
        return u

    monkeypatch.setattr(lattice, "key_uniforms", counted)
    got = _place_on_shells(radii, ks, 8, len(center))
    assert len(sizes) > 1 and max(sizes) <= _CHUNK_ENTRIES
    assert sum(sizes) > 2 * _CHUNK_ENTRIES
    # no chunking changes a draw: without the bound, the same sites come out
    monkeypatch.setattr(lattice, "_CHUNK_ENTRIES", 1 << 40)
    whole = _place_on_shells(radii, ks, 8, len(center))
    assert len(got) == len(whole) == len(radii)
    for a, b in zip(got, whole):
        assert a.tobytes() == b.tobytes()
    assert [len(a) for a in got] == list(ks)


# SHA-256 of the concatenated sparse_set_to_text of the criterion-6 sets
# (nu, half-side, alphas below) for one generator and seed.  Recorded from
# the scalar generator; any drift in a set, even one that keeps every site
# count, changes a digest.
_C06_PLAN = [(1, 31, (0.3, 0.6)), (2, 15, (0.3, 0.6)), (3, 7, (0.3, 0.6)),
             (4, 16, (0.25, 0.3)), (5, 30, (0.25, 0.3))]


@pytest.mark.parametrize("generator,seed,digest", [
    ("deterministic_powers", 0, "93caecba9122012686153ebba251cbef812e7b55b9e9a37b4592fc85e0808f0a"),
    ("bernoulli_thinned", 0, "21b9f61d27d8657ddfcdf9336c2b5351250bc195e0101515627838c343495f8d"),
    ("bernoulli_thinned", 7, "16940416bafcf2d3c62312b79a8a58503f309d5b799cceca872dfa5e0c466217"),
    ("bernoulli_thinned", 42, "481c5360f4d759418bd739078ada511485bce91490c42ed9cc97763782ec0a57"),
    ("bernoulli_thinned", 99, "3663fff9d5aaca58b3d28929dc5ebab041c04741e3faadd200914b0f36044158"),
])
def test_criterion_6_sets_are_pinned(generator, seed, digest):
    text = "".join(
        sparse_set_to_text(generate_sparse_set(alpha, Cube((0,) * nu, half), generator, seed))
        for nu, half, alphas in _C06_PLAN for alpha in alphas
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_set_with_short_large_shells_is_pinned():
    # 22 large shells find fewer sites than their count, the first at r = 1133
    # (k = 3, 2 found); each one changes the cap left for every later shell.
    # Recorded from the generator that placed one shell at a time.
    sparse = generate_sparse_set(0.5, Cube((0, 0), 1500), "bernoulli_thinned", 0)
    assert len(sparse) == 3001
    assert hashlib.sha256(sparse_set_to_text(sparse).encode()).hexdigest() == \
        "49342d945d6c8df6c3b48d8236508abc3a4d9c996386a4bdb5ab2bb5bccb14ce"


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
    assert twin == sparse and hash(twin) == hash(sparse)
    assert sparse_set_from_sites(sites, 0.5, dim, seed=1) != sparse
    if want:
        assert sparse_set_from_sites(want[1:], 0.5, dim) != sparse
    weights = np.array([(1.0 + max_norm(s)) ** gamma for s in want], dtype=float)
    assert sparse.weights(gamma).tobytes() == weights.tobytes()


def test_sparse_set_rejects_sites_of_another_dimension():
    for sites in ([(1, 2)], [(1,), (1, 2)], [[[0]]]):
        with pytest.raises(ValueError):
            sparse_set_from_sites(sites, 0.5, 1)
    assert sparse_set_from_sites([], 0.5, 3).coords.shape == (0, 3)
    assert SparseSet(set(), 0.5, "explicit_list", 0, 2) == sparse_set_from_sites((), 0.5, 2)


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
    sparse = validate_config(raw).objects["sparse"]
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
        want = site_uniforms(11, _TAG_SITE_BERNOULLI, r, ball[shell])
        assert got[shell].tobytes() == want.tobytes()


# SHA-256 of the concatenated sparse_set_to_text of every criterion-6 set of
# one (nu, alpha): the deterministic set, then Bernoulli seeds 0..99.
# Recorded from the tuple-sorting constructor with one draw per shell.
@pytest.mark.parametrize("nu,half,alpha,digest", [
    (1, 31, 0.3, "c706ad7b50e8ecef37b3a8c1ee28836a306465a4cebfba7fb74aaa620dc031b6"),
    (1, 31, 0.6, "743cc09c49ebbccb5f41864776a9ec864cee8e26878c66af291bf7344770027a"),
    (2, 15, 0.3, "48a89a26aca791a6c09df34f0362dd1aa951d44c4a91ef02989d11d039615220"),
    (2, 15, 0.6, "a20514fab8e272affe81baf0cf556a7ec554d9be32d5905f64ddd6a5c39e2477"),
    (3, 7, 0.3, "884adda4c02c3cd83d5d1c31b1f3cd27dd2217a17dde4c2c6e2719f8121c0f0d"),
    (3, 7, 0.6, "8c16e55a55af70f2fb834b6599f35e30271ed077547bd32b25fb277615b428e5"),
    (4, 16, 0.25, "00ab2dd1015bc6087d78b898de0867afde585679f033304c7b88d53be113b7c0"),
    (4, 16, 0.3, "7f7ca06be059eef67a424a9273945bd2454bda28842fd364b86abdef3d93e35b"),
    (5, 30, 0.25, "a5d0d74321e0fc0e7e849dc4e10de7e2ec173d2afac43e23fce9cfcafe8a8402"),
    (5, 30, 0.3, "e14ec82eb38bfe0adf13d94832e1b34f761d22fbf8be884e365528be121c6e85"),
])
def test_every_criterion_6_set_is_pinned(nu, half, alpha, digest):
    cube = Cube((0,) * nu, half)
    plan = [("deterministic_powers", 0)] + [("bernoulli_thinned", seed) for seed in range(100)]
    text = "".join(sparse_set_to_text(generate_sparse_set(alpha, cube, generator, seed))
                   for generator, seed in plan)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
