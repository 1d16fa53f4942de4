import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseloc.lattice import (
    Cube,
    cap_for,
    centered_subcubes,
    cube_sites,
    generate_sparse_set,
    max_norm,
    sparse_set_from_sites,
    sparse_set_to_text,
    sparseness_profile,
)


def test_cube_sites_1d():
    assert cube_sites(Cube((0,), 1)) == [(-1,), (0,), (1,)]


def test_cube_sites_single_site():
    assert cube_sites(Cube((0, 0), 0)) == [(0, 0)]


def test_cube_sites_lexicographic_order():
    sites = cube_sites(Cube((1, 1), 1))
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
    sites = cube_sites(cube)
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
    rows = sparseness_profile(sparse, [Cube((0, 0), 3), Cube((5, 5), 1)])
    assert all(r.count == 0 and r.passed for r in rows)


def test_profile_full_cube_fails_cap():
    cube = Cube((0, 0), 5)  # volume 121, cap ceil(sqrt(121)) = 11
    sparse = sparse_set_from_sites(cube_sites(cube), 0.5, 2)
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
    assert [tuple(row) for row in coords.tolist()] == cube_sites(cube)
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
    assert (3,) in sparse
    assert (0,) not in sparse


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
