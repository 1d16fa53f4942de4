"""Lattice geometry: cubes in Z^nu, site enumeration, sparse site sets.

Distances are always max-norm, so cubes are the metric balls.  Sparse
sets are built so that the cube-counting cap

    |S intersect Lambda| <= ceil(|Lambda|^alpha)

holds on every sub-cube centered at the generation center, not just in
expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import islice
from typing import NamedTuple

import numpy as np

from ._rng import key_uniforms

Site = tuple[int, ...]

# streams for counter-based draws (disorder sampling uses its own tags)
_TAG_SHELL_COUNT = 101
_TAG_SHELL_PLACE = 102
_TAG_SITE_BERNOULLI = 103

ENUMERATION_CAP = 2_000_000  # sites of a full_cube set
THINNING_SITE_CAP = 100_000  # |cube|^alpha of a bernoulli_thinned set
THINNING_WORK_CAP = 10_000_000  # its half-side x (|cube|^alpha + 200): the plan's walk


def max_norm(site: Site, center: Site | None = None) -> int:
    if center is None:
        return max(abs(c) for c in site) if site else 0
    return max(abs(a - b) for a, b in zip(site, center))


@dataclass(frozen=True)
class Cube:
    """Cube of sites ``center +/- half_side`` along every axis."""

    center: Site
    half_side: int

    def __post_init__(self):
        if len(self.center) < 1:
            raise ValueError("dimension must be >= 1")
        if self.half_side < 0:
            raise ValueError("half_side must be >= 0")
        object.__setattr__(self, "center", tuple(int(c) for c in self.center))

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def side(self) -> int:
        return 2 * self.half_side + 1

    @property
    def volume(self) -> int:
        return self.side ** self.dim

    def contains(self, site: Site) -> bool:
        return len(site) == self.dim and max_norm(site, self.center) <= self.half_side

    def coords(self) -> np.ndarray:
        """All sites as a (volume, nu) array, in lexicographic order."""
        lo = np.asarray(self.center, dtype=np.int64) - self.half_side
        grid = np.indices((self.side,) * self.dim, dtype=np.int64)
        return grid.reshape(self.dim, -1).T + lo

    def indices_of(self, coords) -> np.ndarray:
        """Row numbers in ``coords()`` of the rows of an (n, nu) site array;
        KeyError names the first site outside the cube."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise KeyError(f"sites of shape {coords.shape} outside a {self.dim}D cube")
        rel = coords - (np.asarray(self.center, dtype=np.int64) - self.half_side)
        outside = np.any((rel < 0) | (rel >= self.side), axis=1)
        if outside.any():
            raise KeyError(f"site {tuple(coords[np.argmax(outside)].tolist())} outside the cube")
        return rel @ self.side ** np.arange(self.dim - 1, -1, -1, dtype=np.int64)


@cache
def cap_for(volume: int, alpha: float) -> int:
    """ceil(volume^alpha) with a snap against float misrounding; memoized,
    as a cap profile asks for the same few (volume, alpha) pairs again."""
    v = math.pow(float(volume), alpha)
    r = round(v)
    if abs(v - r) <= 1e-9 * max(1.0, abs(v)):
        return int(r)
    return int(math.ceil(v))


def _lex_unique(coords: np.ndarray) -> np.ndarray:
    """The distinct rows of an (n, nu) int64 array in lexicographic order.
    Rows are ordered by their linear index in the bounding box when that
    fits in int64 (an input already in that order is returned as it is),
    by ``np.lexsort`` otherwise."""
    if len(coords) < 2:
        return coords
    lo = coords.min(axis=0)
    spans = [hi - low + 1 for low, hi in zip(lo.tolist(), coords.max(axis=0).tolist())]
    if math.prod(spans) < 2 ** 63:
        key = (coords - lo) @ np.array([math.prod(spans[j + 1:]) for j in range(len(spans))])
        if np.all(key[1:] > key[:-1]):
            return coords
        order = np.argsort(key)
        key = key[order]
        return coords[order[np.concatenate(([True], key[1:] != key[:-1]))]]
    order = np.lexsort(coords.T[::-1])
    ordered = coords[order]
    return ordered[np.concatenate(([True], np.any(ordered[1:] != ordered[:-1], axis=1)))]


@dataclass(frozen=True, eq=False)
class SparseSet:
    """Sparse site set with its claimed cap exponent.

    ``coords`` is the set itself: a read-only (|S|, nu) int64 array of
    distinct sites in lexicographic row order, built from any collection
    of sites.  ``alpha`` is the claimed exponent; generated sets certify the
    cap on all centered sub-cubes by construction, explicit lists may
    violate it (sparseness_profile reports the failures).  Sets compare by
    identity.
    """

    coords: np.ndarray
    alpha: float
    generator: str
    seed: int
    dim: int
    cube: Cube | None = None

    def __post_init__(self):
        sites = self.coords
        coords = np.array(sites if isinstance(sites, np.ndarray) else list(sites), dtype=np.int64)
        if coords.size == 0:
            coords = coords.reshape(0, self.dim)
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise ValueError(f"sites of shape {coords.shape}, expected (n, {self.dim})")
        coords = _lex_unique(coords)
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return len(self.coords)

    @cached_property
    def sites(self) -> tuple[Site, ...]:
        """The sites as int tuples in row order, built on first use."""
        return tuple(map(tuple, self.coords.tolist()))

    def weights(self, gamma: float) -> np.ndarray:
        """(1 + |n|)^gamma for each site in order, max-norm |n|.  One Python
        power per distinct radius, so each entry is bitwise
        ``(1.0 + max_norm(site)) ** gamma``."""
        radii, inverse = np.unique(np.max(np.abs(self.coords), axis=1), return_inverse=True)
        return np.array([weight(r, gamma) for r in radii.tolist()])[inverse]


def weight(radius: int, gamma: float) -> float:
    """(1 + radius)^gamma; ValueError past the float range."""
    try:
        return (1.0 + radius) ** gamma
    except OverflowError:
        raise ValueError(f"the weight (1 + |n|)^{gamma:g} is past the float range "
                         f"at |n| = {radius}") from None


def sparse_set_from_sites(sites, alpha: float, dim: int, seed: int = 0) -> SparseSet:
    """Wrap an explicit site list; no cap is enforced here."""
    _check_alpha(alpha)
    return SparseSet(sites, alpha, "explicit_list", seed, dim)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _shell_size(r: int, dim: int) -> int:
    if r == 0:
        return 1
    return (2 * r + 1) ** dim - (2 * r - 1) ** dim


def _shell_radii(alpha: float, dim: int, half_side: int) -> list[int]:
    """Geometrically spaced shell radii floor(rho^j), rho = 2^(1/(nu*alpha))."""
    rho = 2.0 ** (1.0 / (dim * alpha))
    radii: set[int] = set()
    j = 0
    while True:
        r = int(math.floor(rho ** j))
        if r > half_side:
            break
        if r >= 1:
            radii.add(r)
        j += 1
        if j > 4096:
            break
    return sorted(radii)


def _axis_shell_sites(center: Site, r: int, budget: int) -> list[Site]:
    """Up to ``budget`` sites on the shell, one per axis direction."""
    out = []
    dim = len(center)
    for i in range(dim):
        for sign in (1, -1):
            if len(out) >= budget:
                return out
            site = list(center)
            site[i] += sign * r
            out.append(tuple(site))
    return out


def _binomial_cdf(n: int, p: float, stop: int) -> np.ndarray:
    """The Binomial(n, p) CDF sums cdf_0 .. cdf_(K-1) of the exact pmf
    recurrence, closed by +inf at index K = min(kmax, stop).  The first
    entry >= u is then min(k, stop), k the inverse CDF at u as the pmf walk
    finds it: the first k with cdf_k >= u, or kmax, where the walk gives up
    (k is n for p >= 1 and 0 for p <= 0 or n == 0)."""
    if p <= 0.0 or n == 0:
        return np.array([np.inf])
    if p >= 1.0:
        return np.concatenate((np.zeros(min(n, stop)), [np.inf]))
    ratio = p / (1.0 - p)
    kmax = min(n, stop, int(n * p + 12.0 * math.sqrt(n * p * (1 - p)) + 25))
    # Python ints keep (n - k) / (k + 1) one correctly rounded division at any n;
    # cumprod and cumsum multiply and add in the recurrence's order
    steps = [math.exp(n * math.log1p(-p))] + [(n - k) / (k + 1) * ratio for k in range(kmax)]
    return np.concatenate((np.cumsum(np.cumprod(steps))[:kmax], [np.inf]))


class _ThinningPlan(NamedTuple):
    """The seed-free part of every bernoulli_thinned set of one (nu,
    half-side, alpha): the small-shell ball by radius with each site's keep
    probability, the running caps, and the large shells' Binomial sums."""

    ball: np.ndarray  # offsets from the center, by radius, each shell in lexicographic order
    radius: np.ndarray
    p_site: np.ndarray  # 0 at the center, which is always in
    starts: np.ndarray  # ball row of the first site of each radius 0 .. m + 1
    caps: list[int]  # cap_for((2r + 1)^nu, alpha) for r = 0 .. half-side
    large: np.ndarray  # radii m + 1 .. half-side
    cdf: np.ndarray  # a _binomial_cdf row per large shell, padded with +inf

    def binomial_counts(self, u: np.ndarray) -> list[int]:
        """Each large shell's Binomial count at its uniform u, capped at the
        shell's cap: the first entry >= u of its row (bisect_left), which
        argmin finds as the first False of ``row < u``."""
        return np.argmin(self.cdf < u[:, None], axis=1).tolist()


@lru_cache(maxsize=1)
def _thinning_plan(dim: int, half_side: int, alpha: float) -> _ThinningPlan:
    """One plan per key, held for the most recent key only: a caller makes
    its sets of one (nu, half-side, alpha) one after another."""
    p = [min(1.0, (2.0 * r) ** (dim * (alpha - 1.0))) if r else 0.0 for r in range(half_side + 1)]
    caps = [cap_for((2 * r + 1) ** dim, alpha) for r in range(half_side + 1)]
    m = next((r - 1 for r in range(1, half_side + 1) if _shell_size(r, dim) > 1024), half_side)
    ball = Cube((0,) * dim, m).coords()  # shell sizes grow with r: the small shells are 1 .. m
    radius = np.max(np.abs(ball), axis=1)
    order = np.argsort(radius, kind="stable")
    ball, radius = ball[order], radius[order]
    large = np.arange(m + 1, half_side + 1, dtype=np.int64)
    # a count is used as min(count, cap left), and the center leaves less than the cap
    rows = [_binomial_cdf(_shell_size(r, dim), p[r], caps[r]) for r in large.tolist()]
    cdf = np.full((len(rows), max(map(len, rows), default=0)), np.inf)
    for row, sums in zip(cdf, rows):
        row[:len(sums)] = sums
    starts = np.searchsorted(radius, np.arange(m + 2))
    plan = _ThinningPlan(ball, radius, np.array(p)[radius], starts, caps, large, cdf)
    for field in plan:
        if isinstance(field, np.ndarray):
            field.flags.writeable = False  # shared by every call of the key
    return plan


def _shell_sites(radius: np.ndarray, index: np.ndarray, dim: int) -> np.ndarray:
    """The offsets of shell sites, row by row: site ``index`` of the shell of
    max-norm ``radius``, 0 <= index < _shell_size(radius, dim).  The shell is
    split by the first axis i with |x_i| = r: the axes before i lie in
    [-(r-1), r-1], x_i = +-r, the axes after i in [-r, r]; blocks follow i,
    and each block is in lexicographic order, a mixed-radix code."""
    r = np.asarray(radius, dtype=np.int64)
    rest = np.asarray(index, dtype=np.int64)
    inner, outer = 2 * r - 1, 2 * r + 1
    axis = np.zeros(len(rest), dtype=np.int64)
    for i in range(dim - 1):  # find each row's block, i
        block = 2 * inner ** i * outer ** (dim - 1 - i)
        past = (axis == i) & (rest >= block)
        rest = rest - past * block
        axis += past
    out = np.empty((len(rest), dim), dtype=np.int64)
    for i in range(dim - 1, -1, -1):  # digits from the last axis on
        on = axis == i
        rest, digit = np.divmod(rest, np.where(axis < i, outer, np.where(on, 2, inner)))
        out[:, i] = np.where(on, (2 * digit - 1) * r, digit - r + (axis > i))
    return out


def _distinct_indices(seed: int, radii: list[int], sizes: list[int],
                      ks: list[int]) -> np.ndarray:
    """Per shell, k distinct indices of [0, n) by Floyd's algorithm, all
    shells' draws in one call: draw j = n - k .. n - 1, keyed on (radius, j),
    picks t = floor(u (j + 1)) and keeps j if t is taken, else t.  Exact
    while n <= 2^53."""
    j = np.concatenate([np.arange(n - k, n, dtype=np.int64) for n, k in zip(sizes, ks)])
    u = key_uniforms(seed, _TAG_SHELL_PLACE, (np.repeat(radii, ks), j))
    draws = zip(j.tolist(), np.minimum(np.floor(u * (j + 1)), j).astype(np.int64).tolist())
    out: list[int] = []
    for k in ks:
        taken: set[int] = set()
        for jj, t in islice(draws, k):
            taken.add(jj if t in taken else t)
        out.extend(taken)
    return np.array(out, dtype=np.int64)


def _bernoulli_thinned(cube: Cube, alpha: float, seed: int) -> np.ndarray:
    """Shell by shell from the center out: each site of a shell with at most
    1024 sites is kept with probability p; a larger shell draws its count
    from Binomial(shell size, p), cut to the cap left, and takes that many
    distinct sites of the shell uniformly (``_distinct_indices`` through
    ``_shell_sites``).  Every shell is hard-capped to the running cap.  The
    small shells form a ball around the center, drawn in one call with the
    radius as each row's counter and cut by one rank mask.  Returns the
    sites other than the center."""
    plan = _thinning_plan(cube.dim, cube.half_side, alpha)
    center = np.asarray(cube.center, dtype=np.int64)
    kept = np.flatnonzero(key_uniforms(seed, _TAG_SITE_BERNOULLI,
                                       (plan.radius, *(plan.ball + center).T)) < plan.p_site)
    before = np.searchsorted(kept, plan.starts)  # kept rows ahead of each shell
    take, count = [0], 1  # the center is always in
    bounds = before.tolist()
    for cap, lo, hi in zip(plan.caps[1:], bounds[1:], bounds[2:]):
        take.append(min(hi - lo, max(0, cap - count)))
        count += take[-1]
    radius = plan.radius[kept]
    rank = np.arange(len(kept)) - before[radius]  # of each kept site within its shell
    offsets = [plan.ball[kept[rank < np.array(take)[radius]]]]
    if len(plan.large):
        binomial = plan.binomial_counts(key_uniforms(seed, _TAG_SHELL_COUNT, (plan.large, 0)))
        radii, sizes, ks = [], [], []
        for r, n in zip(plan.large.tolist(), binomial):
            k = min(n, plan.caps[r] - count)
            if k > 0:
                radii.append(r)
                sizes.append(_shell_size(r, cube.dim))
                ks.append(k)
                count += k
        if ks:
            index = _distinct_indices(seed, radii, sizes, ks)
            offsets.append(_shell_sites(np.repeat(radii, ks), index, cube.dim))
    return center + np.concatenate(offsets)


def check_set_size(cube: Cube, alpha: float, generator: str) -> None:
    """ValueError when a set is too large to build.  A full_cube set is its
    whole cube: at most ``ENUMERATION_CAP`` sites.  A bernoulli_thinned set
    holds at most |cube|^alpha sites (``THINNING_SITE_CAP``); its plan walks
    every radius and keeps a Binomial CDF row per large shell (in 1D a ball
    that is the whole cube), so half-side x (|cube|^alpha + 200) bounds its
    work (``THINNING_WORK_CAP``); and its cube holds at most 2^53 sites, so
    every shell index is exact in float64 and int64.  |cube|^alpha is taken
    through logs, which no cube overflows."""
    if generator == "full_cube" and cube.volume > ENUMERATION_CAP:
        raise ValueError(f"refusing to enumerate {cube.volume} sites (cap {ENUMERATION_CAP})")
    if generator != "bernoulli_thinned":
        return
    sites = math.exp(min(alpha * math.log(cube.volume), 64.0))  # e^64 is past both caps
    what = f"a bernoulli_thinned set of half-side {cube.half_side} at alpha {alpha} in {cube.dim}D"
    if sites > THINNING_SITE_CAP:
        raise ValueError(f"{what} may hold {sites:.4g} sites, over the cap {THINNING_SITE_CAP}")
    if cube.half_side * (sites + 200.0) > THINNING_WORK_CAP:
        raise ValueError(f"{what} takes {cube.half_side * (sites + 200.0):.4g} generation steps "
                         f"(half-side x (sites + 200)), over the cap {THINNING_WORK_CAP}")
    if cube.volume > 2 ** 53:
        raise ValueError(f"{what} spans {cube.side}^{cube.dim} sites, over 2^53, "
                         "past which its shell indices are not exact")


def generate_sparse_set(alpha: float, cube: Cube, generator: str, seed: int) -> SparseSet:
    """Generate a sparse set satisfying the cap on all centered sub-cubes.

    deterministic_powers ignores the seed: sites sit on geometrically
    spaced shells, spread over axis directions, never exceeding the
    running cap.  bernoulli_thinned includes shell sites independently
    with probability min(1, (2r)^(nu*(alpha-1))) and is then hard-capped
    in radius order.  full_cube is the whole cube, with no cube to certify.
    """
    _check_alpha(alpha)
    check_set_size(cube, alpha, generator)
    dim = cube.dim
    if generator == "full_cube":
        return SparseSet(cube.coords(), alpha, generator, seed, dim)

    def cap_at(r: int) -> int:
        return cap_for((2 * r + 1) ** dim, alpha)

    sites, shells = [cube.center], []  # the center is always in: the cap of one site is 1
    if generator == "deterministic_powers":
        for r in _shell_radii(alpha, dim, cube.half_side):
            budget = min(2 * dim, cap_at(r) - len(sites))
            if budget > 0:
                sites.extend(_axis_shell_sites(cube.center, r, budget))
    elif generator == "bernoulli_thinned":
        shells = [_bernoulli_thinned(cube, alpha, seed)]
    else:
        raise ValueError(f"unknown generator {generator!r}; expected deterministic_powers, "
                         "bernoulli_thinned or full_cube")
    coords = np.concatenate([np.array(sites, dtype=np.int64), *shells])
    return SparseSet(coords, alpha, generator, seed, dim, cube=cube)


@dataclass(frozen=True)
class ProfileRow:
    volume: int
    count: int
    cap: int
    passed: bool


def sparseness_profile(sparse: SparseSet, cubes: list[Cube]) -> list[ProfileRow]:
    """Cap check |S intersect Lambda| <= ceil(|Lambda|^alpha) per cube."""
    if not cubes:
        raise ValueError("cubes must be nonempty")
    counts = [0] * len(cubes)  # a cube of another dimension contains no site
    by_center: dict[Site, list[int]] = {}
    for i, cube in enumerate(cubes):
        by_center.setdefault(cube.center, []).append(i)
    for center, at in by_center.items():
        if len(center) == sparse.dim:  # one count pass per center, over all its half-sides
            dist = np.sort(np.max(np.abs(sparse.coords - center), axis=1))
            found = np.searchsorted(dist, [cubes[i].half_side for i in at], "right")
            for i, count in zip(at, found.tolist()):
                counts[i] = count
    rows = []
    for cube, count in zip(cubes, counts):
        volume = cube.volume
        cap = cap_for(volume, sparse.alpha)  # memoized: one computation per volume
        rows.append(ProfileRow(volume, count, cap, count <= cap))
    return rows


def cap_violation(sparse: SparseSet) -> str | None:
    """Why S is too dense for its alpha, or None: the first dyadic sub-cube,
    centered like the generation cube (the origin cube reaching the
    farthest site when there is none), whose count exceeds the cap."""
    if not len(sparse):
        return None
    cube = sparse.cube or Cube((0,) * sparse.dim, int(np.max(np.abs(sparse.coords))))
    for row in sparseness_profile(sparse, centered_subcubes(cube, dyadic_only=True)):
        if not row.passed:
            return (f"set too dense for alpha={sparse.alpha}: "
                    f"|S n Lambda|={row.count} > cap {row.cap} at volume {row.volume}")
    return None


def centered_subcubes(cube: Cube, dyadic_only: bool = False) -> list[Cube]:
    """Sub-cubes centered at cube.center, all radii or dyadic radii only:
    0, the powers of 2 up to the half-side, and the half-side."""
    half = cube.half_side
    if dyadic_only:
        radii = sorted({0, half, *(1 << k for k in range(half.bit_length()))})
    else:
        radii = range(half + 1)
    return [Cube(cube.center, r) for r in radii]


def sparse_set_to_text(sparse: SparseSet) -> str:
    head = (f"# alpha={sparse.alpha:.17g} generator={sparse.generator} "
            f"seed={sparse.seed} nu={sparse.dim}")
    return "\n".join([head] + [" ".join(map(str, site)) for site in sparse.coords.tolist()]) + "\n"

