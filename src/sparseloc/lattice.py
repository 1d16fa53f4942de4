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
from typing import NamedTuple

import numpy as np

from ._rng import key_uniforms

Site = tuple[int, ...]

# streams for counter-based draws (disorder sampling uses its own tags)
_TAG_SHELL_COUNT = 101
_TAG_SHELL_PLACE = 102
_TAG_SITE_BERNOULLI = 103

_CHUNK_ENTRIES = 1 << 17  # (shell, attempt, axis) draws per placement chunk


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
    violate it (sparseness_profile reports the failures).  Equality and
    hashing follow the sites and the four labels, not the cube.
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
        object.__setattr__(self, "_weights", {})

    def _key(self):
        return self.alpha, self.generator, self.seed, self.dim, self.coords.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseSet) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __len__(self) -> int:
        return len(self.coords)

    @cached_property
    def sites(self) -> tuple[Site, ...]:
        """The sites as int tuples in row order, built on first use."""
        return tuple(map(tuple, self.coords.tolist()))

    def weights(self, gamma: float) -> np.ndarray:
        """(1 + |n|)^gamma for each site in order, max-norm |n|: read-only,
        built once per gamma.  One Python power per distinct radius, so each
        entry is bitwise ``(1.0 + max_norm(site)) ** gamma``."""
        w = self._weights.get(gamma)
        if w is None:
            radii, inverse = np.unique(np.max(np.abs(self.coords), axis=1), return_inverse=True)
            w = np.array([(1.0 + r) ** gamma for r in radii.tolist()])[inverse]
            w.flags.writeable = False
            w = self._weights.setdefault(gamma, w)  # atomic: racing threads share one array
        return w


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


def _place_on_shells(radii, ks, seed: int, dim: int) -> list[np.ndarray]:
    """Per shell, the offsets of the first ``k`` distinct shell sites hit by
    uniform draws from its enclosing cube, in attempt order; fewer when its
    512(k+4) attempts hit fewer.  A shell first draws 1.25 k / f + 16
    attempts, f its exact hit fraction, and doubles its attempts while it
    is short; no call draws more than ``_CHUNK_ENTRIES`` entries (one
    attempt, if that has more).  Draws are keyed on (radius, attempt,
    axis), so no chunking changes a draw, and one sort keyed on (shell,
    site) finds the first hits of every shell."""
    radii = np.asarray(radii, dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)
    limits = 512 * (ks + 4)
    target = np.minimum([math.ceil(1.25 * k / (1.0 - ((2 * r - 1) / (2 * r + 1)) ** dim)) + 16
                         for r, k in zip(radii.tolist(), ks.tolist())], limits)
    drawn = np.zeros(len(radii), dtype=np.int64)
    side = 2 * int(radii.max(initial=0)) + 1
    fits = len(radii) * side ** dim < 2 ** 63  # key: shell, then index in the largest cube
    axes = np.arange(dim, dtype=np.int64)
    per_call = max(1, _CHUNK_ENTRIES // dim)  # attempts
    shell = np.zeros(0, dtype=np.int64)  # the distinct hits so far, by shell, then attempt
    offs = np.zeros((0, dim), dtype=np.int64)
    active = np.arange(len(radii))
    while len(active):
        # this round: each active shell's window, at most per_call attempts, first shells first
        ends = np.minimum(np.cumsum(target[active] - drawn[active]), per_call)
        take = ends - np.concatenate(([0], ends[:-1]))
        which = np.repeat(active, take)
        attempts = drawn[which] + np.arange(len(which)) - np.repeat(ends - take, take)
        r = radii[which, None]
        u = key_uniforms(seed, _TAG_SHELL_PLACE, (r, attempts[:, None], axes))
        new = np.floor(u * (2 * r + 1)).astype(np.int64) - r
        size = np.abs(new[:, 0])  # max-norm, one axis at a time: faster than a max over axis 1
        for j in range(1, dim):
            size = np.maximum(size, np.abs(new[:, j]))
        hit = size == r[:, 0]
        shell = np.concatenate((shell, which[hit]))
        offs = np.concatenate((offs, new[hit]))
        if fits:
            key = shell * side ** dim + (offs + side // 2) @ side ** np.arange(dim - 1, -1, -1)
            _, first = np.unique(key, return_index=True)
        else:  # that key overflows int64: compare whole (shell, site) rows
            _, first = np.unique(np.column_stack((shell, offs)), axis=0, return_index=True)
        first = first[np.lexsort((first, shell[first]))]
        shell, offs = shell[first], offs[first]
        drawn[active] += take
        found = np.bincount(shell, minlength=len(radii))
        active = active[(found[active] < ks[active]) & (drawn[active] < limits[active])]
        grow = active[drawn[active] == target[active]]
        target[grow] = np.minimum(2 * target[grow], limits[grow])
    found = np.bincount(shell, minlength=len(radii))
    offs = offs[np.arange(len(shell)) - (np.cumsum(found) - found)[shell] < ks[shell]]
    ends = np.cumsum(np.minimum(found, ks)).tolist()
    return [offs[a:b] for a, b in zip([0] + ends, ends)]


def _bernoulli_thinned(cube: Cube, alpha: float, seed: int) -> np.ndarray:
    """Shell by shell from the center out: each site of a shell with at most
    1024 sites is kept with probability p; a larger shell draws its count
    from Binomial(shell size, p) and places that many sites uniformly on it.
    Every shell is then hard-capped to the running cap.  The small shells
    form a ball around the center, drawn in one call with the radius as
    each row's counter and cut by one rank mask.  The large shells' counts
    are set on the assumption that each finds its sites, and all are placed
    in one batch; from the first shell that comes up short, counts and
    places are redone.  Returns the sites other than the center."""
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
    large, binomial = plan.large.tolist(), []
    if large:
        binomial = plan.binomial_counts(key_uniforms(seed, _TAG_SHELL_COUNT, (plan.large, 0)))
    placed = {}  # (r, k) -> offsets, kept across redos
    first = 0
    while first < len(large):
        todo, planned = [], count
        for r, n in zip(large[first:], binomial[first:]):
            k = min(n, plan.caps[r] - planned)
            if k > 0:
                todo.append((r, k))
                planned += k
        new = [rk for rk in todo if rk not in placed]
        if new:
            radii, ks = zip(*new)
            placed.update(zip(new, _place_on_shells(radii, ks, seed, cube.dim)))
        for r, k in todo:
            offsets.append(placed[r, k])
            count += len(offsets[-1])
            if len(offsets[-1]) < k:  # short: recount the shells after it
                first = r + 1 - large[0]
                break
        else:
            break
    return center + np.concatenate(offsets)


def generate_sparse_set(alpha: float, cube: Cube, generator: str, seed: int) -> SparseSet:
    """Generate a sparse set satisfying the cap on all centered sub-cubes.

    deterministic_powers ignores the seed: sites sit on geometrically
    spaced shells, spread over axis directions, never exceeding the
    running cap.  bernoulli_thinned includes shell sites independently
    with probability min(1, (2r)^(nu*(alpha-1))) and is then hard-capped
    in radius order.
    """
    _check_alpha(alpha)
    dim = cube.dim

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
        raise ValueError(
            f"unknown generator {generator!r}; expected deterministic_powers or bernoulli_thinned"
        )
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
    """Sub-cubes centered at cube.center, all radii or dyadic radii only."""
    if dyadic_only:
        radii = [0]
        r = 1
        while r <= cube.half_side:
            radii.append(r)
            r *= 2
        if radii[-1] != cube.half_side:
            radii.append(cube.half_side)
    else:
        radii = list(range(cube.half_side + 1))
    return [Cube(cube.center, r) for r in radii]


def sparse_set_to_text(sparse: SparseSet) -> str:
    head = (f"# alpha={sparse.alpha:.17g} generator={sparse.generator} "
            f"seed={sparse.seed} nu={sparse.dim}")
    return "\n".join([head] + [" ".join(map(str, site)) for site in sparse.coords.tolist()]) + "\n"

