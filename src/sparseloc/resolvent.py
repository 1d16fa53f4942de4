"""Finite-volume Green functions, fractional moments, decoupling,
localization thresholds, and decay-rate fits.

One complex solve per disorder realization yields a whole Green row:
for the symmetric assembly A, the solution of (A - z) x = delta_n gives
x(m) = G(z; n, m) = G(z; m, n).  The Monte-Carlo kinds share one
realization engine (``RealizationEngine``) whose results are reduced in
realization order, so any thread count reproduces the sequential bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import platform
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

from ._stats import RunningMoments, run_indexed
from .disorder import DisorderModel, sample_potentials
from .errors import NumericalError
from .lattice import Cube, SparseSet, Site
from .operators import SymbolSpec, assemble_finite_volume, s_norm

_RESIDUAL_TOL = 1e-10
_CHUNK_ENTRIES = 1 << 15  # realizations x volume sites per engine block
# the graded decoupling rule: geometric ratio, panels per half piece less one, nodes per panel
_RULE_RATIO, _RULE_LEVELS, _RULE_NODES = 0.15, 8, 15
# the decoupling search: radius in units of the law's scale, Re x Im grid points, zoom rounds
_SEARCH_RADIUS, _GRID_RE, _GRID_IM, _ZOOMS = 10.0, 9, 4, 5
_FTZ_DAZ = 0x8040  # MXCSR flush-to-zero (bit 15) and denormals-are-zero (bit 6)
_FENV_T = ctypes.c_ubyte * 32  # x86-64 glibc fenv_t; MXCSR at byte 28


def _fenv_checked(result, func, args):
    """ctypes errcheck: fegetenv and fesetenv return 0 on success."""
    if result != 0:
        raise OSError(f"{func.__name__} returned {result}")
    return result


@functools.cache
def _fenv():
    """glibc's (fegetenv, fesetenv) on Linux x86-64, else None."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):
        glibc = None
    if sys.platform != "linux" or platform.machine() != "x86_64" or not glibc:
        return None
    libm = ctypes.CDLL("libm.so.6")
    for fn in (libm.fegetenv, libm.fesetenv):
        fn.argtypes, fn.restype = [ctypes.POINTER(_FENV_T)], ctypes.c_int
        fn.errcheck = _fenv_checked
    return libm.fegetenv, libm.fesetenv


@contextlib.contextmanager
def _flush_subnormals():
    """Flush subnormal results and operands to zero in this thread.

    Far from the source a Green row of a weakly damped chain falls below
    the smallest normal double, and gradual underflow runs every operation
    on such entries through a slow microcode path.  With FTZ and DAZ on,
    those entries are exact zeros.  The mode is per thread; the bits saved
    on entry are put back on exit, so nested use restores the outer mode.
    A no-op off Linux x86-64 glibc.
    """
    fenv = _fenv()
    if fenv is None:
        yield
        return
    get, put = fenv
    env = _FENV_T()
    mxcsr = ctypes.c_uint32.from_buffer(env, 28)
    get(env)
    saved = mxcsr.value & _FTZ_DAZ
    mxcsr.value |= _FTZ_DAZ
    put(env)
    try:
        yield
    finally:
        get(env)
        mxcsr.value = (mxcsr.value & ~_FTZ_DAZ) | saved
        put(env)


@dataclass(frozen=True)
class GreenQuery:
    energy: float
    epsilon: float
    s: float
    source: Site
    volume: Cube
    realizations: int

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0; limits are taken by trend analysis")
        if not (0.0 < self.s < 1.0):
            raise ValueError("s must lie in (0, 1)")
        if not self.volume.contains(self.source):
            raise ValueError("source site must lie inside the volume")

    @property
    def z(self) -> complex:
        return complex(self.energy, self.epsilon)


@dataclass(frozen=True)
class MomentEstimate:
    """Per-site Monte-Carlo estimate of E|G(E + i eps; n, m)|^s."""

    query: GreenQuery
    mean: np.ndarray
    stderr: np.ndarray
    count: int
    set_index: np.ndarray | None = None  # matrix indices of the sites of S

    def distance_profile(self):
        """Rows (distance, mean, stderr, n_sites) by max-norm distance
        from the source, excluding sites within 2 hops of the volume
        boundary."""
        volume = self.query.volume
        coords = volume.coords()
        dist = np.max(np.abs(coords - np.asarray(self.query.source)), axis=1)
        depth = volume.half_side - np.max(np.abs(coords - volume.center), axis=1)
        interior = depth >= 2  # depth: hops to the nearest face
        rows = []
        for d in range(0, int(dist[interior].max()) + 1 if interior.any() else 0):
            mask = interior & (dist == d)
            n_sites = int(mask.sum())
            if n_sites == 0:
                continue
            mean = float(np.mean(self.mean[mask]))
            err = float(np.sqrt(np.sum(self.stderr[mask] ** 2)) / n_sites)
            rows.append((d, mean, err, n_sites))
        return rows


class RealizationEngine:
    """Green rows of A_omega - z over disorder realizations on one volume.

    The free matrix and the S -> matrix index vector are built once, and
    each block of realizations is drawn in one batched call.  A
    tridiagonal free matrix (the nearest-neighbour chain) makes a block of
    realizations one block-diagonal tridiagonal system and one ?gtsv call.
    The corners of the band storage are zeros, so no elimination step
    couples two realizations and each row has the bits of its own solve.
    Every other matrix uses SuperLU in symmetric mode: A - z is complex
    symmetric, so a minimum degree ordering of A + A^T with
    diagonal-preferring threshold pivoting (0.01) roughly halves the fill
    of the default COLAMD ordering; one step of iterative refinement with
    the same factor restores the accuracy the relaxed pivoting gives up.
    The tests hold the reference both paths are checked against:
    ``green_row`` in ``tests/oracles.py``, one default ``splu`` (COLAMD,
    partial pivoting) per row, and ``banded_green_rows``, one tridiagonal
    ``solve_banded`` per row.  Every residual ||(A - z) x - delta|| must be
    <= 1e-10; a failed or inaccurate solve raises NumericalError tagged
    with its realization.
    Solves and residuals run with subnormals flushed to zero.
    """

    def __init__(self, spec: SymbolSpec, volume: Cube, sparse: SparseSet,
                 model: DisorderModel, source: Site):
        self.op = assemble_finite_volume(spec, volume)
        self.index = volume.indices_of(sparse.coords)
        self.source = self.op.index_of(source)
        self.sparse, self.model = sparse, model
        n = self.op.size
        self.chunk = max(1, _CHUNK_ENTRIES // n)
        self.gtsv, = get_lapack_funcs(("gtsv",), dtype=complex)  # on the tridiagonal path

    def diagonals(self, realizations) -> np.ndarray:
        """Potentials of a block of realizations on the volume diagonal."""
        diags = np.zeros((len(realizations), self.op.size))
        diags[:, self.index] += sample_potentials(self.model, self.sparse, realizations)
        return diags

    def green_rows(self, z: complex, diags: np.ndarray, first: int = 0):
        """(Green rows, residuals) for realizations first, first + 1, ..."""
        with _flush_subnormals():
            if self.op.band is not None:
                rows = self._gtsv_rows(z, diags, first)
            else:
                rows = self._splu_rows(z, diags, first)
            applied = (self.op.matrix @ rows.T).T + (diags - z) * rows
            applied[:, self.source] -= 1.0
            residuals = np.linalg.norm(applied, axis=1)
        if not np.all(residuals <= _RESIDUAL_TOL):
            i = int(np.argmin(residuals <= _RESIDUAL_TOL))  # first failed, NaN included
            raise NumericalError(f"realization {first + i}: solver residual above tolerance",
                                 realization=first + i, residual=float(residuals[i]))
        return rows, residuals

    def _gtsv_rows(self, z: complex, diags: np.ndarray, first: int) -> np.ndarray:
        """One ?gtsv call on the block-diagonal band of a block of realizations."""
        count, n = diags.shape
        ab = np.empty((3, count, n), dtype=complex)
        ab[:] = self.op.band[:, None]  # the free band once per realization
        ab = ab.reshape(3, count * n)
        ab[1] += (diags - z).ravel()
        rhs = np.zeros(count * n, dtype=complex)
        rhs[self.source::n] = 1.0
        if n == 1:  # solve_banded divides for one site; so do these rows, to keep its bits
            return (rhs / ab[1]).reshape(count, n)
        *_, x, info = self.gtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, 1, 1, 1, 1)
        if info > 0:  # an exactly zero pivot in row info (1-based)
            r = first + (info - 1) // n
            raise NumericalError(f"realization {r}: solve failed: singular matrix", realization=r)
        return x.reshape(count, n)

    def _splu_rows(self, z: complex, diags: np.ndarray, first: int) -> np.ndarray:
        rhs = np.zeros(self.op.size, dtype=complex)
        rhs[self.source] = 1.0
        rows = np.empty(diags.shape, dtype=complex)
        for i, diag in enumerate(diags):
            try:
                shifted = (self.op.matrix + sp.diags(diag - z)).tocsc()
                lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                               options={"SymmetricMode": True})
                x = lu.solve(rhs)
                rows[i] = x + lu.solve(rhs - shifted @ x)  # one refinement step
            except RuntimeError as exc:
                raise NumericalError(f"realization {first + i}: solve failed: {exc}",
                                     realization=first + i) from exc
        return rows

    def reduce(self, fn, count: int, size: int, threads: int = 1) -> RunningMoments:
        """Running moments of the rows fn(first, diagonals) returns for
        blocks of realizations 0..count-1.  The blocks depend on the volume
        only and are reduced in index order, so any thread count gives
        the same bits."""
        starts = range(0, count, self.chunk)

        def block(c: int):
            first = starts[c]
            return fn(first, self.diagonals(range(first, min(first + self.chunk, count))))

        acc = RunningMoments(size)
        for rows in run_indexed(block, len(starts), threads):
            for sample in rows:
                acc.add(sample)
        return acc


def fractional_moment_estimate(
    query: GreenQuery,
    spec: SymbolSpec,
    sparse: SparseSet,
    model: DisorderModel,
    threads: int = 1,
) -> MomentEstimate:
    """Monte-Carlo mean of |G(E + i eps; source, m)|^s over realizations.

    One solve per realization; draws are counter-based and reduced in
    realization order, so any thread count reproduces the estimate.
    """
    if query.realizations < 2:
        raise ValueError("need at least 2 realizations")
    engine = RealizationEngine(spec, query.volume, sparse, model, query.source)

    def block(first: int, diags: np.ndarray) -> np.ndarray:
        return np.abs(engine.green_rows(query.z, diags, first)[0]) ** query.s

    acc = engine.reduce(block, query.realizations, engine.op.size, threads)
    return MomentEstimate(query, acc.mean, acc.stderr(), acc.count, engine.index)


@dataclass(frozen=True)
class DecouplingEstimate:
    """Grid infimum of int |x-eta|^s |x-beta|^s dmu / int |x-beta|^s dmu,
    each round's ratios integrated on that round's one shared rule.

    kappa_hat over a finite grid is an upper estimate of the true
    constant, so derived thresholds are optimistic; the refinement
    consistency and interior-minimizer checks guard the estimate.
    """

    kappa_hat: float
    d_eff: float
    interior: bool


@functools.cache
def _graded_unit_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1], graded geometrically toward 0: panels
    [r^(j+1), r^j] for j < _RULE_LEVELS and [0, r^_RULE_LEVELS], each with
    _RULE_NODES Gauss-Legendre nodes."""
    g, w = np.polynomial.legendre.leggauss(_RULE_NODES)
    edges = np.append(0.0, _RULE_RATIO ** np.arange(_RULE_LEVELS, -1, -1.0))
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (half * g + (edges[:-1, None] + half)).ravel()
    weights = (half * w).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _frac_integral(law, s: float, points) -> tuple[np.ndarray, np.ndarray]:
    """(den, num) with den[i] = int |x - p_i|^s dmu and num[i, j] =
    int |x - p_i|^s |x - p_j|^s dmu for the complex ``points``, all on one
    composite Gauss-Legendre rule: the support is cut at its ends, the
    law's mode and each Re p_i clipped to it (no cut twice, so no piece is
    empty), and each half piece is graded toward its outer end, where the
    |x - p|^s kinks and a narrow density peaks.  With W the weights times
    the density and F[i, k] = |x_k - p_i|^s, one power per (point, node),
    den = F W and num = A A^T with A = F sqrt(W): one symmetric rank-k
    product, so num is exactly symmetric.  F is taken in units of the
    power of two 2^k <= law.scale < 2^(k+1) and scaled back by 2^(ks) per
    factor, so nothing overflows or underflows at law scales from 1e-300
    to 1e300.
    """
    points = np.asarray(points, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(points)):  # a non-finite cut would spoil every node
        bad = complex(points[np.argmin(np.isfinite(points))])
        raise NumericalError(f"decoupling quadrature failed at point {bad}", point=bad)
    lo, hi = law.support()
    cuts = np.unique(np.concatenate([[lo, hi, law.mode], np.clip(points.real, lo, hi)]))
    left, right = cuts[:-1, None], cuts[1:, None]
    half = 0.5 * (right - left)
    u, v = _graded_unit_rule()
    x = np.concatenate([left + half * u, right - half * u], axis=1).ravel()
    w = np.concatenate([half * v, half * v], axis=1).ravel() * law.pdf(x)
    unit = math.ldexp(1.0, 1 - math.frexp(law.scale)[1])  # 2^-k
    p = points * unit
    f = np.subtract.outer(p.real, x * unit)
    f *= f
    f += (p.imag ** 2)[:, None]
    f **= 0.5 * s
    den = (f @ w) * unit ** -s
    f *= np.sqrt(w)
    return den, (f @ f.T) * unit ** (-2.0 * s)


def estimate_decoupling(law, s: float) -> DecouplingEstimate:
    """Estimate the decoupling constant by a coarse complex grid search
    plus local zoom refinement around the minimizer.

    The grid covers Re in [-R, R], Im in [0, R] for both arguments, with
    R = _SEARCH_RADIUS x the law's scale (conjugation symmetry makes
    negative imaginary parts redundant).  Each round (the coarse grid,
    then each zoom) is one ``_frac_integral`` call on the round's distinct
    points; its ratio table num[eta, beta] / den[beta] (inf where
    den <= 0) is scanned eta outer, beta inner, and its first minimum
    replaces the carried one when strictly below it.
    """
    if not (0.0 < s < 1.0):
        raise ValueError("s must lie in (0, 1)")
    radius = _SEARCH_RADIUS * law.scale
    step_re = 2.0 * radius / (_GRID_RE - 1)
    step_im = radius / (_GRID_IM - 1)

    def point(units: tuple[float, float]) -> complex:
        # points are kept in grid units (exact dyadic floats): a point that the
        # zoom reaches from both eta0 and beta0 is then one complex number
        return complex(-radius + units[0] * step_re, units[1] * step_im)

    def search(etas, betas, best):
        index = {p: i for i, p in enumerate(dict.fromkeys(map(point, etas + betas)))}
        den, num = _frac_integral(law, s, np.array(list(index)))
        e, b = [index[point(u)] for u in etas], [index[point(u)] for u in betas]
        table = np.divide(num[np.ix_(e, b)], den[b], out=np.full((len(e), len(b)), np.inf),
                          where=den[b] > 0)
        i, j = np.unravel_index(np.argmin(table), table.shape)
        return (float(table[i, j]), etas[i], betas[j]) if table[i, j] < best[0] else best

    coarse = [(float(a), float(b)) for a in range(_GRID_RE) for b in range(_GRID_IM)]
    kappa, eta0, beta0 = search(coarse, coarse, (math.inf, coarse[0], coarse[0]))
    interior = all(abs(abs(p.real) - radius) > 1e-12 and abs(p.imag - radius) > 1e-12
                   for p in (point(eta0), point(beta0)))
    shifts = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)
    zoom = 1.0
    for _ in range(_ZOOMS):
        etas = [(eta0[0] + u * zoom, max(0.0, eta0[1] + v * zoom))
                for u in shifts for v in (-0.5, 0.0, 0.5)]
        betas = [(beta0[0] + u * zoom, max(0.0, beta0[1] + v * zoom))
                 for u in shifts for v in (-0.5, 0.0, 0.5)]
        kappa, eta0, beta0 = search(etas, betas, (kappa, eta0, beta0))
        zoom *= 0.5
    return DecouplingEstimate(kappa, kappa / (1.0 - s) ** s, interior)


def k_s(spec: SymbolSpec, s: float, c: float) -> float:
    """k_s = ||H0||_s^s / C(E, n, s), +inf where C = 0; the localization
    regime holds iff k_s < 1.  C is |lambda|^s kappa_hat on the sites of S
    and |E|^s off them."""
    return s_norm(spec, s) ** s / c if c > 0 else math.inf


def lambda_threshold(spec: SymbolSpec, s: float, kappa_hat: float) -> float:
    """Coupling solving |lambda|^s kappa_hat = ||H0||_s^s."""
    if kappa_hat <= 0:
        raise ValueError("kappa_hat must be positive")
    return (s_norm(spec, s) ** s / kappa_hat) ** (1.0 / s)


def am_uniform_bound(coupling: float, s: float) -> float:
    """Uniform two-point bound (2 sqrt 2)^s / (lambda^s (1 - s)), +inf at lambda = 0."""
    if coupling < 0:
        raise ValueError("coupling must be >= 0")
    if not (0.0 < s < 1.0):
        raise ValueError("s must lie in (0, 1)")
    if coupling == 0:
        return math.inf
    return (2.0 * math.sqrt(2.0)) ** s / (coupling ** s * (1.0 - s))


@dataclass(frozen=True)
class DecayFit:
    rate: float
    intercept: float
    passed: bool
    distances: tuple[int, ...]


def decay_rate_fit(estimate: MomentEstimate, k_s: float) -> DecayFit:
    """Least-squares slope of log mean vs distance over reliable bins.

    Bins need mean > 10 x stderr, and the fit needs 6 of them; sites near
    the boundary are excluded by the profile.  Passes when the empirical
    rate is at most log(k_s) + 0.05, i.e. decay at least as fast as the
    geometric bound.
    """
    rows = estimate.distance_profile()
    reliable = [(d, m) for d, m, err, _ in rows if m > 0 and m > 10.0 * err]
    if len(reliable) < 6:
        raise NumericalError(
            f"only {len(reliable)} reliable distance bins, need 6",
            bins=len(reliable),
        )
    d = np.array([r[0] for r in reliable], dtype=float)
    logm = np.log(np.array([r[1] for r in reliable]))
    rate, intercept = np.polyfit(d, logm, 1)
    passed = bool(rate <= math.log(k_s) + 0.05)
    return DecayFit(float(rate), float(intercept), passed, tuple(int(x) for x in d))


@dataclass(frozen=True)
class SimonWolffRow:
    epsilon: float
    mean_sum_g2: float
    stderr: float
    trend_ratio: float


def simon_wolff_proxy(
    query: GreenQuery,
    spec: SymbolSpec,
    sparse: SparseSet,
    model: DisorderModel,
    eps_ladder,
    threads: int = 1,
) -> list[SimonWolffRow]:
    """Monte-Carlo mean of sum_m |G(E + i eps; n, m)|^2 down an epsilon
    ladder; the consecutive-rung trend ratio discriminates regimes.

    Bounded ratios (<= 1.2) signal a pure-point regime at this energy;
    ratios sustained at >= 2 signal an absolutely continuous one.
    """
    ladder = [float(e) for e in eps_ladder]
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("eps_ladder must be strictly decreasing")
    if query.realizations < 1:
        raise ValueError("need at least 1 realization")
    engine = RealizationEngine(spec, query.volume, sparse, model, query.source)

    def block(first: int, diags: np.ndarray) -> np.ndarray:
        sums = []  # one draw per realization, reused on every rung
        for eps in ladder:
            rows, _ = engine.green_rows(complex(query.energy, eps), diags, first)
            sums.append(np.sum(np.abs(rows) ** 2, axis=1))
        return np.stack(sums, axis=1)

    acc = engine.reduce(block, query.realizations, len(ladder), threads)
    rows: list[SimonWolffRow] = []
    prev_mean = None
    for eps, mean, err in zip(ladder, acc.mean.tolist(), acc.stderr().tolist()):
        ratio = mean / prev_mean if prev_mean else math.nan
        rows.append(SimonWolffRow(eps, mean, err, ratio))
        prev_mean = mean
    return rows


@dataclass(frozen=True)
class Theorem2Cube:
    radius: int
    infimum: float
    covers_all_sites: bool
    threshold: float  # ||H0||_s^s
    values: np.ndarray  # (1 + |m|)^(gamma s) kappa_hat per site of the set, in its order


def theorem2_cube(
    center: Site,
    s: float,
    gamma: float,
    spec: SymbolSpec,
    kappa_hat: float,
    sparse: SparseSet,
) -> Theorem2Cube:
    """Smallest cube around ``center`` outside which every random site
    clears the weighted decoupling threshold.

    A site m is cleared when (1 + |m|)^(gamma s) kappa_hat strictly
    exceeds ||H0||_s^s; the cube must swallow all uncleared sites.  The
    infimum of the cleared ratios outside is reported (+inf when the
    cube contains the whole set).
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    threshold = s_norm(spec, s) ** s
    values = sparse.weights(gamma * s) * kappa_hat
    dist = np.max(np.abs(sparse.coords - center), axis=1)
    radius = int(np.max(dist[values <= threshold], initial=0))
    outside = values[dist > radius]
    infimum = float(np.min(outside / threshold, initial=math.inf))
    return Theorem2Cube(radius, infimum, not outside.size, threshold, values)
