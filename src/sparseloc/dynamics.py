"""Free-evolution kernels and the time-decay / sparseness machinery.

For a separable symbol the propagator matrix element factorizes into
per-axis oscillatory integrals

    kernel(t, d) = prod_i (1/2pi) int_0^2pi e^{-i t h_i(theta) + i d_i theta} dtheta.

Each factor is a Fourier coefficient of the unimodular function
e^{-i t h_i}, computed by a periodic trapezoid sum (spectrally accurate)
with node count scaled to t so aliasing stays below 1e-10.  Every symbol
is a cosine series, so e^{-i t h_i} is even and the trapezoid sum over
the full period is a DCT-I over the half period [0, pi]: half the nodes
(Trefethen & Weideman, SIAM Rev. 56, 2014).  For a pure single-harmonic
axis 2 c cos(k theta) the factor has the closed Bessel form
(-i)^(d/k) J_(d/k)(2 c t), kept as a cross-check path only.

Every matrix element, single or summed over a source phi, is one array
product of axis tables in ``_site_amplitudes``.  The tests keep the
element-by-element product (``evolution_kernel`` in ``tests/oracles.py``)
as the reference it is checked against, and the full-period FFT rule
(``fft_axis_factor_table``) as the reference of the axis tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legder, legval
from scipy.fft import dct, next_fast_len
from scipy.linalg.lapack import dsterf
from scipy.special import jv

from .disorder import sample_potentials
from .errors import NumericalError
from .lattice import SparseSet, Site, cap_violation, max_norm
from .operators import NODE_CAP, SymbolSpec

_CHUNK_ENTRIES = 1 << 16  # complex entries per temporary block of a batch of times


def light_cone(t: float, slope: float, d_max: int = 0) -> float:
    """d_max + |t| sup|h'| + 64 + 12 (|t| sup|h'| + 1)^(1/3): with d_max = 0 the
    offsets beyond which an axis factor at time t is negligible."""
    reach = abs(t) * slope
    return reach + d_max + (64.0 + 12.0 * (reach + 1.0) ** (1.0 / 3.0))


def _node_count(t: float, slope: float, d_max: int) -> int:
    """Full-period node count 2m of an axis table, at least the fast FFT
    length that keeps aliasing below 1e-10, with m a fast length: the
    DCT-I over m + 1 nodes runs a real FFT of length 2m.  ValueError over ``NODE_CAP``."""
    nodes = 2.2 * light_cone(t, slope, d_max)
    if nodes > NODE_CAP:
        raise ValueError(f"axis table needs {nodes:.7g} quadrature nodes, over the guard {NODE_CAP}")
    n = next_fast_len(max(256, int(nodes)))
    return 2 * next_fast_len((n + 1) // 2)


def axis_reaches(sites: np.ndarray, sources) -> list[int]:
    """Per axis, the largest |m_i - n_i| over rows m of ``sites`` and sources n: its table's d_max."""
    lo, hi = sites.min(axis=0).tolist(), sites.max(axis=0).tolist()
    return [max(abs(a - max(n)), abs(b - min(n))) for a, b, n in zip(lo, hi, zip(*sources))]


def _axis_tables(spec: SymbolSpec, axis: int, ts: np.ndarray, d_max: int) -> np.ndarray:
    """Axis factors for offsets -d_max..d_max (column d + d_max), one row
    per time of ``ts``.

    The trapezoid sum of the even function g = e^{-i t h} on 2m nodes is
    (g_0 + (-1)^d g_m + 2 sum_{0<j<m} g_j cos(pi d j / m)) / 2m with
    g_j = g(pi j / m): a DCT-I over the m + 1 nodes of [0, pi], gathered
    at |d| <= d_max < m.  Times that share a node count share one 2-D
    ``dct``, taken in blocks of at most ``_CHUNK_ENTRIES`` entries."""
    slope = spec.axis_derivative_sup(axis)
    counts = np.array([_node_count(t, slope, d_max) for t in ts], dtype=np.int64)
    d = np.abs(np.arange(-d_max, d_max + 1))
    out = np.empty((len(ts), d.size), dtype=complex)
    for n in np.unique(counts).tolist():
        m = n // 2
        values = spec.axis_values(axis, math.pi * np.arange(m + 1) / m)
        rows = np.flatnonzero(counts == n)
        step = max(1, _CHUNK_ENTRIES // (m + 1))
        for block in (rows[i:i + step] for i in range(0, rows.size, step)):
            g = np.exp(-1j * ts[block, None] * values)
            coeffs = dct(g, type=1, axis=1, overwrite_x=True)[:, d] / n
            finite = np.all(np.isfinite(coeffs), axis=1)
            if not np.all(finite):
                t_bad = float(ts[block[np.argmin(finite)]])
                raise NumericalError("axis quadrature produced non-finite values", t=t_bad, nodes=n)
            out[block] = coeffs
    return out


def axis_factor_table(spec: SymbolSpec, axis: int, t: float, d_max: int) -> np.ndarray:
    """Axis factors for offsets -d_max..d_max (index d + d_max)."""
    return _axis_tables(spec, axis, np.array([t], dtype=float), d_max)[0]


def axis_factor_bessel(k: int, c: float, t: float, d: int) -> complex:
    """Closed form for the single-harmonic axis 2 c cos(k theta)."""
    if d % k != 0:
        return 0.0 + 0.0j
    j = d // k
    return (-1j) ** j * jv(j, 2.0 * c * t)


def kernel_elements(spec: SymbolSpec, offsets, ts) -> np.ndarray:
    """Propagator matrix elements kernel(t, d): one row per time of ``ts``,
    one column per offset, the amplitudes of a unit source at the origin."""
    sites = np.asarray(offsets, dtype=np.int64)
    if sites.size == 0:
        sites = sites.reshape(0, spec.dim)
    if sites.ndim != 2 or sites.shape[1] != spec.dim:
        raise ValueError(f"offsets of shape {sites.shape} do not match dimension {spec.dim}")
    return _site_amplitudes(spec, {(0,) * spec.dim: 1.0}, sites, np.asarray(ts, dtype=float))


@dataclass(frozen=True)
class OffdiagonalRow:
    offset: Site
    bound: float
    passed: bool


@dataclass(frozen=True)
class OffdiagonalCheck:
    rows: tuple[OffdiagonalRow, ...]
    calibration: float
    admissible_from: int


def verify_offdiagonal_decay(spec: SymbolSpec, t: float, offsets) -> OffdiagonalCheck:
    """Power-law envelope |kernel| <= C / |d|^(2 nu + 1) in the regime
    nu |t| sup|h'| / |d| <= 1/2, with C calibrated at the smallest
    admissible distance."""
    nu = spec.dim
    hprime = spec.derivative_sup()
    offsets = [tuple(d) for d in offsets]
    admissible = [d for d in offsets if max_norm(d) > 0 and nu * abs(t) * hprime / max_norm(d) <= 0.5]
    if not admissible:
        raise ValueError("no admissible offsets: need |d| >= 2 nu |t| sup|h'|")
    mags = dict(zip(admissible, np.abs(kernel_elements(spec, admissible, [t])[0]).tolist()))
    d_min = min(max_norm(d) for d in admissible)
    power = 2 * nu + 1
    calib = max(mags[d] for d in admissible if max_norm(d) == d_min) * d_min ** power
    rows = []
    for d in sorted(admissible, key=max_norm):
        bound = calib / max_norm(d) ** power
        rows.append(OffdiagonalRow(d, bound, bool(mags[d] <= bound * (1 + 1e-12))))
    return OffdiagonalCheck(tuple(rows), calib, d_min)


def _grid_zeros(values: np.ndarray) -> np.ndarray:
    """Indices near sign changes of a periodic sample sequence."""
    sign = np.sign(values)
    after = np.roll(sign, -1)
    return np.flatnonzero((sign == 0) | ((sign != after) & (after != 0)))


def _axis_targets(spec: SymbolSpec, axis: int) -> tuple[float, float]:
    """(max-over-d target, fixed d=0 target) exponents for one axis.

    Caustic scaling t^(-1/3) rules the maximum whenever h'' vanishes
    somewhere with h''' != 0 there; the d = 0 element sees only the
    stationary points of h', hence t^(-1/2) when those are nondegenerate.
    """
    d1, d2, d3 = spec.axis_derivatives(axis)
    scale = max(np.max(np.abs(d2)), 1e-30)
    scale1 = max(np.max(np.abs(d1)), 1e-30)
    caustic = np.any(np.abs(d3[_grid_zeros(d2)]) > 1e-8 * scale)
    degenerate = np.any(np.abs(d2[_grid_zeros(d1)]) <= 1e-8 * scale1)
    return (-1.0 / 3.0 if caustic else -0.5), (-1.0 / 3.0 if degenerate else -0.5)


def fit_loglog(ts, values) -> float:
    """Least-squares slope of log(values) against log(ts)."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0):
        raise NumericalError("degenerate decay fit: vanishing amplitudes")
    return float(np.polyfit(np.log(ts), np.log(values), 1)[0])


@dataclass(frozen=True)
class AxisDecayFit:
    axis: int
    max_slope: float
    max_target: float
    max_pass: bool
    fixed_slope: float
    fixed_target: float
    fixed_pass: bool


def verify_time_decay(spec: SymbolSpec, t_grid) -> list[AxisDecayFit]:
    """Fit the large-t exponents of each axis factor; a fit passes within
    0.05 of its target.

    Two probes per axis: the maximum over offsets (caustic-dominated),
    and the fixed d = 0 element where the oscillation is stripped by a
    windowed maximum (65 samples across +/-8 percent of t) so the fit
    sees the amplitude envelope rather than the cosine zeros.
    """
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    if len(t_grid) < 6:
        raise ValueError("need at least 6 grid times")
    if t_grid[0] < 50.0 or t_grid[-1] > 1000.0:
        raise ValueError("t_grid must lie within [50, 1000]")
    out = []
    for axis in range(spec.dim):
        slope_sup = spec.axis_derivative_sup(axis)
        max_vals = []
        fixed_vals = []
        for t in t_grid:
            table = axis_factor_table(spec, axis, t, int(light_cone(t, slope_sup)))
            max_vals.append(float(np.max(np.abs(table))))
            window = t * (1.0 + np.linspace(-0.08, 0.08, 65))
            fixed_vals.append(float(np.max(np.abs(_axis_tables(spec, axis, window, 0)))))
        max_slope = fit_loglog(t_grid, max_vals)
        fixed_slope = fit_loglog(t_grid, fixed_vals)
        max_target, fixed_target = _axis_targets(spec, axis)
        out.append(
            AxisDecayFit(
                axis,
                max_slope,
                max_target,
                bool(abs(max_slope - max_target) <= 0.05),
                fixed_slope,
                fixed_target,
                bool(abs(fixed_slope - fixed_target) <= 0.05),
            )
        )
    return out


def _site_amplitudes(
    spec: SymbolSpec, phi: dict[Site, complex], sites: np.ndarray, ts: np.ndarray
) -> np.ndarray:
    """psi_t(m) = sum_n phi(n) kernel(m - n): one row per time of ``ts``,
    one column per row of ``sites``."""
    psi = np.zeros((len(ts), sites.shape[0]), dtype=complex)
    if sites.shape[0] == 0 or not phi:
        return psi
    d_maxes = axis_reaches(sites, phi)
    tables = []
    shared = {}  # (axis series, d_max) -> tables: equal axes share one build
    for axis, d_max in enumerate(d_maxes):
        key = (spec.axes[axis], d_max)
        if key not in shared:
            shared[key] = _axis_tables(spec, axis, ts, d_max)
        tables.append(shared[key])
    for n, amp in phi.items():
        factors = np.ones(psi.shape, dtype=complex)
        for axis in range(spec.dim):
            factors *= tables[axis][:, sites[:, axis] - n[axis] + d_maxes[axis]]
        psi += amp * factors
    return psi


def projected_norm(
    spec: SymbolSpec,
    sparse: SparseSet,
    phi: dict[Site, complex],
    ts: np.ndarray,
    weight_gamma: float | None = None,
) -> np.ndarray:
    """c(t) = ( sum_{m in S} w(m)^2 |psi_t(m)|^2 )^(1/2) at each time of the
    float array ``ts``.  The times go in blocks of at most ``_CHUNK_ENTRIES``
    (time, site) amplitudes."""
    sites = sparse.coords
    w = 1.0 if weight_gamma is None else sparse.weights(weight_gamma)
    step = max(1, _CHUNK_ENTRIES // max(1, sites.shape[0]))
    c = np.empty(ts.size)
    for i in range(0, ts.size, step):
        psi = _site_amplitudes(spec, phi, sites, ts[i:i + step])
        c[i:i + step] = np.sqrt(np.sum((w * np.abs(psi)) ** 2, axis=1))
    return c


def _dyadic_windows(t_max: float) -> list[tuple[float, float]]:
    windows = []
    lo = 1.0
    while lo < t_max:
        hi = min(2.0 * lo, t_max)
        windows.append((lo, hi))
        lo = hi
    return windows


@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``leggauss(n)`` for n >= 2, read-only, once per n.  The
    symmetric companion matrix is tridiagonal (Golub & Welsch, Math. Comp.
    23, 1969), so LAPACK ?sterf takes the first guess at the nodes from
    its two diagonals rather than a dense eigvalsh; the Newton step,
    weights and symmetrization are numpy's, and so are the bits."""
    c = np.array([0] * n + [1])
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    x, info = dsterf(np.zeros(n), np.arange(1, n) * scl[:n - 1] * scl[1:n])
    if info != 0:
        raise NumericalError("Gauss-Legendre eigenvalues did not converge", nodes=n, info=info)
    dy = legval(x, c)
    df = legval(x, legder(c))
    x -= dy / df  # one Newton step
    fm = legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_window(f, lo: float, hi: float) -> float:
    """Gauss-Legendre levels of 48..3072 nodes on [lo, hi] until two agree
    to 1e-9, or to 1e-6 relative; ``f`` takes the array of a level's nodes
    and returns their values."""
    levels = []
    for n in (48, 96, 192, 384, 768, 1536, 3072):
        nodes, weights = _leggauss(n)
        ts = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        val = 0.5 * (hi - lo) * float(np.dot(weights, f(ts)))
        if levels and abs(val - levels[-1]) <= max(1e-9, 1e-6 * abs(val)):
            return val
        levels.append(val)
    raise NumericalError("window quadrature did not settle", last_two=tuple(levels[-2:]))


@dataclass(frozen=True)
class SparsenessResult:
    t_grid: tuple[float, ...]
    c_values: tuple[float, ...]
    windows: tuple[tuple[float, float, float], ...]
    ratios: tuple[float, ...]
    verdict: str
    head_bound: float
    total: float


def sparseness_integral(
    spec: SymbolSpec,
    sparse: SparseSet,
    phi: dict[Site, complex],
    t_max: float,
    weight_gamma: float | None = None,
) -> SparsenessResult:
    """int_1^Tmax c(t) dt over dyadic windows with a convergence verdict.

    The verdict is "converging" when the last three window integrals
    decrease with successive ratios below 0.9.  The [0, 1] head is
    bounded in closed form by max w * ||phi||_2 and reported separately.
    """
    if t_max < 8.0:
        raise ValueError("t_max must be >= 8 to form enough dyadic windows")
    too_dense = cap_violation(sparse)
    if too_dense:
        raise ValueError(too_dense)
    phi = {tuple(n): complex(a) for n, a in phi.items() if a != 0}
    norm_phi = math.sqrt(sum(abs(a) ** 2 for a in phi.values()))
    w = 1.0 if weight_gamma is None else sparse.weights(weight_gamma)
    head_bound = float(np.max(w) * norm_phi) if len(sparse) else 0.0

    def c_of_t(ts: np.ndarray) -> np.ndarray:
        return projected_norm(spec, sparse, phi, ts, weight_gamma)

    windows = []
    t_samples = []
    for lo, hi in _dyadic_windows(t_max):
        windows.append((lo, hi, _gauss_window(c_of_t, lo, hi)))
        t_samples.extend(np.linspace(lo, hi, 9)[:-1].tolist())
    t_samples.append(float(t_max))
    c_samples = c_of_t(np.array(t_samples)).tolist()
    integrals = [wdw[2] for wdw in windows]
    ratios = []
    for i in range(1, len(integrals)):
        prev = integrals[i - 1]
        ratios.append(integrals[i] / prev if prev > 0 else math.inf)
    tail = ratios[-2:]
    if len(sparse) == 0:
        verdict = "converging"
    elif len(tail) == 2 and all(r < 0.9 for r in tail):
        verdict = "converging"
    else:
        verdict = "inconclusive"
    return SparsenessResult(
        tuple(t_samples),
        tuple(c_samples),
        tuple(windows),
        tuple(ratios),
        verdict,
        head_bound,
        float(sum(integrals)),
    )


@dataclass(frozen=True)
class CookRow:
    t: float
    bound: float
    q10: float
    q50: float
    q90: float
    mc_mean_sq: float


def cook_integrand(
    spec: SymbolSpec,
    sparse: SparseSet,
    model,
    phi: dict[Site, complex],
    t_grid,
    n_samples: int = 30,
) -> list[CookRow]:
    """Deterministic envelope sigma * c(t) against sampled quantiles of
    the random integrand ||V^omega psi_t||.

    sigma^2 is the law's raw second moment; in expectation
    E ||V psi||^2 = sigma^2 sum_S w(m)^2 |psi_t(m)|^2 exactly, so the
    sampled median should sit below the envelope.
    """
    if n_samples < 30:
        raise ValueError("need at least 30 disorder samples per time")
    phi = {tuple(n): complex(a) for n, a in phi.items() if a != 0}
    sites = sparse.coords
    sigma = math.sqrt(model.law.second_moment())
    coupling_profile = model.couplings(sparse)
    potentials = sample_potentials(model, sparse, range(n_samples))  # reused at every t
    rows = []
    for t in sorted(t_grid):
        psi = _site_amplitudes(spec, phi, sites, np.array([t], dtype=float))[0]
        bound = sigma * float(np.sqrt(np.sum((coupling_profile * np.abs(psi)) ** 2)))
        norms_arr = np.sqrt(np.sum((potentials * np.abs(psi)) ** 2, axis=1))
        q10, q50, q90 = (np.quantile(norms_arr, q) for q in (0.1, 0.5, 0.9))
        rows.append(
            CookRow(
                float(t),
                bound,
                float(q10),
                float(q50),
                float(q90),
                float(np.mean(norms_arr ** 2)),
            )
        )
    return rows

