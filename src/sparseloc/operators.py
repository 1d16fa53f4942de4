"""Translation-invariant free operators, s-norms, finite-volume assembly.

The free part H0 is one object, its separable trigonometric symbol
h(theta) = sum_i h_i(theta_i), each axis a finite cosine series
h_i(theta) = sum_k 2 c_k cos(k theta).  Its convolution kernel puts c_k
at the offsets +/- k e_i (``SymbolSpec.hopping``); it is exact (no
quadrature) and of finite range, so the column quasi-norm

    ||H||_s = (sum_d |c(d)|^s)^(1/s)

is a plain finite sum.  Finite-volume matrices use Dirichlet truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError
from .lattice import Cube, Site

_DERIV_GRID = 8192


@dataclass(frozen=True)
class SymbolSpec:
    """Separable symbol; one cosine series {k: c_k} per axis.

    ``hopping`` is its kernel: (offset, c_k) at +/- k e_i for every
    nonzero c_k, sorted by offset.
    """

    axes: tuple[tuple[tuple[int, float], ...], ...]

    def __post_init__(self):
        if len(self.axes) < 1:
            raise ValueError("symbol must have at least one axis")
        norm = []
        for series in self.axes:
            seen = {}
            for k, c in series:
                k = int(k)
                if k < 1:
                    raise ValueError(f"harmonic index must be >= 1, got {k}")
                if k in seen:
                    raise ValueError(f"duplicate harmonic {k} in axis series")
                seen[k] = float(c)
            norm.append(tuple(sorted(seen.items())))
        dim = len(norm)
        hopping = [(tuple(sign * k if j == i else 0 for j in range(dim)), c)
                   for i, series in enumerate(norm) for k, c in series if c != 0.0
                   for sign in (1, -1)]
        object.__setattr__(self, "axes", tuple(norm))
        object.__setattr__(self, "hopping", tuple(sorted(hopping)))

    @property
    def dim(self) -> int:
        return len(self.axes)

    def axis_values(self, axis: int, thetas: np.ndarray) -> np.ndarray:
        """h_axis evaluated on an array of angles."""
        out = np.zeros_like(np.asarray(thetas, dtype=float))
        for k, c in self.axes[axis]:
            out += 2.0 * c * np.cos(k * thetas)
        return out

    def axis_derivatives(self, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """h', h'' and h''' of h_axis on a fine grid (2 pi / 8192 spacing)."""
        return _series_derivatives(self.axes[axis])

    def axis_derivative_sup(self, axis: int) -> float:
        """sup |h_axis'| over the grid of ``axis_derivatives``."""
        return float(np.max(np.abs(self.axis_derivatives(axis)[0])))

    def derivative_sup(self) -> float:
        return max(self.axis_derivative_sup(i) for i in range(self.dim))


@cache
def _series_derivatives(series: tuple[tuple[int, float], ...]):
    """Read-only grid profiles of h', h'' and h''' for one axis series,
    computed once per distinct series."""
    thetas = np.linspace(0.0, 2.0 * math.pi, _DERIV_GRID, endpoint=False)
    d1, d2, d3 = np.zeros((3, _DERIV_GRID))
    for k, c in series:
        d1 -= 2.0 * c * k * np.sin(k * thetas)
        d2 -= 2.0 * c * k * k * np.cos(k * thetas)
        d3 += 2.0 * c * k ** 3 * np.sin(k * thetas)
    for d in (d1, d2, d3):
        d.flags.writeable = False
    return d1, d2, d3


def delta_symbol(dim: int, k: int = 1, amplitude: float = 1.0) -> SymbolSpec:
    """Symbol of sum_i (T_i^k + T_i^-k) scaled by amplitude (k=1: Delta)."""
    return SymbolSpec(tuple(((k, amplitude),) for _ in range(dim)))


def s_norm(spec: SymbolSpec, s: float) -> float:
    """(sum_d |c(d)|^s)^(1/s) over the symbol's kernel; exact."""
    if not (0.0 < s <= 1.0):
        raise ValueError(f"s must lie in (0, 1], got {s}")
    total = 0.0
    for _, amp in spec.hopping:
        total += abs(amp) ** s
    if not math.isfinite(total):
        raise NumericalError("s-norm sum diverged", partial_sum=total, s=s)
    return total ** (1.0 / s) if total > 0.0 else 0.0


def neumann_fractional_bound(spec: SymbolSpec, energy: float, s: float) -> float:
    """Geometric-series tail bound on sum_m |(H0 - z)^-1(n, m)|^s, Re z = E.

    Expanding the resolvent in powers of H0/z and using
    (|sum x_i|)^s <= sum |x_i|^s termwise gives

        sum_m |(H0 - z)^-1(n, m)|^s
            <= |E|^(-s) * sum_k (||H0||_s^s / |E|^s)^k,

    valid for |E| > ||H0||_s.  The prefactor is |E|^(-s): the s-th power
    of the 1/z in front of the series (a 1/|E| prefactor would fail to
    dominate the diagonal term alone once |E| > 1).
    """
    norm = s_norm(spec, s)
    if abs(energy) <= norm:
        raise ValueError(
            f"|E|={abs(energy)} must exceed the s-norm {norm} for the series to converge"
        )
    ratio = norm ** s / abs(energy) ** s
    return (1.0 / abs(energy) ** s) / (1.0 - ratio)


@dataclass(frozen=True)
class AssembledOperator:
    """Finite-volume matrix over a cube's sites, Dirichlet truncation.

    Row n is the site ``cube.coords()[n]`` (lexicographic order) and
    holds c(m - n), plus whatever diagonal the caller added.
    """

    cube: Cube
    matrix: sp.csr_matrix

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def index_of(self, site: Site) -> int:
        return int(self.cube.indices_of([site])[0])


def assemble_finite_volume(spec: SymbolSpec, cube: Cube) -> AssembledOperator:
    """(A u)(n) = sum_d c(d) u(n + d) [n + d in cube], the free part only.

    Lexicographic indices are affine in the site, so every pair (n, n + d)
    inside the cube sits one fixed index shift apart.
    """
    if cube.dim != spec.dim:
        raise ValueError("symbol and cube dimensions differ")
    n = cube.volume
    if n > 4_000_000:
        raise ValueError(f"volume {n} too large to assemble")
    coords = cube.coords()
    lo, hi = coords[0], coords[-1]
    rows, cols, vals = [], [], []
    for offset, amp in spec.hopping:
        target = coords + np.asarray(offset, dtype=np.int64)
        src = np.nonzero(np.all((target >= lo) & (target <= hi), axis=1))[0]
        if src.size:
            shift = cube.indices_of(target[src[:1]])[0] - src[0]
            rows.append(src)
            cols.append(src + shift)
            vals.append(np.full(src.size, amp))
    if not rows:
        return AssembledOperator(cube, sp.csr_matrix((n, n)))
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    return AssembledOperator(cube, matrix)


def is_tridiagonal(matrix: sp.spmatrix) -> bool:
    """True when every stored entry has |row - col| <= 1."""
    coo = matrix.tocoo()
    return bool(np.all(np.abs(coo.row - coo.col) <= 1))


def band_storage(matrix: sp.spmatrix, dtype=float) -> np.ndarray:
    """LAPACK band storage of the three central diagonals: row 1 - d holds
    diagonal d, so rows 1 and 2 are the lower band storage of a symmetric
    tridiagonal matrix."""
    n = matrix.shape[0]
    ab = np.zeros((3, n), dtype=dtype)
    for d in (-1, 0, 1):
        ab[1 - d, max(d, 0):n + min(d, 0)] = matrix.diagonal(d)
    return ab


@dataclass(frozen=True)
class DecayRow:
    offset: int
    coefficient: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class DecayCheck:
    rows: tuple[DecayRow, ...]
    c_h: float
    achieved_tol: float


def _fourier_coefficients(h, n_nodes: int) -> np.ndarray:
    thetas = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    values = np.asarray([h(t) for t in thetas], dtype=float)
    # periodic trapezoid sum of (1/2pi) int e^{-i d theta} h(theta) dtheta
    return np.fft.fft(values) / n_nodes


def _estimate_c_h(h, dim: int) -> float:
    """sup of the (2 nu + 2)-nd derivative via spectral differentiation.

    Coefficients below the roundoff floor are zeroed first: the k^(2nu+2)
    differentiation factor would otherwise blow the FFT noise up into the
    estimate.
    """
    n = 4096
    coeff = _fourier_coefficients(h, n)
    floor = 1e-13 * np.max(np.abs(coeff))
    coeff = np.where(np.abs(coeff) > floor, coeff, 0.0)
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    order = 2 * dim + 2
    deriv_coeff = coeff * (1j * freqs) ** order
    deriv = np.fft.ifft(deriv_coeff) * n
    return float(np.max(np.abs(deriv.real)))


def periodized_gaussian(width: float):
    """Smooth periodic bump: wrapped Gaussian centered at pi."""
    def h(theta: float) -> float:
        total = 0.0
        for k in range(-6, 7):
            x = theta - math.pi + 2.0 * math.pi * k
            total += math.exp(-0.5 * (x / width) ** 2)
        return total
    return h


def kernel_decay_check(h, dim: int, offsets, c_h: float | None = None) -> DecayCheck:
    """Fourier coefficients of a smooth periodic axis symbol vs the
    integration-by-parts envelope C_h nu^(2nu+1) / |d|^(2nu+1).

    h is a callable on [0, 2 pi); coefficients come from periodic
    trapezoid sums at doubling node counts until two levels agree to
    1e-10.
    """
    offsets = sorted({int(d) for d in offsets})
    max_d = max((abs(d) for d in offsets), default=1)
    n = max(256, 8 * max_d)
    prev = _fourier_coefficients(h, n)
    achieved = math.inf
    for _ in range(8):
        cur = _fourier_coefficients(h, 2 * n)
        idx_prev = np.array([d % prev.shape[0] for d in offsets])
        idx_cur = np.array([d % cur.shape[0] for d in offsets])
        achieved = float(np.max(np.abs(prev[idx_prev] - cur[idx_cur]))) if offsets else 0.0
        prev, n = cur, 2 * n
        if achieved <= 1e-10:
            break
    else:
        raise NumericalError("quadrature did not converge", achieved_tol=achieved)
    if c_h is None:
        c_h = _estimate_c_h(h, dim)
    rows = []
    for d in offsets:
        coeff = abs(prev[d % prev.shape[0]])
        if d == 0:
            rows.append(DecayRow(0, float(coeff), math.inf, True))
            continue
        bound = c_h * dim ** (2 * dim + 1) / abs(d) ** (2 * dim + 1)
        rows.append(DecayRow(d, float(coeff), bound, bool(coeff <= bound + 1e-12)))
    return DecayCheck(tuple(rows), float(c_h), achieved)
