"""Translation-invariant free operators, s-norms, finite-volume assembly.

The free part is a convolution kernel c(d) on Z^nu built from a
separable trigonometric symbol h(theta) = sum_i h_i(theta_i), each axis
a finite cosine series h_i(theta) = sum_k 2 c_k cos(k theta).  Such
kernels are exact (no quadrature) and have finite hopping range, so the
column quasi-norm

    ||H||_s = (sum_d |c(d)|^s)^(1/s)

is a plain finite sum.  Finite-volume matrices use Dirichlet truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError
from .lattice import Cube, SparseSet, Site

_DERIV_GRID = 8192


@dataclass(frozen=True)
class SymbolSpec:
    """Separable symbol; one cosine series {k: c_k} per axis."""

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
        object.__setattr__(self, "axes", tuple(norm))

    @property
    def dim(self) -> int:
        return len(self.axes)

    @classmethod
    def from_config(cls, raw) -> "SymbolSpec":
        axes = []
        for series in raw["axes"]:
            axes.append(tuple((item["k"], item["c"]) for item in series))
        return cls(tuple(axes))

    def axis_values(self, axis: int, thetas: np.ndarray) -> np.ndarray:
        """h_axis evaluated on an array of angles."""
        out = np.zeros_like(np.asarray(thetas, dtype=float))
        for k, c in self.axes[axis]:
            out += 2.0 * c * np.cos(k * thetas)
        return out

    def axis_derivative_sup(self, axis: int) -> float:
        """sup |h_axis'| over a fine grid (2 pi / 8192 spacing)."""
        return _series_derivative_sup(self.axes[axis])

    def derivative_sup(self) -> float:
        return max(self.axis_derivative_sup(i) for i in range(self.dim))


@cache
def _series_derivative_sup(series: tuple[tuple[int, float], ...]) -> float:
    """Grid sup of |h'| for one axis series, computed once per distinct series."""
    thetas = np.linspace(0.0, 2.0 * math.pi, _DERIV_GRID, endpoint=False)
    d = np.zeros(_DERIV_GRID)
    for k, c in series:
        d -= 2.0 * c * k * np.sin(k * thetas)
    return float(np.max(np.abs(d)))


def delta_symbol(dim: int, k: int = 1, amplitude: float = 1.0) -> SymbolSpec:
    """Symbol of sum_i (T_i^k + T_i^-k) scaled by amplitude (k=1: Delta)."""
    return SymbolSpec(tuple(((k, amplitude),) for _ in range(dim)))


@dataclass(frozen=True)
class KernelOperator:
    """Hopping kernel c(d) with cached s-norms.

    c(d) = c(-d) and the support is finite, so every s in (0, 1] gives a
    finite norm; s0 metadata records the claimed summability threshold
    (0 for finite support).
    """

    dim: int
    hopping: tuple[tuple[Site, float], ...]
    s0: float = 0.0
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        norm = {}
        for offset, amp in self.hopping:
            offset = tuple(int(x) for x in offset)
            if len(offset) != self.dim:
                raise ValueError(f"offset {offset} has wrong dimension")
            if amp != 0.0:
                norm[offset] = norm.get(offset, 0.0) + float(amp)
        for offset, amp in norm.items():
            neg = tuple(-x for x in offset)
            if not math.isclose(norm.get(neg, 0.0), amp, rel_tol=0, abs_tol=1e-15):
                raise ValueError(f"kernel not symmetric at offset {offset}")
        object.__setattr__(
            self, "hopping", tuple(sorted((o, a) for o, a in norm.items() if a != 0.0))
        )

    @property
    def offsets(self) -> list[Site]:
        return [o for o, _ in self.hopping]


def kernel_from_symbol(spec: SymbolSpec) -> KernelOperator:
    """Kernel of the symbol: amplitude c_k at offsets +/- k e_i per axis."""
    hopping = []
    for i in range(spec.dim):
        for k, c in spec.axes[i]:
            if c == 0.0:
                continue
            plus = tuple(k if j == i else 0 for j in range(spec.dim))
            minus = tuple(-x for x in plus)
            hopping.append((plus, c))
            hopping.append((minus, c))
    return KernelOperator(spec.dim, tuple(hopping))


def s_norm(kernel: KernelOperator, s: float) -> float:
    """(sum_d |c(d)|^s)^(1/s); exact for translation-invariant kernels."""
    if not (0.0 < s <= 1.0):
        raise ValueError(f"s must lie in (0, 1], got {s}")
    cached = kernel._cache.get(s)
    if cached is not None:
        return cached
    total = 0.0
    for _, amp in kernel.hopping:
        total += abs(amp) ** s
    if not math.isfinite(total):
        raise NumericalError("s-norm sum diverged", partial_sum=total, s=s)
    value = total ** (1.0 / s) if total > 0.0 else 0.0
    kernel._cache[s] = value
    return value


def neumann_fractional_bound(kernel: KernelOperator, energy: float, s: float) -> float:
    """Geometric-series tail bound on sum_m |(H0 - z)^-1(n, m)|^s, Re z = E.

    Expanding the resolvent in powers of H0/z and using
    (|sum x_i|)^s <= sum |x_i|^s termwise gives

        sum_m |(H0 - z)^-1(n, m)|^s
            <= |E|^(-s) * sum_k (||H0||_s^s / |E|^s)^k,

    valid for |E| > ||H0||_s.  The prefactor is |E|^(-s): the s-th power
    of the 1/z in front of the series (a 1/|E| prefactor would fail to
    dominate the diagonal term alone once |E| > 1).
    """
    norm = s_norm(kernel, s)
    if abs(energy) <= norm:
        raise ValueError(
            f"|E|={abs(energy)} must exceed the s-norm {norm} for the series to converge"
        )
    ratio = norm ** s / abs(energy) ** s
    return (1.0 / abs(energy) ** s) / (1.0 - ratio)


@dataclass(frozen=True)
class AssembledOperator:
    """Finite-volume matrix over a cube's sites, Dirichlet truncation.

    Sites are ordered by cube_sites (lexicographic); row n holds
    c(m - n) plus the diagonal potential.
    """

    cube: Cube
    matrix: sp.csr_matrix
    boundary: str = "dirichlet"

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def _lows_strides(self):
        lo = [c - self.cube.half_side for c in self.cube.center]
        side = self.cube.side
        dim = self.cube.dim
        strides = [side ** (dim - 1 - j) for j in range(dim)]
        return lo, strides

    def index_of(self, site: Site) -> int:
        return int(self.indices_of([site])[0])

    def indices_of(self, coords) -> np.ndarray:
        """Matrix indices of the rows of an (n, nu) site array, in row
        order; KeyError names the first site outside the volume."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != self.cube.dim:
            raise KeyError(f"sites of shape {coords.shape} outside a {self.cube.dim}D volume")
        lo, strides = self._lows_strides()
        rel = coords - np.asarray(lo, dtype=np.int64)
        outside = np.any((rel < 0) | (rel >= self.cube.side), axis=1)
        if outside.any():
            raise KeyError(f"site {tuple(coords[np.argmax(outside)].tolist())} outside volume")
        return rel @ np.asarray(strides, dtype=np.int64)

    def site_of(self, index: int) -> Site:
        lo, strides = self._lows_strides()
        out = []
        for l, st in zip(lo, strides):
            q, index = divmod(index, st)
            out.append(l + q)
        return tuple(out)

    def to_coordinate_text(self) -> str:
        coo = self.matrix.tocoo()
        lines = [
            f"{r} {c} {v:.17g}"
            for r, c, v in sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def _coords_and_index(cube: Cube):
    lo = np.array([c - cube.half_side for c in cube.center], dtype=np.int64)
    side = cube.side
    dim = cube.dim
    strides = np.array([side ** (dim - 1 - j) for j in range(dim)], dtype=np.int64)
    idx = np.arange(cube.volume, dtype=np.int64)
    coords = np.empty((cube.volume, dim), dtype=np.int64)
    rest = idx.copy()
    for j in range(dim):
        coords[:, j] = rest // strides[j] + lo[j]
        rest = rest % strides[j]
    return coords, lo, strides


def assemble_finite_volume(
    kernel: KernelOperator, potential: dict[Site, float] | None, cube: Cube
) -> AssembledOperator:
    """(A u)(n) = sum_d c(d) u(n + d) [n + d in cube] + V(n) u(n)."""
    if cube.dim != kernel.dim:
        raise ValueError("kernel and cube dimensions differ")
    n = cube.volume
    if n > 4_000_000:
        raise ValueError(f"volume {n} too large to assemble")
    coords, lo, strides = _coords_and_index(cube)
    side = cube.side
    rows_all = []
    cols_all = []
    vals_all = []
    for offset, amp in kernel.hopping:
        target = coords + np.asarray(offset, dtype=np.int64)
        rel = target - lo
        valid = np.all((rel >= 0) & (rel < side), axis=1)
        src = np.nonzero(valid)[0]
        tgt = rel[valid] @ strides
        rows_all.append(src)
        cols_all.append(tgt)
        vals_all.append(np.full(src.shape[0], amp))
    diag = np.zeros(n)
    if potential:
        for site, value in potential.items():
            if not cube.contains(site):
                raise ValueError(f"potential site {site} outside the cube")
            rel = np.asarray(site, dtype=np.int64) - lo
            diag[int(rel @ strides)] += float(value)
    nz = np.nonzero(diag)[0]
    rows_all.append(nz)
    cols_all.append(nz)
    vals_all.append(diag[nz])
    if rows_all:
        rows = np.concatenate(rows_all)
        cols = np.concatenate(cols_all)
        vals = np.concatenate(vals_all)
    else:
        rows = cols = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return AssembledOperator(cube, matrix)


def restrict_complement(
    kernel: KernelOperator, sparse: SparseSet, cube: Cube
) -> AssembledOperator:
    """P_{S^c} H0 P_{S^c} on the volume: rows and columns of S zeroed."""
    for site in sparse.sites:
        if not cube.contains(site):
            raise ValueError(f"sparse-set site {site} outside the cube")
    base = assemble_finite_volume(kernel, None, cube)
    mask = np.ones(base.size)
    mask[base.indices_of(sparse.coords_array())] = 0.0
    matrix = base.matrix.multiply(mask[:, None]).multiply(mask[None, :]).tocsr()
    matrix.eliminate_zeros()
    return AssembledOperator(cube, matrix)


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
    coeff = np.fft.fft([h(t) for t in 2.0 * math.pi * np.arange(n) / n]) / n
    floor = 1e-13 * np.max(np.abs(coeff))
    coeff = np.where(np.abs(coeff) > floor, coeff, 0.0)
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    order = 2 * dim + 2
    deriv_coeff = coeff * (1j * freqs) ** order
    deriv = np.fft.ifft(deriv_coeff) * n
    return float(np.max(np.abs(deriv.real)))


def kernel_decay_check(
    h, dim: int, offsets, c_h: float | None = None, tol: float = 1e-10
) -> DecayCheck:
    """Fourier coefficients of a smooth periodic axis symbol vs the
    integration-by-parts envelope C_h nu^(2nu+1) / |d|^(2nu+1).

    h is a callable on [0, 2 pi); coefficients come from periodic
    trapezoid sums at doubling node counts until two levels agree to
    ``tol``.
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
        if achieved <= tol:
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
