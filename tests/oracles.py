"""Reference implementations the package's single paths are tested against.

Each one computes a quantity the slow, direct way that the package once
shipped beside its fast path: the hopping list of a symbol as a separate
kernel object built it, a Green row by one default sparse LU per row, the
1D Green rows of a block of realizations by one banded solve per
realization, propagator elements one offset at a time, an axis table by
one full-period FFT, the decoupling integrals of a shared rule with two
complex moduli and two powers per node, a growing weight one site at a
time, the IPR of one vector, and a Binomial inverse CDF by one scalar pmf
walk per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from sparseloc.dynamics import _node_count, axis_factor_table
from sparseloc.errors import NumericalError
from sparseloc.lattice import Cube, Site, max_norm
from sparseloc.operators import AssembledOperator, SymbolSpec, band_storage
from sparseloc.resolvent import _graded_unit_rule

_RESIDUAL_TOL = 1e-10


def kernel_from_symbol(spec: SymbolSpec) -> tuple[tuple[Site, float], ...]:
    """Hopping list of the symbol: c_k at +/- k e_i per axis, merged by
    offset, checked symmetric, zero amplitudes dropped, sorted."""
    merged: dict[Site, float] = {}
    for i in range(spec.dim):
        for k, c in spec.axes[i]:
            if c == 0.0:
                continue
            plus = tuple(k if j == i else 0 for j in range(spec.dim))
            for offset in (plus, tuple(-x for x in plus)):
                merged[offset] = merged.get(offset, 0.0) + float(c)
    for offset, amp in merged.items():
        neg = tuple(-x for x in offset)
        if not math.isclose(merged.get(neg, 0.0), amp, rel_tol=0, abs_tol=1e-15):
            raise ValueError(f"kernel not symmetric at offset {offset}")
    return tuple(sorted((o, a) for o, a in merged.items() if a != 0.0))


@dataclass(frozen=True)
class GreenRow:
    cube: Cube
    source: Site
    vector: np.ndarray
    residual: float

    def at(self, op: AssembledOperator, site: Site) -> complex:
        return complex(self.vector[op.index_of(site)])

    def sum_abs_pow(self, s: float) -> float:
        return float(np.sum(np.abs(self.vector) ** s))


def green_row(op: AssembledOperator, z: complex, source: Site) -> GreenRow:
    """Solve (A - z) x = delta_source; x is the Green row by symmetry.

    Direct sparse factorization with SuperLU's defaults (COLAMD ordering,
    partial pivoting) at every size.  The fill grows faster than the
    volume: 3.6 M L+U entries for a 2D cube of 40,401 sites.  The
    residual contract (<= 1e-10 relative to the unit right-hand side) is
    met without refinement.
    """
    if z.imag == 0:
        raise ValueError("Im z must be nonzero")
    n = op.size
    shifted = (op.matrix.astype(complex) - z * sp.identity(n, dtype=complex, format="csr")).tocsc()
    rhs = np.zeros(n, dtype=complex)
    rhs[op.index_of(source)] = 1.0
    try:
        x = spla.splu(shifted).solve(rhs)
    except RuntimeError as exc:
        raise NumericalError(f"sparse solve failed: {exc}") from exc
    residual = float(np.linalg.norm(shifted @ x - rhs))
    if not math.isfinite(residual) or residual > _RESIDUAL_TOL:
        raise NumericalError("solver residual above tolerance", residual=residual)
    return GreenRow(op.cube, tuple(source), x, residual)


def banded_green_rows(op: AssembledOperator, z: complex, diags: np.ndarray,
                      source: Site) -> np.ndarray:
    """Green rows of the tridiagonal op + diag(d) - z for each row d of
    ``diags``: one ``solve_banded((1, 1))`` call (?gtsv, a division for
    one site) per realization on a copy of the free band."""
    free = band_storage(op.matrix, dtype=complex)
    rhs = np.zeros(op.size, dtype=complex)
    rhs[op.index_of(source)] = 1.0
    rows = np.empty(diags.shape, dtype=complex)
    for i, diag in enumerate(diags):
        ab = free.copy()
        ab[1] += diag - z
        rows[i] = solve_banded((1, 1), ab, rhs, overwrite_ab=True, check_finite=False)
    return rows


def evolution_kernel(spec: SymbolSpec, t: float, offsets) -> dict[Site, complex]:
    """Propagator matrix elements at the requested offsets, one Python
    product of axis factors per offset."""
    offsets = tuple(tuple(d) for d in offsets)
    for d in offsets:
        if len(d) != spec.dim:
            raise ValueError(f"offset {d} does not match dimension {spec.dim}")
    if not offsets:
        return {}
    tables = []
    d_maxes = []
    for axis in range(spec.dim):
        d_max = max(abs(d[axis]) for d in offsets)
        tables.append(axis_factor_table(spec, axis, t, d_max))
        d_maxes.append(d_max)
    out = {}
    for d in offsets:
        value = 1.0 + 0.0j
        for axis in range(spec.dim):
            value *= tables[axis][d[axis] + d_maxes[axis]]
        out[d] = complex(value)
    return out


def fft_axis_factor_table(spec: SymbolSpec, axis: int, t: float, d_max: int) -> np.ndarray:
    """Axis factors for offsets -d_max..d_max at one time: the trapezoid
    sum over the full period, one 1-D inverse FFT on the package's node
    count."""
    n = _node_count(t, spec.axis_derivative_sup(axis), d_max)
    thetas = 2.0 * math.pi * np.arange(n) / n
    coeffs = np.fft.ifft(np.exp(-1j * t * spec.axis_values(axis, thetas)))
    return coeffs[np.mod(np.arange(-d_max, d_max + 1), n)]


def two_power_frac_integral(law, s: float, points) -> tuple[np.ndarray, np.ndarray]:
    """(den, num) for the complex ``points`` on the package's shared rule
    (the support cut at its ends, the mode and every Re p clipped to it):
    den[i] = int |x - p_i|^s dmu(x) and num[i, j] = int |x - p_i|^s
    |x - p_j|^s dmu(x), with the integrand taken as |x - p_i|^s times
    |x - p_j|^s: two complex moduli and two powers per node, and one
    weighted sum per integral."""
    points = np.asarray(points, dtype=complex).reshape(-1)
    lo, hi = law.support()
    u, v = _graded_unit_rule()
    cuts = np.unique(np.concatenate([[lo, hi, law.mode], np.clip(points.real, lo, hi)]))
    left, right = cuts[:-1, None], cuts[1:, None]
    half = 0.5 * (right - left)
    x = np.concatenate([left + half * u, right - half * u], axis=1).ravel()
    w = np.concatenate([half * v, half * v], axis=1).ravel() * law.pdf(x)
    den = np.array([np.sum(w * np.abs(x - p) ** s) for p in points])
    num = np.array([[np.sum(w * (np.abs(x - p) ** s * np.abs(x - q) ** s)) for q in points]
                    for p in points])
    return den, num


def weight_value(gamma: float, site: Site) -> float:
    """Growing coupling (1 + |n|)^gamma, max-norm distance to the origin."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    return (1.0 + max_norm(site)) ** gamma


def ipr(psi: np.ndarray) -> float:
    """Inverse participation ratio sum |psi|^4 of a normalized vector."""
    psi = np.asarray(psi)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"vector not normalized: |psi| = {norm}")
    return float(np.sum(np.abs(psi) ** 4))


def binomial_icdf(u: float, n: int, p: float) -> int:
    """Inverse CDF of Binomial(n, p); exact pmf recurrence, no RNG state."""
    if p <= 0.0 or n == 0:
        return 0
    if p >= 1.0:
        return n
    log_q = math.log1p(-p)
    pmf = math.exp(n * log_q)
    cdf = pmf
    k = 0
    ratio = p / (1.0 - p)
    kmax = min(n, int(n * p + 12.0 * math.sqrt(n * p * (1 - p)) + 25))
    while cdf < u and k < kmax:
        pmf *= (n - k) / (k + 1) * ratio
        k += 1
        cdf += pmf
    return k
