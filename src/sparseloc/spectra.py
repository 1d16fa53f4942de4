"""Finite-volume eigen-diagnostics: IPR profiles, level-spacing ratios,
and mobility-edge scans against the +/- ||H0||_1 markers.  1D volumes
are diagonalized on their band, larger dimensions as dense matrices.

Classification of localized vs extended states is always by IPR
contrast between energy bins, never by an absolute threshold:
finite-volume IPRs drift with size, their ratios are stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eig_banded
from scipy.linalg.lapack import dstevd

from ._stats import run_indexed
from .disorder import DisorderModel
from .errors import NumericalError
from .lattice import Cube, SparseSet
from .operators import AssembledOperator, KernelOperator, band_storage, s_norm
from .resolvent import RealizationEngine

DENSE_CAP = 4096


@dataclass(frozen=True)
class EigenReport:
    eigenvalues: np.ndarray
    iprs: np.ndarray
    volume: int
    realization: int


def _lower_band(matrix: sp.spmatrix) -> np.ndarray:
    """LAPACK lower band storage of a symmetric matrix: row d holds the
    d-th subdiagonal, for d up to the farthest stored entry."""
    coo = matrix.tocoo()
    k = int(np.max(np.abs(coo.row - coo.col), initial=0))
    return band_storage(matrix, k)[k:]


def eigensystem(op: AssembledOperator, realization: int = 0, cap: int = DENSE_CAP) -> EigenReport:
    """Full symmetric eigendecomposition with per-state IPRs.

    A 1D matrix is banded (bandwidth = hopping range), and LAPACK
    diagonalizes the band directly by divide and conquer: ?stevd for
    bandwidth <= 1, ?sbevd for wider bands.  On a tridiagonal band ?sbevd
    runs the same ?stedc and then multiplies by an identity Q, so ?stevd
    gives its eigenvalues bit for bit without that product.  In
    nu >= 2 dimensions the band is side^(nu - 1) wide and the dense
    ?syevd of ``np.linalg.eigh`` is faster.  Every decomposition must
    have residual max_i ||A v_i - e_i v_i|| <= 1e-8, taken with the sparse
    matrix; a solver failure or a larger residual raises NumericalError
    tagged with its realization.
    """
    n = op.size
    if n > cap:
        raise ValueError(
            f"volume {n} exceeds the dense-diagonalization cap {cap}; "
            "reduce the volume (Green-function tools handle large ones)"
        )
    matrix = op.matrix.real if np.iscomplexobj(op.matrix) else op.matrix
    try:
        if op.cube.dim == 1:
            band = _lower_band(matrix)
            if band.shape[0] <= 2:  # ?stevd wants max(n - 1, 1) off-diagonal entries
                off = band[1, :-1] if band.shape[0] == 2 else np.zeros(max(n - 1, 1))
                values, vectors, info = dstevd(band[0], off, compute_v=1)
                if info:
                    raise np.linalg.LinAlgError(f"?stevd returned info {info}")
            else:
                values, vectors = eig_banded(band, lower=True, check_finite=False)
        else:
            values, vectors = np.linalg.eigh(matrix.toarray())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}", realization=realization) from exc
    residual = np.max(np.linalg.norm(matrix @ vectors - vectors * values, axis=0))
    if not residual <= 1e-8:  # NaN fails too
        raise NumericalError("eigendecomposition residual above 1e-8",
                             residual=float(residual), realization=realization)
    iprs = np.sum(np.square(np.square(vectors)), axis=0)
    return EigenReport(values, iprs, n, realization)


def spacing_ratios(eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(energy, ratio) pairs: r_i = min(d_i, d_i+1)/max(d_i, d_i+1) for
    consecutive spacings d of the sorted spectrum, attributed to the
    middle eigenvalue."""
    e = np.sort(np.asarray(eigenvalues))
    d = np.diff(e)
    if len(d) < 2:
        return np.zeros(0), np.zeros(0)
    lo = np.minimum(d[:-1], d[1:])
    hi = np.maximum(d[:-1], d[1:])
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(hi > 0, lo / hi, np.nan)
    return e[1:-1], r


@dataclass(frozen=True)
class EdgeBin:
    lo: float
    hi: float
    count: int
    median_ipr: float
    r_stat: float


@dataclass(frozen=True)
class EdgeScan:
    bins: tuple[EdgeBin, ...]
    h0_norm_1: float
    h0_norm_s: float
    s: float
    realizations: int

    def band_center_median(self) -> float:
        for b in self.bins:
            if b.lo <= 0.0 < b.hi and b.count > 0:
                return b.median_ipr
        raise ValueError("no populated bin containing E = 0")

    def pooled_median_outside(self, threshold: float) -> float:
        pooled = [
            b.median_ipr
            for b in self.bins
            if b.count > 0 and (b.hi <= -threshold or b.lo >= threshold)
        ]
        if not pooled:
            raise ValueError(f"no populated bins beyond |E| > {threshold}")
        return float(np.median(pooled))


def mobility_edge_scan(
    kernel: KernelOperator,
    sparse: SparseSet,
    model: DisorderModel,
    volume: Cube,
    realizations: int,
    s: float,
    bin_width: float = 0.1,
    threads: int = 1,
) -> EdgeScan:
    """Pool eigen-reports over realizations and bin the spectrum.

    Per bin: state count, median IPR, and the mean consecutive-spacing
    ratio.  Marker energies ||H0||_1 and ||H0||_s are computed from the
    kernel, never configured.  Empty bins are reported with NaN
    statistics rather than dropped.
    """
    if realizations < 20:
        raise ValueError("need at least 20 realizations")

    # the free matrix is assembled once; no Green row is solved, so the source is unused
    engine = RealizationEngine(kernel, volume, sparse, model, volume.center)
    diags = engine.diagonals(range(realizations))

    def one(r: int) -> EigenReport:
        op = AssembledOperator(volume, engine.op.matrix + sp.diags(diags[r]))
        return eigensystem(op, realization=r)

    reports = run_indexed(one, realizations, threads)
    energies = np.concatenate([rep.eigenvalues for rep in reports])
    iprs = np.concatenate([rep.iprs for rep in reports])
    r_energy = []
    r_value = []
    for rep in reports:
        es, rs = spacing_ratios(rep.eigenvalues)
        r_energy.append(es)
        r_value.append(rs)
    r_energy = np.concatenate(r_energy) if r_energy else np.zeros(0)
    r_value = np.concatenate(r_value) if r_value else np.zeros(0)

    lo_edge = math.floor(float(energies.min()) / bin_width) * bin_width
    n_bins = int(math.ceil((float(energies.max()) - lo_edge) / bin_width)) + 1
    bins = []
    for i in range(n_bins):
        lo = lo_edge + i * bin_width
        hi = lo + bin_width
        # the next bin's lo, not hi (an ulp away at most), closes the bin: a
        # state on the edge then lands in exactly one bin
        top = lo_edge + (i + 1) * bin_width
        mask = (energies >= lo) & (energies < top)
        count = int(mask.sum())
        med = float(np.median(iprs[mask])) if count else math.nan
        rmask = (r_energy >= lo) & (r_energy < top) & np.isfinite(r_value)
        rstat = float(np.mean(r_value[rmask])) if rmask.any() else math.nan
        bins.append(EdgeBin(lo, hi, count, med, rstat))
    total = sum(b.count for b in bins)
    if total != energies.size:
        raise RuntimeError(f"bin counts {total} != pooled states {energies.size}")
    return EdgeScan(
        tuple(bins),
        s_norm(kernel, 1.0),
        s_norm(kernel, s),
        s,
        realizations,
    )
