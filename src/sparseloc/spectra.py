"""Finite-volume eigen-diagnostics: IPR profiles, level-spacing ratios,
and mobility-edge scans against the +/- ||H0||_1 markers.  Tridiagonal
matrices are diagonalized on their band, all others as dense matrices.

Classification of localized vs extended states is always by IPR
contrast between energy bins, never by an absolute threshold:
finite-volume IPRs drift with size, their ratios are stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dstevd

from ._stats import run_indexed
from .disorder import DisorderModel
from .errors import NumericalError
from .lattice import Cube, SparseSet
from .operators import (DENSE_CAP, SymbolSpec, band_storage, check_bins, check_dense,
                        is_tridiagonal, s_norm)
from .resolvent import RealizationEngine


def eigensystem(matrix: sp.spmatrix, realization: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, IPRs) of a real symmetric matrix, one IPR per state.

    A tridiagonal matrix (the nearest-neighbour chain) goes to LAPACK's
    ?stevd, divide and conquer on the band; ?sbevd would run the same
    ?stedc and then multiply by an identity Q, so ?stevd gives its
    eigenvalues bit for bit without that product.  Every other matrix
    goes to the dense ?syevd of ``np.linalg.eigh``.  Every decomposition
    must have residual max_i ||A v_i - e_i v_i|| <= 1e-8, taken with the
    sparse matrix; a solver failure or a larger residual raises
    NumericalError tagged with its realization.
    """
    n = matrix.shape[0]
    check_dense(n)
    try:
        if is_tridiagonal(matrix):
            ab = band_storage(matrix)
            # ?stevd wants max(n - 1, 1) off-diagonal entries; the last entry of ab[2] is 0
            values, vectors, info = dstevd(ab[1], ab[2, :max(n - 1, 1)], compute_v=1)
            if info:
                raise np.linalg.LinAlgError(f"?stevd returned info {info}")
        else:
            values, vectors = np.linalg.eigh(matrix.toarray())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}", realization=realization) from exc
    residual = np.max(np.linalg.norm(matrix @ vectors - vectors * values, axis=0))
    if not residual <= 1e-8:  # NaN fails too
        raise NumericalError("eigendecomposition residual above 1e-8",
                             residual=float(residual), realization=realization)
    return values, np.sum(np.square(np.square(vectors)), axis=0)


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

    def band_center_median(self) -> float | None:
        """Median IPR of the populated bin containing E = 0, or None."""
        return next((b.median_ipr for b in self.bins if b.lo <= 0.0 < b.hi and b.count > 0), None)

    def pooled_median_outside(self, threshold: float) -> float | None:
        """Median of the populated bins' median IPRs beyond |E| >= threshold, or None."""
        pooled = [
            b.median_ipr
            for b in self.bins
            if b.count > 0 and (b.hi <= -threshold or b.lo >= threshold)
        ]
        return float(np.median(pooled)) if pooled else None


def mobility_edge_scan(
    spec: SymbolSpec,
    sparse: SparseSet,
    model: DisorderModel,
    volume: Cube,
    realizations: int,
    s: float,
    bin_width: float = 0.1,
    threads: int = 1,
) -> EdgeScan:
    """Pool the eigenvalues and IPRs of every realization and bin the spectrum.

    Per bin: state count, median IPR, and the mean consecutive-spacing
    ratio.  Marker energies ||H0||_1 and ||H0||_s are computed from the
    symbol, never configured.  Empty bins are reported with NaN
    statistics rather than dropped.
    """
    if realizations < 20:
        raise ValueError("need at least 20 realizations")

    # the free matrix is assembled once; no Green row is solved, so the source is unused
    engine = RealizationEngine(spec, volume, sparse, model, volume.center)
    diags = engine.diagonals(range(realizations))

    def one(r: int) -> tuple[np.ndarray, np.ndarray]:
        return eigensystem(engine.op.matrix + sp.diags(diags[r]), realization=r)

    reports = run_indexed(one, realizations, threads)
    energies = np.concatenate([values for values, _ in reports])
    iprs = np.concatenate([ipr for _, ipr in reports])
    ratios = [spacing_ratios(values) for values, _ in reports]
    r_energy = np.concatenate([e for e, _ in ratios])
    r_value = np.concatenate([r for _, r in ratios])

    check_bins(float(energies.max() - energies.min()), bin_width)
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
    return EdgeScan(tuple(bins), s_norm(spec, 1.0), s_norm(spec, s), s)
