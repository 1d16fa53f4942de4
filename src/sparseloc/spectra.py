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
from .operators import AssembledOperator, SymbolSpec, check_bins, check_dense, s_norm
from .resolvent import RealizationEngine

_BLOCK_ENTRIES = 1 << 15  # residual entries per block: a block stays in cache


def eigensystem(op: AssembledOperator, diag: np.ndarray,
                realization: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, IPRs) of op.matrix + diag(diag), one IPR per state.

    On a tridiagonal operator (the nearest-neighbour chain, ``op.band``)
    LAPACK's ?stevd runs divide and conquer on the band; ?sbevd would run
    the same ?stedc and then multiply by an identity Q, so ?stevd gives its
    eigenvalues bit for bit without that product.  Every other operator
    goes to the dense ?syevd of ``np.linalg.eigh``.  Every decomposition
    must have residual max_i ||A v_i - e_i v_i|| <= 1e-8, taken on the band
    or with the sparse matrix; a solver failure or a larger residual raises
    NumericalError tagged with its realization.
    """
    n = op.size
    check_dense(n)
    try:
        if op.band is not None:
            diagonal = op.band[1] + diag
            # ?stevd wants max(n - 1, 1) off-diagonal entries; the last entry of band[2] is 0
            values, vectors, info = dstevd(diagonal, op.band[2, :max(n - 1, 1)], compute_v=1)
            if info:
                raise np.linalg.LinAlgError(f"?stevd returned info {info}")
            residual = _band_residual(diagonal, op.band[2, :-1], values, vectors)
        else:
            matrix = op.matrix + sp.diags(diag)
            values, vectors = np.linalg.eigh(matrix.toarray())
            residual = np.max(np.linalg.norm(matrix @ vectors - vectors * values, axis=0))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}", realization=realization) from exc
    if not residual <= 1e-8:  # NaN fails too
        raise NumericalError("eigendecomposition residual above 1e-8",
                             residual=float(residual), realization=realization)
    return values, np.sum(np.square(np.square(vectors)), axis=0)


def _band_residual(diagonal, off, values, vectors) -> float:
    """max_i ||A v_i - e_i v_i|| for the symmetric tridiagonal A with
    ``diagonal`` and off-diagonal ``off``: three array operations per block
    of ``_BLOCK_ENTRIES`` entries, one eigenvector per row."""
    rows, step = vectors.T, max(1, _BLOCK_ENTRIES // len(values))
    squares = np.empty(len(values))
    for i in range(0, len(values), step):
        v = rows[i:i + step]
        r = v * (diagonal - values[i:i + step, None])
        r[:, 1:] += v[:, :-1] * off
        r[:, :-1] += v[:, 1:] * off
        squares[i:i + step] = np.einsum("ij,ij->i", r, r)
    return math.sqrt(np.max(squares))  # a NaN stays NaN


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

    reports = run_indexed(lambda r: eigensystem(engine.op, diags[r], r), realizations, threads)
    energies, iprs = map(np.concatenate, zip(*reports))
    r_energy, r_value = map(np.concatenate, zip(*(spacing_ratios(e) for e, _ in reports)))
    finite = np.isfinite(r_value)

    check_bins(float(energies.max() - energies.min()), bin_width)
    lo_edge = math.floor(float(energies.min()) / bin_width) * bin_width
    if lo_edge > energies.min():  # the floor multiple rounded up past the lowest state
        lo_edge -= bin_width
    n_bins = int(math.ceil((float(energies.max()) - lo_edge) / bin_width)) + 1
    # bin i is [edges[i], edges[i + 1]): the next bin's lo, not lo + width (an ulp
    # away at most), closes it, so a state on an edge lands in exactly one bin
    edges = lo_edge + np.arange(n_bins + 1) * bin_width
    groups = zip(edges[:-1].tolist(), _by_bin(edges, energies, iprs),
                 _by_bin(edges, r_energy[finite], r_value[finite]))
    bins = tuple(EdgeBin(lo, lo + bin_width, ipr.size,
                         float(np.median(ipr)) if ipr.size else math.nan,
                         float(np.mean(r)) if r.size else math.nan) for lo, ipr, r in groups)
    return EdgeScan(bins, s_norm(spec, 1.0), s_norm(spec, s), s)


def _by_bin(edges: np.ndarray, keys: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """``values`` split by the bin [edges[i], edges[i + 1]) of their keys,
    each bin's values in input order."""
    index = np.searchsorted(edges, keys, "right") - 1
    counts = np.bincount(index, minlength=len(edges) - 1)
    return np.split(values[np.argsort(index, kind="stable")], np.cumsum(counts)[:-1])
