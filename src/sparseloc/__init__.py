"""sparseloc: numerical laboratory for lattice Schrodinger operators
with sparsely supported random potentials.

Modules
-------
lattice    cubes, site enumeration, sparse-set generation and cap checks
operators  H0 as its symbol and hopping list, s-norms, finite-volume assembly
disorder   single-site laws, couplings, weight sequences, sampling
resolvent  Green rows, fractional moments, decoupling, thresholds
dynamics   free-evolution kernels, decay checks, sparseness integrals
spectra    dense eigen-diagnostics, IPR, mobility-edge scans
cli        declarative experiment runner with reproducible artifacts
"""

__version__ = "0.1.0"

from .errors import ConfigError, NumericalError

__all__ = ["ConfigError", "NumericalError", "__version__"]
