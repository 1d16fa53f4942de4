"""Single-site disorder laws, couplings, and growing weight sequences.

Sampling is counter-based: the value at a site is a pure function of
(seed, realization index, site), so replay is exact under any iteration
order or thread count.  Laws carry closed-form inverse CDFs and
densities that take arrays; the raw Cauchy is admitted only truncated so
the second moment stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ._rng import key_uniforms
from .lattice import SparseSet, Site

_TAG_POTENTIAL = 201


@dataclass(frozen=True)
class UniformLaw:
    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("uniform law requires b > a")

    @property
    def scale(self) -> float:
        return max(abs(self.a), abs(self.b))

    def second_moment(self) -> float:
        a, b = self.a, self.b
        return (b * b + a * b + a * a) / 3.0

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        return self.a + (self.b - self.a) * np.asarray(u)

    def support(self) -> tuple[float, float]:
        return self.a, self.b

    @property
    def mode(self) -> float:
        return 0.5 * (self.a + self.b)  # any point is a mode; the midpoint is used

    def pdf(self, x):
        return np.where((self.a <= x) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)



@dataclass(frozen=True)
class GaussianLaw:
    mean: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0:
            raise ValueError("gaussian law requires sd > 0")

    @property
    def scale(self) -> float:
        return abs(self.mean) + self.sd

    def second_moment(self) -> float:
        return self.sd ** 2 + self.mean ** 2

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        return self.mean + self.sd * ndtri(np.asarray(u))

    def support(self) -> tuple[float, float]:
        return self.mean - 12.0 * self.sd, self.mean + 12.0 * self.sd

    @property
    def mode(self) -> float:
        return self.mean

    def pdf(self, x):
        z = (np.asarray(x) - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))



@dataclass(frozen=True)
class TruncatedCauchyLaw:
    scale_param: float
    cut: float

    def __post_init__(self):
        if self.scale_param <= 0 or self.cut <= 0:
            raise ValueError("scale and cut must be positive")

    @property
    def scale(self) -> float:
        return self.cut

    def _half_angle(self) -> float:
        return math.atan(self.cut / self.scale_param)

    def second_moment(self) -> float:
        s, a_prime = self.scale_param, self.cut / self.scale_param
        return s * s * (a_prime - math.atan(a_prime)) / self._half_angle()

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        a = self._half_angle()
        return self.scale_param * np.tan((2.0 * np.asarray(u) - 1.0) * a)

    def support(self) -> tuple[float, float]:
        return -self.cut, self.cut

    @property
    def mode(self) -> float:
        return 0.0

    def pdf(self, x):
        x = np.asarray(x)
        a = self._half_angle()
        density = 1.0 / (self.scale_param * (1.0 + (x / self.scale_param) ** 2) * 2.0 * a)
        return np.where(np.abs(x) <= self.cut, density, 0.0)



Law = UniformLaw | GaussianLaw | TruncatedCauchyLaw
LAWS = {"uniform": UniformLaw, "gaussian": GaussianLaw, "truncated_cauchy": TruncatedCauchyLaw}


def make_law(name: str, params) -> Law:
    if name not in LAWS:
        raise ValueError(f"unknown law {name!r}")
    return LAWS[name](*params)


@dataclass(frozen=True)
class DisorderModel:
    """Law plus either a constant coupling or a growing weight sequence."""

    law: Law
    coupling: float = 1.0
    weight_gamma: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.coupling < 0:
            raise ValueError("coupling must be >= 0")
        if self.weight_gamma is not None and self.weight_gamma <= 0:
            raise ValueError("weight gamma must be > 0")

    def couplings(self, sparse: SparseSet) -> float | np.ndarray:
        """The constant coupling, or the growing weight (1 + |n|)^gamma of
        each site of S in order (``SparseSet.weights``)."""
        if self.weight_gamma is None:
            return self.coupling
        return sparse.weights(self.weight_gamma)


def sample_potentials(model: DisorderModel, sparse: SparseSet, realizations) -> np.ndarray:
    """Potentials on S, shape (R, |S|): row i is realization
    ``realizations[i]`` in ``sparse.coords`` row order, bit for bit what
    ``sample_potential`` gives (counter-based draws batch exactly)."""
    realizations = np.asarray(realizations, dtype=np.int64).reshape(-1)
    u = key_uniforms(model.seed, _TAG_POTENTIAL, (realizations[:, None], *sparse.coords.T))
    values = np.asarray(model.law.inverse_cdf(u), dtype=float)
    return model.couplings(sparse) * values


def sample_potential(
    model: DisorderModel, sparse: SparseSet, realization_index: int
) -> dict[Site, float]:
    """One realization of the potential on S; zero (absent) off S."""
    row = sample_potentials(model, sparse, [realization_index])[0]
    return dict(zip(sparse.sites, row.tolist()))
