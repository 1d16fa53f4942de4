"""Running statistics for Monte-Carlo accumulation.

Welford (count, mean, M2) vectors fed samples in realization order give
results that are bit-identical no matter how realizations were
scheduled: ``run_indexed`` returns results in index order, and the
reduction consumes them in that order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np


def run_indexed(fn, count: int, threads: int = 1) -> list:
    """Evaluate fn(0..count-1); results come back in index order so any
    downstream reduction is scheduling-independent."""
    if threads <= 1:
        return [fn(r) for r in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


class RunningMoments:
    """Per-component running mean and variance over sample vectors."""

    def __init__(self, size: int):
        self.count = 0
        self.mean = np.zeros(size)
        self.m2 = np.zeros(size)

    def add(self, sample: np.ndarray) -> None:
        self.count += 1
        delta = sample - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (sample - self.mean)

    def stderr(self) -> np.ndarray:
        if self.count < 2:
            return np.zeros_like(self.mean)
        var = self.m2 / (self.count - 1)
        return np.sqrt(np.maximum(var, 0.0) / self.count)
