"""Counter-based pseudo-random draws: ``key_uniforms`` is the one draw.

Every variate is a pure function of (seed, stream tag) and its row of key
columns, folded in order (a potential's: realization index, then site
coordinates), so sampling is reproducible under any scheduling or
partitioning of work.  The core is the splitmix64 finalizer on a fold of
the inputs, in wrapping uint64.
"""

from __future__ import annotations

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _fold(state: np.ndarray, word: np.ndarray) -> np.ndarray:
    return _mix64(state + _GOLDEN + word)


def key_uniforms(seed: int, tag: int, columns) -> np.ndarray:
    """Uniform(0,1) variates keyed on (seed, tag) and the int64 key
    ``columns``, folded in order; the columns broadcast against each other,
    so a row's draw depends only on its own key words."""
    with np.errstate(over="ignore"):
        state = _fold(np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64),
                      np.uint64(tag & 0xFFFFFFFFFFFFFFFF))
        for column in columns:
            state = _fold(state, np.asarray(column, dtype=np.int64).view(np.uint64))
        bits = _mix64(state)
    # 53-bit mantissa, shifted off zero so inverse CDFs stay finite
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)
