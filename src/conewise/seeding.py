"""Deterministic seed derivation.

Every stochastic routine in the package takes an explicit 64-bit seed and
builds its generator through :func:`rng_from_seed` (NumPy PCG64).  Sub-tasks
(realizations, their matrix and start-vector draws, path blocks) use seeds
derived with :func:`derive_seed`, which folds indices through SplitMix64.
Results are therefore independent of scheduling or chunking: task ``k``
always sees the same stream no matter how many workers run.

Opening a generator costs tens of microseconds, so a routine with cheap
realizations derives its streams per block of realizations, not per
realization: matrix persistence keys its streams by the index of each block
of 256 and fills its arrays row by row, so realization r still sees the
same values whatever the realization count or chunking.

A seed is a Python or NumPy integer; a negative one wraps modulo 2**64.
Anything else (a float such as 1.5, a bool, a bool-like array, None) raises
:class:`~conewise.errors.InvalidSpecError` before any stream is opened.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import InvalidSpecError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One SplitMix64 output step for the state ``x`` (64-bit wraparound)."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def check_seed(seed) -> int:
    """``seed`` as a Python int modulo 2**64; anything but a Python or NumPy
    integer raises :class:`InvalidSpecError`, and a bool is not a seed."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise InvalidSpecError(f"seed must be an integer, got {seed!r}")
    return int(seed) & _MASK64


def derive_seed(seed: int, *path: int) -> int:
    """Derive an independent child seed from ``seed`` and an index path.

    ``derive_seed(s, i, j)`` is the seed of sub-task ``j`` of sub-task ``i``.
    Distinct paths give (statistically) independent streams.  Each path
    entry follows the seed rule of :func:`check_seed`.
    """
    s = check_seed(seed)
    for k in path:
        s = splitmix64(s ^ splitmix64(check_seed(k)))
    return s


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide generator: PCG64 keyed by a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(check_seed(seed)))
