"""Gaussian-process surrogate for the first vector component.

In the large-N limit the components of the evolving vector are independent
centered Gaussians with normalized two-time correlation
``f(t+s)/sqrt(f(2t) f(2s))``, so sign persistence of the first component can
be measured on sampled GP paths instead of matrix products.  The correlator
depends on log time, so its matrix is numerically low-rank: paths are drawn
in blocks with derived seeds through a pivoted Cholesky factor of rank
r << T+1.  Survival is counted by first sign mismatch against t=0: an
entry whose product with the t=0 entry is not > 0 (a zero or NaN entry
too) is a change.  The scan is path-major: a block's paths are formed as
rows, one product for the even times and one for the odd times of each
time block, in time blocks of doubling width after t=0 (1..8, 9..24,
25..56, ...); a path stops being formed once its first even-time and first
odd-time mismatch are known (most settle early, as Q0 decays as a power
law), and its first mismatch is the earlier of the two.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidSpecError, NumericalError, check_count
from .records import PersistenceCurve, check_grid
from .seeding import check_seed, derive_seed, rng_from_seed
from .spectra import SpectralModel
from .spectral import _correlation, log_moment_array

__all__ = [
    "build_covariance",
    "estimate_persistence_gp",
    "joint_persistence",
]

_TOL = 1e-10
_PSD_FLOOR = -1e-8
_BLOCK = 4096
# Paths per block, and so the seed layout, is min(_BLOCK, _BLOCK_ENTRIES //
# (T+1)); a block forms at most _BLOCK_ENTRIES path entries, in time blocks
# of at most about half of them each.
_BLOCK_ENTRIES = _BLOCK * 1025


def _entries(spec: SpectralModel, T: int):
    """The correlation entries on times 0..T (see ``spectral._correlation``)."""
    check_count(T, 0, f"horizon T must be an integer >= 0, got {T}")
    return _correlation(spec, *log_moment_array(spec, 2 * T))


def build_covariance(spec: SpectralModel, T: int) -> np.ndarray:
    """(T+1) x (T+1) matrix of normalized correlations on times 0..T.

    The plain dense definition, unchecked and unshifted.  Path sampling
    never forms it: it factors the same entries column by column.
    """
    idx = np.arange(T + 1)
    return _entries(spec, T)(idx[:, None], idx[None, :])


def _pivoted_cholesky(column, n: int, what: str) -> np.ndarray:
    """n x r factor of the unit-diagonal matrix whose column p is
    ``column(p)``, pivoting on the largest residual diagonal (first index on
    ties) until it is at most ``_TOL`` (Harbrecht, Peters & Schneider, Appl.
    Numer. Math. 62 (2012) 428).  A residual diagonal below ``_PSD_FLOOR``
    means the matrix is not PSD to the accuracy of its entries."""
    resid = np.ones(n)
    rows = np.empty((8, n))
    r = 0
    while True:
        p = int(np.argmax(resid))
        if resid[p] <= _TOL:
            return rows[:r].T
        if r == rows.shape[0]:
            rows = np.concatenate([rows, np.empty_like(rows)])
        rows[r] = (column(p) - rows[:r].T @ rows[:r, p]) / math.sqrt(resid[p])
        resid -= rows[r] ** 2
        r += 1
        low = int(np.argmin(resid))
        if resid[low] < _PSD_FLOOR:
            raise NumericalError(
                f"{what}: residual diagonal {resid[low]:.3e} at index {low} below "
                f"{_PSD_FLOOR}; moments not accurate enough for the correlator"
            )


def _gp_factor(spec: SpectralModel, T: int) -> np.ndarray:
    """Read-only pivoted Cholesky factor of the correlation matrix on times
    0..T, built once per (spec, T) and then served from a cache of at most
    four factors of (T + 1) x rank floats (rank 41 for semicircle(0, 2) at
    T = 1024: 0.34 MB).  The model and T are checked first, as the cache
    would serve T = 8.0 the factor of T = 8."""
    if not isinstance(spec, SpectralModel):
        raise InvalidSpecError(f"the Gaussian process needs a spectral model, got {spec!r}")
    check_count(T, 0, f"horizon T must be an integer >= 0, got {T}")
    return _cached_factor(spec, T)


@functools.lru_cache(maxsize=4)
def _cached_factor(spec: SpectralModel, T: int) -> np.ndarray:
    entries = _entries(spec, T)
    idx = np.arange(T + 1)
    factor = _pivoted_cholesky(lambda p: entries(idx, p), T + 1, f"{spec.describe()}, T = {T}")
    factor.flags.writeable = False
    return factor


def _first_changes(ok: np.ndarray, t_first: int, none: int) -> np.ndarray:
    """Per row of the boolean block ``ok``, whose column i holds time
    t_first + 2i, the time of its first False entry; ``none`` where it has
    none."""
    if not ok.shape[1]:
        return np.full(len(ok), none)
    i = np.argmin(ok, axis=1)  # 0 also when the row has no False entry
    return np.where((i == 0) & ok[:, 0], none, t_first + 2 * i)


def _block_first_changes(factor: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, int]:
    """Rows (first even, first odd) change time per path ``factor @ z[:, j]``,
    T+1 where there is none; and the number of path entries computed.

    An entry at t >= 1 is a change unless its product with the path's t=0
    entry is > 0, so a zero or NaN entry counts.  The scan is path-major:
    each path's normals become one row, multiplied by the sign of its t=0
    entry (0 or NaN where that entry is zero or NaN), so that an entry
    passes exactly when it is > 0, without forming a product that could
    underflow.  The product of those rows with a strided run of factor
    rows holds one path per row and the times of one parity, so a path's
    first even and first odd change are each a contiguous row search.
    After t = 0, times follow in blocks of doubling width (1..8, 9..24,
    25..56, ...), each formed only for the paths that still lack a first
    even or a first odd change."""
    t_len = factor.shape[0]
    rows = (z * np.sign(z.T @ factor[0])).T
    firsts = np.full((2, rows.shape[0]), t_len)
    alive = np.arange(rows.shape[0])
    entries = rows.shape[0]  # the t = 0 entries
    t0, width = 1, 8
    while t0 < t_len and alive.size:
        t1 = min(t0 + width, t_len)
        entries += alive.size * (t1 - t0)
        keep = np.zeros(alive.size, dtype=bool)
        for first, t in zip(firsts, (t0 + 1, t0)):  # the even row, then the odd row
            found = _first_changes(rows @ factor[t:t1:2].T > 0.0, t, t_len)
            found = np.minimum(first[alive], found)
            first[alive] = found
            keep |= found == t_len
        if t1 == t_len:
            break
        alive, rows = alive[keep], rows[keep]
        t0, width = t1, 2 * width
    return firsts, entries


def _stream_first_changes(factor, n_paths, seed) -> tuple[np.ndarray, int]:
    """Rows (first even, first odd) change times over streamed path blocks,
    and the number of path entries computed.  Block b draws its (rank,
    paths) normals from ``derive_seed(seed, b)`` and is scanned path-major
    in time blocks (:func:`_block_first_changes`), so a path is formed only
    through the time block that holds its last needed change."""
    t_len, rank = factor.shape
    per_block = max(1, min(_BLOCK, _BLOCK_ENTRIES // t_len))
    out = np.empty((2, n_paths), dtype=np.int32)  # times are at most T + 1
    entries = 0
    done = 0
    block_index = 0
    while done < n_paths:
        b = min(per_block, n_paths - done)
        rng = rng_from_seed(derive_seed(seed, block_index))
        out[:, done : done + b], count = _block_first_changes(factor, rng.standard_normal((rank, b)))
        entries += count
        done += b
        block_index += 1
    return out, entries


def _meta(spec: SpectralModel, T: int, n_paths: int, seed: int, path_entries: int) -> dict:
    return {
        "source": "gp",
        "spec": spec.describe(),
        "N": "inf",
        "n_samples": n_paths,
        "T": T,
        "seed": seed,
        "path_entries": path_entries,
    }


def estimate_persistence_gp(
    spec: SpectralModel,
    T: int,
    n_paths: int,
    seed: int,
    grid: np.ndarray | None = None,
    subprocesses: bool = False,
):
    """Survival probability of the initial sign over GP paths.

    Q0(tau) is the fraction of paths whose sign matches the t=0 sign at
    every 1 <= t <= tau, reported on a log-spaced grid with binomial errors.
    A point mass is a rank-one factor (at nu < 0 the sign alternates); the
    horizon is limited by moment accuracy, which the factor checks.  With
    ``subprocesses=True`` also returns the even-time and odd-time survival
    curves (signs at even/odd times matching the t=0 sign), whose product
    equals the full curve for sign-symmetric spectra.  A zero or NaN path
    entry counts as a sign change.  Each path block is formed path-major
    and scanned in time blocks of doubling width, and a path leaves once
    its first even and first odd change are known: the full curve counts
    the earlier of the two, so the subprocess curves cost no extra scan.
    ``meta["path_entries"]`` counts the path entries formed.  An
    ``n_paths`` that is not an integer >= 1, a T that is not an integer
    >= 0, a seed that is not an integer or a grid that
    :func:`~conewise.records.check_grid` rejects raises
    :class:`InvalidSpecError` before any moment is computed.
    """
    check_count(n_paths, 1, f"path count must be an integer >= 1, got {n_paths}")
    check_seed(seed)
    grid = check_grid(grid, T)
    (even, odd), entries = _stream_first_changes(_gp_factor(spec, T), n_paths, seed)
    meta = _meta(spec, T, n_paths, seed, entries)
    curve = PersistenceCurve.from_first_change_times(np.minimum(even, odd), T, grid, meta)
    if not subprocesses:
        return curve
    return curve, *(
        PersistenceCurve.from_first_change_times(times, T, grid, {**meta, "parity": label})
        for label, times in (("even", even), ("odd", odd))
    )


def joint_persistence(
    spec: SpectralModel,
    p: int,
    T: int,
    n_paths: int,
    seed: int,
    grid: np.ndarray | None = None,
) -> PersistenceCurve:
    """Survival of the event that p independent components all keep their
    initial signs; the decay exponent is p times the single-component one.
    Bad counts, seeds and grids raise as in :func:`estimate_persistence_gp`,
    before any moment is computed."""
    check_count(p, 1, f"component count must be an integer >= 1, got {p}")
    check_count(n_paths, 1, f"path count must be an integer >= 1, got {n_paths}")
    check_seed(seed)
    if p == 1:
        return estimate_persistence_gp(spec, T, n_paths, seed, grid=grid)
    grid = check_grid(grid, T)
    factor = _gp_factor(spec, T)
    # component c streams with seed derive_seed(seed, c), whose block b is
    # derive_seed(seed, c, b)
    streams = [_stream_first_changes(factor, n_paths, derive_seed(seed, c)) for c in range(p)]
    times = np.min([np.minimum(*firsts) for firsts, _ in streams], axis=0)
    entries = sum(count for _, count in streams)
    meta = {**_meta(spec, T, n_paths, seed, entries), "components": p}
    return PersistenceCurve.from_first_change_times(times, T, grid, meta)
