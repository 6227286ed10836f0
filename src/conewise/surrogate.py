"""Gaussian-process surrogate for the first vector component.

In the large-N limit the components of the evolving vector are independent
centered Gaussians with normalized two-time correlation
``f(t+s)/sqrt(f(2t) f(2s))``, so sign persistence of the first component can
be measured on sampled GP paths instead of matrix products.  The correlator
depends on log time, so its matrix is numerically low-rank: paths are drawn
in blocks with derived seeds through a pivoted Cholesky factor of rank
r << T+1, and survival is counted by first sign mismatch against t=0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidSpecError, NumericalError
from .records import PersistenceCurve
from .seeding import derive_seed, rng_from_seed
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
_BLOCK_ENTRIES = _BLOCK * 1025  # one block of 4096 paths at T = 1024


def _entries(spec: SpectralModel, T: int):
    """The correlation entries on times 0..T (see ``spectral._correlation``)."""
    if T < 0:
        raise InvalidSpecError("horizon must be >= 0")
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
    """Pivoted Cholesky factor of the correlation matrix on times 0..T."""
    entries = _entries(spec, T)
    idx = np.arange(T + 1)
    return _pivoted_cholesky(lambda p: entries(idx, p), T + 1, f"{spec.describe()}, T = {T}")


def _first_mismatch(paths: np.ndarray, parity: int | None = None) -> np.ndarray:
    """First time the sign differs from the t=0 sign, per path column.

    ``paths`` has shape (T+1, n); ``parity`` restricts the scan to even or
    odd times (the t=0 reference stays).  Returns T+1 for paths that never
    mismatch.
    """
    t_len = paths.shape[0]
    ok = (paths * paths[0]) > 0.0
    ok[0] = True
    if parity is not None:
        skip = np.arange(t_len) % 2 != parity
        ok[skip] = True
    first_bad = np.argmin(ok, axis=0)
    return np.where(ok.all(axis=0), t_len, first_bad)


def _stream_first_changes(factor, n_paths, seed, parities=(None,)):
    """First-mismatch times over streamed path blocks, one array per parity.
    Block b draws its normals from ``derive_seed(seed, b)`` and holds at most
    ``_BLOCK_ENTRIES`` path entries."""
    t_len, rank = factor.shape
    per_block = max(1, min(_BLOCK, _BLOCK_ENTRIES // t_len))
    out = [np.empty(n_paths, dtype=np.int64) for _ in parities]
    done = 0
    block_index = 0
    while done < n_paths:
        b = min(per_block, n_paths - done)
        rng = rng_from_seed(derive_seed(seed, block_index))
        paths = factor @ rng.standard_normal((rank, b))
        for slot, parity in enumerate(parities):
            out[slot][done : done + b] = _first_mismatch(paths, parity)
        done += b
        block_index += 1
    return out


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
    equals the full curve for sign-symmetric spectra.
    """
    factor = _gp_factor(spec, T)
    parities = (None, 0, 1) if subprocesses else (None,)
    times = _stream_first_changes(factor, n_paths, seed, parities)
    meta = {
        "source": "gp",
        "spec": spec.describe(),
        "N": "inf",
        "n_samples": n_paths,
        "T": T,
        "seed": seed,
    }
    curves = []
    for slot, parity in enumerate(parities):
        m = dict(meta)
        if parity is not None:
            m["parity"] = "even" if parity == 0 else "odd"
        curves.append(
            PersistenceCurve.from_first_change_times(times[slot], horizon=T, grid=grid, meta=m)
        )
    return tuple(curves) if subprocesses else curves[0]


def joint_persistence(
    spec: SpectralModel,
    p: int,
    T: int,
    n_paths: int,
    seed: int,
    grid: np.ndarray | None = None,
) -> PersistenceCurve:
    """Survival of the event that p independent components all keep their
    initial signs; the decay exponent is p times the single-component one."""
    if p < 1:
        raise InvalidSpecError("component count must be >= 1")
    if p == 1:
        return estimate_persistence_gp(spec, T, n_paths, seed, grid=grid)
    factor = _gp_factor(spec, T)
    # component c streams with seed derive_seed(seed, c), whose block b is
    # derive_seed(seed, c, b)
    times = np.minimum.reduce(
        [_stream_first_changes(factor, n_paths, derive_seed(seed, c))[0] for c in range(p)]
    )
    meta = {
        "source": "gp",
        "spec": spec.describe(),
        "N": "inf",
        "n_samples": n_paths,
        "T": T,
        "seed": seed,
        "components": p,
    }
    return PersistenceCurve.from_first_change_times(times, horizon=T, grid=grid, meta=meta)
