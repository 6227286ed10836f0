"""Gaussian-process surrogate for the first vector component.

In the large-N limit the components of the evolving vector are independent
centered Gaussians with normalized two-time correlation
``f(t+s)/sqrt(f(2t) f(2s))``, so sign persistence of the first component can
be measured on sampled GP paths instead of matrix products.  Paths are drawn
through a dense Cholesky factor (horizon capped accordingly) in blocks with
derived seeds, and survival is counted by first sign mismatch against the
t=0 value.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateProcessError, InvalidSpecError, NumericalError
from .records import PersistenceCurve, log_tau_grid
from .seeding import derive_seed, rng_from_seed
from .spectra import SpectralModel
from .spectral import log_moment_array

__all__ = [
    "build_covariance",
    "estimate_persistence_gp",
    "joint_persistence",
    "MAX_DENSE_HORIZON",
]

MAX_DENSE_HORIZON = 4096
_JITTER = 1e-10
_PSD_FLOOR = -1e-8
_BLOCK = 4096


def build_covariance(spec: SpectralModel, T: int) -> np.ndarray:
    """(T+1) x (T+1) matrix of normalized correlations on times 0..T.

    Validated positive semidefinite: a smallest eigenvalue w_min in
    [-1e-8, 0) shifts the diagonal by max(1e-10, -2 w_min), enough for the
    Cholesky factor; anything below -1e-8 means the moment accuracy is too
    loose and raises.
    """
    if T < 0:
        raise InvalidSpecError("horizon must be >= 0")
    if T > MAX_DENSE_HORIZON:
        raise InvalidSpecError(
            f"dense-factor route is capped at T = {MAX_DENSE_HORIZON}; "
            "longer horizons need the matrix dynamics route"
        )
    logs, signs = log_moment_array(spec, 2 * T)
    if np.any(signs[::2] <= 0):
        raise DegenerateProcessError(f"vanishing even moment for {spec.describe()}")
    idx = np.arange(T + 1)
    tot = idx[:, None] + idx[None, :]
    half = 0.5 * logs[2 * idx]
    cov = signs[tot] * np.exp(logs[tot] - half[:, None] - half[None, :])
    np.fill_diagonal(cov, 1.0)
    if T == 0:
        return cov
    w_min = float(np.linalg.eigvalsh(cov)[0])
    if w_min < _PSD_FLOOR:
        raise NumericalError(
            f"covariance smallest eigenvalue {w_min:.3e} below {_PSD_FLOOR}; "
            "moments not accurate enough for the correlator"
        )
    if w_min < 0.0:
        cov[np.diag_indices_from(cov)] += max(_JITTER, -2.0 * w_min)
    return cov


def _cholesky_factor(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        bumped = cov.copy()
        bumped[np.diag_indices_from(bumped)] += _JITTER
        try:
            return np.linalg.cholesky(bumped)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("Cholesky failed after diagonal jitter") from exc


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
    """First-mismatch times over streamed path blocks, one array per parity."""
    t_len = factor.shape[0]
    out = [np.empty(n_paths, dtype=np.int64) for _ in parities]
    done = 0
    block_index = 0
    while done < n_paths:
        b = min(_BLOCK, n_paths - done)
        rng = rng_from_seed(derive_seed(seed, block_index))
        z = rng.standard_normal((t_len, b))
        paths = factor @ z
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
    With ``subprocesses=True`` also returns the even-time and odd-time
    survival curves (signs at even/odd times matching the t=0 sign), whose
    product equals the full curve for sign-symmetric spectra.
    """
    if spec.is_atomic:
        # deterministic sign: survival is identically one (or undefined at 0)
        if spec.params[0] == 0.0:
            raise DegenerateProcessError("atomic spectrum at zero has no sign process")
        grid = log_tau_grid(T) if grid is None else np.asarray(grid, dtype=np.int64)
        ones = np.ones_like(grid, dtype=float)
        curve = PersistenceCurve(
            tau=grid,
            q0=ones,
            stderr=np.zeros_like(ones),
            meta={"source": "gp", "spec": spec.describe(), "N": "inf", "n_samples": n_paths},
        )
        return (curve, curve, curve) if subprocesses else curve
    cov = build_covariance(spec, T)
    factor = _cholesky_factor(cov)
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
    factor = _cholesky_factor(build_covariance(spec, T))
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
