"""Statistical record types shared by the simulators and estimators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError

__all__ = ["PersistenceCurve", "LyapunovSamples", "log_tau_grid"]


def log_tau_grid(horizon: int, points: int = 80) -> np.ndarray:
    """Integer grid 0, 1, ... log-spaced up to the horizon (deduplicated)."""
    if horizon < 1:
        raise InvalidSpecError("horizon must be >= 1")
    taus = np.unique(np.round(np.logspace(0, np.log10(horizon), points)).astype(np.int64))
    return np.concatenate([[0], taus[taus >= 1]])


@dataclass
class PersistenceCurve:
    """Estimated cone-survival probabilities Q0 on an integer tau grid.

    ``meta`` records at least ``source`` (gp / matrix / renewal), the model
    description, ``N`` (or "inf") and the sample count.
    """

    tau: np.ndarray
    q0: np.ndarray
    stderr: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=np.int64)
        self.q0 = np.asarray(self.q0, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if not (self.tau.shape == self.q0.shape == self.stderr.shape):
            raise InvalidSpecError("curve arrays must share one shape")
        if self.tau[0] != 0 or self.q0[0] != 1.0:
            raise InvalidSpecError("curves start at Q0(0) = 1")
        if np.any(np.diff(self.q0) > 1e-12):
            raise InvalidSpecError("survival probabilities must be non-increasing")

    @classmethod
    def from_first_change_times(
        cls, times, horizon: int, grid: np.ndarray | None = None, meta: dict | None = None
    ) -> "PersistenceCurve":
        """Build Q0 from per-realization first sign-change steps.

        ``times[i] > horizon`` means realization i never changed sign within
        the horizon; Q0(tau) is the fraction with ``times > tau``.
        """
        times = np.asarray(times)
        n = times.size
        if n == 0:
            raise InvalidSpecError("no realizations")
        grid = log_tau_grid(horizon) if grid is None else np.asarray(grid, dtype=np.int64)
        sorted_times = np.sort(times)
        survivors = n - np.searchsorted(sorted_times, grid, side="right")
        q = survivors / n
        err = np.sqrt(np.clip(q * (1.0 - q), 0.0, None) / n)
        m = dict(meta or {})
        m.setdefault("n_samples", int(n))
        return cls(tau=grid, q0=q, stderr=err, meta=m)

    def positive_part(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tau, q0, stderr) restricted to tau >= 1 and q0 > 0, for log fits."""
        keep = (self.tau >= 1) & (self.q0 > 0)
        return self.tau[keep], self.q0[keep], self.stderr[keep]


@dataclass
class LyapunovSamples:
    """Empirical top growth rates with their two-edge normalization."""

    values: np.ndarray
    normalized: np.ndarray
    trapped: np.ndarray
    cycling: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise InvalidSpecError("growth-rate samples must be finite")
        self.normalized = np.asarray(self.normalized, dtype=float)
        self.trapped = np.asarray(self.trapped, dtype=bool)
        self.cycling = np.asarray(self.cycling, dtype=bool)
