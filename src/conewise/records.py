"""Statistical record types shared by the simulators and estimators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError, check_count, integer_array

__all__ = ["PersistenceCurve", "LyapunovSamples", "log_tau_grid"]


def log_tau_grid(horizon: int, points: int = 80) -> np.ndarray:
    """Integer grid 0, 1, ... log-spaced up to the horizon (deduplicated);
    [0] at horizon 0.  A horizon that is not an integer >= 0, or fewer than
    two points, raises :class:`InvalidSpecError`."""
    check_count(horizon, 0, f"horizon must be an integer >= 0, got {horizon}")
    check_count(points, 2, f"a grid needs an integer >= 2 points, got {points}")
    taus = np.unique(np.round(np.logspace(0, np.log10(max(horizon, 1)), points)).astype(np.int64))
    return np.concatenate([[0], taus[taus <= horizon]])


def _grid_points(grid) -> np.ndarray:
    """``grid`` as int64 points: 1-D integers (integral floats count) that
    start at 0 and strictly increase; any other raises
    :class:`InvalidSpecError`."""
    grid = integer_array(grid, "grid points")
    if not (grid.ndim == 1 and grid[:1].tolist() == [0] and np.all(np.diff(grid) > 0)):
        raise InvalidSpecError(
            f"grid must be 1-D, start at 0 (Q0(0) = 1) and strictly increase, got {grid}"
        )
    return grid


def _within(grid: np.ndarray, horizon: int) -> np.ndarray:
    """``grid``, unless a point lies past ``horizon``, where first-change
    times say nothing about survival."""
    if grid[-1] > horizon:
        raise InvalidSpecError(f"grid must lie within horizon {horizon}, got {grid}")
    return grid


def check_grid(grid, horizon: int) -> np.ndarray:
    """The tau grid of a curve up to ``horizon``: :func:`log_tau_grid` when
    ``grid`` is None, else ``grid`` as int64 points.  A grid is 1-D, holds
    integers (integral floats count), starts at 0 and strictly increases
    within the horizon, past which first-change times say nothing about
    survival; any other raises :class:`InvalidSpecError`, as does a
    horizon that is not an integer >= 0."""
    check_count(horizon, 0, f"horizon T must be an integer >= 0, got {horizon}")
    if grid is None:
        return log_tau_grid(horizon)
    return _within(_grid_points(grid), horizon)


@dataclass
class PersistenceCurve:
    """Estimated cone-survival probabilities Q0 on an integer tau grid.

    ``meta`` records at least ``source`` (gp / matrix / renewal), the model
    description, ``N`` (or "inf") and the sample count.  ``tau`` follows
    the point rule of :func:`check_grid`: 1-D integers (integral floats
    count) that start at 0 and strictly increase.  A ``tau`` that breaks
    it, arrays of unequal shape, a Q0 that does not start at 1, is not in
    [0, 1] or increases, or an error that is not finite and >= 0 raises
    :class:`InvalidSpecError`.
    """

    tau: np.ndarray
    q0: np.ndarray
    stderr: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.tau = _grid_points(self.tau)
        self.q0 = np.asarray(self.q0, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if not (self.tau.shape == self.q0.shape == self.stderr.shape):
            raise InvalidSpecError("curve arrays must share one shape")
        if self.q0[0] != 1.0:
            raise InvalidSpecError("curves start at Q0(0) = 1")
        bad = ~((self.q0 >= 0.0) & (self.q0 <= 1.0))
        if bad.any():
            raise InvalidSpecError(f"survival probabilities must lie in [0, 1], got {self.q0[bad]}")
        bad = ~(np.isfinite(self.stderr) & (self.stderr >= 0.0))
        if bad.any():
            raise InvalidSpecError(f"standard errors must be finite and >= 0, got {self.stderr[bad]}")
        if np.any(np.diff(self.q0) > 1e-12):
            raise InvalidSpecError("survival probabilities must be non-increasing")

    @classmethod
    def from_first_change_times(
        cls, times, horizon: int, grid: np.ndarray | None = None, meta: dict | None = None
    ) -> "PersistenceCurve":
        """Build Q0 from per-realization first sign-change steps.

        ``times`` is a nonempty 1-D array of integers >= 1 (integral floats
        count); ``times[i] > horizon`` means realization i never changed
        sign within the horizon.  Q0(tau) is the fraction with ``times >
        tau``, on ``grid`` (default :func:`log_tau_grid` of the horizon),
        which must follow the constructor's point rule and lie within the
        horizon.  Other times, a grid that breaks either rule, or a horizon
        that is not an integer >= 0 raises :class:`InvalidSpecError`; the
        point rule is checked once, by the constructor.
        """
        check_count(horizon, 0, f"horizon T must be an integer >= 0, got {horizon}")
        times = integer_array(times, "first-change times")
        if times.ndim != 1 or times.size == 0:
            raise InvalidSpecError(f"no realizations: times must be nonempty and 1-D, got {times}")
        if times.min() < 1:
            raise InvalidSpecError(f"first-change times must be >= 1, got {times.min()}")
        n = times.size
        if grid is None:
            grid = log_tau_grid(horizon)
        survivors = n - np.searchsorted(np.sort(times), grid, side="right")
        q = survivors / n
        err = np.sqrt(np.clip(q * (1.0 - q), 0.0, None) / n)
        m = dict(meta or {})
        m.setdefault("n_samples", int(n))
        curve = cls(tau=grid, q0=q, stderr=err, meta=m)
        _within(curve.tau, horizon)
        return curve

    def positive_part(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tau, q0, stderr) restricted to tau >= 1 and q0 > 0, for log fits."""
        keep = (self.tau >= 1) & (self.q0 > 0)
        return self.tau[keep], self.q0[keep], self.stderr[keep]


@dataclass
class LyapunovSamples:
    """Empirical top growth rates, the cones' edge rates ``rates`` = (r1, r2),
    and the two-edge normalization (values - r1) / (r2 - r1) set from them
    (zeros when r1 = r2).  A non-finite value, rates that are not two
    finite numbers, or ``trapped`` or ``cycling`` flags of another shape
    than ``values`` raises :class:`InvalidSpecError`."""

    values: np.ndarray
    rates: tuple[float, float]
    trapped: np.ndarray
    cycling: np.ndarray
    meta: dict = field(default_factory=dict)
    normalized: np.ndarray = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise InvalidSpecError("growth-rate samples must be finite")
        rates = np.asarray(self.rates)
        if rates.shape != (2,) or rates.dtype.kind not in "iuf" or not np.isfinite(rates).all():
            raise InvalidSpecError(f"edge rates must be finite: two numbers, got {self.rates!r}")
        r1, r2 = self.rates
        self.normalized = (self.values - r1) / (r2 - r1) if r1 != r2 else np.zeros_like(self.values)
        self.trapped = np.asarray(self.trapped, dtype=bool)
        self.cycling = np.asarray(self.cycling, dtype=bool)
        if not self.trapped.shape == self.cycling.shape == self.values.shape:
            raise InvalidSpecError(
                f"trapped and cycling flags need the shape {self.values.shape} of the values, "
                f"got {self.trapped.shape} and {self.cycling.shape}"
            )
