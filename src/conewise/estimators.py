"""Shared statistical estimation: log-log fits, KS distances, tail slopes.

Fit results use one sign convention throughout: ``exponent`` is the log-log
slope, so algebraically decaying data yields a negative exponent and the
decay index is its negation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import lsq_linear

from .errors import FitError
from .records import PersistenceCurve
from .seeding import rng_from_seed

__all__ = [
    "FitResult",
    "fit_powerlaw",
    "fit_truncated_powerlaw",
    "fit_persistence_curve",
    "ks_distance",
    "empirical_cdf",
    "tail_exponent_at_edge",
]

# fewest window points fit_truncated_powerlaw accepts for its three parameters
TRUNCATED_FIT_MIN_POINTS = 8


@dataclass
class FitResult:
    exponent: float
    prefactor_log: float
    cutoff_rate: float  # 1/T of the exponential factor; 0 for a pure power law
    window: tuple[float, float]
    stderr_exponent: float
    r_squared: float

    def __post_init__(self):
        if not self.window[0] < self.window[1]:
            raise FitError(f"fit window must be increasing, got {self.window}")
        if self.stderr_exponent < 0:
            raise FitError("negative exponent error")


def _coerce_series(data, stderr):
    if isinstance(data, PersistenceCurve):
        x, y, err = data.positive_part()
        return np.asarray(x, dtype=float), y, err
    x, y = data
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    err = None if stderr is None else np.asarray(stderr, dtype=float)
    return x, y, err


def _window_mask(x, window):
    if window is None:
        return np.ones_like(x, dtype=bool), (float(np.min(x)), float(np.max(x)))
    lo, hi = float(window[0]), float(window[1])
    return (x >= lo) & (x <= hi), (lo, hi)


def _wls(design: np.ndarray, target: np.ndarray, weights: np.ndarray | None):
    """Weighted least squares with its parameter covariance.

    With supplied weights (1/sigma^2) the covariance is (X^T W X)^-1; without
    them the residual variance estimate s^2 (X^T X)^-1 is used.
    """
    if weights is None:
        w = np.ones(len(target))
    else:
        w = weights
    xtw = design.T * w
    gram = xtw @ design
    try:
        cov = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise FitError("degenerate design matrix") from exc
    beta = cov @ (xtw @ target)
    resid = target - design @ beta
    dof = max(len(target) - design.shape[1], 1)
    if weights is None:
        cov = cov * float(resid @ resid) / dof
    tss = float(np.sum((target - target.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / tss if tss > 0 else 1.0
    return beta, cov, r2


def fit_powerlaw(
    data,
    window=None,
    stderr=None,
    bootstrap: int = 0,
    seed: int = 0,
) -> FitResult:
    """Weighted log-log line fit; ``exponent`` is the slope.

    ``data`` is a :class:`PersistenceCurve` or an ``(x, y)`` pair.  Weights
    are 1/stderr(ln y)^2 when point errors are available.  ``bootstrap`` > 0
    replaces the covariance error with the spread over that many resamples.
    """
    x, y, err = _coerce_series(data, stderr)
    mask, win = _window_mask(x, window)
    x, y = x[mask], y[mask]
    err = None if err is None else err[mask]
    if x.size < 5:
        raise FitError(f"need >= 5 points in window {win}, have {x.size}")
    if np.any(y <= 0):
        raise FitError("power-law fit needs strictly positive values")
    lx, ly = np.log(x), np.log(y)
    weights = None
    if err is not None:
        rel = err / y
        if np.any(rel <= 0):
            weights = None
        else:
            weights = 1.0 / rel**2
    design = np.column_stack([np.ones_like(lx), lx])
    beta, cov, r2 = _wls(design, ly, weights)
    stderr_slope = math.sqrt(max(cov[1, 1], 0.0))
    if bootstrap > 0:
        rng = rng_from_seed(seed)
        slopes = np.empty(bootstrap)
        for b in range(bootstrap):
            idx = rng.integers(0, x.size, x.size)
            bi, _, _ = _wls(design[idx], ly[idx], None if weights is None else weights[idx])
            slopes[b] = bi[1]
        stderr_slope = float(np.std(slopes, ddof=1))
    return FitResult(
        exponent=float(beta[1]),
        prefactor_log=float(beta[0]),
        cutoff_rate=0.0,
        window=win,
        stderr_exponent=stderr_slope,
        r_squared=r2,
    )


def fit_truncated_powerlaw(data, window=None, stderr=None) -> FitResult:
    """Fit ln y = a + exponent * ln x - x / T with the constraint 1/T >= 0.

    Bounded least squares (BVLS) on (a, -exponent, 1/T); a pure power law
    pins the cutoff rate at the zero boundary and reduces to
    :func:`fit_powerlaw`.
    """
    x, y, err = _coerce_series(data, stderr)
    mask, win = _window_mask(x, window)
    x, y = x[mask], y[mask]
    err = None if err is None else err[mask]
    if x.size < TRUNCATED_FIT_MIN_POINTS:
        raise FitError(
            f"need >= {TRUNCATED_FIT_MIN_POINTS} points in window {win}, have {x.size}"
        )
    if np.any(y <= 0):
        raise FitError("truncated power-law fit needs strictly positive values")
    lx, ly = np.log(x), np.log(y)
    design = np.column_stack([np.ones_like(lx), -lx, -x])
    target = ly.copy()
    weights = None
    if err is not None:
        rel = err / y
        if np.all(rel > 0):
            weights = 1.0 / rel**2
    if weights is not None:
        sw = np.sqrt(weights)
        design_w, target_w = design * sw[:, None], target * sw
    else:
        design_w, target_w = design, target
    if np.linalg.matrix_rank(design_w) < 3:
        raise FitError("degenerate design matrix for truncated power-law fit")
    sol = lsq_linear(
        design_w,
        target_w,
        bounds=([-np.inf, -np.inf, 0.0], [np.inf, np.inf, np.inf]),
        method="bvls",
        tol=1e-14,
    )
    if not sol.success:
        raise FitError(f"bounded least squares failed: {sol.message}")
    a, mu, rate = sol.x
    if rate * float(np.max(x)) < 1e-10:
        # exponential factor indistinguishable from 1 across the window:
        # the constraint is active, refit the pure power law
        pure = fit_powerlaw((x, y), stderr=err)
        return FitResult(
            exponent=pure.exponent,
            prefactor_log=pure.prefactor_log,
            cutoff_rate=0.0,
            window=win,
            stderr_exponent=pure.stderr_exponent,
            r_squared=pure.r_squared,
        )
    # covariance over the active parameter set
    if rate > 0:
        active = design_w
    else:
        active = design_w[:, :2]
    _, cov, r2 = _wls(active, target_w, None)
    stderr_mu = math.sqrt(max(cov[1, 1], 0.0))
    return FitResult(
        exponent=float(-mu),
        prefactor_log=float(a),
        cutoff_rate=float(rate),
        window=win,
        stderr_exponent=stderr_mu,
        r_squared=r2,
    )


def fit_persistence_curve(curve: PersistenceCurve, window, truncated: bool = False) -> FitResult:
    """Window-restricted fit of a survival curve with its binomial weights."""
    tau, q, err = curve.positive_part()
    fit = fit_truncated_powerlaw if truncated else fit_powerlaw
    return fit((tau, q), window=window, stderr=err)


def empirical_cdf(samples: np.ndarray):
    """Right-continuous empirical CDF as a callable."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size

    def cdf(x):
        return np.searchsorted(s, np.asarray(x, dtype=float), side="right") / n

    return cdf


def ks_distance(samples, cdf) -> float:
    """sup_x |empirical CDF - cdf(x)| over the sample points."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n < 10:
        raise FitError(f"KS distance needs >= 10 samples, got {n}")
    f = np.asarray(cdf(s), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(hi - f), np.abs(f - lo))))


def tail_exponent_at_edge(
    samples,
    edge: float,
    side: str = "above",
    window_fractions: tuple[float, float] = (1e-6, 1e-3),
    scale: float | None = None,
    bins: int = 12,
) -> FitResult:
    """Log-log slope of the sample density of |x - edge| near an edge.

    The window is ``window_fractions`` times ``scale`` (default: the sample
    span); densities come from log-spaced bins with Poisson weights.  For a
    density diverging like |x - edge|**(mu - 1) the fitted exponent is mu-1.
    """
    samples = np.asarray(samples, dtype=float)
    if side == "above":
        z = samples - edge
    elif side == "below":
        z = edge - samples
    else:
        raise FitError(f"side must be 'above' or 'below', got {side!r}")
    if scale is None:
        scale = float(samples.max() - samples.min())
    lo, hi = window_fractions[0] * scale, window_fractions[1] * scale
    z = z[(z >= lo) & (z <= hi)]
    if z.size < 1000:
        raise FitError(f"only {z.size} tail samples in the window; need >= 1000")
    edges = np.geomspace(lo, hi, bins + 1)
    counts, _ = np.histogram(z, bins=edges)
    widths = np.diff(edges)
    centers = np.sqrt(edges[:-1] * edges[1:])
    keep = counts > 0
    if np.count_nonzero(keep) < 5:
        raise FitError("too few occupied bins for a tail fit")
    dens = counts[keep] / (samples.size * widths[keep])
    err = dens / np.sqrt(counts[keep])  # Poisson: sigma(ln rho) = 1/sqrt(count)
    return fit_powerlaw((centers[keep], dens), stderr=err)
