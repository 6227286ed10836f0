"""Shared statistical estimation: log-log fits, KS distances, tail slopes.

Fit results use one sign convention throughout: ``exponent`` is the log-log
slope, so algebraically decaying data yields a negative exponent and the
decay index is its negation.

Both power-law fits read their input the same way (a survival curve with
its binomial errors, or an ``(x, y)`` pair with optional ``stderr``),
weight ln y by 1/stderr(ln y)^2, and solve one weighted least-squares
problem.  One error convention covers both: with point errors the exponent
error is sqrt of the diagonal entry of (X^T W X)^-1, without them of
s^2 (X^T X)^-1, s^2 being the residual variance.

The truncated fit has the one bound 1/T >= 0.  Its objective is a convex
quadratic, so the bounded optimum is the free optimum when that meets the
bound, and otherwise lies on the bound, where it is the pure power law.
The fit therefore solves the free problem once and, when the fitted
cut-off is negative or negligible (1/T * max(x) < 1e-10), returns
:func:`fit_powerlaw` over the same window with ``cutoff_rate = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .records import PersistenceCurve

__all__ = [
    "FitResult",
    "fit_powerlaw",
    "fit_truncated_powerlaw",
    "ks_distance",
    "empirical_cdf",
    "tail_exponent_at_edge",
]

# fewest window points fit_truncated_powerlaw accepts for its three parameters
TRUNCATED_FIT_MIN_POINTS = 8
# log-spaced density bins of tail_exponent_at_edge
_TAIL_BINS = 12


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


def _series(data, window, stderr, min_points: int):
    """Windowed (x, ln y, weights, window) of a fit's input.

    ``data`` is a :class:`PersistenceCurve` (its positive part and binomial
    errors) or an ``(x, y)`` pair with optional ``stderr``.  Weights are
    1/stderr(ln y)^2, or None unless every point has a positive error.
    """
    x, y, err = data.positive_part() if isinstance(data, PersistenceCurve) else (*data, stderr)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    win = (np.min(x), np.max(x)) if window is None else window
    win = (float(win[0]), float(win[1]))
    mask = (x >= win[0]) & (x <= win[1])
    x, y = x[mask], y[mask]
    if x.size < min_points:
        raise FitError(f"need >= {min_points} points in window {win}, have {x.size}")
    if np.any(y <= 0):
        raise FitError("power-law fit needs strictly positive values")
    weights = None
    if err is not None:
        rel = np.asarray(err, dtype=float)[mask] / y
        if not np.any(rel <= 0):
            weights = 1.0 / rel**2
    return x, np.log(y), weights, win


def _wls(design: np.ndarray, target: np.ndarray, weights, window) -> FitResult:
    """Weighted least-squares fit of ln y on [1, ln x] or [1, ln x, -x].

    With weights (1/sigma^2) the covariance is (X^T W X)^-1; without them
    it is s^2 (X^T X)^-1.  r^2 compares the unweighted residual with the
    spread of the target.
    """
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise FitError("degenerate design matrix")
    w = np.ones(len(target)) if weights is None else weights
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
    return FitResult(
        exponent=float(beta[1]),
        prefactor_log=float(beta[0]),
        cutoff_rate=float(beta[2]) if beta.size > 2 else 0.0,
        window=window,
        stderr_exponent=math.sqrt(max(cov[1, 1], 0.0)),
        r_squared=1.0 - float(resid @ resid) / tss if tss > 0 else 1.0,
    )


def fit_powerlaw(data, window=None, stderr=None) -> FitResult:
    """Weighted fit of ln y = a + exponent * ln x; ``exponent`` is the slope."""
    x, ly, weights, win = _series(data, window, stderr, 5)
    return _wls(np.column_stack([np.ones_like(x), np.log(x)]), ly, weights, win)


def fit_truncated_powerlaw(data, window=None, stderr=None) -> FitResult:
    """Weighted fit of ln y = a + exponent * ln x - x / T with 1/T >= 0.

    The free fit is the answer when 1/T * max(x) >= 1e-10; otherwise the
    bound is active and the result is :func:`fit_powerlaw` over the same
    window.
    """
    x, ly, weights, win = _series(data, window, stderr, TRUNCATED_FIT_MIN_POINTS)
    fit = _wls(np.column_stack([np.ones_like(x), np.log(x), -x]), ly, weights, win)
    if fit.cutoff_rate * float(np.max(x)) < 1e-10:
        return fit_powerlaw(data, window=window, stderr=stderr)
    return fit


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
    edges = np.geomspace(lo, hi, _TAIL_BINS + 1)
    counts, _ = np.histogram(z, bins=edges)
    widths = np.diff(edges)
    centers = np.sqrt(edges[:-1] * edges[1:])
    keep = counts > 0
    if np.count_nonzero(keep) < 5:
        raise FitError("too few occupied bins for a tail fit")
    dens = counts[keep] / (samples.size * widths[keep])
    err = dens / np.sqrt(counts[keep])  # Poisson: sigma(ln rho) = 1/sqrt(count)
    return fit_powerlaw((centers[keep], dens), stderr=err)
