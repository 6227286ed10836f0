"""Moments and correlators of spectral densities.

Everything here is driven by the t-th moment ``f(t) = integral rho(nu) nu**t``
of a :class:`~conewise.spectra.SpectralModel`.  Moments are held in log
space with an explicit sign so that spectra with upper edge above 1 never
overflow and sign-symmetric spectra keep exactly vanishing odd moments.

One engine, :func:`log_moments`, computes every order of every family by
one exact, vectorized route:

* atomic models, the Beta family and the centred semicircle: closed forms
  (powers, log-beta ratios and Catalan numbers);
* shifted semicircles: the three-term moment recurrence run on moment
  ratios, kept in one per-model table that grows on demand;
* tabulated densities: the closed-form moments of each linear piece,
  summed in log space, with exact zeros for the odd orders of a
  sign-symmetric table.

The other moment functions (:func:`log_moment_array`,
:func:`log_abs_moment`, :func:`moment_f`, :func:`correlator`,
:func:`g_function`, :func:`g_array`) are views of :func:`log_moments`.
Nothing here integrates numerically: the adaptive-quadrature moment route
that cross-checks the engine lives in ``tests/test_spectral.py``.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import betaln, gammaln

from .errors import DegenerateProcessError, InvalidSpecError, NumericalError
from .spectra import SpectralModel

__all__ = [
    "log_moments",
    "log_moment_array",
    "moment_f",
    "log_abs_moment",
    "moment_asymptotic",
    "correlator",
    "correlator_asymptotic",
    "g_function",
    "g_array",
    "effective_dimension",
    "theta_reference",
    "is_sign_symmetric",
    "persistence_exponent",
    "THETA_TABLE",
]

# Diffusion-equation persistence exponents theta(d) for integer dimensions.
THETA_TABLE: dict[int, float] = {
    1: 0.1205,
    2: 3.0 / 16.0,
    3: 0.2382,
    4: 0.2806,
    5: 0.3173,
}

_LOG_ZERO = -math.inf


def _signed_log_sum(la, sa, lb, sb):
    """(log|x|, sign) of x = sa*exp(la) + sb*exp(lb), elementwise; a
    difference that cancels to round-off (relative 1e-12) is an exact zero."""
    sa, sb = np.asarray(sa, dtype=np.int8), np.asarray(sb, dtype=np.int8)
    la, lb = np.where(sa == 0, _LOG_ZERO, la), np.where(sb == 0, _LOG_ZERO, lb)
    hi = np.maximum(la, lb)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.exp(np.minimum(la, lb) - hi)  # nan when both terms vanish
        logs = hi + np.log1p(np.where(sa == sb, ratio, -ratio))
    zero = (hi == _LOG_ZERO) | ((sa != sb) & (ratio >= 1.0 - 1e-12))
    signs = np.where(zero, 0, np.where(la >= lb, sa, sb)).astype(np.int8)
    return np.where(zero, _LOG_ZERO, logs), signs


def _shifted_semicircle_logs(c: float, r: float, kmax: int) -> np.ndarray:
    """log f(0..K), K >= kmax, of the semicircle of centre c > 0 and radius r.

    (t+2) f(t) = c(2t+1) f(t-1) + (r^2 - c^2)(t-1) f(t-2), f(0) = 1, f(1) = c
    (constant Jacobi parameters; Chihara 1978, ch. I).  For c > 0 the moments
    are positive and the dominant solution, so the forward recurrence on
    q(t) = f(t)/f(t-1) is stable; log f is the running sum of log q.  Growing
    the per-(c, r) table continues the same sequential sums, so no value
    depends on how the table was grown.
    """
    box = _semicircle_table(c, r)
    logs, q = box[0]
    if logs.size > kmax:
        return logs
    d = r * r - c * c
    ratios = []
    for t in range(logs.size, max(kmax + 1, 2 * logs.size)):
        q = (c * (2 * t + 1) + d * (t - 1) / q) / (t + 2)
        ratios.append(q)
    tail = np.cumsum(np.concatenate(([logs[-1]], np.log(ratios))))
    box[0] = (np.concatenate((logs, tail[1:])), q)
    return box[0][0]


@functools.lru_cache(maxsize=32)
def _semicircle_table(c: float, r: float) -> list:
    """The one moment cache: a box holding (log f(0..K), q(K)), from K = 1."""
    return [(np.array([0.0, math.log(c)]), c)]


def _table_side_logs(nus: np.ndarray, rhos: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """log of the integral of a piecewise-linear density times nu**k over
    nodes ``0 <= nus[0] < ... < nus[-1]`` (-inf for fewer than two nodes).

    On a piece [a, b] of width h the density is (rho_a (b-nu) + rho_b (nu-a))/h;
    the nonnegative weights integrate against nu**k to b**(k+2) times
    D- = E(n)/n - E(n+1)/(n+1) and D+ = E(n+1)/(n+1) - (a/b) E(n)/n, with
    n = k + 1 and E(n) = 1 - (a/b)**n = -expm1(n log1p(-h/b)).  The pieces
    are summed in log space.
    """
    if nus.size < 2:
        return np.full(ks.shape, _LOG_ZERO)
    a, b = nus[:-1], nus[1:]
    h = b - a
    with np.errstate(divide="ignore"):
        log_x = np.log1p(-h / b)  # -inf on a piece that starts at 0
    n = ks[:, None] + 1.0
    e_n = -np.expm1(n * log_x)
    e_n1 = -np.expm1((n + 1.0) * log_x)
    d_minus = e_n / n - e_n1 / (n + 1.0)
    d_plus = e_n1 / (n + 1.0) - (a / b) * e_n / n
    mass = (rhos[:-1] * d_minus + rhos[1:] * d_plus) / h
    with np.errstate(divide="ignore"):
        logs = (n + 1.0) * np.log(b) + np.log(mass)
    top = logs.max(axis=1)
    finite = np.isfinite(top)
    out = np.full(ks.shape, _LOG_ZERO)
    out[finite] = top[finite] + np.log(
        np.exp(logs[finite] - top[finite, None]).sum(axis=1)
    )
    return out


def _tabulated_log_moments(spec: SpectralModel, ks: np.ndarray):
    """(log|f(k)|, sign) of a tabulated density over a 1-d order array: the
    positive side and the mirrored negative side (split by a node at 0) are
    integrated in closed form and combined with the sign (-1)**k."""
    nus, rhos = (np.asarray(col) for col in spec.params)
    if nus[0] < 0.0 < nus[-1] and 0.0 not in nus:
        i = int(np.searchsorted(nus, 0.0))
        rhos = np.insert(rhos, i, np.interp(0.0, nus, rhos))
        nus = np.insert(nus, i, 0.0)
    pos, neg = nus >= 0.0, nus <= 0.0
    logs = np.empty(ks.shape)
    signs = np.empty(ks.shape, dtype=np.int8)
    # bound the (orders x pieces) work arrays to about 2**18 entries
    step = max(1, (1 << 18) // nus.size)
    for lo in range(0, ks.size, step):
        k = ks[lo : lo + step]
        log_pos = _table_side_logs(nus[pos], rhos[pos], k)
        log_neg = _table_side_logs(-nus[neg][::-1], rhos[neg][::-1], k)
        logs[lo : lo + step], signs[lo : lo + step] = _signed_log_sum(
            log_pos, 1, log_neg, np.where(k % 2 == 0, 1, -1)
        )
    return logs, signs


def log_moments(spec: SpectralModel, ks) -> tuple[np.ndarray, np.ndarray]:
    """(log|f(k)|, sign) over an integer array of orders k >= 0.

    The sign is +1, -1, or 0 for an exactly vanishing moment (log -inf).
    """
    ks = np.asarray(ks, dtype=np.int64)
    if np.any(ks < 0):
        raise InvalidSpecError(f"moment order must be >= 0, got {int(ks.min())}")
    if spec.family == "beta":
        a = spec.params[0] / 2.0
        return betaln(a + ks, a) - betaln(a, a), np.ones(ks.shape, dtype=np.int8)
    if spec.family == "atomic":
        nu = spec.params[0]
        if nu == 0.0:
            return np.where(ks == 0, 0.0, _LOG_ZERO), (ks == 0).astype(np.int8)
        signs = np.where((nu < 0.0) & (ks % 2 == 1), -1, 1).astype(np.int8)
        return np.where(ks == 0, 0.0, ks * math.log(abs(nu))), signs
    odd = ks % 2 == 1
    if spec.family == "semicircle":
        c, r = spec.params
        if c == 0.0:
            half = ks // 2
            log_catalan = gammaln(ks + 1.0) - 2.0 * gammaln(half + 1.0) - np.log(half + 1.0)
            logs = np.where(odd, _LOG_ZERO, log_catalan + ks * math.log(r / 2.0))
            return logs, (~odd).astype(np.int8)
        kmax = int(ks.max()) if ks.size else 0
        logs = _shifted_semicircle_logs(abs(c), r, kmax)[ks]
        # f_c(t) = (-1)**t f_{-c}(t)
        return logs, np.where(odd & (c < 0.0), -1, 1).astype(np.int8)
    logs, signs = _tabulated_log_moments(spec, ks.reshape(-1))
    logs, signs = logs.reshape(ks.shape), signs.reshape(ks.shape)
    if spec.symmetric_about_zero:
        logs[odd], signs[odd] = _LOG_ZERO, 0
    return logs, signs


def log_moment_array(spec: SpectralModel, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(log|f(k)|, sign) for k = 0..kmax."""
    return log_moments(spec, np.arange(kmax + 1))


def log_abs_moment(spec: SpectralModel, t: int) -> tuple[float, int]:
    """(log|f(t)|, sign) for one order."""
    logs, signs = log_moments(spec, [int(t)])
    return float(logs[0]), int(signs[0])


def moment_f(spec: SpectralModel, t: int) -> float:
    """t-th moment of the density (overflows to +-inf for |nu| > 1)."""
    logf, sign = log_abs_moment(spec, t)
    if sign == 0:
        return 0.0
    try:
        return sign * math.exp(logf)
    except OverflowError:
        return sign * math.inf


def moment_asymptotic(spec: SpectralModel, t: float) -> float:
    """Large-t edge estimate K * Gamma(alpha+1) * nu_plus**(t+alpha+1) * t**-(alpha+1)."""
    return math.exp(log_moment_asymptotic(spec, t))


def log_moment_asymptotic(spec: SpectralModel, t: float) -> float:
    if spec.alpha is None or spec.edge_constant is None:
        raise InvalidSpecError(
            f"edge exponent undefined for {spec.describe()}; no moment asymptotics"
        )
    if t < 1:
        raise InvalidSpecError("asymptotic moment needs t >= 1")
    if spec.nu_plus <= 0:
        raise InvalidSpecError("asymptotic moment assumes a positive upper edge")
    a = spec.alpha
    return (
        math.log(spec.edge_constant)
        + gammaln(a + 1.0)
        + (t + a + 1.0) * math.log(spec.nu_plus)
        - (a + 1.0) * math.log(t)
    )


def _correlation(spec: SpectralModel, logs: np.ndarray, signs: np.ndarray):
    """Entries (t, s) -> f(t+s)/sqrt(f(2t) f(2s)) on times 0..T, for
    broadcastable index arrays, from the moment table (logs, signs) of
    orders 0..2T; the diagonal is exactly 1."""
    if np.any(signs[::2] <= 0):
        raise DegenerateProcessError(f"vanishing even moment for {spec.describe()}")
    half = 0.5 * logs[::2]

    def entries(t, s):
        tot = t + s
        return np.where(t == s, 1.0, signs[tot] * np.exp(logs[tot] - half[t] - half[s]))

    return entries


def correlator(spec: SpectralModel, t: int, s: int) -> float:
    """Normalized two-time correlation f(t+s) / sqrt(f(2t) f(2s))."""
    if min(t, s) < 0:
        raise InvalidSpecError(f"correlator times must be >= 0, got ({t}, {s})")
    val = float(_correlation(spec, *log_moment_array(spec, 2 * max(t, s)))(t, s))
    if abs(val) > 1.0 + 1e-6:
        raise NumericalError(
            f"correlator({t},{s}) = {val!r} breaks the Cauchy-Schwarz bound; "
            "moments not accurate enough"
        )
    return float(np.clip(val, -1.0, 1.0))


def correlator_asymptotic(alpha: float, t: float, s: float) -> float:
    """(2 sqrt(ts) / (t+s)) ** (alpha+1), the late-time correlator."""
    if t <= 0 or s <= 0:
        raise InvalidSpecError("asymptotic correlator needs t, s > 0")
    return (2.0 * math.sqrt(t * s) / (t + s)) ** (alpha + 1.0)


def g_function(spec: SpectralModel, tau: int) -> float:
    """Per-interval log growth factor: g(tau) = 1/2 * ln f(2 tau)."""
    return float(g_array(spec, [tau])[0])


def g_array(spec: SpectralModel, taus: np.ndarray) -> np.ndarray:
    """g(tau) over an integer array of residence times tau >= 1."""
    taus = np.asarray(taus, dtype=np.int64)
    if np.any(taus < 1):
        raise InvalidSpecError(f"g is defined for tau >= 1, got {int(taus.min())}")
    logs, signs = log_moments(spec, 2 * taus)
    if np.any(signs <= 0):
        raise DegenerateProcessError(f"even moment vanished for {spec.describe()}")
    return 0.5 * logs


def effective_dimension(alpha: float) -> float:
    """Diffusion dimension matching the late-time correlator: d = 2(alpha+1)."""
    if alpha <= -1:
        raise InvalidSpecError(f"edge exponent must exceed -1, got {alpha}")
    return 2.0 * (alpha + 1.0)


def theta_reference(d: int) -> float:
    """Tabulated diffusion persistence exponent theta(d), d in 1..5."""
    if d not in THETA_TABLE:
        raise InvalidSpecError(
            f"theta is tabulated for d in {sorted(THETA_TABLE)} only (no interpolation); got {d}"
        )
    return THETA_TABLE[d]


def is_sign_symmetric(spec: SpectralModel) -> bool:
    """Exact sign-symmetry of the density, the flag by which the moment
    engine zeroes odd moments."""
    return spec.symmetric_about_zero


def persistence_exponent(spec: SpectralModel) -> float:
    """Predicted sign-persistence exponent for the renormalized first component.

    theta(2(alpha+1)) from the diffusion table, doubled when the spectrum is
    sign-symmetric (even- and odd-time subprocesses are then independent).
    """
    if spec.alpha is None:
        raise InvalidSpecError(f"edge exponent undefined for {spec.describe()}")
    if spec.alpha > 22:
        raise InvalidSpecError(
            "edge exponents above ~22 cross into the self-averaging regime and are "
            "outside the validated persistence table"
        )
    d = effective_dimension(spec.alpha)
    d_int = round(d)
    if abs(d - d_int) > 1e-9:
        raise InvalidSpecError(
            f"effective dimension {d} is not an integer in the tabulated range"
        )
    theta = theta_reference(d_int)
    return 2.0 * theta if is_sign_symmetric(spec) else theta
