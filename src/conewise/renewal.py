"""Heavy-tailed renewal statistics of cone-residence times.

The matrix dynamics alternates residence intervals between the two cones.
Treating the intervals as iid draws from the discrete power law
``P(tau >= k) = (tau_min / k)**mu`` and accumulating per-interval log
growth ``g(tau)`` (truncating the interval that straddles the horizon)
turns the top growth rate ``lambda = Lambda / t`` into an occupation-time
functional.  For ``mu < 1`` its law converges to the two-edge Lamperti
density implemented here in closed form, together with the closed form of
its Stieltjes transform; for ``mu > 1`` the rate self-averages to
``(m1 + m2) / (2 m_tau)``.  Nothing here integrates numerically: the
quadrature routes for the CDF and the Stieltjes transform, which
cross-check the closed forms, live in ``tests/test_renewal.py``.

Every g is ``g(tau) = 1/2 ln f(2 tau)`` of a cone's spectral model, read by
``_g`` from one :func:`~conewise.spectral.g_array` table per (cones, horizon)
and past its end from ``g_array``; the point mass at e^r has g(tau) = r tau.

:func:`sample_renewal_lyapunov` advances all samples together in passes of
1024 intervals.  A pass runs in row blocks of 256 samples and column chunks
of 256 intervals, and a sample stops at its straddling interval.  The
uniforms still come from one stream in a fixed order (its docstring states
the seed contract), so no value depends on the blocks, and the working set
stays near 9 MB whatever the sample count.  Horizons are capped at 2**53,
below which the sampler's float64 clocks are exact.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

from .errors import DegenerateProcessError, InvalidSpecError, check_count
from .records import LyapunovSamples
from .seeding import check_seed, rng_from_seed
from .spectra import SpectralModel, edge_rate
from .spectral import g_array, log_moment_asymptotic

__all__ = [
    "LampertiParams",
    "RenewalConfig",
    "RenewalRun",
    "lamperti_pdf",
    "lamperti_cdf",
    "stieltjes_rhs",
    "sample_power_law_intervals",
    "interval_survival",
    "sample_renewal_lyapunov",
    "simulate_renewal_run",
    "self_averaging_value",
]


@dataclass(frozen=True)
class LampertiParams:
    """Two-edge occupation-time law parameters: edge rates r1, r2 and tail
    exponent mu in (0, 1)."""

    r1: float
    r2: float
    mu: float

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise InvalidSpecError(f"tail exponent must lie strictly in (0, 1), got {self.mu}")
        if not (math.isfinite(self.r1) and math.isfinite(self.r2)):
            raise InvalidSpecError(f"edge rates must be finite, got ({self.r1}, {self.r2})")
        if self.r1 == self.r2:
            raise InvalidSpecError("the density form needs distinct edge rates")

    @property
    def lo(self) -> float:
        return min(self.r1, self.r2)

    @property
    def hi(self) -> float:
        return max(self.r1, self.r2)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def lamperti_pdf(params: LampertiParams, lam) -> np.ndarray:
    """Density of the two-edge occupation-time law.

    Vanishes outside [min(r1,r2), max(r1,r2)]; evaluates to +inf exactly at
    the edges (the density diverges like |lam - r_i|**(mu-1)), which callers
    must handle.
    """
    lam = np.asarray(lam, dtype=float)
    mu = params.mu
    z1 = np.abs(lam - params.r1)
    z2 = np.abs(lam - params.r2)
    out = np.zeros_like(lam)
    inside = (lam >= params.lo) & (lam <= params.hi)
    at_edge = inside & ((z1 == 0.0) | (z2 == 0.0))
    core = inside & ~at_edge
    zz1, zz2 = z1[core], z2[core]
    num = (zz1 * zz2) ** (mu - 1.0)
    den = zz1 ** (2 * mu) + zz2 ** (2 * mu) + 2.0 * (zz1 * zz2) ** mu * math.cos(mu * math.pi)
    out[core] = params.width * math.sin(mu * math.pi) / math.pi * num / den
    out[at_edge] = np.inf
    return out


def lamperti_cdf(params: LampertiParams, lam) -> np.ndarray:
    """Distribution function of the two-edge law, in closed form.

    Antiderivative of the density under R = ((1-x)/x)**mu with
    x = (lam - lo)/width:  CDF = (pi/2 - arctan((R + cos mu pi)/sin mu pi))
    / (pi mu).
    """
    lam = np.asarray(lam, dtype=float)
    mu = params.mu
    x = np.clip((lam - params.lo) / params.width, 0.0, 1.0)
    out = np.empty_like(x)
    lo_edge = x <= 0.0
    hi_edge = x >= 1.0
    mid = ~(lo_edge | hi_edge)
    with np.errstate(divide="ignore"):
        r = ((1.0 - x[mid]) / x[mid]) ** mu
    out[mid] = (
        math.pi / 2.0 - np.arctan((r + math.cos(mu * math.pi)) / math.sin(mu * math.pi))
    ) / (math.pi * mu)
    out[lo_edge] = 0.0
    out[hi_edge] = 1.0
    return out


def stieltjes_rhs(params: LampertiParams, y: float) -> float:
    """Closed form of the Stieltjes transform of the two-edge law."""
    if not (math.isfinite(y) and y > params.hi):
        raise InvalidSpecError(
            f"transform point must be finite and exceed max(r1, r2) = {params.hi}, got {y}"
        )
    mu = params.mu
    a, b = y - params.r1, y - params.r2
    return (a ** (mu - 1.0) + b ** (mu - 1.0)) / (a**mu + b**mu)


def _interval_law(mu, tau_min) -> np.ndarray:
    """The tail exponents ``mu`` (a number or an array) of the interval law
    P(tau >= k) = (tau_min/k)**mu as floats; a mu that is not a finite real
    > 0, or a tau_min that is not an integer >= 1, raises
    :class:`InvalidSpecError`."""
    mu = np.asarray(mu)
    if mu.dtype.kind not in "iuf" or not np.all(np.isfinite(mu) & (mu > 0)):
        raise InvalidSpecError(f"tail exponents must be positive and finite, got {mu}")
    check_count(tau_min, 1, f"tau_min must be an integer >= 1, got {tau_min}")
    return mu.astype(float)


def sample_power_law_intervals(rng: np.random.Generator, mu, tau_min: int, size) -> np.ndarray:
    """Discrete power-law residence times: P(tau >= k) = (tau_min/k)**mu.

    Inverse-CDF construction, exact in distribution; returns float64 (values
    can exceed any integer range for small mu).  A mu that is not finite and
    > 0, or a tau_min that is not an integer >= 1, raises
    :class:`InvalidSpecError` before any draw.
    """
    mu = _interval_law(mu, tau_min)
    u = 1.0 - rng.random(size)  # in (0, 1]
    with np.errstate(over="ignore"):
        # inf is a legitimate draw: longer than any horizon
        return np.floor(tau_min * u ** (-1.0 / mu))


def interval_survival(mu: float, tau_min: int, k) -> np.ndarray:
    """Closed-form survival P(tau >= k) of the interval law; parameters
    are checked as in :func:`sample_power_law_intervals`."""
    mu = _interval_law(mu, tau_min)
    k = np.asarray(k, dtype=float)
    return np.where(k <= tau_min, 1.0, (tau_min / np.maximum(k, tau_min)) ** mu)


# the sampler's clocks are float64 whole numbers, exact up to here
_MAX_HORIZON = 1 << 53


@dataclass(frozen=True)
class RenewalConfig:
    """Alternating two-cone renewal simulation parameters.

    ``cones`` holds the two cones' spectral models, the one source of every
    g(tau) = 1/2 ln f(2 tau), and of its edge rate ln|nu_plus|
    (:attr:`rates`, which :func:`sample_renewal_lyapunov` puts on its
    record), so a cone with nu_plus = 0 raises :class:`InvalidSpecError`.
    A tuple or list of exactly two :class:`SpectralModel` is stored as a
    tuple; any other ``cones`` raises :class:`InvalidSpecError`.
    :meth:`linear_rates` cones are point masses at e^r: g(tau) = r tau, the
    long-interval limit of a cone with edge e^r.
    """

    mu1: float
    mu2: float
    tau_min: int
    horizon: int
    cones: tuple[SpectralModel, SpectralModel]
    seed: int = 0

    def __post_init__(self):
        for mu in (self.mu1, self.mu2):
            _interval_law(mu, self.tau_min)
        check_count(self.horizon, 1, f"horizon must be an integer >= 1, got {self.horizon}")
        if self.horizon > _MAX_HORIZON:
            raise InvalidSpecError(
                f"horizon must be at most 2**53 = {_MAX_HORIZON}, past which the sampler's "
                f"float64 clocks are not exact; got {self.horizon}"
            )
        if self.horizon < 10 * self.tau_min:
            raise InvalidSpecError("horizon must be >= 10 * tau_min")
        check_seed(self.seed)
        cones = self.cones
        if not (
            isinstance(cones, (tuple, list))
            and len(cones) == 2
            and all(isinstance(spec, SpectralModel) for spec in cones)
        ):
            raise InvalidSpecError(f"cones must be two SpectralModels, got {cones!r}")
        object.__setattr__(self, "cones", tuple(cones))  # hashable, for the g-table cache
        for spec in self.cones:
            edge_rate(spec)

    @classmethod
    def linear_rates(
        cls, mu1: float, mu2: float, r1: float, r2: float, tau_min: int, horizon: int, seed: int = 0
    ):
        """Cones growing by e^r1 and e^r2 per step: the point masses there.
        A rate whose e^r is not a normal float raises :class:`InvalidSpecError`."""
        for r in (r1, r2):
            if not math.log(sys.float_info.min) <= r < math.log(sys.float_info.max):
                raise InvalidSpecError(f"per-step rate {r} has no normal float e^r")
        cones = (SpectralModel.atomic(math.exp(r1)), SpectralModel.atomic(math.exp(r2)))
        return cls(mu1, mu2, tau_min, horizon, cones, seed)

    @classmethod
    def exact_spectral(
        cls,
        mu1: float,
        mu2: float,
        spec_a: SpectralModel,
        spec_b: SpectralModel,
        tau_min: int,
        horizon: int,
        seed: int = 0,
    ):
        return cls(mu1, mu2, tau_min, horizon, (spec_a, spec_b), seed)

    @property
    def rates(self) -> tuple[float, float]:
        """Long-interval growth rates (r1, r2) = edge log-eigenvalues."""
        a, b = self.cones
        return edge_rate(a), edge_rate(b)


@dataclass
class RenewalRun:
    """One renewal realization: labeled intervals, the accumulated log
    growth, and the rate lambda = Lambda / horizon."""

    intervals: list  # (cone label 0/1, tau); the last entry is truncated
    lam_accumulator: float
    horizon: int

    @property
    def rate(self) -> float:
        return self.lam_accumulator / self.horizon

    def check_partition(self) -> bool:
        return sum(t for _, t in self.intervals) == self.horizon


# g is tabulated up to this order (or the horizon, if shorter); only lengths
# in the horizon reach g, as a drawn interval past it can be ~1e300 steps
_G_TABLE = 1 << 14
# intervals drawn per active sample and pass; even, so every pass starts in
# the sample's starting cone
_CHUNK = 1024
# samples per row block of a pass, and intervals per column chunk of a block
# (even, so every chunk starts in the cone its row starts the pass in)
_ROWS = 256
_COLS = 256


@functools.lru_cache(maxsize=32)
def _g_table(cones: tuple, horizon: int) -> np.ndarray:
    """Read-only (2, L) table of g(1..L) per cone, L = min(horizon,
    _G_TABLE), built once per (cones, horizon)."""
    taus = np.arange(1, min(horizon, _G_TABLE) + 1)
    table = np.stack([g_array(spec, taus) for spec in cones])
    table.flags.writeable = False
    return table


def _g(cfg: RenewalConfig, labels: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """g of each length in ``taus`` (whole numbers in 1..horizon) in the cone
    of its label: from the table, or from :func:`g_array` past its end."""
    table = _g_table(cfg.cones, cfg.horizon)
    size = table.shape[1]
    g = table[labels, np.minimum(taus, size).astype(np.int64) - 1]
    past = taus > size
    if past.any():
        for which, spec in enumerate(cfg.cones):
            m = past & (labels == which)
            if m.any():
                g[m] = g_array(spec, taus[m].astype(np.int64))
    return g


def _block_pass(
    cfg: RenewalConfig, u: np.ndarray, first: np.ndarray, t_done: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass of a row block: row i turns ``u[i]`` (uniforms in (0, 1])
    into up to _CHUNK intervals, starting in cone ``first[i]`` at time
    ``t_done[i]`` (advanced in place).

    Returns, per row, g summed over the pass's closed intervals, g of the
    straddling interval (0 if the row passes through), and whether the row
    passes through.  Work runs in column chunks and a row stops at its
    straddling interval; the closed g still sum over a zero-filled
    _CHUNK-wide row, so the pairwise summation order does not depend on the
    chunks.  Lengths past the g table go through ``_g`` once, at the end.
    The clocks are float64 whole numbers below 2**53, so every closed end
    time, and the count of closed intervals, is exact in any association.
    """
    table = _g_table(cfg.cones, cfg.horizon)
    size = table.shape[1]
    flat = table.ravel()
    horizon = float(cfg.horizon)
    # cone, exponent -1/mu and flat-table offset of each column of a chunk,
    # by the row's starting cone
    labels = np.arange(2)[:, None] ^ (np.arange(_COLS) % 2)
    expo = -1.0 / np.array([cfg.mu1, cfg.mu2])[labels]
    offs = labels * size - 1
    rows = u.shape[0]
    # g of the closed intervals, and in the last column g of the straddle
    gbuf = np.zeros((rows, _CHUNK + 1))
    live = np.arange(rows)  # rows whose straddling interval is still ahead
    past = []  # (flat index into gbuf, length, cone) of lengths past the table
    for c0 in range(0, _CHUNK, _COLS):
        s = first[live]
        taus = np.power(u[live, c0 : c0 + _COLS], expo[s])
        if cfg.tau_min != 1:  # x * 1 is x
            taus *= cfg.tau_min
        np.floor(taus, out=taus)
        csum = np.cumsum(taus, axis=1)
        csum += t_done[live, None]
        closed = csum < horizon  # a prefix of each row, as csum never falls
        g = np.take(flat, np.minimum(taus, size).astype(np.int64) + offs[s])
        stay = closed[:, -1]  # rows that close every interval of the chunk
        out = np.flatnonzero(~stay)  # the others, whose straddle is here
        k = np.argmin(closed[out], axis=1)  # their closed intervals
        g[out] = np.where(np.arange(_COLS) < k[:, None], g[out], 0.0)
        gbuf[live, c0 : c0 + _COLS] = g
        r, c = np.divmod(np.flatnonzero(closed & (taus > size)), _COLS)
        past.append((live[r] * (_CHUNK + 1) + c0 + c, taus[r, c], labels[s[r], c]))
        # the straddle's in-horizon length follows the row's closed intervals
        length = horizon - np.where(k > 0, csum[out, k - 1], t_done[live[out]])
        at = live[out] * (_CHUNK + 1) + _CHUNK
        gbuf.flat[at] = np.take(flat, np.minimum(length, size).astype(np.int64) + offs[s[out], k])
        over = length > size
        past.append((at[over], length[over], labels[s[out], k][over]))
        t_done[live[stay]] = csum[stay, -1]
        live = live[stay]
        if not live.size:
            break
    pos, lengths, cones = (np.concatenate(part) for part in zip(*past))
    gbuf.flat[pos] = _g(cfg, cones, lengths)
    through = np.zeros(rows, dtype=bool)
    through[live] = True
    return gbuf[:, :_CHUNK].sum(axis=1), gbuf[:, _CHUNK], through


def sample_renewal_lyapunov(cfg: RenewalConfig, n_samples: int) -> LyapunovSamples:
    """Monte-Carlo top growth rates from the alternating renewal model.

    Per sample: the starting cone is a fair coin, labels then alternate
    strictly, and residence times are drawn from the discrete power law of
    the active cone.  An interval that ends before the horizon adds its full
    g(tau); the one that straddles the horizon adds g of its in-horizon
    length only.  The rate is the sum divided by the horizon.  g comes from
    a table per cone (``g_array``, r tau for a point mass at e^r), and
    lengths past it through ``_g``, one call per row block.  The
    record's ``rates`` are ``cfg.rates``; ``meta`` does not repeat them.

    Seed contract: the generator of ``cfg.seed`` first draws the n starting
    cones, then, per pass over the samples still short of the horizon (the
    active samples, in increasing index), an (active, 1024) array of
    uniforms row by row; a sample's intervals are ``floor(tau_min u **
    (-1/mu))``.  The pass runs in row blocks of 256 samples and column
    chunks of 256 intervals, and a sample stops at its straddling interval;
    neither changes which uniform feeds which interval, so a sample's value
    depends only on the seed and n.  The working set is a few (256, 1024)
    float64 blocks, under 10 MB, plus O(n) per-sample arrays, whatever n.

    For mu < 1 the rate's law reaches the two-edge Lamperti law only as the
    horizon grows (g(tau) has an O(ln tau) correction to the edge rate, and
    the last interval is cut).  For ``exact_spectral(0.5, 0.5,
    symmetric_beta(3), semicircle(0, 1.5), tau_min=1)`` the KS distance of
    40000 samples to :func:`lamperti_cdf` is about 0.060 at horizon 1e4,
    0.020 at 1e5 and 0.0066-0.0080 at 1e6, falling about 3x per decade; a
    sample of more than (1.63 / distance)**2 values tells the two laws apart.
    """
    check_count(n_samples, 1, f"sample count must be an integer >= 1, got {n_samples}")
    rng = rng_from_seed(cfg.seed)
    lam_total = np.zeros(n_samples)
    t_done = np.zeros(n_samples)
    start = rng.integers(0, 2, size=n_samples).astype(np.int8)  # starting cone label per sample
    active = np.arange(n_samples)

    with np.errstate(over="ignore"):  # inf is a legitimate draw: longer than any horizon
        while active.size:
            through = []
            for i in range(0, active.size, _ROWS):
                rows = active[i : i + _ROWS]
                u = 1.0 - rng.random((rows.size, _CHUNK))  # in (0, 1]
                clock = t_done[rows]
                closed_g, straddle, passing = _block_pass(cfg, u, start[rows], clock)
                lam_total[rows] += closed_g
                lam_total[rows] += straddle  # 0 for rows that pass through
                t_done[rows] = clock
                through.append(rows[passing])
            active = np.concatenate(through)

    meta = {
        "source": "renewal",
        "mu": (cfg.mu1, cfg.mu2),
        "tau_min": cfg.tau_min,
        "horizon": cfg.horizon,
        "n_samples": n_samples,
        "seed": cfg.seed,
    }
    none = np.zeros(n_samples, dtype=bool)
    return LyapunovSamples(lam_total / cfg.horizon, cfg.rates, none, none, meta)


def simulate_renewal_run(cfg: RenewalConfig) -> RenewalRun:
    """Single renewal realization with full interval bookkeeping, drawn
    from ``cfg.seed``; ``dataclasses.replace(cfg, seed=k)`` gives run k."""
    rng = rng_from_seed(cfg.seed)
    mus = (cfg.mu1, cfg.mu2)
    label = int(rng.integers(0, 2))
    t = 0
    lam = 0.0
    intervals = []
    while t < cfg.horizon:
        tau_f = float(sample_power_law_intervals(rng, mus[label], cfg.tau_min, ()))
        tau = int(min(tau_f, cfg.horizon - t))  # truncate the straddling interval
        lam += float(_g(cfg, np.array([label]), np.array([tau]))[0])
        intervals.append((label, tau))
        t += tau
        label = 1 - label
    return RenewalRun(intervals=intervals, lam_accumulator=lam, horizon=cfg.horizon)


def self_averaging_value(
    spec_a: SpectralModel, spec_b: SpectralModel, mu: float, tau_min: int = 1
) -> float:
    """Deterministic large-time rate (m1 + m2) / (2 m_tau) for mu > 1.

    m_i = E[g_i(tau)] and m_tau = E[tau] over the discrete power law; the
    linear part of g is summed exactly through Hurwitz zeta values and the
    logarithmic remainder numerically with an integral tail estimate
    (relative accuracy ~1e-8).
    """
    if not math.isfinite(mu):
        raise InvalidSpecError(f"tail exponent must be finite, got {mu}")
    if mu <= 1.0:
        raise DegenerateProcessError(
            f"mean residence time diverges for mu = {mu} <= 1; no self-averaging value"
        )
    check_count(tau_min, 1, f"tau_min must be an integer >= 1, got {tau_min}")
    rates = edge_rate(spec_a), edge_rate(spec_b)
    # E[tau] = (tau_min - 1) + tau_min^mu * Hurwitz_zeta(mu, tau_min)
    m_tau = (tau_min - 1.0) + tau_min**mu * float(zeta(mu, tau_min))

    k_max = 1 << 20
    ks = np.arange(tau_min, k_max + 1, dtype=np.int64)
    surv = (tau_min / ks.astype(float)) ** mu
    pk = surv - np.append(surv[1:], (tau_min / (k_max + 1.0)) ** mu)

    def m_of(spec: SpectralModel, rate: float) -> float:
        resid = g_array(spec, ks) - rate * ks.astype(float)
        main = rate * m_tau + float(np.dot(pk, resid))
        # tail of the residual sum: g(k) - r k -> c0 - (alpha+1)/2 ln(2k)
        if spec.alpha is not None:
            c0 = 0.5 * (log_moment_asymptotic(spec, 2.0 * k_max) - 2.0 * k_max * rate) + (
                0.5 * (spec.alpha + 1.0)
            ) * math.log(2.0 * k_max)
            beta = 0.5 * (spec.alpha + 1.0)
            s_tail = (tau_min / (k_max + 1.0)) ** mu
            log_term = s_tail * (math.log(2.0 * (k_max + 1.0)) + 1.0 / mu)
            main += s_tail * c0 - beta * log_term
        return main

    return (m_of(spec_a, rates[0]) + m_of(spec_b, rates[1])) / (2.0 * m_tau)
