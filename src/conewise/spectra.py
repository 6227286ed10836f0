"""Compactly supported eigenvalue densities with upper-edge data.

A :class:`SpectralModel` bundles a density rho on ``[nu_minus, nu_plus]``
with the behaviour near its upper edge, ``rho(nu) ~ K |nu - nu_plus|**alpha``.
Four families are supported:

* ``semicircle`` -- semicircle law shifted/scaled to ``[center-r, center+r]``
  (``alpha = 1/2``),
* ``beta`` -- symmetric Beta(d/2, d/2) on ``[0, 1]`` (``alpha = d/2 - 1``),
* ``atomic`` -- a single point mass,
* ``tabulated`` -- piecewise-linear density on a user grid.

For the closed-form families ``alpha`` and the edge constant are computed,
never user-supplied.  All models hash, so moment caches can key on them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaln

from .errors import InvalidSpecError

__all__ = ["SpectralModel", "edge_rate", "inverse_cdf"]


@dataclass(frozen=True)
class SpectralModel:
    """A compactly supported spectral density with edge metadata.

    Build instances through :meth:`semicircle`, :meth:`symmetric_beta`,
    :meth:`atomic` or :meth:`tabulated`, not the raw constructor.
    """

    family: str
    params: tuple
    nu_minus: float
    nu_plus: float
    alpha: float | None
    edge_constant: float | None

    # -- constructors ----------------------------------------------------

    @classmethod
    def semicircle(cls, center: float = 0.0, radius: float = 2.0) -> "SpectralModel":
        if radius <= 0:
            raise InvalidSpecError(f"semicircle radius must be > 0, got {radius}")
        center, radius = float(center), float(radius)
        # rho(nu) = 2/(pi r^2) sqrt(r^2 - (nu-c)^2); near the upper edge this
        # is ~ [2 sqrt(2r)/(pi r^2)] * sqrt(nu_plus - nu).
        k = 2.0 * math.sqrt(2.0 * radius) / (math.pi * radius**2)
        return cls(
            family="semicircle",
            params=(center, radius),
            nu_minus=center - radius,
            nu_plus=center + radius,
            alpha=0.5,
            edge_constant=k,
        )

    @classmethod
    def symmetric_beta(cls, d: float) -> "SpectralModel":
        """Beta(d/2, d/2) density on [0, 1]; ``d`` need not be an integer."""
        if d <= 0:
            raise InvalidSpecError(f"symmetric beta requires d > 0, got {d}")
        a = float(d) / 2.0
        k = math.exp(-betaln(a, a))  # rho ~ K |1-nu|^(a-1) at the upper edge
        return cls(
            family="beta",
            params=(float(d),),
            nu_minus=0.0,
            nu_plus=1.0,
            alpha=a - 1.0,
            edge_constant=k,
        )

    @classmethod
    def atomic(cls, nu: float) -> "SpectralModel":
        nu = float(nu)
        return cls(
            family="atomic",
            params=(nu,),
            nu_minus=nu,
            nu_plus=nu,
            alpha=None,
            edge_constant=None,
        )

    @classmethod
    def tabulated(
        cls,
        nus,
        rhos,
        alpha: float | None = None,
        edge_constant: float | None = None,
    ) -> "SpectralModel":
        """Piecewise-linear density through the points ``(nus, rhos)``,
        scaled to unit mass.

        The edge exponent cannot be inferred reliably from a finite table, so
        ``alpha``/``edge_constant`` are caller-supplied (operations that need
        them reject models where they are absent); a given ``alpha`` must be
        finite and > -1, a given ``edge_constant`` finite and > 0.
        """
        nus = np.asarray(nus, dtype=float)
        rhos = np.asarray(rhos, dtype=float)
        if nus.ndim != 1 or nus.shape != rhos.shape or nus.size < 2:
            raise InvalidSpecError("tabulated density needs matching 1-d grids, >= 2 points")
        if np.any(np.diff(nus) <= 0):
            raise InvalidSpecError("tabulated grid must be strictly increasing")
        if np.any(rhos < 0):
            raise InvalidSpecError("tabulated density must be nonnegative (CDF must be monotone)")
        mass = float(np.trapezoid(rhos, nus))
        if not (math.isfinite(mass) and mass > 0):
            raise InvalidSpecError(f"tabulated density needs a finite, nonzero mass, got {mass}")
        rhos = rhos / mass
        return cls(
            family="tabulated",
            params=(tuple(nus.tolist()), tuple(rhos.tolist())),
            nu_minus=float(nus[0]),
            nu_plus=float(nus[-1]),
            alpha=None if alpha is None else float(alpha),
            edge_constant=None if edge_constant is None else float(edge_constant),
        )

    def __post_init__(self):
        if not np.all(np.isfinite(np.hstack([*self.params, self.nu_minus, self.nu_plus]))):
            raise InvalidSpecError(f"{self.family} model needs finite parameters and support")
        if self.family != "atomic" and not self.nu_minus < self.nu_plus:
            raise InvalidSpecError("support must satisfy nu_minus < nu_plus")
        if self.alpha is not None and not (math.isfinite(self.alpha) and self.alpha > -1.0):
            raise InvalidSpecError(f"edge exponent must be finite and > -1, got {self.alpha}")
        if self.edge_constant is not None and not (
            math.isfinite(self.edge_constant) and self.edge_constant > 0.0
        ):
            raise InvalidSpecError(
                f"edge constant must be finite and > 0, got {self.edge_constant}"
            )

    # -- basic queries ----------------------------------------------------

    @property
    def is_atomic(self) -> bool:
        return self.family == "atomic"

    @property
    def symmetric_about_zero(self) -> bool:
        """Exact sign-symmetry of the support and density, the flag by which
        the moment engine zeroes odd moments."""
        if self.family in ("semicircle", "atomic"):
            return self.params[0] == 0.0
        if self.family == "tabulated":
            nus, rhos = np.asarray(self.params[0]), np.asarray(self.params[1])
            return bool(
                np.allclose(nus, -nus[::-1], atol=1e-12) and np.allclose(rhos, rhos[::-1], atol=1e-12)
            )
        return False

    def describe(self) -> str:
        if self.family == "semicircle":
            return f"semicircle(center={self.params[0]}, radius={self.params[1]})"
        if self.family == "beta":
            return f"symmetric_beta(d={self.params[0]})"
        if self.family == "atomic":
            return f"atomic(nu={self.params[0]})"
        return f"tabulated({len(self.params[0])} points on [{self.nu_minus}, {self.nu_plus}])"

    # -- density / CDF ----------------------------------------------------

    def density(self, nu) -> np.ndarray:
        """rho(nu), vectorized; zero outside the support."""
        nu = np.asarray(nu, dtype=float)
        if self.family == "atomic":
            raise InvalidSpecError("atomic spectra have no density")
        out = np.zeros_like(nu, dtype=float)
        inside = (nu >= self.nu_minus) & (nu <= self.nu_plus)
        if self.family == "semicircle":
            c, r = self.params
            x = nu[inside] - c
            out[inside] = 2.0 / (math.pi * r**2) * np.sqrt(np.maximum(r**2 - x**2, 0.0))
        elif self.family == "beta":
            a = self.params[0] / 2.0
            x = nu[inside]
            vals = np.empty_like(x)
            interior = (x > 0.0) & (x < 1.0)
            with np.errstate(divide="ignore"):
                xi = x[interior]
                vals[interior] = np.exp(
                    (a - 1.0) * (np.log(xi) + np.log1p(-xi)) - betaln(a, a)
                )
            if a == 1.0:
                vals[~interior] = 1.0
            else:
                vals[~interior] = np.inf if a < 1.0 else 0.0
            out[inside] = vals
        else:
            nus, rhos = self.params
            out[inside] = np.interp(nu[inside], nus, rhos)
        return out

    def cdf(self, x) -> np.ndarray:
        """P(nu <= x), vectorized."""
        x = np.asarray(x, dtype=float)
        if self.family == "atomic":
            return (x >= self.params[0]).astype(float)
        xc = np.clip(x, self.nu_minus, self.nu_plus)
        if self.family == "semicircle":
            c, r = self.params
            z = (xc - c) / r
            val = 0.5 + (z * np.sqrt(np.maximum(1.0 - z**2, 0.0)) + np.arcsin(z)) / math.pi
        elif self.family == "beta":
            a = self.params[0] / 2.0
            val = betainc(a, a, xc)
        else:
            nus, rhos = (np.asarray(t) for t in self.params)
            cum = np.concatenate(
                [[0.0], np.cumsum(0.5 * (rhos[1:] + rhos[:-1]) * np.diff(nus))]
            )
            cum /= cum[-1]
            idx = np.clip(np.searchsorted(nus, xc, side="right") - 1, 0, len(nus) - 2)
            dx = xc - nus[idx]
            slope = (rhos[idx + 1] - rhos[idx]) / (nus[idx + 1] - nus[idx])
            val = cum[idx] + dx * (rhos[idx] + 0.5 * dx * slope)
            val = np.clip(val, 0.0, 1.0)
        return val

    def normalization_defect(self) -> float:
        """|integral of the density - 1|; zero to round-off for valid models."""
        if self.family == "atomic":
            return 0.0
        return abs(float(self.cdf(self.nu_plus)) - 1.0)


def edge_rate(model) -> float:
    """The edge growth rate ln|nu_plus| of a :class:`SpectralModel` or of a
    symmetric :class:`~conewise.ensembles.EnsembleSpec`; nu_plus = 0 raises
    :class:`InvalidSpecError` naming the model."""
    if model.nu_plus == 0.0:
        raise InvalidSpecError(
            f"the edge rate ln|nu_plus| needs nu_plus != 0; {model.describe()} has nu_plus = 0"
        )
    return math.log(abs(model.nu_plus))


def inverse_cdf(spec: SpectralModel, u):
    """Quantile of the spectral density: the least nu with CDF(nu) >= u.

    ``u`` is a scalar (a float is returned) or an array (an array of its
    shape is returned).  All levels are bisected at once: 60 halvings of
    the support, past round-off for any support width.
    """
    levels = np.asarray(u, dtype=float)
    bad = ~((levels >= 0.0) & (levels <= 1.0))
    if np.any(bad):
        raise InvalidSpecError(f"quantile level must be in [0, 1], got {levels[bad].flat[0]}")
    if spec.is_atomic:
        nu = np.full(levels.shape, spec.params[0])
    else:
        lo = np.full(levels.shape, spec.nu_minus)
        hi = np.full(levels.shape, spec.nu_plus)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = spec.cdf(mid) < levels
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        nu = np.where(levels <= 0.0, spec.nu_minus, np.where(levels >= 1.0, spec.nu_plus, hi))
    return float(nu) if nu.ndim == 0 else nu


@functools.lru_cache(maxsize=32)
def quantile_grid(spec: SpectralModel, n: int) -> np.ndarray:
    """The n equiprobable mid-quantiles CDF^{-1}((i - 1/2)/n), i = 1..n.

    Computed once per (model, n); the cached array is read-only.
    """
    if n < 1:
        raise InvalidSpecError("need at least one quantile")
    grid = inverse_cdf(spec, (np.arange(n) + 0.5) / n)
    grid.flags.writeable = False
    return grid
