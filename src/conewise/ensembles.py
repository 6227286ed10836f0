"""Random matrix sampling with reproducible seeding.

Three recipes cover the experiments:

* ``sample_goe`` -- symmetric Gaussian matrices whose limiting spectrum is
  the semicircle on ``[center - radius, center + radius]``,
* ``sample_invariant`` -- rotationally invariant matrices with a prescribed
  limiting density, built as ``Q diag(nu) Q^T`` with Haar-orthogonal ``Q``
  and eigenvalues placed at deterministic mid-quantiles (an ``iid`` mode
  draws them independently instead, for studies that need a fluctuating
  edge),
* ``sample_elliptic`` -- Gaussian matrices with correlation ``rho`` between
  transposed entries, interpolating symmetric (rho=1) and Ginibre-like
  (rho=0) statistics.

All samplers are pure functions of (parameters, seed).

GOE recipes also have a tridiagonal sampler, ``_goe_jacobi``: the leading
K x K block of the Householder tridiagonal form J = Q^T M Q (Q e1 = e1) of a
GOE matrix M, whose entries are independent (Dumitriu & Edelman, J. Math.
Phys. 43 (2002) 5830; Trotter, Adv. Math. 54 (1984) 67).  It costs O(K)
random numbers whatever N is, and serves the dynamics that only need
powers of M applied to e1 and the top eigenvalue.  ``_eigenvalues`` gives
the spectrum of one symmetric draw without forming the matrix: for GOE from
the whole tridiagonal form, for invariant ensembles the eigenvalues
``sample_invariant`` places.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import InvalidSpecError
from .seeding import rng_from_seed
from .spectra import SpectralModel, inverse_cdf, quantile_grid

__all__ = [
    "EnsembleSpec",
    "sample_goe",
    "sample_haar_orthogonal",
    "sample_invariant",
    "sample_elliptic",
]


def sample_goe(N: int, center: float, radius: float, seed: int) -> np.ndarray:
    """Symmetric Gaussian matrix with limiting semicircle on the given support.

    Off-diagonal entries have variance ``(radius/2)**2 / N`` and diagonal
    entries twice that, so the spectral edges converge to center +- radius.
    """
    if N < 2:
        raise InvalidSpecError(f"matrix dimension must be >= 2, got {N}")
    if radius <= 0:
        raise InvalidSpecError(f"radius must be > 0, got {radius}")
    rng = rng_from_seed(seed)
    sigma = radius / (2.0 * math.sqrt(N))
    g = rng.standard_normal((N, N))
    m = (g + g.T) * (sigma / math.sqrt(2.0))
    if center != 0.0:
        m[np.diag_indices(N)] += center
    return m


def _goe_jacobi(spec: "EnsembleSpec", K: int, rng: np.random.Generator):
    """(diag, offdiag) of the leading K x K block of a GOE's tridiagonal form.

    With sigma = radius / (2 sqrt(N)) the diagonal is center + sqrt(2) sigma
    N(0, 1) and the k-th off-diagonal entry sigma chi_{N-k}, all independent;
    the K diagonal normals are drawn first, then the K - 1 chi variates.
    1 <= K <= N; K = N gives the whole matrix, which has the spectrum law of
    ``sample_goe``.
    """
    n = spec.dimension
    sigma = spec.radius / (2.0 * math.sqrt(n))
    diag = spec.center + (math.sqrt(2.0) * sigma) * rng.standard_normal(K)
    offdiag = sigma * np.sqrt(rng.chisquare(np.arange(n - 1, n - K, -1)))
    return diag, offdiag


def sample_haar_orthogonal(N: int, seed: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix.

    QR of an iid Gaussian matrix, with each column of Q rescaled by the sign
    of the matching diagonal entry of R; plain QR is not Haar.
    """
    if N < 1:
        raise InvalidSpecError(f"matrix dimension must be >= 1, got {N}")
    return _haar_orthogonal(N, rng_from_seed(seed))


def _haar_orthogonal(N: int, rng: np.random.Generator) -> np.ndarray:
    """``sample_haar_orthogonal`` on a caller's stream (N * N normals)."""
    g = rng.standard_normal((N, N))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * np.where(d >= 0.0, 1.0, -1.0)


def sample_invariant(
    spec: SpectralModel, N: int, seed: int, placement: str = "quantile"
) -> np.ndarray:
    """Rotationally invariant matrix with limiting spectral density ``spec``.

    ``placement="quantile"`` puts eigenvalue i at CDF^{-1}((i-1/2)/N), which
    suppresses O(N^{-1/2}) density noise; ``placement="iid"`` draws them
    independently from the density (fluctuating edge).  One stream of
    ``seed`` gives the iid eigenvalues first, then the Haar frame, so the
    frame is independent of the spectrum.
    """
    if N < 2:
        raise InvalidSpecError(f"matrix dimension must be >= 2, got {N}")
    rng = rng_from_seed(seed)
    eigs = _placed_eigenvalues(spec, N, rng, placement)
    if spec.is_atomic:
        return np.diag(eigs)
    q = _haar_orthogonal(N, rng)
    m = (q * eigs) @ q.T
    return 0.5 * (m + m.T)


def _placed_eigenvalues(
    spec: SpectralModel, N: int, rng: np.random.Generator, placement: str
) -> np.ndarray:
    """The eigenvalues ``sample_invariant`` puts on its Haar frame.

    ``iid`` placement draws N uniforms from ``rng``; the other placements
    draw nothing.  The quantile grid is cached per (model, N) and must not
    be written to.
    """
    if spec.is_atomic:
        return np.full(N, float(spec.params[0]))
    if placement == "quantile":
        return quantile_grid(spec, N)
    if placement == "iid":
        return inverse_cdf(spec, rng.random(N))
    raise InvalidSpecError(f"unknown eigenvalue placement {placement!r}")


def _eigenvalues(ens: "EnsembleSpec", seed: int) -> np.ndarray:
    """Spectrum of one draw of a symmetric ensemble, in no particular order.

    It has the law of ``eigvalsh(ens.sample(seed))`` without forming the
    matrix: GOE draws come from the whole tridiagonal form, invariant ones
    are the eigenvalues ``sample_invariant`` places (equal to its draw's at
    the same seed).  Elliptic ensembles raise :class:`InvalidSpecError`.
    """
    if ens.kind == "goe":
        diag, off = _goe_jacobi(ens, ens.dimension, rng_from_seed(seed))
        return eigvalsh_tridiagonal(diag, off, check_finite=False)
    if ens.kind == "invariant":
        return _placed_eigenvalues(
            ens.spectral_model, ens.dimension, rng_from_seed(seed), ens.placement
        )
    raise InvalidSpecError("elliptic ensembles have a complex spectrum")


def sample_elliptic(N: int, rho: float, radius: float, seed: int) -> np.ndarray:
    """Gaussian matrix with Corr(M_ij, M_ji) = rho.

    ``sqrt((1+rho)/2) H + sqrt((1-rho)/2) W`` with H symmetric and W
    antisymmetric, entries of variance ``(radius/2)**2 / N``; rho=1 recovers
    the symmetric sampler exactly.
    """
    if N < 2:
        raise InvalidSpecError(f"matrix dimension must be >= 2, got {N}")
    if not 0.0 <= rho <= 1.0:
        raise InvalidSpecError(f"entry correlation must lie in [0, 1], got {rho}")
    if radius <= 0:
        raise InvalidSpecError(f"radius must be > 0, got {radius}")
    rng = rng_from_seed(seed)
    sigma = radius / (2.0 * math.sqrt(N))
    g1 = rng.standard_normal((N, N))
    h = (g1 + g1.T) * (sigma / math.sqrt(2.0))
    if rho == 1.0:
        return h
    g2 = rng.standard_normal((N, N))
    w = (g2 - g2.T) * (sigma / math.sqrt(2.0))
    return math.sqrt((1.0 + rho) / 2.0) * h + math.sqrt((1.0 - rho) / 2.0) * w


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for sampling one N x N random matrix.

    ``kind`` selects the sampler: ``goe(center, radius)``,
    ``invariant(spec)`` or ``elliptic(rho, radius)``.
    """

    kind: str
    dimension: int
    center: float = 0.0
    radius: float = 2.0
    rho: float = 1.0
    spectral_model: SpectralModel | None = None
    placement: str = "quantile"

    def __post_init__(self):
        if self.dimension < 2:
            raise InvalidSpecError(f"matrix dimension must be >= 2, got {self.dimension}")
        if self.kind not in ("goe", "invariant", "elliptic"):
            raise InvalidSpecError(f"unknown ensemble kind {self.kind!r}")
        if self.kind in ("goe", "elliptic") and self.radius <= 0:
            raise InvalidSpecError(f"radius must be > 0, got {self.radius}")
        if self.kind == "elliptic" and not 0.0 <= self.rho <= 1.0:
            raise InvalidSpecError(f"entry correlation must lie in [0, 1], got {self.rho}")
        if self.kind == "invariant" and self.spectral_model is None:
            raise InvalidSpecError("invariant ensembles need a spectral model")

    @classmethod
    def goe(cls, N: int, center: float = 0.0, radius: float = 2.0):
        return cls(kind="goe", dimension=N, center=center, radius=radius)

    @classmethod
    def invariant(cls, spec: SpectralModel, N: int, placement: str = "quantile"):
        return cls(kind="invariant", dimension=N, spectral_model=spec, placement=placement)

    @classmethod
    def elliptic(cls, N: int, rho: float, radius: float = 2.0):
        return cls(kind="elliptic", dimension=N, rho=rho, radius=radius)

    @property
    def nu_plus(self) -> float:
        """Upper spectral edge of the limiting density."""
        if self.kind == "goe":
            return self.center + self.radius
        if self.kind == "invariant":
            return self.spectral_model.nu_plus
        raise InvalidSpecError("elliptic ensembles have no real spectral edge")

    def sample(self, seed: int) -> np.ndarray:
        if self.kind == "goe":
            return sample_goe(self.dimension, self.center, self.radius, seed)
        if self.kind == "invariant":
            return sample_invariant(self.spectral_model, self.dimension, seed, self.placement)
        return sample_elliptic(self.dimension, self.rho, self.radius, seed)

    def describe(self) -> str:
        if self.kind == "goe":
            return f"goe(N={self.dimension}, center={self.center}, radius={self.radius})"
        if self.kind == "invariant":
            return f"invariant(N={self.dimension}, {self.spectral_model.describe()}, {self.placement})"
        return f"elliptic(N={self.dimension}, rho={self.rho}, radius={self.radius})"
