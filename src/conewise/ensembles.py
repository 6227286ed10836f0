"""Random matrix sampling with reproducible seeding.

Three recipes cover the experiments, each built by an ``EnsembleSpec``
constructor and drawn by ``EnsembleSpec.sample``:

* ``goe`` -- symmetric Gaussian matrices whose limiting spectrum is the
  semicircle on ``[center - radius, center + radius]``,
* ``invariant`` -- rotationally invariant matrices with a prescribed
  limiting density, built as ``Q diag(nu) Q^T`` with Haar-orthogonal ``Q``
  and eigenvalues placed at deterministic mid-quantiles (an ``iid`` mode
  draws them independently instead, for studies that need a fluctuating
  edge),
* ``elliptic`` -- Gaussian matrices with correlation ``rho`` between
  transposed entries, interpolating symmetric (rho=1) and Ginibre-like
  (rho=0) statistics.

All draws are pure functions of (recipe, seed).

GOE and elliptic recipes also have a Hessenberg form: H = Q^T M^T Q, the
Householder upper-Hessenberg form of M^T with Q e1 = e1 (M^T has M's law).
With sigma = radius / (2 sqrt(N)) its entries are independent:

* H[k, k] = center + sqrt(1 + rho) sigma N(0, 1) (only GOE recipes take a
  centre; elliptic ones have center = 0),
* H[k+1, k] = sigma chi_{N-k-1},
* H[k, k+1] = rho H[k+1, k] + sqrt(1 - rho^2) sigma N(0, 1),
* H[k, j] = sqrt(1 - rho^2) sigma N(0, 1) for j >= k + 2, zero below the
  subdiagonal.

Each Householder step fixes e1 and is built from the first row of M; the
first column of M is rho times that row plus an independent part, and the
trailing block is again elliptic and independent of what came before.  At
rho = 1 (GOE) H is the symmetric tridiagonal form J (Dumitriu & Edelman,
J. Math. Phys. 43 (2002) 5830; Trotter, Adv. Math. 54 (1984) 67), and
``_goe_jacobi`` draws its leading K x K block from O(K) random numbers
whatever N is, for the dynamics that only need powers of M applied to e1
and for the top eigenvalue.  Persistence draws the standard variates for a
whole block of realizations and scales them with ``_hessenberg_entries``
and, for rho < 1, ``_hessenberg_upper``.  ``_eigenvalues`` gives the
spectrum of one symmetric draw without forming the matrix: for GOE from the
whole tridiagonal form, for invariant ensembles the eigenvalues an
invariant draw places on its Haar frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dorgqr

from .errors import InvalidSpecError, check_count
from .seeding import rng_from_seed
from .spectra import SpectralModel, inverse_cdf, quantile_grid

__all__ = ["EnsembleSpec", "sample_haar_orthogonal"]


# eigenvalue placements of invariant recipes (see ``EnsembleSpec.invariant``)
_PLACEMENTS = ("quantile", "iid")
# the recipe fields each kind's draws do not read
_UNREAD = {
    "goe": ("rho", "spectral_model", "placement"),
    "invariant": ("center", "radius", "rho"),
    "elliptic": ("center", "spectral_model", "placement"),
}


def _goe_jacobi(spec: "EnsembleSpec", K: int, rng: np.random.Generator):
    """(diag, offdiag) of the leading K x K block of a GOE's tridiagonal form.

    With sigma = radius / (2 sqrt(N)) the diagonal is center + sqrt(2) sigma
    N(0, 1) and the k-th off-diagonal entry sigma chi_{N-k}, all independent;
    the K diagonal normals are drawn first, then the K - 1 chi variates.
    1 <= K <= N; K = N gives the whole matrix, which has the spectrum law of
    the recipe's ``sample``.
    """
    normals = rng.standard_normal(K)
    return _hessenberg_entries(
        spec.center, spec.sigma, spec.rho, normals, rng.chisquare(_jacobi_dofs(spec.dimension, K))
    )


def _jacobi_dofs(N: int, K: int) -> np.ndarray:
    """Degrees of freedom N - 1, ..., N - K + 1 of the chi variates on the
    leading off-diagonal of a GOE's tridiagonal form."""
    return np.arange(N - 1, N - K, -1)


def _hessenberg_entries(center, sigma, rho, normals, chisq):
    """(diag, subdiag) of the Hessenberg form from its standard variates:
    center + sqrt(1 + rho) sigma normals and sigma sqrt(chisq); at rho = 1
    the tridiagonal form's diagonal and off-diagonal.  ``center``, ``sigma``
    and ``rho`` may be columns that scale stacked rows one cone at a time."""
    return center + (np.sqrt(1.0 + rho) * sigma) * normals, sigma * np.sqrt(chisq)


def _hessenberg_upper(sigma, rho, subdiag, normals):
    """(rows, K, K) strictly upper part E = H - tridiag(subdiag, diag,
    subdiag) of stacked leading Hessenberg blocks: E[i, i+1] = (rho - 1)
    subdiag[i] + sqrt(1 - rho^2) sigma N(0, 1) and E[i, j] = sqrt(1 - rho^2)
    sigma N(0, 1) for j >= i + 2.  ``normals`` holds K (K - 1) / 2 standard
    normals per row, in ``np.triu_indices(K, 1)`` order; ``sigma`` and
    ``rho`` are columns, one value per row."""
    rows, k = subdiag.shape[0], subdiag.shape[1] + 1
    scale = np.sqrt(1.0 - rho**2) * sigma
    upper = np.zeros((rows, k, k))
    # a boolean mask indexes row-major, the order of np.triu_indices
    upper[:, np.triu(np.ones((k, k), bool), 1)] = scale * normals
    diag = np.arange(k - 1)
    upper[:, diag, diag + 1] += (rho - 1.0) * subdiag
    return upper


def sample_haar_orthogonal(N: int, seed: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix.

    QR of an iid Gaussian matrix, with each column of Q rescaled by the sign
    of the matching diagonal entry of R; plain QR is not Haar (Mezzadri,
    Notices AMS 54 (2007) 592).
    """
    check_count(N, 1, f"matrix dimension must be an integer >= 1, got {N}")
    return _haar_orthogonal(N, rng_from_seed(seed))


def _haar_orthogonal(N: int, rng: np.random.Generator) -> np.ndarray:
    """``sample_haar_orthogonal`` on a caller's stream (N * N normals): the
    LAPACK calls of ``np.linalg.qr`` at their queried workspaces, without
    its wrappers."""
    g = rng.standard_normal((N, N))
    qr, tau, _, _ = dgeqrf(g, int(dgeqrf_lwork(N, N)[0]))
    # a copy of R's diagonal: dorgqr overwrites the factor with Q, whose own
    # diagonal would give a Q that is not Haar
    signs = np.where(np.diagonal(qr) >= 0.0, 1.0, -1.0)
    lwork = int(dorgqr(qr, tau, -1, overwrite_a=1)[1][0])
    q = dorgqr(qr, tau, lwork, overwrite_a=1)[0]
    # C order, as np.linalg.qr returns Q, so callers' products keep their BLAS calls
    return np.multiply(q, signs, order="C")


def _placed_eigenvalues(
    spec: SpectralModel, N: int, rng: np.random.Generator, placement: str
) -> np.ndarray:
    """The eigenvalues an invariant draw puts on its Haar frame.

    ``iid`` placement draws N uniforms from ``rng``; ``quantile`` placement
    draws nothing.  The quantile grid is cached per (model, N) and must not
    be written to.
    """
    if placement == "quantile":
        return quantile_grid(spec, N)
    return inverse_cdf(spec, rng.random(N))


def _eigenvalues(ens: "EnsembleSpec", seed: int) -> np.ndarray:
    """Spectrum of one draw of a symmetric ensemble, in no particular order.

    It has the law of ``eigvalsh(ens.sample(seed))`` without forming the
    matrix: GOE draws come from the whole tridiagonal form, invariant ones
    are the eigenvalues ``_placed_eigenvalues`` places (the spectrum of
    ``ens.sample`` at the same seed).  Elliptic ensembles raise
    :class:`InvalidSpecError`.
    """
    if ens.kind == "goe":
        diag, off = _goe_jacobi(ens, ens.dimension, rng_from_seed(seed))
        return eigvalsh_tridiagonal(diag, off, check_finite=False)
    if ens.kind == "invariant":
        return _placed_eigenvalues(
            ens.spectral_model, ens.dimension, rng_from_seed(seed), ens.placement
        )
    raise InvalidSpecError("elliptic ensembles have a complex spectrum")


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for sampling one N x N random matrix.

    ``kind`` selects the sampler: ``goe(center, radius)``,
    ``invariant(spec, placement)`` or ``elliptic(rho, radius)``.  A field
    that the kind's draws do not read must keep its default, or
    :class:`InvalidSpecError` is raised: a recipe with one would describe
    draws it does not make.
    """

    kind: str
    dimension: int
    center: float = 0.0
    radius: float = 2.0
    rho: float = 1.0
    spectral_model: SpectralModel | None = None
    placement: str = "quantile"

    def __post_init__(self):
        check_count(
            self.dimension, 2, f"matrix dimension must be an integer >= 2, got {self.dimension}"
        )
        if self.kind not in _UNREAD:
            raise InvalidSpecError(f"unknown ensemble kind {self.kind!r}")
        if not (math.isfinite(self.center) and math.isfinite(self.radius)):
            raise InvalidSpecError(
                f"center and radius must be finite, got {self.center} and {self.radius}"
            )
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _UNREAD[self.kind] and value != f.default:
                raise InvalidSpecError(
                    f"{self.kind} draws do not read {f.name}; a {self.kind} recipe got {value}"
                )
        if self.radius <= 0:
            raise InvalidSpecError(f"radius must be > 0, got {self.radius}")
        if self.kind == "elliptic" and not 0.0 <= self.rho <= 1.0:
            raise InvalidSpecError(f"entry correlation must lie in [0, 1], got {self.rho}")
        if self.kind == "invariant" and not isinstance(self.spectral_model, SpectralModel):
            raise InvalidSpecError(
                f"invariant ensembles need a spectral model, got {self.spectral_model!r}"
            )
        if self.placement not in _PLACEMENTS:
            raise InvalidSpecError(
                f"unknown eigenvalue placement {self.placement!r}; use one of {_PLACEMENTS}"
            )

    @classmethod
    def goe(cls, N: int, center: float = 0.0, radius: float = 2.0):
        """Off-diagonal entries of variance (radius/2)**2 / N and diagonal ones
        of twice that around ``center``: the edges converge to center +- radius."""
        return cls(kind="goe", dimension=N, center=center, radius=radius)

    @classmethod
    def invariant(cls, spec: SpectralModel, N: int, placement: str = "quantile"):
        """``quantile`` puts eigenvalue i at CDF^{-1}((i-1/2)/N), suppressing
        O(N^{-1/2}) density noise; ``iid`` draws them from the density.  The
        seed's one stream gives the iid eigenvalues, then the Haar frame."""
        return cls(kind="invariant", dimension=N, spectral_model=spec, placement=placement)

    @classmethod
    def elliptic(cls, N: int, rho: float, radius: float = 2.0):
        """Corr(M_ij, M_ji) = rho: sqrt((1+rho)/2) H + sqrt((1-rho)/2) W, H
        symmetric and W antisymmetric with entries of variance (radius/2)**2
        / N; rho = 1 gives the GOE draw of the same seed exactly."""
        return cls(kind="elliptic", dimension=N, rho=rho, radius=radius)

    @property
    def sigma(self) -> float:
        """Off-diagonal entry scale radius / (2 sqrt(N)) of GOE and elliptic draws."""
        return self.radius / (2.0 * math.sqrt(self.dimension))

    @property
    def nu_plus(self) -> float:
        """Upper spectral edge of the limiting density."""
        if self.kind == "goe":
            return self.center + self.radius
        if self.kind == "invariant":
            return self.spectral_model.nu_plus
        raise InvalidSpecError("elliptic ensembles have no real spectral edge")

    def sample(self, seed: int) -> np.ndarray:
        """One draw of the recipe; GOE and elliptic share the symmetric part h."""
        n = self.dimension
        rng = rng_from_seed(seed)
        if self.kind == "invariant":
            eigs = _placed_eigenvalues(self.spectral_model, n, rng, self.placement)
            if self.spectral_model.is_atomic:
                return np.diag(eigs)
            q = _haar_orthogonal(n, rng)
            m = (q * eigs) @ q.T
            return 0.5 * (m + m.T)
        sigma = self.sigma
        g = rng.standard_normal((n, n))
        h = (g + g.T) * (sigma / math.sqrt(2.0))
        if self.center != 0.0:
            h[np.diag_indices(n)] += self.center
        if self.rho == 1.0:  # every GOE recipe
            return h
        g = rng.standard_normal((n, n))
        w = (g - g.T) * (sigma / math.sqrt(2.0))
        return math.sqrt((1.0 + self.rho) / 2.0) * h + math.sqrt((1.0 - self.rho) / 2.0) * w

    def describe(self) -> str:
        if self.kind == "goe":
            return f"goe(N={self.dimension}, center={self.center}, radius={self.radius})"
        if self.kind == "invariant":
            return f"invariant(N={self.dimension}, {self.spectral_model.describe()}, {self.placement})"
        return f"elliptic(N={self.dimension}, rho={self.rho}, radius={self.radius})"
