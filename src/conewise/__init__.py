"""Desk-scale laboratory for random cone-wise linear dynamics.

The package simulates N-dimensional dynamics that switch between two (or
2^p) random matrices according to sign constraints on leading vector
components, together with the analytics that describe them: spectral-moment
correlators, a Gaussian-process surrogate for the infinite-dimensional
limit, heavy-tailed renewal statistics of cone-residence times with the
two-edge occupation-time law of the top Lyapunov exponent, and finite-size
trapping/scaling effects.
"""

from .ensembles import (
    EnsembleSpec,
    sample_elliptic,
    sample_goe,
    sample_haar_orthogonal,
    sample_invariant,
)
from .errors import (
    CollapseUndefinedError,
    ConewiseError,
    DegenerateDynamicsError,
    DegenerateProcessError,
    FitError,
    InvalidSpecError,
    NumericalError,
)
from .seeding import derive_seed, rng_from_seed, splitmix64
from .spectra import SpectralModel, inverse_cdf
from .spectral import (
    THETA_TABLE,
    correlator,
    correlator_asymptotic,
    effective_dimension,
    g_function,
    is_sign_symmetric,
    moment_asymptotic,
    moment_f,
    persistence_exponent,
    theta_reference,
)

__version__ = "0.1.0"
