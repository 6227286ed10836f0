import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.stats import ks_2samp

from conewise import (
    EnsembleSpec,
    InvalidSpecError,
    SpectralModel,
    moment_f,
    sample_elliptic,
    sample_goe,
    sample_haar_orthogonal,
    sample_invariant,
)
from conewise.ensembles import _eigenvalues
from conewise.seeding import derive_seed


def top_eigenvalue(m):
    n = m.shape[0]
    return float(eigh(m, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0])


class TestGoe:
    def test_symmetric_by_construction(self):
        m = sample_goe(256, 0.0, 2.0, seed=1)
        assert np.max(np.abs(m - m.T)) < 1e-12

    def test_reproducible(self):
        a = sample_goe(64, 0.0, 2.0, seed=123)
        b = sample_goe(64, 0.0, 2.0, seed=123)
        assert np.array_equal(a, b)
        c = sample_goe(64, 0.0, 2.0, seed=124)
        assert not np.array_equal(a, c)

    def test_edge_location(self):
        # independent eigensolver check: the top eigenvalue of a radius-2
        # draw concentrates near 2 with N^{-2/3} fluctuations
        hits = 0
        n_draws = 100
        for k in range(n_draws):
            m = sample_goe(1024, 0.0, 2.0, seed=derive_seed(7, k))
            if 1.8 <= top_eigenvalue(m) <= 2.2:
                hits += 1
        assert hits >= n_draws - 2

    def test_center_shifts_mean_eigenvalue(self):
        means = []
        for k in range(100):
            m = sample_goe(256, 3.0, 2.0, seed=derive_seed(11, k))
            means.append(np.trace(m) / 256)
        assert abs(np.mean(means) - 3.0) < 0.05

    def test_invalid_args(self):
        with pytest.raises(InvalidSpecError):
            sample_goe(1, 0.0, 2.0, seed=0)
        with pytest.raises(InvalidSpecError):
            sample_goe(16, 0.0, 0.0, seed=0)


class TestHaar:
    def test_orthogonality(self):
        q = sample_haar_orthogonal(8, seed=7)
        assert np.max(np.abs(q.T @ q - np.eye(8))) < 1e-12

    def test_first_column_angle_uniform(self):
        n = 10_000
        angles = np.empty(n)
        for k in range(n):
            q = sample_haar_orthogonal(2, seed=derive_seed(3, k))
            angles[k] = np.arctan2(q[1, 0], q[0, 0])
        u = np.sort((angles + np.pi) / (2 * np.pi))
        grid = np.arange(1, n + 1) / n
        ks = np.max(np.maximum(np.abs(grid - u), np.abs(u - (grid - 1 / n))))
        assert ks < 0.02

    def test_degenerate_dimension(self):
        signs = [sample_haar_orthogonal(1, seed=derive_seed(5, k))[0, 0] for k in range(200)]
        assert set(np.round(signs).astype(int)) == {-1, 1}
        assert abs(np.mean(signs)) < 0.2


class TestInvariant:
    def test_atomic_is_scaled_identity(self):
        m = sample_invariant(SpectralModel.atomic(0.7), 16, seed=0)
        assert np.array_equal(m, 0.7 * np.eye(16))

    def test_symmetrized_output(self):
        m = sample_invariant(SpectralModel.symmetric_beta(3), 128, seed=5)
        assert np.max(np.abs(m - m.T)) < 1e-12

    def test_beta3_spectral_moments(self):
        m = sample_invariant(SpectralModel.symmetric_beta(3), 512, seed=9)
        eigs = np.linalg.eigvalsh(m)
        assert abs(np.mean(eigs) - 0.5) < 1e-3
        assert abs(np.mean(eigs**2) - 5 / 16) < 1e-3

    def test_trace_moments_match_density_moments(self):
        # rotational invariance: normalized trace moments are deterministic
        # under quantile placement and equal the density moments
        spec = SpectralModel.symmetric_beta(3)
        draws = [sample_invariant(spec, 256, seed=derive_seed(21, k)) for k in range(50)]
        for k_mom in range(1, 7):
            ref = moment_f(spec, k_mom)
            vals = []
            for m in draws:
                mk = np.linalg.matrix_power(m, k_mom)
                vals.append(np.trace(mk) / 256)
            vals = np.asarray(vals)
            spread = max(vals.std(ddof=1), 1e-6)
            assert abs(vals.mean() - ref) < 3 * max(spread / np.sqrt(len(vals)), 2e-4)

    def test_iid_placement_fluctuates(self):
        spec = SpectralModel.symmetric_beta(3)
        a = sample_invariant(spec, 64, seed=2, placement="iid")
        b = sample_invariant(spec, 64, seed=3, placement="iid")
        assert not np.allclose(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b))

    def test_iid_frame_independent_of_spectrum(self):
        # with a Haar frame independent of the eigenvalues, the top
        # eigenvector's first component has E[u0^2] = 1/N
        spec = SpectralModel.semicircle(0.0, 2.0)
        n = 8
        w = np.empty(4000)
        for seed in range(w.size):
            _, vecs = np.linalg.eigh(sample_invariant(spec, n, seed, placement="iid"))
            w[seed] = vecs[0, -1] ** 2
        sigma = w.std(ddof=1) / np.sqrt(w.size)
        assert abs(w.mean() - 1.0 / n) <= 4 * sigma


class TestSpectrumHelper:
    def test_invariant_is_dense_spectrum(self):
        for placement in ("quantile", "iid"):
            ens = EnsembleSpec.invariant(SpectralModel.symmetric_beta(3), 48, placement)
            nu = np.sort(_eigenvalues(ens, 5))
            assert np.max(np.abs(nu - np.linalg.eigvalsh(ens.sample(5)))) < 1e-12

    def test_atom(self):
        ens = EnsembleSpec.invariant(SpectralModel.atomic(-0.4), 8)
        assert np.array_equal(_eigenvalues(ens, 0), np.full(8, -0.4))

    def test_goe_is_dense_spectrum_in_law(self):
        # the two extreme eigenvalues of 400 draws each way
        ens = EnsembleSpec.goe(16, 0.5, 1.0)
        fast = np.array([_eigenvalues(ens, derive_seed(1, k)) for k in range(400)])
        dense = np.array([np.linalg.eigvalsh(ens.sample(derive_seed(2, k))) for k in range(400)])
        for extreme in (np.min, np.max):
            assert ks_2samp(extreme(fast, axis=1), extreme(dense, axis=1)).pvalue > 0.01

    def test_elliptic_rejected(self):
        with pytest.raises(InvalidSpecError, match="complex spectrum"):
            _eigenvalues(EnsembleSpec.elliptic(8, 0.5), 0)


class TestElliptic:
    def test_rho_one_symmetric(self):
        m = sample_elliptic(128, 1.0, 2.0, seed=4)
        assert np.max(np.abs(m - m.T)) == 0.0

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_entry_pair_correlation(self, rho):
        m = sample_elliptic(512, rho, 2.0, seed=derive_seed(13, int(rho * 10)))
        iu = np.triu_indices(512, k=1)
        x, y = m[iu], m.T[iu]
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r - rho) < 0.05

    def test_invalid_rho(self):
        with pytest.raises(InvalidSpecError):
            sample_elliptic(64, 1.5, 2.0, seed=0)


class TestEnsembleSpec:
    def test_goe_sample_matches_function(self):
        spec = EnsembleSpec.goe(64, 0.0, 2.0)
        assert np.array_equal(spec.sample(77), sample_goe(64, 0.0, 2.0, 77))

    def test_nu_plus(self):
        assert EnsembleSpec.goe(64, 1.0, 2.0).nu_plus == 3.0
        b = EnsembleSpec.invariant(SpectralModel.symmetric_beta(3), 64)
        assert b.nu_plus == 1.0
        with pytest.raises(InvalidSpecError):
            EnsembleSpec.elliptic(64, 0.5).nu_plus

    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            EnsembleSpec.goe(1)
        with pytest.raises(InvalidSpecError):
            EnsembleSpec.elliptic(64, -0.1)
