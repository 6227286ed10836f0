import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from conewise import InvalidSpecError, SpectralModel
from conewise.errors import DegenerateProcessError, NumericalError
from conewise.estimators import fit_powerlaw
from conewise.records import log_tau_grid
from conewise.surrogate import (
    _gp_factor,
    _pivoted_cholesky,
    _stream_first_changes,
    build_covariance,
    estimate_persistence_gp,
    joint_persistence,
)

SEMI = SpectralModel.semicircle(0, 2)
BETA3 = SpectralModel.symmetric_beta(3)
SHIFTED = SpectralModel.semicircle(0.5, 1.0)
SPEC_IDS = ["semicircle", "beta3", "shifted"]


def _factor_of(matrix):
    return _pivoted_cholesky(lambda p: matrix[:, p], len(matrix), "test matrix")


class TestBuildCovariance:
    def test_horizon_zero(self):
        cov = build_covariance(BETA3, 0)
        assert cov.shape == (1, 1) and cov[0, 0] == 1.0

    def test_unit_diagonal(self):
        cov = build_covariance(BETA3, 32)
        assert np.allclose(np.diag(cov), 1.0, atol=1e-9)

    def test_checkerboard_zeros(self):
        cov = build_covariance(SEMI, 9)
        t, s = np.meshgrid(np.arange(10), np.arange(10), indexing="ij")
        odd = (t + s) % 2 == 1
        assert np.all(cov[odd] == 0.0)
        assert np.all(cov[~odd] != 0.0)

    def test_matches_direct_quadrature_oracle(self):
        # independent oracle: raw quadrature of the density for each entry
        T = 10
        cov = build_covariance(BETA3, T)

        def f_quad(t):
            val, _ = quad(
                lambda x: float(BETA3.density(x)) * x**t, 0, 1, limit=200,
                points=[0.0, 1.0],
            )
            return val

        fs = [f_quad(t) for t in range(2 * T + 1)]
        for t in range(T + 1):
            for s in range(T + 1):
                ref = fs[t + s] / np.sqrt(fs[2 * t] * fs[2 * s])
                assert cov[t, s] == pytest.approx(ref, abs=1e-8)

    def test_psd_at_large_horizon(self):
        cov = build_covariance(SEMI, 512)
        w = np.linalg.eigvalsh(cov)
        assert w[0] > -1e-8

    def test_negative_horizon(self):
        with pytest.raises(InvalidSpecError):
            build_covariance(BETA3, -1)

    def test_gp_route_below_cap(self):
        # the dense matrix's smallest eigenvalue is about -2e-10 here
        estimate_persistence_gp(BETA3, T=2048, n_paths=200, seed=1)


class TestPivotedFactor:
    """The pivoted Cholesky factor against the dense correlation matrix."""

    @pytest.mark.parametrize("spec", [SEMI, BETA3, SHIFTED], ids=SPEC_IDS)
    def test_reproduces_dense_covariance_at_low_rank(self, spec):
        T = 256
        factor = _gp_factor(spec, T)
        assert factor.shape[0] == T + 1 and factor.shape[1] < T + 1
        assert np.max(np.abs(factor @ factor.T - build_covariance(spec, T))) <= 1e-9

    @pytest.mark.parametrize(
        "spec, seeds", [(SEMI, (21, 22)), (BETA3, (23, 24)), (SHIFTED, (25, 26))], ids=SPEC_IDS
    )
    def test_matches_dense_reference_in_law(self, spec, seeds):
        # reference: full-rank square root of the dense matrix by eigh
        T, n = 256, 20_000
        w, v = np.linalg.eigh(build_covariance(spec, T))
        dense = v * np.sqrt(np.clip(w, 0.0, None))
        (ref,) = _stream_first_changes(dense, n, seed=seeds[0])
        (low,) = _stream_first_changes(_gp_factor(spec, T), n, seed=seeds[1])
        for tau in log_tau_grid(T):
            qa, qb = np.mean(ref > tau), np.mean(low > tau)
            sigma = np.sqrt((qa * (1 - qa) + qb * (1 - qb)) / n)
            assert abs(qa - qb) <= 4 * sigma
        assert ks_2samp(ref, low).pvalue > 0.01

    def test_indefinite_matrix_raises(self):
        # eigenvalues of this unit-diagonal matrix include 1 - 1.8 < 0
        m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        with pytest.raises(NumericalError, match="index 2"):
            _factor_of(m)

    def test_long_horizon(self):
        # T = 16384: a dense factor would take 2.1 GB; this peaks near 80 MB
        tracemalloc.start()
        try:
            curve = estimate_persistence_gp(BETA3, T=16384, n_paths=4000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256e6
        fit = fit_powerlaw(curve, window=(30, 16384))
        assert fit.exponent == pytest.approx(-0.2382, abs=0.03)


class TestSampleGpPaths:
    """Path sampling through the streamed pivoted Cholesky factor, seen
    through the first sign-change times it returns."""

    def test_identity_covariance_coin_flips(self):
        # independent signs: no change up to tau with probability 2**-tau
        n = 100_000
        (times,) = _stream_first_changes(_factor_of(np.eye(5)), n, seed=1)
        for tau in range(1, 5):
            p = 2.0**-tau
            assert np.mean(times > tau) == pytest.approx(p, abs=4 * np.sqrt(p * (1 - p) / n))

    def test_pair_correlation_recovered(self):
        # arcsine law: P(sign(x1) == sign(x0)) = 1/2 + arcsin(c)/pi
        n = 100_000
        c = 0.73
        (times,) = _stream_first_changes(_factor_of(np.array([[1.0, c], [c, 1.0]])), n, seed=2)
        p = 0.5 + np.arcsin(c) / np.pi
        assert np.mean(times == 2) == pytest.approx(p, abs=4 * np.sqrt(p * (1 - p) / n))

    def test_real_covariance_first_step(self):
        n = 100_000
        cov = build_covariance(BETA3, 16)
        (times,) = _stream_first_changes(_gp_factor(BETA3, 16), n, seed=4)
        p = 0.5 + np.arcsin(cov[0, 1]) / np.pi
        assert np.mean(times > 1) == pytest.approx(p, abs=4 * np.sqrt(p * (1 - p) / n))

    def test_rank_one_covariance_constant_paths(self):
        # exactly singular: a rank-one factor, so every path is constant
        factor = _factor_of(np.ones((6, 6)))
        assert factor.shape == (6, 1)
        (times,) = _stream_first_changes(factor, 5000, seed=3)
        assert np.all(times == 6)

    def test_reproducible(self):
        factor = _gp_factor(BETA3, 16)
        a = _stream_first_changes(factor, 5000, seed=9, parities=(None, 0, 1))
        b = _stream_first_changes(factor, 5000, seed=9, parities=(None, 0, 1))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = _stream_first_changes(factor, 5000, seed=10)[0]
        assert not np.array_equal(a[0], c)


class TestPersistence:
    def test_atomic_never_changes_sign(self):
        curve = estimate_persistence_gp(SpectralModel.atomic(0.9), T=100, n_paths=10, seed=0)
        assert np.all(curve.q0 == 1.0)

    def test_negative_atom_alternates_sign(self):
        # correlation (-1)**(t+s): the sign flips every step
        curve, even, odd = estimate_persistence_gp(
            SpectralModel.atomic(-0.9), T=100, n_paths=1000, seed=0, subprocesses=True
        )
        later = curve.tau >= 1
        assert np.all(curve.q0[later] == 0.0)
        assert np.all(even.q0 == 1.0)
        assert np.all(odd.q0[later] == 0.0)

    def test_atomic_zero_degenerate(self):
        with pytest.raises(DegenerateProcessError):
            estimate_persistence_gp(SpectralModel.atomic(0.0), T=10, n_paths=10, seed=0)

    def test_monotone_and_normalized(self):
        curve = estimate_persistence_gp(BETA3, T=256, n_paths=20_000, seed=7)
        assert curve.tau[0] == 0 and curve.q0[0] == 1.0
        assert np.all(np.diff(curve.q0) <= 0)

    def test_beta3_slope_matches_diffusion_exponent(self):
        curve = estimate_persistence_gp(BETA3, T=1000, n_paths=50_000, seed=42)
        fit = fit_powerlaw(curve, window=(30, 1000))
        assert fit.exponent == pytest.approx(-0.2382, abs=0.03)

    def test_semicircle_doubling_and_subprocess_product(self):
        curve, even, odd = estimate_persistence_gp(
            SEMI, T=1000, n_paths=50_000, seed=43, subprocesses=True
        )
        fit = fit_powerlaw(curve, window=(30, 1000))
        assert fit.exponent == pytest.approx(-2 * 0.2382, abs=0.04)
        # even/odd sign survival multiplies to the full survival
        sel = curve.tau >= 1
        prod = even.q0[sel] * odd.q0[sel]
        err = np.sqrt(
            (even.stderr[sel] * odd.q0[sel]) ** 2
            + (odd.stderr[sel] * even.q0[sel]) ** 2
            + curve.stderr[sel] ** 2
        )
        assert np.all(np.abs(curve.q0[sel] - prod) <= 3 * np.maximum(err, 1e-4))

    def test_slope_stable_under_doubling_paths(self):
        fits = []
        for n in (20_000, 40_000):
            curve = estimate_persistence_gp(BETA3, T=512, n_paths=n, seed=11)
            fits.append(fit_powerlaw(curve, window=(17, 512)))
        combined = np.hypot(fits[0].stderr_exponent, fits[1].stderr_exponent)
        assert abs(fits[0].exponent - fits[1].exponent) < max(1e-3, 1.0 * combined) + 3e-3


class TestJointPersistence:
    def test_p_one_reduces_exactly(self):
        a = estimate_persistence_gp(BETA3, T=128, n_paths=5000, seed=5)
        b = joint_persistence(BETA3, 1, T=128, n_paths=5000, seed=5)
        assert np.array_equal(a.q0, b.q0)

    def test_p_two_squares_pointwise(self):
        uni = SpectralModel.symmetric_beta(2)
        single = estimate_persistence_gp(uni, T=512, n_paths=60_000, seed=6)
        double = joint_persistence(uni, 2, T=512, n_paths=60_000, seed=16)
        sel = (single.tau >= 1) & (single.q0 > 0)
        q2, q1 = double.q0[sel], single.q0[sel]
        err = np.sqrt(double.stderr[sel] ** 2 + (2 * q1 * single.stderr[sel]) ** 2)
        assert np.all(np.abs(q2 - q1**2) <= 3 * np.maximum(err, 1e-4))

    def test_p_two_doubles_slope(self):
        uni = SpectralModel.symmetric_beta(2)
        single = estimate_persistence_gp(uni, T=512, n_paths=60_000, seed=6)
        double = joint_persistence(uni, 2, T=512, n_paths=60_000, seed=16)
        f1 = fit_powerlaw(single, window=(17, 512))
        f2 = fit_powerlaw(double, window=(17, 512))
        assert f2.exponent == pytest.approx(2 * f1.exponent, abs=0.05)

    def test_invalid_component_count(self):
        with pytest.raises(InvalidSpecError):
            joint_persistence(BETA3, 0, T=16, n_paths=10, seed=0)
