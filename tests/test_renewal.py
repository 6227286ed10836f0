import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp

from conewise import DegenerateProcessError, InvalidSpecError, SpectralModel
from conewise.estimators import ks_distance
from conewise.records import log_tau_grid
from conewise.renewal import (
    LampertiParams,
    RenewalConfig,
    _g_evals,
    interval_survival,
    lamperti_cdf,
    lamperti_pdf,
    sample_power_law_intervals,
    sample_renewal_lyapunov,
    self_averaging_value,
    simulate_renewal_run,
    stieltjes_rhs,
)
from conewise.seeding import rng_from_seed
from conewise.spectral import moment_f

ARCSINE = LampertiParams(0.0, 1.0, 0.5)
FIG3 = LampertiParams(math.log(0.05 * math.sqrt(2)), math.log(2 * math.sqrt(2)), 0.4764)


# Quadrature references that cross-check the closed forms of conewise.renewal.


def _cdf_half_quadrature(mu: float, x: float) -> float:
    """Integral of the unit-interval density from 0 to x <= 1/2, by quadrature
    with the edge substitution u = x**mu."""
    if x <= 0.0:
        return 0.0
    unit = LampertiParams(0.0, 1.0, mu)

    def integrand(u: float) -> float:
        return float(lamperti_pdf(unit, u ** (1.0 / mu))) * (1.0 / mu) * u ** (1.0 / mu - 1.0)

    val, _ = quad(integrand, 0.0, x**mu, epsabs=1e-12, epsrel=1e-10, limit=200)
    return val


def lamperti_cdf_quadrature(params: LampertiParams, lam: float) -> float:
    """CDF by endpoint-aware quadrature of the density (cross-check route)."""
    x = (float(lam) - params.lo) / params.width
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x <= 0.5:
        return _cdf_half_quadrature(params.mu, x)
    return 1.0 - _cdf_half_quadrature(params.mu, 1.0 - x)


def stieltjes_lhs(params: LampertiParams, y: float) -> float:
    """Stieltjes transform by quadrature of the density against 1/(y - lam)."""
    if y <= params.hi:
        raise InvalidSpecError(f"transform point must exceed max(r1, r2) = {params.hi}")
    mu = params.mu
    width = params.width
    ytil = (y - params.lo) / width
    unit = LampertiParams(0.0, 1.0, mu)

    def piece(shifted_pole: float) -> float:
        # integral over x in [0, 1/2] of the unit-interval density / (shifted_pole - x)
        def integrand(u: float) -> float:
            xx = u ** (1.0 / mu)
            pdf = float(lamperti_pdf(unit, xx))
            return pdf / (shifted_pole - xx) * (1.0 / mu) * u ** (1.0 / mu - 1.0)

        val, _ = quad(integrand, 0.0, 0.5**mu, epsabs=1e-13, epsrel=1e-10, limit=300)
        return val

    # split at the midpoint and mirror the upper half (the density is
    # symmetric under x -> 1-x)
    lower = piece(ytil)
    upper = piece(1.0 - ytil)  # pole term flips sign: 1/(ytil-(1-w)) = -1/((1-ytil)-w)
    return (lower - upper) / width


class TestLampertiPdf:
    def test_arcsine_midpoint(self):
        assert lamperti_pdf(ARCSINE, 0.5) == pytest.approx(2 / math.pi, rel=1e-12)

    def test_zero_outside_support(self):
        assert lamperti_pdf(ARCSINE, -0.1) == 0.0
        assert lamperti_pdf(ARCSINE, 1.1) == 0.0

    def test_edge_divergence_signalled(self):
        assert lamperti_pdf(ARCSINE, 0.0) == np.inf
        assert lamperti_pdf(ARCSINE, 1.0) == np.inf

    def test_normalization_by_quadrature(self):
        for params in (ARCSINE, FIG3, LampertiParams(-1.0, 3.0, 0.8)):
            total = lamperti_cdf_quadrature(params, params.hi)
            assert total == pytest.approx(1.0, abs=1e-6)

    @given(
        mu=st.floats(min_value=0.05, max_value=0.95),
        x=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    )
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, mu, x):
        p = LampertiParams(0.0, 1.0, mu)
        a = float(lamperti_pdf(p, x))
        b = float(lamperti_pdf(p, 1.0 - x))
        assert a == pytest.approx(b, rel=1e-9)

    def test_edge_power_of_density(self):
        # near the lower edge the density behaves like z**(mu-1)
        p = LampertiParams(0.0, 1.0, 0.4764)
        lam = np.geomspace(1e-6, 1e-3, 40)
        slope = np.polyfit(np.log(lam), np.log(lamperti_pdf(p, lam)), 1)[0]
        assert slope == pytest.approx(p.mu - 1.0, abs=1e-3)

    def test_parameter_validation(self):
        with pytest.raises(InvalidSpecError):
            LampertiParams(0.0, 1.0, 1.2)
        with pytest.raises(InvalidSpecError):
            LampertiParams(1.0, 1.0, 0.5)


class TestLampertiCdf:
    def test_arcsine_closed_form(self):
        xs = np.linspace(1e-9, 1 - 1e-9, 31)
        ref = 2 / math.pi * np.arcsin(np.sqrt(xs))
        assert np.allclose(lamperti_cdf(ARCSINE, xs), ref, atol=1e-12)

    @pytest.mark.parametrize("params", [ARCSINE, FIG3, LampertiParams(0.0, 1.0, 0.2)])
    def test_closed_form_matches_quadrature(self, params):
        lams = params.lo + params.width * np.linspace(0.001, 0.999, 17)
        for lam in lams:
            assert float(lamperti_cdf(params, lam)) == pytest.approx(
                lamperti_cdf_quadrature(params, lam), abs=1e-8
            )

    def test_monotone_and_normalized(self):
        lams = np.linspace(FIG3.lo, FIG3.hi, 513)
        c = lamperti_cdf(FIG3, lams)
        assert np.all(np.diff(c) >= 0)
        assert c[0] == 0.0 and c[-1] == 1.0


class TestStieltjes:
    def test_pinned_value(self):
        # ((2)^{-1/2} + 1) / (2^{1/2} + 1) = 1/sqrt(2)
        assert stieltjes_rhs(ARCSINE, 2.0) == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_large_y_asymptote(self):
        for y in (1e3, 1e5):
            assert stieltjes_rhs(ARCSINE, y) * y == pytest.approx(1.0, rel=1e-2)

    @pytest.mark.parametrize("mu", [0.2, 0.4764, 0.8])
    def test_identity_lhs_vs_rhs(self, mu):
        params = LampertiParams(0.0, 1.0, mu)
        ys = params.hi + params.width * np.geomspace(0.05, 10.0, 20)
        for y in ys:
            lhs = stieltjes_lhs(params, y)
            rhs = stieltjes_rhs(params, y)
            assert abs(lhs - rhs) / rhs < 1e-5

    def test_identity_on_shifted_scaled_params(self):
        for y in FIG3.hi + FIG3.width * np.geomspace(0.1, 5.0, 7):
            lhs = stieltjes_lhs(FIG3, y)
            rhs = stieltjes_rhs(FIG3, y)
            assert abs(lhs - rhs) / rhs < 1e-5

    def test_mu_to_one_limit(self):
        y = 2.5
        params = LampertiParams(0.0, 1.0, 0.999)
        assert stieltjes_rhs(params, y) == pytest.approx(1.0 / (y - 0.5), abs=1e-2)

    def test_domain_error(self):
        with pytest.raises(InvalidSpecError):
            stieltjes_rhs(ARCSINE, 0.5)


class TestIntervalSampler:
    def test_survival_closed_form_quartile(self):
        rng = rng_from_seed(5)
        taus = sample_power_law_intervals(rng, 0.5, 1, 1_000_000)
        phat = np.mean(taus >= 4)
        assert phat == pytest.approx(0.5, abs=3 * 0.5 / 1000.0)

    def test_minimum_value_certain(self):
        rng = rng_from_seed(6)
        taus = sample_power_law_intervals(rng, 2.0, 3, 10_000)
        assert np.all(taus >= 3)
        assert interval_survival(2.0, 3, 3) == 1.0

    def test_deep_tail(self):
        rng = rng_from_seed(7)
        n = 1_000_000
        taus = sample_power_law_intervals(rng, 0.4764, 1, n)
        k = 1000
        p = 10 ** (-3 * 0.4764)
        assert np.mean(taus >= k) == pytest.approx(p, abs=3 * math.sqrt(p * (1 - p) / n))

    def test_sanity_curve_matches_survival(self):
        n = 200_000
        taus = np.sort(sample_power_law_intervals(rng_from_seed(3), 0.7, 2, n))
        grid = log_tau_grid(int(min(taus[-1], 10**7)))
        q = 1.0 - np.searchsorted(taus, grid, side="left") / n  # P(tau >= k)
        stderr = np.sqrt(q * (1 - q) / n)
        resid = np.abs(q - interval_survival(0.7, 2, grid))
        assert np.all(resid <= 4 * np.maximum(stderr, 1e-4))


class TestRenewalSimulator:
    def test_equal_rates_collapse_to_constant(self):
        cfg = RenewalConfig.linear_rates(0.5, 0.5, r1=0.3, r2=0.3, tau_min=1, horizon=1000, seed=1)
        out = sample_renewal_lyapunov(cfg, 500)
        assert np.allclose(out.values, 0.3, atol=1e-12)

    def test_run_partition_is_exact(self):
        cfg = RenewalConfig.linear_rates(0.6, 0.4, r1=-1.0, r2=2.0, tau_min=1, horizon=7777, seed=9)
        for k in range(20):
            run = simulate_renewal_run(cfg, seed=k)
            assert run.check_partition()
            labels = [lab for lab, _ in run.intervals]
            assert all(a != b for a, b in zip(labels, labels[1:]))

    def test_single_truncated_interval(self):
        # tiny exponent: the first interval almost always exceeds the horizon
        cfg = RenewalConfig.linear_rates(0.01, 0.01, r1=-1.0, r2=2.0, tau_min=1, horizon=100, seed=11)
        out = sample_renewal_lyapunov(cfg, 400)
        frac_at_edges = np.mean(np.isclose(out.values, -1.0) | np.isclose(out.values, 2.0))
        assert frac_at_edges > 0.9

    def test_sample_mean_matches_lamperti_symmetry(self):
        cfg = RenewalConfig.linear_rates(
            0.4764, 0.4764, r1=FIG3.r1, r2=FIG3.r2, tau_min=1, horizon=10_000, seed=2
        )
        out = sample_renewal_lyapunov(cfg, 4000)
        target = 0.5 * (FIG3.r1 + FIG3.r2)
        stderr = out.values.std(ddof=1) / math.sqrt(out.values.size)
        assert abs(out.values.mean() - target) < 3 * stderr

    def test_normalized_field(self):
        cfg = RenewalConfig.linear_rates(0.5, 0.5, r1=1.0, r2=3.0, tau_min=1, horizon=1000, seed=4)
        out = sample_renewal_lyapunov(cfg, 200)
        assert np.allclose(out.normalized, (out.values - 1.0) / 2.0)

    def test_reproducible(self):
        cfg = RenewalConfig.linear_rates(0.4, 0.6, r1=0.0, r2=1.0, tau_min=1, horizon=5000, seed=21)
        a = sample_renewal_lyapunov(cfg, 300)
        b = sample_renewal_lyapunov(cfg, 300)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize(
        "cfg",
        [
            RenewalConfig.linear_rates(0.6, 0.4, -1, 2, tau_min=1, horizon=2000, seed=31),
            RenewalConfig.exact_spectral(
                0.5, 0.5, SpectralModel.symmetric_beta(3), SpectralModel.semicircle(0, 1.5),
                tau_min=1, horizon=2000, seed=32,
            ),
        ],
        ids=["linear", "spectral"],
    )
    def test_fast_route_matches_reference(self, cfg):
        # two-sample KS against the one-interval-at-a-time reference route;
        # 1.63 * sqrt(2 / n) is the 1% critical value
        n = 2000
        fast = sample_renewal_lyapunov(cfg, n).values
        ref = [simulate_renewal_run(cfg, seed=1000 + k).rate for k in range(n)]
        assert ks_2samp(fast, ref).statistic < 1.63 * math.sqrt(2 / n)

    def test_g_table_sized_to_horizon(self):
        spec = SpectralModel.semicircle(0.5, 1.0)
        cfg = RenewalConfig.exact_spectral(0.5, 0.5, spec, spec, tau_min=1, horizon=200, seed=3)
        sample_renewal_lyapunov(cfg, 50)
        assert [g.table.size for g in _g_evals(cfg.g_mode, cfg.horizon)] == [200, 200]

    def test_g_tables_built_once_per_config(self):
        cfg = RenewalConfig.exact_spectral(
            0.5, 0.5, SpectralModel.symmetric_beta(3), SpectralModel.semicircle(0, 1.5),
            tau_min=1, horizon=2000, seed=4,
        )
        _g_evals.cache_clear()
        for k in range(50):
            simulate_renewal_run(cfg, seed=k)
        assert _g_evals.cache_info().misses == 1

    def test_shifted_semicircle_cone_long_horizon(self):
        # intervals beyond the 16384-order g table extend the moment table once
        spec_a = SpectralModel.symmetric_beta(3)
        spec_b = SpectralModel.semicircle(0.5, 1.0)
        cfg = RenewalConfig.exact_spectral(0.5, 0.5, spec_a, spec_b, tau_min=1, horizon=100_000, seed=5)
        values = sample_renewal_lyapunov(cfg, 200).values
        # g(tau)/tau lies between 1/2 ln f(2) and ln max|nu| for each cone
        lo = min(0.5 * math.log(moment_f(s, 2)) for s in (spec_a, spec_b))
        assert np.all((values >= lo) & (values <= math.log(1.5)))
        assert np.ptp(values) > 0.1

    def test_finite_horizon_distance_to_lamperti(self):
        # the rate law approaches the Lamperti law only as the horizon grows;
        # the 1% KS noise level at n = 10000 is 1.63 / sqrt(n) = 0.016
        spec_a, spec_b = SpectralModel.symmetric_beta(3), SpectralModel.semicircle(0, 1.5)
        law = LampertiParams.from_edges(spec_a.nu_plus, spec_b.nu_plus, 0.5)
        dist = []
        for horizon in (10_000, 100_000):
            cfg = RenewalConfig.exact_spectral(0.5, 0.5, spec_a, spec_b, 1, horizon, seed=7)
            values = sample_renewal_lyapunov(cfg, 10_000).values
            dist.append(ks_distance(values, lambda x: lamperti_cdf(law, x)))
        assert dist[0] > 0.04
        assert dist[1] < dist[0]


class TestSelfAveraging:
    def test_atomic_specs_exact(self):
        va, vb = 1.7, 0.4
        out = self_averaging_value(SpectralModel.atomic(va), SpectralModel.atomic(vb), mu=1.5)
        assert out == pytest.approx(0.5 * (math.log(va) + math.log(vb)), rel=1e-12)

    def test_divergent_mean_rejected(self):
        with pytest.raises(DegenerateProcessError):
            self_averaging_value(SpectralModel.atomic(1.0), SpectralModel.atomic(2.0), mu=0.9)

    def test_simulator_agrees_with_series(self):
        self._check_against_sampler(SpectralModel.semicircle(0, 2.5))

    def test_shifted_semicircle_agrees_with_series(self):
        # the series sums g over 2**20 orders, one extension of the moment table
        self._check_against_sampler(SpectralModel.semicircle(0.5, 1.0))

    @staticmethod
    def _check_against_sampler(spec_b):
        spec_a = SpectralModel.symmetric_beta(3)
        predicted = self_averaging_value(spec_a, spec_b, mu=1.5, tau_min=1)
        cfg = RenewalConfig.exact_spectral(1.5, 1.5, spec_a, spec_b, tau_min=1, horizon=100_000, seed=8)
        out = sample_renewal_lyapunov(cfg, 600)
        stderr = out.values.std(ddof=1) / math.sqrt(out.values.size)
        assert abs(out.values.mean() - predicted) < 3 * stderr

    def test_variance_shrinks_with_horizon(self):
        spec = SpectralModel.semicircle(0, 2.0)
        sds = []
        for horizon in (10_000, 100_000):
            cfg = RenewalConfig.exact_spectral(1.5, 1.5, spec, spec, tau_min=1, horizon=horizon, seed=13)
            out = sample_renewal_lyapunov(cfg, 400)
            sds.append(out.values.std(ddof=1))
        assert sds[1] < sds[0]


class TestConfigValidation:
    def test_horizon_floor(self):
        with pytest.raises(InvalidSpecError):
            RenewalConfig.linear_rates(0.5, 0.5, 0.0, 1.0, tau_min=100, horizon=500)

    def test_positive_exponents(self):
        with pytest.raises(InvalidSpecError):
            RenewalConfig.linear_rates(0.0, 0.5, 0.0, 1.0, tau_min=1, horizon=100)
