import math

import numpy as np
import pytest
from scipy.stats import norm

from conewise.errors import FitError
from conewise.estimators import (
    empirical_cdf,
    fit_powerlaw,
    fit_truncated_powerlaw,
    ks_distance,
    tail_exponent_at_edge,
)
from conewise.renewal import LampertiParams, lamperti_cdf
from conewise.seeding import rng_from_seed


class TestFitPowerlaw:
    def test_exact_power_law(self):
        x = np.geomspace(1, 1e3, 40)
        fit = fit_powerlaw((x, 3.0 * x**-0.5))
        assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
        assert fit.prefactor_log == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.cutoff_rate == 0.0

    def test_window_restriction_is_exact_on_exact_data(self):
        x = np.geomspace(1, 1e3, 60)
        y = 2.0 * x**-1.25
        for window in [(1, 10), (5, 500), (100, 1000)]:
            fit = fit_powerlaw((x, y), window=window)
            assert fit.exponent == pytest.approx(-1.25, abs=1e-12)

    def test_log_periodic_perturbation(self):
        x = np.geomspace(1, 1e3, 200)
        y = x**-0.5 * (1 + 0.1 * np.sin(np.log(x)))
        fit = fit_powerlaw((x, y))
        assert fit.exponent == pytest.approx(-0.5, abs=0.03)

    def test_zero_value_rejected(self):
        x = np.geomspace(1, 100, 10)
        y = x**-1.0
        y[3] = 0.0
        with pytest.raises(FitError):
            fit_powerlaw((x, y))

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_powerlaw(([1, 2, 3, 4], [1, 0.5, 0.33, 0.25]))


class TestFitTruncated:
    def test_exact_truncated_model(self):
        x = np.geomspace(1, 400, 50)
        y = x**-0.4 * np.exp(-x / 50.0)
        fit = fit_truncated_powerlaw((x, y))
        assert fit.exponent == pytest.approx(-0.4, abs=1e-9)
        assert fit.cutoff_rate == pytest.approx(1 / 50.0, abs=1e-9)

    def test_pure_exponential(self):
        x = np.arange(1, 30, dtype=float)
        y = 2.0**-x
        fit = fit_truncated_powerlaw((x, y))
        assert fit.exponent == pytest.approx(0.0, abs=1e-9)
        assert fit.cutoff_rate == pytest.approx(math.log(2.0), abs=1e-9)

    def test_pure_power_law_pins_cutoff_and_reduces(self):
        x = np.geomspace(1, 1e3, 40)
        y = x**-0.4
        tfit = fit_truncated_powerlaw((x, y))
        pfit = fit_powerlaw((x, y))
        assert tfit.cutoff_rate == 0.0
        assert tfit.exponent == pytest.approx(pfit.exponent, abs=1e-9)
        assert tfit.prefactor_log == pytest.approx(pfit.prefactor_log, abs=1e-9)

    def test_too_few_points(self):
        x = np.geomspace(1, 10, 6)
        with pytest.raises(FitError):
            fit_truncated_powerlaw((x, x**-1.0))

    def test_rank_deficient_design_rejected(self):
        # two distinct x values cannot fix three parameters, one cannot fix two
        x = np.repeat([2.0, 5.0], 5)
        with pytest.raises(FitError, match="degenerate design matrix"):
            fit_truncated_powerlaw((x, x**-1.0))
        x = np.full(10, 3.0)
        for fit in (fit_powerlaw, fit_truncated_powerlaw):
            with pytest.raises(FitError, match="degenerate design matrix"):
                fit((x, x**-1.0))

    def test_stderr_with_point_errors_is_inverse_gram(self):
        rng = rng_from_seed(7)
        x = np.geomspace(1, 300, 30)
        y = x**-0.6 * np.exp(-x / 80.0) * np.exp(0.02 * rng.standard_normal(x.size))
        err = y * np.linspace(0.01, 0.05, x.size)
        fit = fit_truncated_powerlaw((x, y), stderr=err)
        assert fit.cutoff_rate > 0
        design = np.column_stack([np.ones_like(x), -np.log(x), -x])
        gram = design.T @ (design / ((err / y) ** 2)[:, None])
        assert fit.stderr_exponent == pytest.approx(
            math.sqrt(np.linalg.inv(gram)[1, 1]), rel=1e-9
        )

    def test_upward_curvature_is_the_power_law_fit(self):
        # ln y convex in x: the free cut-off rate is negative, the bound binds
        x = np.geomspace(1, 200, 25)
        y = x**-0.5 * np.exp(x / 100.0)
        err = 0.03 * y
        for stderr in (None, err):
            tfit = fit_truncated_powerlaw((x, y), window=(2, 150), stderr=stderr)
            assert tfit == fit_powerlaw((x, y), window=(2, 150), stderr=stderr)
            assert tfit.cutoff_rate == 0.0


@pytest.mark.parametrize("fit", [fit_powerlaw, fit_truncated_powerlaw])
@pytest.mark.parametrize("x0", [0.0, -1.0])
def test_non_positive_x_rejected(fit, x0):
    x = np.geomspace(1, 100, 12)
    x[0] = x0
    with pytest.raises(FitError, match="strictly positive x"):
        fit((x, np.geomspace(1, 0.01, 12)))


@pytest.mark.parametrize("fit", [fit_powerlaw, fit_truncated_powerlaw])
@pytest.mark.parametrize("where", ["x", "y", "stderr"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_input_rejected(fit, where, bad):
    # a NaN value used to give exponent NaN with r^2 = 1, a NaN error an
    # all-NaN fit
    data = {"x": np.geomspace(1, 100, 12)}
    data["y"], data["stderr"] = data["x"] ** -0.5, np.full(12, 0.01)
    data[where][4] = bad
    with pytest.raises(FitError, match="finite"):
        fit((data["x"], data["y"]), stderr=data["stderr"])


X12 = np.geomspace(1, 100, 12)


@pytest.mark.parametrize("fit", [fit_powerlaw, fit_truncated_powerlaw])
@pytest.mark.parametrize(
    "data, kwargs, shown",
    [
        ((np.arange(1.0, 13.0), X12[:6]), {}, "one length"),
        ((X12, X12**-0.5), {"stderr": np.full(5, 0.01)}, "one length"),
        ((X12[:, None], X12[:, None] ** -0.5), {}, "1-D"),
        ((X12, X12**-0.5), {"window": (5,)}, "fit window must be two finite numbers"),
        ((X12, X12**-0.5), {"window": ("a", 30)}, "fit window must be two finite numbers"),
        ((X12, X12**-0.5), {"window": (1, math.inf)}, "fit window must be two finite numbers"),
        ((X12, X12**-0.5), {"window": (1, 30, 50)}, "fit window must be two finite numbers"),
    ],
    ids=["x-longer", "stderr-short", "two-d", "window-one", "window-string", "window-inf",
         "window-three"],
)
def test_malformed_fit_input_is_a_fit_error(fit, data, kwargs, shown):
    # unequal lengths and a one-number window raised a bare IndexError, a
    # string window a bare ValueError
    with pytest.raises(FitError, match=shown):
        fit(data, **kwargs)


class TestKs:
    def test_samples_from_their_own_cdf(self):
        rng = rng_from_seed(11)
        n = 10_000
        samples = rng.standard_normal(n)
        assert ks_distance(samples, norm.cdf) < 1.63 / math.sqrt(n)

    def test_constant_samples(self):
        samples = np.zeros(100)
        assert ks_distance(samples, norm.cdf) == pytest.approx(0.5, abs=1e-12)

    def test_invariant_under_monotone_reparametrization(self):
        rng = rng_from_seed(13)
        samples = rng.random(5000)
        d1 = ks_distance(samples, lambda x: np.clip(x, 0, 1))
        f = lambda x: np.exp(x)  # strictly increasing map
        d2 = ks_distance(f(samples), lambda y: np.clip(np.log(y), 0, 1))
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_needs_samples(self):
        with pytest.raises(FitError):
            ks_distance(np.arange(5), norm.cdf)

    def test_non_finite_sample_rejected(self):
        samples = rng_from_seed(11).standard_normal(100)
        samples[7] = math.nan
        with pytest.raises(FitError, match="finite"):
            ks_distance(samples, norm.cdf)

    @pytest.mark.parametrize(
        "cdf",
        [lambda x: np.full(x.shape, math.nan), lambda x: np.full(x.shape, 2.0),
         lambda x: np.full(x.shape, -0.1), lambda x: 0.5, lambda x: np.full((2, x.size), 0.5)],
        ids=["nan", "above-one", "below-zero", "scalar", "two-rows"],
    )
    def test_cdf_values_are_checked(self, cdf):
        # a NaN cdf gave nan, a cdf of 2.0 gave 2.0, a scalar was broadcast
        with pytest.raises(FitError, match="cdf values"):
            ks_distance(np.arange(20.0), cdf)

    @pytest.mark.parametrize("samples", [np.zeros((20, 2)), np.float64(0.5)], ids=["2-D", "0-D"])
    def test_sample_must_be_one_dimensional(self, samples):
        # a 2-D sample failed with a bare broadcast ValueError
        with pytest.raises(FitError, match="1-D sample"):
            ks_distance(samples, norm.cdf)

    def test_lamperti_samples_against_lamperti_cdf(self):
        # inverse-CDF sampling through the closed form, then KS against it
        params = LampertiParams(0.0, 1.0, 0.4764)
        rng = rng_from_seed(17)
        grid = np.linspace(1e-9, 1 - 1e-9, 200_001)
        cdf_grid = lamperti_cdf(params, grid)
        samples = np.interp(rng.random(20_000), cdf_grid, grid)
        assert ks_distance(samples, lambda x: lamperti_cdf(params, x)) < 0.02


class TestTailExponent:
    def _lamperti_samples(self, mu, n, seed):
        params = LampertiParams(0.0, 1.0, mu)
        rng = rng_from_seed(seed)
        # dense inverse-CDF grid, log-refined near the edges
        lo = np.geomspace(1e-9, 0.5, 60_000)
        grid = np.concatenate([lo, 1 - lo[::-1][1:]])
        cdf_grid = lamperti_cdf(params, grid)
        return np.interp(rng.random(n), cdf_grid, grid)

    def test_recovers_known_edge_exponent(self):
        mu = 0.4764
        samples = self._lamperti_samples(mu, 1_000_000, seed=19)
        fit = tail_exponent_at_edge(samples, edge=0.0, side="above", scale=1.0)
        assert fit.exponent == pytest.approx(mu - 1.0, abs=0.05)

    def test_recovers_mirrored_edge_exponent_below(self):
        mu = 0.4764
        samples = 1.0 - self._lamperti_samples(mu, 1_000_000, seed=19)
        fit = tail_exponent_at_edge(samples, edge=1.0, side="below", scale=1.0)
        assert fit.exponent == pytest.approx(mu - 1.0, abs=0.05)

    def test_flat_density_has_zero_slope(self):
        rng = rng_from_seed(23)
        samples = rng.random(2_000_000)
        fit = tail_exponent_at_edge(
            samples, edge=0.0, side="above", window_fractions=(1e-4, 1e-1), scale=1.0
        )
        assert fit.exponent == pytest.approx(0.0, abs=0.02)

    def test_too_few_tail_samples(self):
        rng = rng_from_seed(29)
        with pytest.raises(FitError):
            tail_exponent_at_edge(rng.random(2000), edge=0.0, side="above", scale=1.0)


    @pytest.mark.parametrize(
        "fractions, scale",
        [((0.0, 1e-3), 1.0), ((1e-3, 1e-3), 1.0), ((1e-2, 1e-3), 1.0), ((1e-6, 1e-3), 0.0),
         ((1e-6, 1e-3), math.inf), ((1e-6, 1e-3), None)],
        ids=["zero-lo", "empty-window", "reversed", "zero-scale", "inf-scale", "zero-span"],
    )
    def test_degenerate_window_rejected(self, fractions, scale):
        # every sample lies in [0, 1e-3], so no case stops at the sample
        # count; geomspace raised a bare ValueError at lo = 0 and at a zero
        # span (all samples at the edge)
        if scale is None:
            samples, edge = np.full(5000, 0.5), 0.5
        else:
            samples, edge = 1e-3 * rng_from_seed(31).random(5000), 0.0
        with pytest.raises(FitError, match="0 < lo < hi|scale must be finite"):
            tail_exponent_at_edge(samples, edge, window_fractions=fractions, scale=scale)

    @pytest.mark.parametrize("fractions", [(1e-3,), ("a", 1e-3), (1e-6, math.nan)])
    def test_fractions_must_be_two_finite_numbers(self, fractions):
        # one fraction raised a bare IndexError
        samples = 1e-3 * rng_from_seed(31).random(5000)
        with pytest.raises(FitError, match="window fractions must be two finite numbers"):
            tail_exponent_at_edge(samples, 0.0, window_fractions=fractions, scale=1.0)

    @pytest.mark.parametrize("samples", [[], [0.1, math.nan, 0.3]], ids=["empty", "nan"])
    def test_bad_sample_rejected(self, samples):
        with pytest.raises(FitError, match="finite sample"):
            tail_exponent_at_edge(np.asarray(samples), 0.0, scale=1.0)


def test_empirical_cdf_basic():
    cdf = empirical_cdf(np.array([1.0, 2.0, 3.0, 4.0]))
    assert cdf(0.5) == 0.0
    assert cdf(2.5) == 0.5
    assert cdf(10.0) == 1.0


@pytest.mark.parametrize("samples", [[], [1.0, math.nan]], ids=["empty", "nan"])
def test_empirical_cdf_needs_finite_samples(samples):
    # an empty sample used to divide by zero at every call
    with pytest.raises(FitError, match="empirical CDF needs"):
        empirical_cdf(samples)
