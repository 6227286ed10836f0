import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

import conewise.spectral as spectral
from conewise import (
    DegenerateProcessError,
    InvalidSpecError,
    NumericalError,
    SpectralModel,
    correlator,
    correlator_asymptotic,
    effective_dimension,
    moment_asymptotic,
    moment_f,
    persistence_exponent,
    theta_reference,
)
from conewise.spectral import (
    THETA_TABLE,
    _LOG_ZERO,
    _signed_log_sum,
    g_array,
    log_moment_array,
    log_moments,
)

SEMI = SpectralModel.semicircle(0, 2)
BETA3 = SpectralModel.symmetric_beta(3)
UNIFORM = SpectralModel.symmetric_beta(2)


# Adaptive-quadrature moments: the cross-check of the closed-form engine.

_QUAD_RELTOL = 1e-9


def _check_quad(val: float, err: float, what: str) -> float:
    if val <= 0 or not math.isfinite(val):
        raise NumericalError(f"quadrature for {what} returned {val!r}")
    if err > max(_QUAD_RELTOL * abs(val), 1e-300):
        raise NumericalError(
            f"quadrature for {what} did not converge: value {val!r}, abs error {err!r}"
        )
    return val


def _log_piece_moment(dens, w_lo: float, w_hi: float, t: int, what: str, kinks) -> float:
    """log of integral of dens(w) * w**t over [w_lo, w_hi], 0 <= w_lo < w_hi.

    ``kinks`` are the points where ``dens`` is not smooth; those inside the
    range become quadrature breakpoints.
    """
    if w_hi <= 0.0:
        return _LOG_ZERO
    w_lo = max(w_lo, 0.0)
    kinks = [w for w in kinks if w_lo < w < w_hi]
    def safe(f):
        # integrable edge divergences can evaluate to inf/nan at points that
        # round onto the support boundary; those points carry no mass
        def g(x: float) -> float:
            y = f(x)
            return y if math.isfinite(y) else 0.0

        return g

    with warnings.catch_warnings():
        # the returned abserr is checked below, which is the honest gate
        warnings.simplefilter("ignore", IntegrationWarning)
        if t == 0:
            val, err = quad(
                safe(dens), w_lo, w_hi, epsabs=1e-14, epsrel=1e-12,
                limit=300 + len(kinks), points=kinks or None,
            )
            return math.log(_check_quad(val, err, what))
        # w = w_hi * exp(-s/t) concentrates the large-t mass near s = 0 and
        # flattens the w**t factor into exp(-s).
        s_max = math.inf if w_lo == 0.0 else t * math.log(w_hi / w_lo)
        s_max = min(s_max, 745.0)
        c = (t + 1.0) / t
        points = [s for s in (t * math.log(w_hi / w) for w in kinks) if 0.0 < s < s_max]

        def integrand(s: float) -> float:
            return dens(w_hi * math.exp(-s / t)) * math.exp(-s * c)

        val, err = quad(
            safe(integrand), 0.0, s_max, epsabs=0.0, epsrel=1e-11,
            limit=400 + len(points), points=points or None,
        )
    _check_quad(val, err, what)
    return (t + 1.0) * math.log(w_hi) - math.log(t) + math.log(val)


def log_abs_moment_quadrature(spec: SpectralModel, t: int) -> tuple[float, int]:
    """(log|f(t)|, sign) by adaptive quadrature; generic but slower route."""
    if spec.is_atomic:
        raise InvalidSpecError("atomic spectra have no density to integrate")
    what = f"moment t={t} of {spec.describe()}"
    dens = lambda w: float(spec.density(w))
    nodes = spec.params[0] if spec.family == "tabulated" else ()  # kinks of a tabulated density
    log_pos = _LOG_ZERO
    if spec.nu_plus > 0:
        log_pos = _log_piece_moment(dens, max(spec.nu_minus, 0.0), spec.nu_plus, t, what, nodes)
    log_neg = _LOG_ZERO
    if spec.nu_minus < 0:
        dens_neg = lambda w: float(spec.density(-w))
        log_neg = _log_piece_moment(
            dens_neg, max(-spec.nu_plus, 0.0), -spec.nu_minus, t, what, [-w for w in nodes]
        )
    logf, sign = _signed_log_sum(log_pos, 1, log_neg, 1 if t % 2 == 0 else -1)
    return float(logf), int(sign)


class TestMoments:
    def test_uniform_second_moment(self):
        assert moment_f(UNIFORM, 2) == pytest.approx(1 / 3, rel=1e-12)

    def test_semicircle_catalan(self):
        # central moments of the unit-variance semicircle are Catalan numbers
        assert moment_f(SEMI, 2) == pytest.approx(1.0, rel=1e-12)
        assert moment_f(SEMI, 4) == pytest.approx(2.0, rel=1e-12)
        assert moment_f(SEMI, 6) == pytest.approx(5.0, rel=1e-12)
        assert moment_f(SEMI, 3) == 0.0

    def test_beta3_second_moment(self):
        assert moment_f(BETA3, 2) == pytest.approx(5 / 16, rel=1e-12)

    def test_normalization_always_one(self):
        for spec in (SEMI, BETA3, UNIFORM, SpectralModel.semicircle(3, 2)):
            assert moment_f(spec, 0) == pytest.approx(1.0, abs=1e-10)

    def test_beta_nonincreasing_on_unit_support(self):
        vals = [moment_f(BETA3, t) for t in range(0, 40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_quadrature_route_matches_closed_forms(self):
        for spec in (BETA3, UNIFORM, SpectralModel.symmetric_beta(1)):
            for t in (0, 1, 2, 5, 40, 300):
                lq, sq = log_abs_moment_quadrature(spec, t)
                (lc,), (sc,) = log_moments(spec, [t])
                assert sq == sc
                assert lq == pytest.approx(lc, abs=1e-9)
        for t in (0, 2, 4, 10, 100):
            lq, sq = log_abs_moment_quadrature(SEMI, t)
            (lc,), (sc,) = log_moments(SEMI, [t])
            assert (sq, sc) == (1, 1)
            assert lq == pytest.approx(lc, abs=1e-8)

    def test_shifted_semicircle_low_moments(self):
        # center 3, radius 2: variance of the semicircle is (r/2)^2 = 1
        sh = SpectralModel.semicircle(3, 2)
        assert moment_f(sh, 1) == pytest.approx(3.0, rel=1e-10)
        assert moment_f(sh, 2) == pytest.approx(10.0, rel=1e-10)


def _exact_tabulated_moment(spec, t):
    """Moment t of a piecewise-linear density in exact rational arithmetic."""
    nus, rhos = ([Fraction(v) for v in col] for col in spec.params)
    total = Fraction(0)
    for x0, x1, r0, r1 in zip(nus, nus[1:], rhos, rhos[1:]):
        slope = (r1 - r0) / (x1 - x0)
        icpt = r0 - slope * x0
        total += icpt * (x1 ** (t + 1) - x0 ** (t + 1)) / (t + 1)
        total += slope * (x1 ** (t + 2) - x0 ** (t + 2)) / (t + 2)
    return total


_WIDE = np.linspace(-1.0, 2.0, 201)


class TestMomentOverflow:
    def test_even_order_overflows_to_inf(self):
        assert moment_f(SpectralModel.semicircle(0, 4), 1200) == math.inf

    def test_odd_order_of_centred_model_is_zero(self):
        assert moment_f(SpectralModel.semicircle(0, 4), 1201) == 0.0

    def test_negative_atom_odd_order_overflows_to_minus_inf(self):
        assert moment_f(SpectralModel.atomic(-3), 1201) == -math.inf


def _shifted_semicircle_moment(t):
    """Exact moment t of semicircle(3, 2): sum_j C(t, 2j) 3**(t-2j) Cat(j)."""
    return sum(
        math.comb(t, 2 * j) * 3 ** (t - 2 * j) * math.comb(2 * j, j) // (j + 1)
        for j in range(t // 2 + 1)
    )


_TABLES = [
    SpectralModel.tabulated(np.linspace(0.1, 1.2, 11), np.linspace(0.2, 1, 11) ** 2),
    SpectralModel.tabulated(_WIDE[::25], 1 + np.abs(np.sin(3 * _WIDE[::25]))),
    SpectralModel.tabulated(_WIDE, 1 + np.abs(np.sin(3 * _WIDE))),
]
_TABLE_IDS = ["11-point", "9-point-signed", "201-point-signed"]


class TestMomentEngine:
    def test_views_agree_with_engine(self):
        ks = np.array([[0, 1, 2], [7, 8, 31]])
        for spec in (SEMI, BETA3, SpectralModel.atomic(-1.5), SpectralModel.semicircle(3, 2)):
            logs, signs = log_moments(spec, ks)
            assert logs.shape == signs.shape == ks.shape
            full_logs, full_signs = log_moment_array(spec, 31)
            assert np.array_equal(full_logs[ks], logs)
            assert np.array_equal(full_signs[ks], signs)
            for k, lk, sk in zip(ks.ravel(), logs.ravel(), signs.ravel()):
                assert moment_f(spec, int(k)) == int(sk) * math.exp(lk)
            assert np.array_equal(g_array(spec, [1, 4]), 0.5 * full_logs[[2, 8]])

    def test_atomic_signs(self):
        logs, signs = log_moments(SpectralModel.atomic(-2.0), [0, 1, 2, 3])
        assert signs.tolist() == [1, -1, 1, -1]
        assert np.allclose(np.exp(logs), [1, 2, 4, 8], rtol=1e-15)
        logs, signs = log_moments(SpectralModel.atomic(0.0), [0, 1, 2])
        assert signs.tolist() == [1, 0, 0] and logs[0] == 0.0

    def test_odd_orders_of_symmetric_table_vanish(self):
        sym = SpectralModel.tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        (log3,), (sign3,) = log_moments(sym, [3])
        assert (log3, sign3) == (-math.inf, 0)
        assert moment_f(sym, 2) == pytest.approx(1 / 6, rel=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidSpecError):
            log_moments(BETA3, [2, -1])

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: moment_f(s, 2.5),
            lambda s: g_array(s, [3.7]),
            lambda s: moment_f(s, math.inf),
            lambda s: moment_f(s, math.nan),
            lambda s: log_moments(s, np.array([2.0, -math.inf])),
            lambda s: correlator(s, 1.5, 2),
            lambda s: correlator(s, 2, math.nan),
        ],
        ids=["moment", "g", "inf", "nan", "array-inf", "correlator", "correlator-nan"],
    )
    def test_non_integral_orders_rejected(self, call):
        with pytest.raises(InvalidSpecError, match="finite integers"):
            call(SpectralModel.semicircle(0.5, 1.0))

    @pytest.mark.parametrize("kmax", [2.5, 3.7, math.inf, -math.inf, math.nan])
    def test_non_integral_top_order_rejected(self, kmax):
        with pytest.raises(InvalidSpecError, match="finite integers"):
            log_moment_array(SpectralModel.semicircle(0.5, 1.0), kmax)

    def test_integral_float_orders_count_as_integers(self):
        spec = SpectralModel.semicircle(0.5, 1.0)
        assert all(
            np.array_equal(a, b) for a, b in zip(log_moment_array(spec, 4.0), log_moment_array(spec, 4))
        )
        assert moment_f(spec, 2.0) == moment_f(spec, 2) == pytest.approx(0.5, rel=1e-15)
        assert np.array_equal(g_array(spec, [3.0, 5]), g_array(spec, [3, 5]))
        assert correlator(spec, 2.0, 3.0) == correlator(spec, 2, 3)

    @pytest.mark.parametrize("spec, rel", zip(_TABLES, [1e-13, 1e-13, 1e-12]), ids=_TABLE_IDS)
    def test_tabulated_moments_exact(self, spec, rel):
        # every table node is a kink of the density
        for t in (0, 1, 2, 5, 20):
            assert moment_f(spec, t) == pytest.approx(float(_exact_tabulated_moment(spec, t)), rel=rel)

    @pytest.mark.parametrize("spec", _TABLES, ids=_TABLE_IDS)
    def test_tabulated_high_order_exact(self, spec):
        assert moment_f(spec, 900) == pytest.approx(float(_exact_tabulated_moment(spec, 900)), rel=1e-11)

    def test_shifted_semicircle_exact(self):
        ks = np.array([1, 2, 3, 10, 100, 511, 512, 4096])
        logs, signs = log_moments(SpectralModel.semicircle(3, 2), ks)
        assert np.all(signs == 1)
        for k, lk in zip(ks, logs):
            # |log f - log exact| bounds the relative error to first order
            assert abs(lk - math.log(_shifted_semicircle_moment(int(k)))) <= (
                1e-12 if k <= 512 else 1e-10
            )

    def test_negative_centre_mirrors_signs(self):
        ks = np.arange(40)
        logs, signs = log_moments(SpectralModel.semicircle(-0.5, 1.0), ks)
        mirror_logs, mirror_signs = log_moments(SpectralModel.semicircle(0.5, 1.0), ks)
        assert np.array_equal(logs, mirror_logs)
        assert np.all(mirror_signs == 1)
        assert np.array_equal(signs, np.where(ks % 2 == 1, -1, 1))
        assert moment_f(SpectralModel.semicircle(-0.5, 1.0), 3) == pytest.approx(-0.5**3 - 3 * 0.5 / 4)

    def test_table_growth_does_not_change_values(self):
        spec = SpectralModel.semicircle(0.7, 1.3)
        spectral._semicircle_table.cache_clear()
        grown = [log_moments(spec, [k])[0][0] for k in (3, 40, 1000, 5000)]
        spectral._semicircle_table.cache_clear()
        once = log_moments(spec, np.arange(5001))[0]
        assert [once[k] for k in (3, 40, 1000, 5000)] == grown

    def test_runtime_routes_never_integrate(self):
        # a fresh interpreter, so that only the package's own imports count;
        # the specs cross over by their exact repr
        specs = [SpectralModel.semicircle(0.5, 1.0), *_TABLES]
        script = f"""
import importlib, pkgutil, sys
import conewise
from conewise.spectra import SpectralModel
from conewise.spectral import correlator, g_array, log_moment_array
for mod in pkgutil.iter_modules(conewise.__path__):
    importlib.import_module("conewise." + mod.name)
for spec in {specs!r}:
    log_moment_array(spec, 600)
    g_array(spec, [1, 7, 40_000])
    correlator(spec, 3, 5)
loaded = [m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules]
assert not loaded, f"loaded {{loaded}}"
"""
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", script], capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr


class TestMomentAsymptotics:
    def test_beta3_ratio_at_large_t(self):
        t = 10_000
        assert moment_asymptotic(BETA3, t) / moment_f(BETA3, t) == pytest.approx(1.0, abs=0.02)

    def test_uniform_exact_form(self):
        # alpha = 0, K = 1: estimate is 1/t against the exact 1/(t+1)
        for t in (10, 100, 10_000):
            assert moment_asymptotic(UNIFORM, t) == pytest.approx(1.0 / t, rel=1e-12)
            assert moment_f(UNIFORM, t) == pytest.approx(1.0 / (t + 1), rel=1e-9)

    def test_atomic_rejected(self):
        with pytest.raises(InvalidSpecError):
            moment_asymptotic(SpectralModel.atomic(2.0), 10)

    def test_negative_edge_rejected(self):
        with pytest.raises(InvalidSpecError):
            moment_asymptotic(SpectralModel.semicircle(-5, 2), 10)

    def test_overflows_to_inf(self):
        # as moment_f does; it used to raise a bare OverflowError
        assert moment_asymptotic(SEMI, 2000) == math.inf == moment_f(SEMI, 2000)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(InvalidSpecError, match="finite t >= 1"):
            moment_asymptotic(SEMI, t)

    def test_shifted_semicircle_ratio(self):
        sh = SpectralModel.semicircle(3, 2)
        from conewise.spectral import log_moment_asymptotic

        (lq,), _ = log_moments(sh, [10_000])
        assert math.exp(log_moment_asymptotic(sh, 10_000) - lq) == pytest.approx(1.0, abs=0.02)


class TestCorrelator:
    def test_equal_times_is_one(self):
        for spec in (SEMI, BETA3, UNIFORM):
            for t in (0, 1, 7, 100):
                assert correlator(spec, t, t) == pytest.approx(1.0, abs=1e-12)

    def test_checkerboard_zeros(self):
        for t in range(0, 8):
            for s in range(0, 8):
                if (t + s) % 2 == 1:
                    assert correlator(SEMI, t, s) == 0.0

    def test_beta3_matches_asymptotic_form(self):
        val = correlator(BETA3, 100, 200)
        ref = correlator_asymptotic(BETA3.alpha, 100, 200)
        assert val == pytest.approx(ref, rel=0.01)

    @given(
        t=st.integers(min_value=0, max_value=400),
        s=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=60, deadline=None)
    def test_cauchy_schwarz_bound(self, t, s):
        for spec in (BETA3, SEMI):
            assert abs(correlator(spec, t, s)) <= 1.0

    def test_asymptotic_consistency_window(self):
        for d in (2, 3, 5):
            spec = SpectralModel.symmetric_beta(d)
            for t, s in [(1000, 1000), (1000, 2500), (4000, 1000)]:
                ratio = correlator(spec, t, s) / correlator_asymptotic(spec.alpha, t, s)
                assert ratio == pytest.approx(1.0, abs=0.01)

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateProcessError):
            correlator(SpectralModel.atomic(0.0), 1, 1)


class TestCorrelatorAsymptotic:
    def test_equal_times(self):
        assert correlator_asymptotic(0.5, 100, 100) == 1.0

    def test_pinned_value(self):
        assert correlator_asymptotic(0.5, 100, 400) == pytest.approx((4 / 5) ** 1.5, rel=1e-12)
        assert correlator_asymptotic(0.5, 100, 400) == pytest.approx(0.71554, abs=1e-5)

    @pytest.mark.parametrize(
        "alpha, t, s",
        [(math.nan, 100, 400), (math.inf, 100, 400), (0.5, math.nan, 400), (0.5, 100, math.inf),
         (0.5, math.inf, math.inf)],
    )
    def test_non_finite_input_rejected(self, alpha, t, s):
        with pytest.raises(InvalidSpecError, match="needs finite alpha"):
            correlator_asymptotic(alpha, t, s)

    def test_alpha_zero_is_planar_form(self):
        t, s = 123.0, 456.0
        assert correlator_asymptotic(0.0, t, s) == pytest.approx(
            2 * math.sqrt(t * s) / (t + s), rel=1e-14
        )


class TestGFunction:
    def test_atomic_exponential(self):
        assert g_array(SpectralModel.atomic(math.e), [5])[0] == pytest.approx(5.0, rel=1e-12)

    def test_semicircle_first_value(self):
        assert g_array(SEMI, [1])[0] == pytest.approx(0.0, abs=1e-12)

    def test_beta3_large_tau_matches_edge_asymptotics(self):
        # on [0,1] the edge is 1: g(tau) -> 1/2 ln of the edge moment estimate
        from conewise.spectral import log_moment_asymptotic

        tau = 500
        g = float(g_array(BETA3, [tau])[0])
        assert g == pytest.approx(0.5 * log_moment_asymptotic(BETA3, 2 * tau), rel=0.01)
        # and g(tau)/tau drifts to ln(nu_plus) = 0 with the ln(2 tau)/tau correction
        assert g / tau == pytest.approx(0.0, abs=2 * (BETA3.alpha + 1) * math.log(2 * tau) / (2 * tau))

    def test_g_array_matches_scalar(self):
        # g(tau) = 1/2 ln f(2 tau) against the scalar moment route
        taus = np.array([1, 2, 3, 10, 77])
        for spec in (SEMI, BETA3, SpectralModel.semicircle(3, 2)):
            arr = g_array(spec, taus)
            ref = [0.5 * math.log(moment_f(spec, 2 * int(t))) for t in taus]
            assert np.allclose(arr, ref, rtol=1e-10)


class TestDiffusionCorrespondence:
    def test_effective_dimension(self):
        assert effective_dimension(0.5) == 3.0
        assert effective_dimension(0.0) == 2.0

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_effective_dimension_needs_finite_alpha(self, alpha):
        with pytest.raises(InvalidSpecError, match="must be finite"):
            effective_dimension(alpha)

    def test_theta_values(self):
        assert theta_reference(3) == 0.2382
        assert theta_reference(2) == 3 / 16
        assert list(THETA_TABLE) == sorted(THETA_TABLE)
        vals = [THETA_TABLE[d] for d in sorted(THETA_TABLE)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_no_interpolation(self):
        with pytest.raises(InvalidSpecError):
            theta_reference(6)

    @pytest.mark.parametrize("d", [True, np.True_])
    def test_bool_is_not_a_dimension(self, d):
        with pytest.raises(InvalidSpecError, match="got True"):
            theta_reference(d)

    def test_symmetry_detection(self):
        assert SEMI.symmetric_about_zero
        assert not BETA3.symmetric_about_zero
        assert not SpectralModel.semicircle(3, 2).symmetric_about_zero
        # exact, as the moment engine's zero odd moments: a shift of 1e-13
        # is not symmetric
        assert not SpectralModel.semicircle(1e-13, 2).symmetric_about_zero

    def test_persistence_exponent_doubling(self):
        assert persistence_exponent(SEMI) == pytest.approx(2 * 0.2382)
        assert persistence_exponent(BETA3) == pytest.approx(0.2382)
        assert persistence_exponent(UNIFORM) == pytest.approx(3 / 16)

    def test_persistence_exponent_outside_table(self):
        with pytest.raises(InvalidSpecError):
            persistence_exponent(SpectralModel.symmetric_beta(2.5))
