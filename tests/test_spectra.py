import numpy as np
import pytest
from scipy.integrate import quad

from conewise import EnsembleSpec, InvalidSpecError, SpectralModel, inverse_cdf
from conewise.spectra import quantile_grid


def quad_cdf(spec, x):
    """Independent oracle: direct quadrature of the density up to x."""
    val, _ = quad(lambda v: float(spec.density(v)), spec.nu_minus, x, limit=200)
    return val


class TestConstruction:
    def test_semicircle_edges_and_alpha(self):
        sc = SpectralModel.semicircle(3.0, 2.0)
        assert sc.nu_minus == 1.0 and sc.nu_plus == 5.0
        assert sc.alpha == 0.5

    def test_beta_alpha_from_dimension(self):
        for d in (1, 2, 3, 4, 5):
            b = SpectralModel.symmetric_beta(d)
            assert b.alpha == pytest.approx(d / 2 - 1)
            assert (b.nu_minus, b.nu_plus) == (0.0, 1.0)

    def test_atomic_degenerate_support(self):
        a = SpectralModel.atomic(0.7)
        assert a.nu_minus == a.nu_plus == 0.7

    def test_invalid_radius(self):
        with pytest.raises(InvalidSpecError):
            SpectralModel.semicircle(0.0, -1.0)

    def test_tabulated_negative_density_rejected(self):
        with pytest.raises(InvalidSpecError):
            SpectralModel.tabulated([0, 0.5, 1], [0.5, -0.1, 0.5])

    def test_tabulated_non_increasing_grid_rejected(self):
        with pytest.raises(InvalidSpecError):
            SpectralModel.tabulated([0, 0.5, 0.5], [1, 1, 1])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SpectralModel.symmetric_beta(np.nan),
            lambda: SpectralModel.symmetric_beta(np.inf),
            lambda: SpectralModel.atomic(np.nan),
            lambda: SpectralModel.atomic(-np.inf),
            lambda: SpectralModel.semicircle(0.0, np.inf),
            lambda: SpectralModel.semicircle(np.nan, 1.0),
            lambda: SpectralModel.tabulated([0, np.nan, 1], [1, 1, 1]),
            lambda: SpectralModel.tabulated([0, 0.5, np.inf], [1, 1, 1]),
            lambda: SpectralModel.tabulated([0, 0.5, 1], [1, np.nan, 1]),
            lambda: SpectralModel.tabulated([0, 0.5, 1], [1, np.inf, 1]),
            lambda: SpectralModel.tabulated([0, 0.5, 1], [1, 1, 0], alpha=np.nan),
            lambda: SpectralModel.tabulated([0, 0.5, 1], [1, 1, 0], alpha=np.inf),
            lambda: SpectralModel.tabulated([0, 0.5, 1], [1, 1, 0], edge_constant=np.nan),
            lambda: SpectralModel.tabulated([0, 0.5, 1], [1, 1, 0], edge_constant=np.inf),
        ],
        ids=[
            "beta-nan", "beta-inf", "atomic-nan", "atomic-inf", "semicircle-inf-radius",
            "semicircle-nan-center", "tabulated-nan-node", "tabulated-inf-node",
            "tabulated-nan-density", "tabulated-inf-density", "tabulated-nan-alpha",
            "tabulated-inf-alpha", "tabulated-nan-edge-constant", "tabulated-inf-edge-constant",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_non_finite_parameters_rejected(self, build):
        # a NaN edge exponent used to reach persistence_exponent as a bare
        # ValueError and self_averaging_value as a silent NaN
        with pytest.raises(InvalidSpecError, match="finite"):
            build()

    @pytest.mark.parametrize(
        "edge, shown",
        [({"alpha": -1.0}, "> -1"), ({"alpha": -3.0}, "> -1"), ({"edge_constant": 0.0}, "> 0"),
         ({"edge_constant": -1.0}, "> 0")],
        ids=["alpha-minus-one", "alpha-minus-three", "edge-constant-zero", "edge-constant-negative"],
    )
    def test_tabulated_edge_data_out_of_range_rejected(self, edge, shown):
        with pytest.raises(InvalidSpecError, match=shown):
            SpectralModel.tabulated([0, 0.5, 1], [1, 1, 0], **edge)
        assert SpectralModel.tabulated([0, 0.5, 1], [1, 1, 0], alpha=-0.5, edge_constant=2.0)


class TestNormalization:
    @pytest.mark.parametrize(
        "spec",
        [
            SpectralModel.semicircle(0, 2),
            SpectralModel.semicircle(-1.5, 0.25),
            SpectralModel.symmetric_beta(1),
            SpectralModel.symmetric_beta(3),
            SpectralModel.tabulated(np.linspace(-1, 2, 40), np.linspace(0.1, 1.0, 40)),
        ],
    )
    def test_density_integrates_to_one(self, spec):
        total = quad_cdf(spec, spec.nu_plus)
        assert total == pytest.approx(1.0, abs=1e-10)
        assert spec.normalization_defect() < 1e-10


class TestInverseCdf:
    def test_uniform_median(self):
        u = SpectralModel.symmetric_beta(2)
        assert inverse_cdf(u, 0.5) == pytest.approx(0.5, abs=1e-10)

    def test_semicircle_median(self):
        sc = SpectralModel.semicircle(0, 2)
        assert inverse_cdf(sc, 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_beta3_quartile_vs_quadrature_oracle(self):
        b3 = SpectralModel.symmetric_beta(3)
        v = inverse_cdf(b3, 0.25)
        assert quad_cdf(b3, v) == pytest.approx(0.25, abs=1e-8)

    @pytest.mark.parametrize("u", [0.0, 1e-4, 0.31, 0.77, 1.0])
    def test_tabulated_roundtrip(self, u):
        spec = SpectralModel.tabulated(np.linspace(0, 1, 17), 1 + np.sin(np.linspace(0, 3, 17)))
        v = inverse_cdf(spec, u)
        assert float(spec.cdf(v)) == pytest.approx(u, abs=1e-10)

    def test_out_of_range_level(self):
        with pytest.raises(InvalidSpecError):
            inverse_cdf(SpectralModel.symmetric_beta(2), 1.5)
        with pytest.raises(InvalidSpecError):
            inverse_cdf(SpectralModel.symmetric_beta(2), np.array([0.2, -0.1]))

    def test_array_levels_match_scalar_levels(self):
        spec = SpectralModel.semicircle(0.5, 1.0)
        u = np.array([[0.0, 0.1, 0.5], [0.9, 0.999, 1.0]])
        v = inverse_cdf(spec, u)
        assert v.shape == u.shape
        assert np.array_equal(v, [[inverse_cdf(spec, ui) for ui in row] for row in u])
        assert np.allclose(spec.cdf(v), u, atol=1e-12)


class TestSymmetry:
    def test_exact_symmetry_flags(self):
        assert SpectralModel.semicircle(0, 2).symmetric_about_zero
        assert not SpectralModel.semicircle(0.1, 2).symmetric_about_zero
        assert not SpectralModel.symmetric_beta(3).symmetric_about_zero
        grid = np.linspace(-1, 1, 21)
        assert SpectralModel.tabulated(grid, 1 - grid**2).symmetric_about_zero


def test_quantile_grid_is_sorted_and_symmetric():
    b3 = SpectralModel.symmetric_beta(3)
    qs = quantile_grid(b3, 64)
    assert np.all(np.diff(qs) > 0)
    # symmetric density on [0,1]: quantiles pair up around 1/2
    assert np.allclose(qs + qs[::-1], 1.0, atol=1e-9)


def test_quantile_grid_cached_read_only():
    spec = SpectralModel.semicircle(0.5, 1.0)
    quantile_grid.cache_clear()
    a = EnsembleSpec.invariant(spec, 48).sample(1)
    b = EnsembleSpec.invariant(spec, 48).sample(2)
    assert quantile_grid.cache_info().misses == 1
    assert not np.array_equal(a, b)
    grid = quantile_grid(spec, 48)
    assert grid is quantile_grid(spec, 48)
    with pytest.raises(ValueError):
        grid[0] = 0.0
