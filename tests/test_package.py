import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import conewise
from conewise import (
    CollapseUndefinedError,
    DegenerateProcessError,
    EnsembleSpec,
    FitError,
    InvalidSpecError,
    SpectralModel,
    dynamics,
    ensembles,
    renewal,
    sample_haar_orthogonal,
    surrogate,
)
from conewise.dynamics import (
    elliptic_persistence,
    estimate_persistence_matrix,
    evolve,
    goe_family,
    lyapunov_runs,
    scaling_collapse,
    top_eigenvalue_check,
)
from conewise.estimators import FitResult, tail_exponent_at_edge
from conewise.records import LyapunovSamples, PersistenceCurve, check_grid
from conewise.renewal import (
    LampertiParams,
    RenewalConfig,
    lamperti_cdf,
    sample_renewal_lyapunov,
    self_averaging_value,
    stieltjes_rhs,
)
from conewise.spectra import quantile_grid
from conewise.spectral import correlator, g_array, persistence_exponent
from conewise.surrogate import estimate_persistence_gp, joint_persistence

MODULES = sorted(m.name for m in pkgutil.iter_modules(conewise.__path__, "conewise."))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.parametrize("name", ["conewise", *MODULES])
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


# Every public name of the package and of each module.  A name added to or
# removed from the public surface must show here as a deliberate change.
PUBLIC = {
    "conewise": [
        "CollapseUndefinedError", "ConewiseError", "DegenerateDynamicsError",
        "DegenerateProcessError", "EnsembleSpec", "FitError", "InvalidSpecError",
        "NumericalError", "SpectralModel", "THETA_TABLE", "correlator", "correlator_asymptotic",
        "derive_seed", "effective_dimension", "inverse_cdf", "moment_asymptotic", "moment_f",
        "persistence_exponent", "rng_from_seed", "sample_haar_orthogonal", "splitmix64",
        "theta_reference",
    ],
    "conewise.dynamics": [
        "LyapunovRunSet", "ScalingCollapse", "TopEigenvalueCheck", "Trajectory",
        "elliptic_persistence", "estimate_persistence_matrix", "evolve", "goe_family",
        "lyapunov_runs", "scaling_collapse", "top_eigenvalue_check", "trapped_run_edge_pairs",
    ],
    "conewise.ensembles": ["EnsembleSpec", "sample_haar_orthogonal"],
    "conewise.errors": [
        "CollapseUndefinedError", "ConewiseError", "DegenerateDynamicsError",
        "DegenerateProcessError", "FitError", "InvalidSpecError", "NumericalError",
        "check_count", "integer_array",
    ],
    "conewise.estimators": [
        "FitResult", "empirical_cdf", "fit_powerlaw", "fit_truncated_powerlaw", "ks_distance",
        "tail_exponent_at_edge",
    ],
    "conewise.parallel": ["map_index_chunks"],
    "conewise.records": ["LyapunovSamples", "PersistenceCurve", "log_tau_grid"],
    "conewise.renewal": [
        "LampertiParams", "RenewalConfig", "RenewalRun", "interval_survival", "lamperti_cdf",
        "lamperti_pdf", "sample_power_law_intervals", "sample_renewal_lyapunov",
        "self_averaging_value", "simulate_renewal_run", "stieltjes_rhs",
    ],
    "conewise.seeding": ["check_seed", "derive_seed", "rng_from_seed", "splitmix64"],
    "conewise.spectra": ["SpectralModel", "edge_rate", "inverse_cdf"],
    "conewise.spectral": [
        "THETA_TABLE", "correlator", "correlator_asymptotic", "effective_dimension", "g_array",
        "log_moment_array", "log_moments", "moment_asymptotic", "moment_f",
        "persistence_exponent", "theta_reference",
    ],
    "conewise.surrogate": ["build_covariance", "estimate_persistence_gp", "joint_persistence"],
}


def _public_names(module) -> list[str]:
    """``__all__``, or else the public names the module itself defines."""
    if hasattr(module, "__all__"):
        return sorted(module.__all__)
    return sorted(
        name for name, value in vars(module).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
    )


def test_public_surface_is_pinned():
    found = {name: _public_names(importlib.import_module(name)) for name in ["conewise", *MODULES]}
    assert found == PUBLIC


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text()).get("project", {}).get("scripts", {})
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the sizes were checked")


GOE16 = EnsembleSpec.goe(16)
BETA3 = SpectralModel.symmetric_beta(3)
EYE = np.eye(4)
EDGE_AT_ZERO = SpectralModel.semicircle(-1, 1)
SEMI = SpectralModel.semicircle(0, 2)
RENEWAL = RenewalConfig.exact_spectral(0.5, 0.5, BETA3, BETA3, tau_min=1, horizon=100)


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: estimate_persistence_gp(BETA3, 8, 10.0, seed=0), "10.0"),
        (lambda: estimate_persistence_gp(BETA3, 8.0, 10, seed=0), "8.0"),
        (lambda: joint_persistence(BETA3, 1, 8, 10.0, seed=0), "10.0"),
        (lambda: joint_persistence(BETA3, 3, 8.0, 10, seed=0), "8.0"),
        (lambda: joint_persistence(BETA3, 2.0, 8, 10, seed=0), "2.0"),
        (lambda: estimate_persistence_matrix(GOE16, GOE16, 4.0, T=5, seed=0), "4.0"),
        (lambda: estimate_persistence_matrix(GOE16, GOE16, 4, T=5.0, seed=0), "5.0"),
        (lambda: lyapunov_runs(GOE16, GOE16, 4.0, T=50, seed=0), "4.0"),
        (lambda: lyapunov_runs(GOE16, GOE16, 4, T=50.0, seed=0), "50.0"),
        (lambda: evolve([EYE, EYE], np.ones(4), 5.0), "5.0"),
        (lambda: evolve([EYE] * 4, np.ones(4), 5.0), "5.0"),
        (lambda: sample_renewal_lyapunov(RENEWAL, 10.0), "10.0"),
        (lambda: RenewalConfig.exact_spectral(0.5, 0.5, BETA3, BETA3, 1, 1000.5), "1000.5"),
        (lambda: RenewalConfig.exact_spectral(0.5, 0.5, BETA3, BETA3, 2.5, 1000), "2.5"),
        (lambda: self_averaging_value(BETA3, BETA3, 1.5, tau_min=1.5), "1.5"),
        (lambda: sample_haar_orthogonal(2.5, 1), "2.5"),
        (lambda: sample_haar_orthogonal(True, 1), "True"),
    ],
    ids=[
        "gp-paths", "gp-horizon", "joint-paths", "joint-horizon", "joint-components",
        "matrix-realizations", "matrix-horizon", "lyapunov-runs", "lyapunov-horizon",
        "evolve-horizon", "multicone-horizon", "renewal-samples", "renewal-horizon",
        "renewal-tau-min", "self-averaging-tau-min", "haar-float", "haar-bool",
    ],
)
def test_non_integer_sizes_are_typed_before_any_work(call, shown, monkeypatch):
    monkeypatch.setattr(surrogate, "log_moment_array", _no_work)
    monkeypatch.setattr(ensembles, "_haar_orthogonal", _no_work)
    monkeypatch.setattr(dynamics, "_persistence_chunk", _no_work)
    monkeypatch.setattr(dynamics, "_lyapunov_chunk", _no_work)
    monkeypatch.setattr(dynamics, "rng_from_seed", _no_work)
    monkeypatch.setattr(renewal, "rng_from_seed", _no_work)
    monkeypatch.setattr(renewal, "g_array", _no_work)
    with pytest.raises(InvalidSpecError, match=f"integer >= [01], got {shown}"):
        call()


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: estimate_persistence_matrix(GOE16, GOE16, 4, T=5, seed=1.5), "1.5"),
        (lambda: estimate_persistence_matrix(GOE16, GOE16, 600, T=5, seed=1.9, threads=2), "1.9"),
        (lambda: lyapunov_runs(GOE16, GOE16, 4, T=50, seed=1.5), "1.5"),
        (lambda: estimate_persistence_gp(BETA3, 8, 10, seed=1.5), "1.5"),
        (lambda: joint_persistence(BETA3, 3, 8, 10, seed=2.0), "2.0"),
        (lambda: scaling_collapse([8, 16, 64], goe_family(), 10, 20, 0.5, seed=1.5), "1.5"),
        (lambda: elliptic_persistence(16, [0.3], 10, 20, seed=1.5), "1.5"),
        (lambda: top_eigenvalue_check(GOE16, 3, seed=1.5), "1.5"),
        (lambda: GOE16.sample(1.5), "1.5"),
        (lambda: RenewalConfig.linear_rates(0.5, 0.5, -1, 1, tau_min=1, horizon=1000, seed=1.5), "1.5"),
        (lambda: RenewalConfig.exact_spectral(0.5, 0.5, BETA3, BETA3, 1, 1000, seed=None), "None"),
        (lambda: RenewalConfig.exact_spectral(0.5, 0.5, BETA3, BETA3, 1, 1000, seed="7"), "'7'"),
        (lambda: lyapunov_runs(GOE16, GOE16, 4, T=50, seed=True), "True"),
    ],
    ids=[
        "matrix", "matrix-threads", "lyapunov", "gp", "joint", "collapse", "elliptic",
        "top-eigenvalue", "ensemble-sample", "renewal-linear", "renewal-none", "renewal-string",
        "lyapunov-bool",
    ],
)
def test_non_integer_seeds_are_typed_before_any_work(call, shown, monkeypatch):
    # a float seed used to run as its integer part (seed=1.5 gave the outputs
    # of seed 1), and a renewal one failed with a bare TypeError
    monkeypatch.setattr(surrogate, "log_moment_array", _no_work)
    monkeypatch.setattr(dynamics, "_persistence_chunk", _no_work)
    monkeypatch.setattr(dynamics, "_lyapunov_chunk", _no_work)
    monkeypatch.setattr(dynamics, "_goe_jacobi", _no_work)
    monkeypatch.setattr(renewal, "g_array", _no_work)
    with pytest.raises(InvalidSpecError, match=f"seed must be an integer, got {shown}"):
        call()


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: PersistenceCurve.from_first_change_times(["1", "2"], 5),
         "first-change times must be integers"),
        (lambda: check_grid([False, True], 5), "grid points must be integers"),
        (lambda: check_grid(np.array([0, 1 + 0j]), 5), "grid points must be integers"),
        (lambda: check_grid(["0", "a"], 5), "grid points must be integers"),
        (lambda: PersistenceCurve(["0", "1"], [1.0, 0.5], [0.0, 0.1]), "grid points"),
        (lambda: correlator(SEMI, True, 2), "correlator times must be integers"),
        (lambda: g_array(SEMI, np.array([True])), "residence times must be integers"),
    ],
    ids=["times-strings", "grid-bools", "grid-complex", "grid-strings", "tau-strings",
         "correlator-bool", "g-bool"],
)
def test_integer_inputs_take_only_integer_and_float_dtypes(call, shown):
    # numeric strings and bools were read as integers, a complex grid warned,
    # and ["0", "a"] raised a bare ValueError
    with pytest.raises(InvalidSpecError, match=shown):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: EnsembleSpec.invariant("x", 8),
        lambda: estimate_persistence_gp("x", 10, 10, 1),
        lambda: joint_persistence("x", 2, 10, 10, 1),
        lambda: joint_persistence("x", 1, 10, 10, 1),
    ],
    ids=["invariant-model", "gp-model", "joint-model", "joint1-model"],
)
def test_model_arguments_are_typed_before_any_work(call, monkeypatch):
    # an invariant recipe on "x" failed only at its first draw, the GP calls
    # with a bare AttributeError
    monkeypatch.setattr(surrogate, "log_moment_array", _no_work)
    monkeypatch.setattr(surrogate, "_stream_first_changes", _no_work)
    with pytest.raises(InvalidSpecError, match="spectral model"):
        call()


def test_elliptic_fit_window_must_be_two_numbers():
    # a one-number window raised a bare IndexError after the curve was drawn
    with pytest.raises(FitError, match="fit window must be two finite numbers"):
        elliptic_persistence(8, [0.5], 300, 30, 1, window=(5,))


def test_atomic_models_answer_without_a_density():
    assert SpectralModel.atomic(0).symmetric_about_zero
    assert not SpectralModel.atomic(1).symmetric_about_zero
    assert SpectralModel.atomic(1).cdf([0.5, 1.0, 2.0]).tolist() == [0.0, 1.0, 1.0]
    assert SpectralModel.atomic(1).normalization_defect() == 0.0


ATOM1 = SpectralModel.atomic(1)
TAIL_IN_ONE_BIN = np.full(1000, 2e-6)  # 1000 samples in the window, one bin occupied


@pytest.mark.parametrize(
    "call, error, shown",
    [
        (lambda: evolve([np.eye(2)] * 8, np.ones(2), 5), InvalidSpecError, "too small for 3"),
        (lambda: evolve([np.eye(2)] * 2, np.zeros(2), 5), InvalidSpecError, "nonzero start"),
        (
            lambda: scaling_collapse(
                [8, 16, 64], lambda n: (EnsembleSpec.elliptic(n, 0.5),) * 2, 200, 30, 0.5, 1
            ),
            CollapseUndefinedError, "0.88 decades",
        ),
        (lambda: lyapunov_runs(EnsembleSpec.goe(8), EnsembleSpec.goe(9), 4, T=50, seed=0),
         InvalidSpecError, "share the dimension"),
        (lambda: top_eigenvalue_check(EnsembleSpec.goe(8, -3, 1), 3, seed=0), InvalidSpecError,
         "nu_plus > 0"),
        (lambda: EnsembleSpec(kind="bogus", dimension=8), InvalidSpecError, "unknown ensemble"),
        (lambda: EnsembleSpec(kind="invariant", dimension=8), InvalidSpecError, "spectral model"),
        (lambda: FitResult(-1.0, 0.0, 0.0, (2.0, 1.0), 0.1, 1.0), FitError, "increasing"),
        (lambda: FitResult(-1.0, 0.0, 0.0, (1.0, 2.0), -0.1, 1.0), FitError, "negative"),
        (lambda: tail_exponent_at_edge(np.linspace(0, 1, 2000), 0.0, side="left"), FitError,
         "'above' or 'below'"),
        (lambda: tail_exponent_at_edge(TAIL_IN_ONE_BIN, 0.0, scale=1.0), FitError,
         "occupied bins"),
        (lambda: PersistenceCurve([0, 1, 2], [1, 0.5], [0, 0.1]), InvalidSpecError, "one shape"),
        (lambda: PersistenceCurve([0, 1, 2], [1, 0.5, 0.6], [0, 0.1, 0.1]), InvalidSpecError,
         "non-increasing"),
        (lambda: PersistenceCurve.from_first_change_times([], 5), InvalidSpecError,
         "no realizations"),
        (lambda: LyapunovSamples([math.nan], (0.0, 1.0), [False], [False]), InvalidSpecError,
         "samples must be finite"),
        (lambda: SpectralModel.symmetric_beta(0), InvalidSpecError, "d > 0"),
        (lambda: SpectralModel.tabulated([0, 1, 2], [1, 1]), InvalidSpecError, "matching"),
        (lambda: ATOM1.density(0.5), InvalidSpecError, "no density"),
        (lambda: quantile_grid(SEMI, 0), InvalidSpecError, "at least one quantile"),
        (lambda: correlator(SEMI, -1, 2), InvalidSpecError, ">= 0"),
        (lambda: g_array(SEMI, [0]), InvalidSpecError, "tau >= 1"),
        (lambda: g_array(SpectralModel.atomic(0), [1]), DegenerateProcessError, "vanished"),
        (lambda: persistence_exponent(ATOM1), InvalidSpecError, "undefined for atomic"),
        (lambda: persistence_exponent(SpectralModel.symmetric_beta(50)), InvalidSpecError,
         "self-averaging"),
    ],
    ids=[
        "evolve-8-on-2", "evolve-zero-start", "collapse-overlap", "lyapunov-dimensions",
        "top-eigenvalue-edge", "ensemble-kind", "invariant-model", "fit-window", "fit-error",
        "tail-side", "tail-bins", "curve-shapes", "curve-rising", "curve-no-realizations",
        "lyapunov-nan", "beta-zero", "tabulated-grids", "atomic-density", "quantile-count",
        "correlator-time", "g-zero", "g-atomic-zero", "theta-atomic", "theta-beta50",
    ],
)
def test_each_documented_raise_is_reached(call, error, shown):
    with pytest.raises(error, match=shown):
        call()


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: RenewalConfig.linear_rates(math.nan, 0.5, -1, 1, tau_min=1, horizon=1000), "nan"),
        (lambda: RenewalConfig.exact_spectral(0.5, math.inf, BETA3, BETA3, 1, 1000), "inf"),
        (lambda: RenewalConfig.exact_spectral(0.5, 0.5, BETA3, BETA3, 1, 2**53 + 1), r"2\*\*53"),
        (lambda: LampertiParams(math.nan, 1.0, 0.5), "nan"),
        (lambda: lamperti_cdf(LampertiParams(0.0, math.inf, 0.5), 0.5), "inf"),
        (lambda: stieltjes_rhs(LampertiParams(0.0, 1.0, 0.5), math.nan), "nan"),
        (lambda: self_averaging_value(BETA3, BETA3, mu=math.nan), "nan"),
        (
            lambda: RenewalConfig.exact_spectral(0.5, 0.5, EDGE_AT_ZERO, BETA3, 1, 1000),
            r"semicircle\(center=-1.0, radius=1.0\) has nu_plus = 0",
        ),
        (
            lambda: self_averaging_value(EDGE_AT_ZERO, BETA3, 1.5),
            r"semicircle\(center=-1.0, radius=1.0\) has nu_plus = 0",
        ),
    ],
    ids=[
        "renewal-mu-nan", "renewal-mu-inf", "renewal-horizon-limit", "lamperti-rate-nan",
        "lamperti-rate-inf", "stieltjes-point-nan", "self-averaging-mu-nan", "renewal-zero-edge",
        "self-averaging-zero-edge",
    ],
)
def test_non_finite_renewal_parameters_are_typed_before_any_work(call, shown, monkeypatch):
    monkeypatch.setattr(renewal, "rng_from_seed", _no_work)
    monkeypatch.setattr(renewal, "g_array", _no_work)
    with pytest.raises(InvalidSpecError, match=shown):
        call()


@pytest.mark.parametrize(
    "matrices, v0, shown",
    [
        ([EYE, EYE], [math.nan, 1, 1, 1], "finite"),
        ([EYE, EYE], [math.inf, 1, 1, 1], "finite"),
        ([np.full((4, 4), math.nan), EYE], np.ones(4), "finite"),
        ([EYE, EYE, EYE], np.ones(4), "2\\*\\*p matrices"),
        ([], np.ones(4), "2\\*\\*p matrices"),
        ([np.ones(4), np.ones(4)], np.ones(4), "square"),
        ([np.ones((2, 4, 4)), np.ones((2, 4, 4))], np.ones(4), "square"),
        ([EYE, np.eye(3)], np.ones(4), "square"),
        ([EYE, EYE], np.ones(3), "start vector"),
    ],
    ids=[
        "start-nan", "start-inf", "matrix-nan", "three-matrices", "no-matrices", "one-dimensional",
        "three-dimensional", "two-shapes", "start-length",
    ],
)
def test_bad_evolution_inputs_are_typed(matrices, v0, shown):
    # a NaN used to fail inside the loop with a bare ValueError, an infinite
    # start after a RuntimeWarning
    with pytest.raises(InvalidSpecError, match=shown):
        evolve(matrices, v0, 5)


GOE256 = EnsembleSpec.goe(256)


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: estimate_persistence_gp(SEMI, 1024, 200_000, 1, grid=[0, 2000]), "horizon 1024"),
        (lambda: estimate_persistence_gp(SEMI, 64, 100, 1, grid=[[0, 1]]), "1-D"),
        (lambda: estimate_persistence_gp(SEMI, 64, 100, 1, grid=[0, 5, 5]), "strictly increase"),
        (lambda: estimate_persistence_gp(SEMI, 64, 100, 1, grid=[1, 5]), "start at 0"),
        (lambda: estimate_persistence_gp(SEMI, 64, 100, 1, grid=[0, 2.5]), "finite integers"),
        (lambda: joint_persistence(SEMI, 1, 64, 100, 1, grid=[0, 65]), "horizon 64"),
        (lambda: joint_persistence(SEMI, 3, 64, 100, 1, grid=[0, 65]), "horizon 64"),
        (lambda: joint_persistence(SEMI, 3, 64, 100, 1, grid=[[0, 1]]), "1-D"),
        (lambda: estimate_persistence_matrix(GOE256, GOE256, 20_000, 120, 1, grid=[0, 500]),
         "horizon 120"),
        (lambda: estimate_persistence_matrix(GOE16, GOE16, 10, 8, 1, grid=[[0, 1]]), "1-D"),
        (lambda: estimate_persistence_matrix(GOE16, GOE16, 10, 8, 1, grid=[]), "start at 0"),
    ],
    ids=[
        "gp-past-horizon", "gp-2d", "gp-repeated", "gp-from-one", "gp-float", "joint1-past-horizon",
        "joint3-past-horizon", "joint3-2d", "matrix-past-horizon", "matrix-2d", "matrix-empty",
    ],
)
def test_bad_grid_is_typed_before_any_work(call, shown, monkeypatch):
    # a grid used to be checked only after the whole scan (0.87 s for the
    # first case), and a 2-D one failed with a bare ValueError
    monkeypatch.setattr(surrogate, "_gp_factor", _no_work)
    monkeypatch.setattr(surrogate, "_stream_first_changes", _no_work)
    monkeypatch.setattr(dynamics, "map_index_chunks", _no_work)
    with pytest.raises(InvalidSpecError, match=shown):
        call()


def test_numpy_integer_sizes_accepted():
    i32, i64 = np.int32, np.int64
    a = estimate_persistence_gp(BETA3, i64(8), i32(10), seed=0)
    b = estimate_persistence_gp(BETA3, 8, 10, seed=0)
    assert np.array_equal(a.q0, b.q0)
    a = estimate_persistence_matrix(GOE16, GOE16, i32(6), T=i64(5), seed=0)
    b = estimate_persistence_matrix(GOE16, GOE16, 6, T=5, seed=0)
    assert np.array_equal(a.q0, b.q0)
    a = lyapunov_runs(GOE16, GOE16, i64(3), T=i32(50), seed=0, tail_window=10)
    b = lyapunov_runs(GOE16, GOE16, 3, T=50, seed=0, tail_window=10)
    assert np.array_equal(a.samples.values, b.samples.values)
