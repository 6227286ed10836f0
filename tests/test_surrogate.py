import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from conewise import InvalidSpecError, SpectralModel, surrogate
from conewise.dynamics import _power_table, _quantile_table
from conewise.errors import DegenerateProcessError, NumericalError
from conewise.estimators import fit_powerlaw
from conewise.records import log_tau_grid
from conewise.seeding import derive_seed, rng_from_seed
from conewise.spectra import inverse_cdf
from conewise.surrogate import (
    _BLOCK,
    _BLOCK_ENTRIES,
    _block_first_changes,
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


def _first_changes(factor, n_paths, seed):
    """First change times at any t >= 1: the earlier of the even and odd ones."""
    return np.min(_stream_first_changes(factor, n_paths, seed=seed)[0], axis=0)


def _first_even_odd_changes(paths: np.ndarray) -> np.ndarray:
    """Dense reference scan: rows (first even, first odd) time whose sign
    differs from the t=0 sign, per column of the (T+1, n) path block, T+1
    where there is none; overwrites the block with its products with the
    t=0 row."""
    t_len, n = paths.shape
    paths[1:] *= paths[0]
    ok = paths > 0.0
    cols = np.arange(n)
    firsts = np.full((2, n), t_len)
    for k, start in enumerate((2, 1)):
        rows = ok[start::2]
        if len(rows):
            i = np.argmin(rows, axis=0)
            firsts[k] = np.where(rows[i, cols], t_len, start + 2 * i)
    return firsts


def dense_stream_first_changes(factor, n_paths, seed):
    """The dense reference over the same block draws as the streamed scan:
    every path is formed at every time, then scanned."""
    t_len, rank = factor.shape
    per_block = max(1, min(_BLOCK, _BLOCK_ENTRIES // t_len))
    blocks = []
    for b, start in enumerate(range(0, n_paths, per_block)):
        z = rng_from_seed(derive_seed(seed, b)).standard_normal((rank, min(per_block, n_paths - start)))
        blocks.append(_first_even_odd_changes(factor @ z))
    return np.concatenate(blocks, axis=1)


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
        ref = _first_changes(dense, n, seed=seeds[0])
        low = _first_changes(_gp_factor(spec, T), n, seed=seeds[1])
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

    def test_first_change_times_are_int32(self):
        # times are at most T + 1; 4 bytes a path keeps large calls small
        firsts, _ = _stream_first_changes(_factor_of(np.eye(5)), 10, seed=0)
        assert firsts.dtype == np.int32 and firsts.max() <= 5

    def test_identity_covariance_coin_flips(self):
        # independent signs: no change up to tau with probability 2**-tau
        n = 100_000
        times = _first_changes(_factor_of(np.eye(5)), n, seed=1)
        for tau in range(1, 5):
            p = 2.0**-tau
            assert np.mean(times > tau) == pytest.approx(p, abs=4 * np.sqrt(p * (1 - p) / n))

    def test_pair_correlation_recovered(self):
        # arcsine law: P(sign(x1) == sign(x0)) = 1/2 + arcsin(c)/pi
        n = 100_000
        c = 0.73
        times = _first_changes(_factor_of(np.array([[1.0, c], [c, 1.0]])), n, seed=2)
        p = 0.5 + np.arcsin(c) / np.pi
        assert np.mean(times == 2) == pytest.approx(p, abs=4 * np.sqrt(p * (1 - p) / n))

    def test_real_covariance_first_step(self):
        n = 100_000
        cov = build_covariance(BETA3, 16)
        times = _first_changes(_gp_factor(BETA3, 16), n, seed=4)
        p = 0.5 + np.arcsin(cov[0, 1]) / np.pi
        assert np.mean(times > 1) == pytest.approx(p, abs=4 * np.sqrt(p * (1 - p) / n))

    def test_rank_one_covariance_constant_paths(self):
        # exactly singular: a rank-one factor, so every path is constant
        factor = _factor_of(np.ones((6, 6)))
        assert factor.shape == (6, 1)
        times = _first_changes(factor, 5000, seed=3)
        assert np.all(times == 6)

    def test_reproducible(self):
        factor = _gp_factor(BETA3, 16)
        a, a_entries = _stream_first_changes(factor, 5000, seed=9)
        b, b_entries = _stream_first_changes(factor, 5000, seed=9)
        assert np.array_equal(a, b) and a_entries == b_entries
        c, _ = _stream_first_changes(factor, 5000, seed=10)
        assert not np.array_equal(a[0], c[0])


def _brute_first_changes(paths):
    """Reference scan: column by column, time by time."""
    t_len, n = paths.shape
    out = np.full((2, n), t_len)
    for j in range(n):
        for t in range(1, t_len):
            k = t % 2  # row 0 holds even times, row 1 odd ones
            if out[k, j] == t_len and not paths[t, j] * paths[0, j] > 0.0:
                out[k, j] = t
    return out


class TestFirstEvenOddChanges:
    @pytest.mark.parametrize("t_len", [1, 2, 3, 8, 9, 10, 40, 130])
    def test_matches_brute_force_scan(self, t_len):
        rng = np.random.default_rng(t_len)
        # random signs with exact zeros, including zeros at t = 0
        paths = rng.integers(-1, 2, size=(t_len, 300)) * rng.uniform(0.5, 2.0, (t_len, 300))
        # never-changing columns of either sign
        paths[:, :20] = np.abs(paths[:, :20]) + 0.1
        paths[:, 20:40] = -np.abs(paths[:, 20:40]) - 0.1
        # columns whose even and odd signs each flip once, at a random time
        flips = rng.integers(1, t_len + 1, size=(2, 100))
        t = np.arange(t_len)[:, None]
        flipped = np.where(t % 2 == 0, t >= flips[0], t >= flips[1])
        paths[:, 40:140] = np.where(flipped, -1.0, 1.0) * rng.uniform(0.5, 2.0, (t_len, 100))
        expected = _brute_first_changes(paths)
        got = _first_even_odd_changes(paths.copy())
        assert np.array_equal(got, expected)
        assert np.all(got[:, :40] == t_len)
        assert got.dtype == np.int64
        # the time-blocked kernel on the same block: factor = paths, z = identity
        blocked, entries = _block_first_changes(paths, np.eye(300))
        assert np.array_equal(blocked, expected)
        assert paths.size >= entries >= min(t_len, 9) * 300

    def test_horizon_zero_on_explicit_grid(self):
        curves = estimate_persistence_gp(BETA3, 0, 50, seed=0, grid=[0], subprocesses=True)
        joint = joint_persistence(BETA3, 3, 0, 50, seed=0, grid=[0])
        for curve in (*curves, joint):
            assert curve.tau.tolist() == [0] and curve.q0.tolist() == [1.0]

    def test_horizon_zero_on_default_grid(self):
        # the default grid used to raise "horizon must be >= 1" after the scan
        curves = estimate_persistence_gp(BETA3, 0, 50, seed=0, subprocesses=True)
        joint = joint_persistence(BETA3, 3, 0, 50, seed=0)
        for curve in (*curves, joint):
            assert curve.tau.tolist() == [0] and curve.q0.tolist() == [1.0]


def _rotating_factor(t_len, zero_row, nan_row):
    """Rank-2 paths that turn slowly, so most change sign late; one row of
    exact zeros and one of NaN."""
    angle = 0.02 * np.arange(t_len)
    factor = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    factor[zero_row] = 0.0
    factor[nan_row] = np.nan
    return factor


def _flushed_quantile_table():
    """The invariant route's quantile power table, some of whose entries
    are flushed to zero."""
    table = _quantile_table(SHIFTED, 64, 120)
    assert np.any(table[1:] == 0.0)
    return table


def _iid_power_table():
    rng = np.random.default_rng(5)
    return _power_table(inverse_cdf(BETA3, rng.random(48)), 200)


_TABLE = SpectralModel.tabulated(np.linspace(0.1, 1.2, 11), np.linspace(0.2, 1, 11) ** 2)
# (id, factor, paths); 5000 paths leave a partial last block: 4096 + 904 up
# to T = 1024
_SCAN_CASES = [
    *(
        (f"semicircle-T{T}", lambda T=T: _gp_factor(SEMI, T), 5000)
        for T in (0, 1, 2, 8, 9, 10, 300, 1024)
    ),
    ("shifted-T256", lambda: _gp_factor(SHIFTED, 256), 5000),
    ("beta3-T200", lambda: _gp_factor(BETA3, 200), 5000),
    ("atomic+0.9-T50", lambda: _gp_factor(SpectralModel.atomic(0.9), 50), 5000),
    ("atomic-0.9-T50", lambda: _gp_factor(SpectralModel.atomic(-0.9), 50), 5000),
    ("table-T128", lambda: _gp_factor(_TABLE, 128), 5000),
    ("zero-and-nan-rows", lambda: _rotating_factor(150, zero_row=30, nan_row=61), 5000),
    ("quantile-power-table", _flushed_quantile_table, 5000),
    ("iid-power-table", _iid_power_table, 5000),
    ("head-only-T8", lambda: _gp_factor(SEMI, 8), 1 << 15),
]


class TestTimeBlockedScan:
    """The time-blocked scan against the dense reference on the same draws."""

    @pytest.mark.parametrize(
        "make_factor, n_paths", [c[1:] for c in _SCAN_CASES], ids=[c[0] for c in _SCAN_CASES]
    )
    def test_matches_dense_reference(self, make_factor, n_paths):
        factor = make_factor()
        got, entries = _stream_first_changes(factor, n_paths, seed=17)
        assert np.array_equal(got, dense_stream_first_changes(factor, n_paths, seed=17))
        # a path is formed through its last needed change, and at most
        # through the end of the doubling block that holds it
        t_len = factor.shape[0]
        needed = np.minimum(got.max(axis=0), t_len - 1).astype(np.int64) + 1
        assert needed.sum() <= entries <= (2 * needed + 9).sum()


class _Gathers(np.ndarray):
    """Path normals whose rows count the boolean gathers made of them."""

    count = 0

    def __getitem__(self, key):
        if isinstance(key, np.ndarray) and key.dtype == bool:
            type(self).count += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("t_len, blocks", [(2, 1), (6, 1), (9, 1), (10, 2), (25, 2), (30, 3)])
def test_survivors_are_gathered_only_between_time_blocks(t_len, blocks):
    # every path keeps its sign, so all stay alive to the end; the scan used
    # to gather them once more after its last time block
    _Gathers.count = 0
    z = np.ones((1, 50)).view(_Gathers)
    firsts, entries = _block_first_changes(np.ones((t_len, 1)), z)
    assert np.all(firsts == t_len) and entries == 50 * t_len
    assert _Gathers.count == blocks - 1


class TestPathEntries:
    def test_far_below_dense_count_and_repeatable(self):
        n, T = 4096, 1024
        curve, even, odd = estimate_persistence_gp(SEMI, T, n, seed=3, subprocesses=True)
        entries = curve.meta["path_entries"]
        assert entries < 0.45 * n * (T + 1)
        assert even.meta["path_entries"] == odd.meta["path_entries"] == entries
        assert estimate_persistence_gp(SEMI, T, n, seed=3).meta["path_entries"] == entries

    def test_dense_count_when_no_path_changes(self):
        atom = SpectralModel.atomic(0.9)
        n, T = 5000, 100
        assert estimate_persistence_gp(atom, T, n, seed=0).meta["path_entries"] == n * (T + 1)
        assert joint_persistence(atom, 3, T, n, seed=0).meta["path_entries"] == 3 * n * (T + 1)

    def test_joint_sums_its_components(self):
        joint = joint_persistence(SEMI, 3, 300, 2000, seed=8)
        factor = _gp_factor(SEMI, 300)
        parts = [_stream_first_changes(factor, 2000, derive_seed(8, c))[1] for c in range(3)]
        assert joint.meta["path_entries"] == sum(parts)
        assert joint_persistence(SEMI, 3, 300, 2000, seed=8).meta["path_entries"] == sum(parts)


class TestPersistence:
    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_bad_path_count_is_typed_before_the_factor(self, n_paths, monkeypatch):
        def no_factor(*args, **kwargs):
            raise AssertionError("the factor was built before the path count was checked")

        monkeypatch.setattr(surrogate, "_gp_factor", no_factor)
        with pytest.raises(InvalidSpecError, match=f"got {n_paths}"):
            estimate_persistence_gp(BETA3, 16, n_paths, seed=0)
        for p in (1, 3):
            with pytest.raises(InvalidSpecError, match=f"got {n_paths}"):
                joint_persistence(BETA3, p, 16, n_paths, seed=0)

    def test_factor_built_once_per_spectrum_and_horizon(self, monkeypatch):
        first = estimate_persistence_gp(SHIFTED, 64, 500, seed=3, subprocesses=True)
        joint = joint_persistence(SHIFTED, 2, 64, 500, seed=3)

        def no_factor(*args, **kwargs):
            raise AssertionError("the factor was built again")

        monkeypatch.setattr(surrogate, "_pivoted_cholesky", no_factor)
        again = estimate_persistence_gp(SHIFTED, 64, 500, seed=3, subprocesses=True)
        for a, b in zip(first, again):
            assert np.array_equal(a.q0, b.q0) and np.array_equal(a.stderr, b.stderr)
        assert np.array_equal(joint_persistence(SHIFTED, 2, 64, 500, seed=3).q0, joint.q0)
        assert not _gp_factor(SHIFTED, 64).flags.writeable

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
