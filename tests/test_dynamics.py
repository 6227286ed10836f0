import math

import numpy as np
import pytest

from conewise import (
    DegenerateDynamicsError,
    EnsembleSpec,
    InvalidSpecError,
    SpectralModel,
    sample_goe,
)
from conewise import dynamics, ensembles
from conewise.dynamics import (
    LyapunovRunSet,
    ScalingCollapse,
    elliptic_persistence,
    estimate_persistence_matrix,
    evolve,
    evolve_multicone,
    goe_family,
    lyapunov_runs,
    scaling_collapse,
    top_eigenvalue_check,
    trapped_run_edge_pairs,
    _BLOCK,
    _RevealedFrame,
    _first_sign_change,
    _jacobi_first_sign_changes,
    _lyapunov_kernel,
    _persistence_chunk,
    _sign_with_coin,
)
from conewise.ensembles import _goe_jacobi
from conewise.errors import CollapseUndefinedError, FitError
from conewise.estimators import TRUNCATED_FIT_MIN_POINTS
from conewise.records import LyapunovSamples, PersistenceCurve
from conewise.seeding import derive_seed, rng_from_seed
from scipy.linalg import eigh
from scipy.stats import ks_2samp


def gaussian(n, seed):
    return rng_from_seed(seed).standard_normal(n)


def dense_first_changes(ens_a, ens_b, n_real, T, seed):
    """First-change times of fresh dense draws stepped by the reference
    kernel, with the seed slots of estimate_persistence_matrix."""
    times = np.empty(n_real, dtype=np.int64)
    for r in range(n_real):
        rng = rng_from_seed(derive_seed(seed, r, 0))
        v0 = rng.standard_normal(ens_a.dimension)
        s0 = _sign_with_coin(v0[0], rng)
        ens, slot = (ens_a, 1) if s0 > 0 else (ens_b, 2)
        times[r] = _first_sign_change(ens.sample(derive_seed(seed, r, slot)), v0, T, rng)
    return times


class DenseFrame:
    """A basis change given as a matrix, in the kernel's frame interface."""

    def __init__(self, cross):
        self.cross = cross

    def forward(self, x):
        return self.cross @ x

    def transpose(self, y):
        return self.cross.T @ y


def dense_lyapunov_single(mats, v0, T, rng, tail_window, block):
    """One run of the block evolution from two dense symmetric matrices:
    both diagonalized by ``eigh``, then stepped by the one kernel.  The
    reference that lyapunov_runs and the step-by-step evolve are tested
    against."""
    (nu_a, u_a), (nu_b, u_b) = (np.linalg.eigh(m) for m in mats)
    v = v0 / np.linalg.norm(v0)
    s0 = _sign_with_coin(v[0], rng)
    w = (u_a if s0 > 0 else u_b).T @ v
    return _lyapunov_kernel(
        (nu_a, nu_b), (u_a[0, :], u_b[0, :]), DenseFrame(u_b.T @ u_a), w, s0, T, rng,
        tail_window, block,
    )


def dense_lyapunov_runs(ens_a, ens_b, n_real, T, seed, tail_window):
    """Kernel tuples of fresh dense draws stepped by the dense wrapper, with
    slot 0 for the start vector and coins and slots 1, 2 for the matrices."""
    runs = []
    for r in range(n_real):
        rng = rng_from_seed(derive_seed(seed, r, 0))
        v0 = rng.standard_normal(ens_a.dimension)
        mats = (ens_a.sample(derive_seed(seed, r, 1)), ens_b.sample(derive_seed(seed, r, 2)))
        runs.append(dense_lyapunov_single(mats, v0, T, rng, tail_window, _BLOCK))
    return runs


def blockwise_reference(mats, v0, T, rng, tail_window, block):
    """The block evolution with one cumprod of eigenvalue powers per block:
    the reference the kernel's power tables must reproduce bit for bit."""
    n = v0.size
    eigvals, eigvecs = zip(*(np.linalg.eigh(m) for m in mats))
    cross = eigvecs[1].T @ eigvecs[0]
    first_row = (eigvecs[0][0, :], eigvecs[1][0, :])
    caps = []
    for w in eigvals:
        top = float(np.max(np.abs(w)))
        caps.append(max(1, int(600.0 / max(abs(math.log(top)), 1e-3))) if top > 0 else block)
    v = v0 / np.linalg.norm(v0)
    s_cur = _sign_with_coin(v[0], rng)
    active = 0 if s_cur > 0 else 1
    w_coord = eigvecs[active].T @ v
    t, log_norm, last_change, n_switches = 0, 0.0, 0, 0
    tail_t, tail_l, tail_started = 0, 0.0, False
    seen, cycling, cycle_period = {}, False, None
    k_next = 8
    while t < T:
        k = min(k_next, block, caps[active], T - t)
        powers = np.cumprod(np.broadcast_to(eigvals[active], (k, n)), axis=0)
        v1 = powers @ (first_row[active] * w_coord)
        bad = v1 <= 0.0 if s_cur > 0 else v1 >= 0.0
        j = int(np.argmax(bad)) if bad.any() else -1
        adv = k if j < 0 else j + 1
        w_coord = w_coord * powers[adv - 1]
        peak = float(np.max(np.abs(w_coord)))
        w_coord /= peak
        nrm = float(np.linalg.norm(w_coord))
        log_norm += math.log(peak) + math.log(nrm)
        w_coord /= nrm
        t += adv
        k_next = k if j >= 0 else min(4 * k, block)
        if j >= 0:
            new_s = _sign_with_coin(float(v1[j]), rng)
            if new_s != s_cur:
                k_next = 8
                s_cur = new_s
                last_change = t
                n_switches += 1
                w_coord = cross @ w_coord if active == 0 else cross.T @ w_coord
                w_coord /= np.linalg.norm(w_coord)
                active = 1 - active
                if not cycling:
                    key = np.round(w_coord / 1e-6).astype(np.int64).tobytes()
                    prev = seen.get((active, key))
                    if prev is not None:
                        cycling, cycle_period = True, t - prev
                    else:
                        seen[(active, key)] = t
        if not tail_started and t >= T - tail_window:
            tail_t, tail_l, tail_started = t, log_norm, True
    lam = log_norm / T
    lam_tail = (log_norm - tail_l) / (t - tail_t) if t > tail_t else lam
    return (
        lam, lam_tail, (T - last_change) >= min(T, max(1000, T // 10)), cycling, cycle_period,
        active, float(np.max(eigvals[active])), last_change, n_switches,
        float(np.sort(np.abs(eigvals[active]))[-2]),
    )


def fit_window_points(entry):
    """Positive curve points inside an elliptic_persistence fit window."""
    lo, hi = entry["fit"].window
    tau, _, _ = entry["curve"].positive_part()
    return np.count_nonzero((tau >= lo) & (tau <= hi))


class TestEvolve:
    def test_single_matrix_limit_is_power_iteration(self):
        m = sample_goe(48, 0.0, 2.0, seed=5)
        top = np.max(np.abs(np.linalg.eigvalsh(m)))
        traj = evolve(m, m, gaussian(48, 1), T=4000, seed=9)
        assert abs(traj.lyapunov - math.log(top)) < 10 / 4000

    def test_scalar_dynamics_trapped_exact_rate(self):
        a = 1.3 * np.eye(8)
        b = 0.2 * np.eye(8)
        v0 = np.abs(gaussian(8, 2))  # v1(0) > 0: stays in the A cone forever
        traj = evolve(a, b, v0, T=1500, seed=0)
        assert traj.lyapunov == pytest.approx(math.log(1.3), rel=1e-12)
        assert traj.trapped
        assert len(traj.residence_intervals) == 0
        assert traj.open_interval == (0, 1500)

    def test_unit_direction_each_step(self):
        a = sample_goe(16, 0.0, 0.5, seed=1)
        b = sample_goe(16, 0.0, 3.0, seed=2)
        traj = evolve(a, b, gaussian(16, 3), T=200, seed=4)
        assert abs(np.linalg.norm(traj.direction) - 1.0) < 1e-12

    def test_log_norm_matches_raw_products(self):
        # oracle equivalence on an overflow-safe instance
        a = sample_goe(12, 0.0, 0.9, seed=21)
        b = sample_goe(12, 0.0, 1.1, seed=22)
        v0 = gaussian(12, 23)
        traj = evolve(a, b, v0, T=50, seed=24)
        v = v0 / np.linalg.norm(v0)
        for t in range(50):
            v = (a if traj.cone_labels[t] == 0 else b) @ v
            ref = math.log(np.linalg.norm(v))
            assert traj.log_norm[t + 1] == pytest.approx(ref, rel=1e-8, abs=1e-10)

    def test_interval_bookkeeping_reconstructs_labels(self):
        a = sample_goe(32, 0.0, 2.0, seed=31)
        b = sample_goe(32, 0.0, 2.0, seed=32)
        traj = evolve(a, b, gaussian(32, 33), T=400, seed=34)
        assert traj.interval_partition_ok()
        rebuilt = np.concatenate(
            [
                np.repeat(lab, tau)
                for lab, tau in traj.residence_intervals + [traj.open_interval]
            ]
        )
        assert np.array_equal(rebuilt, traj.cone_labels)
        # labels match the sign sequence at the pre-step times
        signs_pre = traj.signs[:-1]
        nonzero = signs_pre != 0
        assert np.array_equal(signs_pre[nonzero] < 0, traj.cone_labels[nonzero] == 1)

    def test_seed_determinism(self):
        a = sample_goe(16, 0.0, 2.0, seed=41)
        b = sample_goe(16, 0.0, 2.0, seed=42)
        t1 = evolve(a, b, gaussian(16, 43), T=128, seed=44)
        t2 = evolve(a, b, gaussian(16, 43), T=128, seed=44)
        assert np.array_equal(t1.log_norm, t2.log_norm)
        assert np.array_equal(t1.signs, t2.signs)

    def test_wide_interval_spread_for_goe_pair(self):
        a = sample_goe(512, 0.0, 2.0, seed=51)
        b = sample_goe(512, 0.0, 2.0, seed=52)
        traj = evolve(a, b, gaussian(512, 53), T=4000, seed=54)
        lengths = [tau for _, tau in traj.residence_intervals]
        assert min(lengths) == 1
        assert max(lengths) >= 100  # spans two decades of residence times

    def test_kernel_direction_raises(self):
        a = np.zeros((4, 4))
        with pytest.raises(DegenerateDynamicsError):
            evolve(a, a, np.ones(4), T=10, seed=0)

    def test_vbar1_scaling(self):
        a = sample_goe(64, 0.0, 2.0, seed=61)
        traj = evolve(a, a, gaussian(64, 62), T=32, seed=63)
        assert np.allclose(np.abs(traj.vbar1), 8 * np.abs(traj.direction[0]), atol=1e9)
        assert traj.vbar1[-1] == pytest.approx(8 * traj.direction[0])


class TestMulticone:
    def test_p1_reduces_to_evolve(self):
        a = sample_goe(24, 0.0, 1.5, seed=71)
        b = sample_goe(24, 0.0, 2.5, seed=72)
        v0 = gaussian(24, 73)
        t1 = evolve(a, b, v0, T=200, seed=74)
        t2 = evolve_multicone([a, b], 1, v0, T=200, seed=74)
        assert np.array_equal(t1.log_norm, t2.log_norm)
        assert np.array_equal(t1.cone_labels, t2.cone_labels)

    def test_all_equal_matrices_power_iteration(self):
        m = sample_goe(32, 0.0, 2.0, seed=75)
        top = np.max(np.abs(np.linalg.eigvalsh(m)))
        traj = evolve_multicone([m, m, m, m], 2, gaussian(32, 76), T=3000, seed=77)
        assert abs(traj.lyapunov - math.log(top)) < 10 / 3000

    def test_wrong_matrix_count(self):
        m = sample_goe(8, 0.0, 2.0, seed=1)
        with pytest.raises(InvalidSpecError):
            evolve_multicone([m, m, m], 2, gaussian(8, 2), T=10)

    def test_cone_labels_follow_sign_bits(self):
        a = [sample_goe(16, 0.0, 2.0, seed=80 + k) for k in range(4)]
        traj = evolve_multicone(a, 2, gaussian(16, 90), T=150, seed=91)
        assert set(np.unique(traj.cone_labels)) <= {0, 1, 2, 3}
        assert traj.interval_partition_ok()


class TestPersistenceMatrix:
    def test_identity_like_never_changes(self):
        ens = EnsembleSpec.invariant(
            __import__("conewise").SpectralModel.atomic(1.4), 16
        )
        curve = estimate_persistence_matrix(ens, ens, 40, T=50, seed=7)
        assert np.all(curve.q0 == 1.0)

    def test_goe_small_n_slope(self):
        # reduced-size smoke check of the persistence decay
        ens = EnsembleSpec.goe(256, 0.0, 2.0)
        curve = estimate_persistence_matrix(ens, ens, 2500, T=120, seed=3)
        from conewise.estimators import fit_powerlaw

        fit = fit_powerlaw(curve, window=(5, 120))
        assert fit.exponent == pytest.approx(-0.476, abs=0.12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidSpecError):
            estimate_persistence_matrix(
                EnsembleSpec.goe(16), EnsembleSpec.goe(32), 10, T=10, seed=0
            )

    def test_empty_sweep_is_typed(self):
        ens = EnsembleSpec.goe(16)
        with pytest.raises(InvalidSpecError, match="got 0"):
            estimate_persistence_matrix(ens, ens, 0, T=10, seed=0)

    @pytest.mark.parametrize("T", [0, -2])
    def test_bad_horizon_is_typed_before_any_draw(self, T, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("realizations ran before the horizon was checked")

        monkeypatch.setattr(dynamics, "map_index_chunks", no_draws)
        ens = EnsembleSpec.goe(16)
        with pytest.raises(InvalidSpecError, match=f"got {T}"):
            estimate_persistence_matrix(ens, ens, 10, T=T, seed=0)


class TestJacobiRoute:
    """GOE starts step the leading block of the tridiagonal form; in law the
    first-change times equal those of dense draws and the reference kernel."""

    @pytest.mark.parametrize(
        "n_dim, T, n_real, mixed",
        [(16, 40, 8000, False), (64, 30, 10000, False), (256, 120, 3000, False), (16, 40, 8000, True)],
    )
    def test_matches_dense_reference(self, n_dim, T, n_real, mixed):
        ens_a = EnsembleSpec.goe(n_dim, 0.0, 2.0)
        ens_b = EnsembleSpec.goe(n_dim, 0.5, 1.0) if mixed else ens_a
        grid = np.arange(T + 1)
        fast_times = _persistence_chunk(ens_a, ens_b, T, 31, 0, n_real)
        ref_times = dense_first_changes(ens_a, ens_b, n_real, T, seed=32)
        fast, ref = (
            PersistenceCurve.from_first_change_times(t, T, grid=grid)
            for t in (fast_times, ref_times)
        )
        sigma = np.sqrt(fast.stderr**2 + ref.stderr**2)
        inside = sigma > 0
        assert np.all(np.abs(fast.q0 - ref.q0)[inside] <= 4 * sigma[inside])
        assert ks_2samp(fast_times, ref_times).pvalue > 0.01

    def test_rows_independent_of_block(self):
        ens = EnsembleSpec.goe(512)
        rng = rng_from_seed(41)
        k, T = 61, 60
        diag, off = map(np.array, zip(*(_goe_jacobi(ens, k, rng) for _ in range(30))))
        z = rng.standard_normal((30, k))
        s0 = np.sign(z[:, 0])
        rngs = [rng_from_seed(i) for i in range(30)]
        stacked = _jacobi_first_sign_changes(diag, off, z, s0, T, rngs)
        alone = [
            _jacobi_first_sign_changes(diag[i : i + 1], off[i : i + 1], z[i : i + 1], s0[i : i + 1], T, rngs[i : i + 1])[0]
            for i in range(30)
        ]
        assert np.array_equal(stacked, alone)
        assert stacked.min() == 1 and stacked.max() > 10

    def test_exact_zero_resolved_by_own_coin(self):
        # J e1 = (0, 1, 0): v1(1) = z . (0, 1, 0) = 0 exactly
        diag = np.zeros((2, 3))
        off = np.ones((2, 2))
        z = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        rngs = [rng_from_seed(5), rng_from_seed(6)]
        coins = [_sign_with_coin(0.0, rng_from_seed(seed)) for seed in (5, 6)]
        times = _jacobi_first_sign_changes(diag, off, z, np.ones(2), 1, rngs)
        assert list(times) == [1 if c < 0 else 2 for c in coins]

    def test_zero_matrix_raises(self):
        diag, off = np.zeros((3, 4)), np.zeros((3, 3))
        z = np.ones((3, 4))
        with pytest.raises(DegenerateDynamicsError) as err:
            _jacobi_first_sign_changes(diag, off, z, np.ones(3), 5, [None] * 3)
        assert err.value.step == 1

    def test_mixed_kinds_route_per_start(self):
        # an invariant cone at 1.4 I never changes sign: its starts survive;
        # GOE starts take the tridiagonal route exactly as in a GOE pair
        goe = EnsembleSpec.goe(32)
        flat = EnsembleSpec.invariant(SpectralModel.atomic(1.4), 32)
        T, n_real = 50, 200
        mixed = _persistence_chunk(goe, flat, T, 3, 0, n_real)
        pure = _persistence_chunk(goe, goe, T, 3, 0, n_real)
        negative = np.array(
            [rng_from_seed(derive_seed(3, r, 0)).standard_normal() < 0 for r in range(n_real)]
        )
        assert np.all(mixed[negative] == T + 1)
        assert np.array_equal(mixed[~negative], pure[~negative])
        assert 0 < negative.sum() < n_real

    @pytest.mark.parametrize(
        "ens",
        [
            EnsembleSpec.invariant(SpectralModel.semicircle(0.5, 1.0), 32),
            EnsembleSpec.elliptic(32, 0.5),
        ],
        ids=["invariant", "elliptic"],
    )
    def test_dense_kinds_keep_dense_route(self, ens):
        times = _persistence_chunk(ens, ens, 40, 9, 0, 60)
        assert np.array_equal(times, dense_first_changes(ens, ens, 60, 40, seed=9))


class TestLyapunovRuns:
    def test_eigen_route_matches_reference(self):
        a = sample_goe(48, 0.0, 0.05 * math.sqrt(2), seed=11)
        b = sample_goe(48, 0.0, 2 * math.sqrt(2), seed=12)
        v0 = gaussian(48, 13)
        traj = evolve(a, b, v0, T=80, seed=14)
        out = dense_lyapunov_single((a, b), v0, 80, rng_from_seed(14), tail_window=20, block=16)
        assert out[0] == pytest.approx(traj.lyapunov, rel=1e-10, abs=1e-12)
        assert out[8] == len(traj.residence_intervals)

    def test_single_matrix_limit(self):
        # the same matrix in both cones is power iteration: the rate tends to
        # ln max|nu|; with -m the negative edge dominates and the sign flips
        # every step, which drives the block route through a switch per step
        T = 4000
        m = sample_goe(64, 0.0, 2.0, seed=5)
        top = math.log(np.max(np.abs(np.linalg.eigvalsh(m))))
        v0 = gaussian(64, 1)
        for mat in (m, -m):
            out = dense_lyapunov_single(
                (mat, mat), v0, T, rng_from_seed(9), tail_window=2000, block=192
            )
            assert abs(out[0] - top) < 10 / T
            assert abs(out[1] - top) < 10 / T
        assert out[8] > T // 2  # the -m run switches cones nearly every step

    def test_trapped_rate_converges_to_top_eigenvalue(self):
        ens_a = EnsembleSpec.goe(64, 0.0, 0.05 * math.sqrt(2))
        ens_b = EnsembleSpec.goe(64, 0.0, 2 * math.sqrt(2))
        runs = lyapunov_runs(ens_a, ens_b, 40, T=6000, seed=6)
        sel = runs.samples.trapped & (runs.last_change <= 2000) & ~runs.samples.cycling
        assert np.any(sel)
        diff = np.abs(runs.lam_tail[sel] - np.log(runs.nu_max_final[sel]))
        assert np.max(diff) < 1e-3

    def test_empty_sweep_is_typed(self):
        ens = EnsembleSpec.goe(16)
        with pytest.raises(InvalidSpecError, match="got 0"):
            lyapunov_runs(ens, ens, 0, T=10, seed=0)

    def test_normalization_uses_edge_rates(self):
        ens_a = EnsembleSpec.goe(32, 0.0, 0.5)
        ens_b = EnsembleSpec.goe(32, 0.0, 2.0)
        samples = lyapunov_runs(ens_a, ens_b, 3, T=500, seed=8).samples
        r1, r2 = math.log(0.5), math.log(2.0)
        assert np.allclose(samples.normalized, (samples.values - r1) / (r2 - r1))

    def test_power_tables_keep_dense_outputs(self):
        # the dense wrapper reads one power table per cone; the rows are the
        # per-block cumprod's floats, so every output is the same bit for bit
        a = sample_goe(48, 0.0, 0.05 * math.sqrt(2), seed=11)
        b = sample_goe(48, 0.0, 2 * math.sqrt(2), seed=12)
        v0 = gaussian(48, 13)
        for T, tw, block in ((80, 20, 16), (3000, 500, 192)):
            out = dense_lyapunov_single((a, b), v0, T, rng_from_seed(14), tw, block)
            ref = blockwise_reference((a, b), v0, T, rng_from_seed(14), tw, block)
            assert out[:10] == ref
            assert out[8] > 0

    def test_zero_horizon_is_typed(self):
        ens = EnsembleSpec.goe(16)
        with pytest.raises(InvalidSpecError, match="got 0"):
            lyapunov_runs(ens, ens, 4, T=0, seed=0)
        with pytest.raises(InvalidSpecError, match="got 0"):
            trapped_run_edge_pairs(ens, ens, 4, T=0, seed=0)

    def test_negative_horizon_is_typed(self):
        ens = EnsembleSpec.goe(16)
        with pytest.raises(InvalidSpecError, match="got -5"):
            lyapunov_runs(ens, ens, 4, T=-5, seed=0)

    def test_zero_tail_window_is_typed(self):
        ens = EnsembleSpec.goe(16)
        with pytest.raises(InvalidSpecError, match="tail_window must be >= 1, got 0"):
            lyapunov_runs(ens, ens, 4, T=100, seed=0, tail_window=0)

    def test_tail_window_past_horizon_is_whole_run(self):
        ens = EnsembleSpec.goe(16)
        runs = lyapunov_runs(ens, ens, 6, T=100, seed=0, tail_window=500)
        assert np.array_equal(runs.lam_tail, runs.samples.values)
        edge = lyapunov_runs(ens, ens, 6, T=100, seed=0, tail_window=100)
        assert np.array_equal(edge.lam_tail, runs.lam_tail)

    def test_elliptic_rejected(self):
        ens = EnsembleSpec.elliptic(16, 0.5)
        with pytest.raises(InvalidSpecError, match="elliptic"):
            lyapunov_runs(ens, ens, 2, T=50, seed=0)

    def test_no_dense_draw_or_eigh(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the spectral-frame route formed a matrix")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(EnsembleSpec, "sample", forbidden)
        inv = EnsembleSpec.invariant(SpectralModel.symmetric_beta(3), 24)
        for ens_a, ens_b in ((EnsembleSpec.goe(24), EnsembleSpec.goe(24, 0.5, 1.0)), (inv, inv)):
            runs = lyapunov_runs(ens_a, ens_b, 3, T=200, seed=4, tail_window=50)
            assert runs.samples.meta["route"] == "spectral frame"

    def test_cycle_period_on_constructed_runs(self):
        # one matrix in both cones with the same frame: a dominant negative
        # edge flips the sign every step, and the direction at each entry to
        # a cone repeats with period 2 once the other modes have died out;
        # a dominant positive edge never switches
        a = np.array([0.6, 0.6, math.sqrt(0.28)])
        w = np.array([0.8, 0.4, 0.2]) / math.sqrt(0.84)
        for nu, cycles in ((np.array([-1.0, 0.5, 0.3]), True), (np.array([1.0, 0.5, 0.3]), False)):
            out = _lyapunov_kernel(
                (nu, nu), (a, a), DenseFrame(np.eye(3)), w, 1, 400, rng_from_seed(0), 100, _BLOCK
            )
            assert out[3] is cycles
            assert out[4] == (2 if cycles else None)

    def test_cycle_period_and_meta_on_sweep(self):
        ens_a = EnsembleSpec.goe(32, 0.0, 2.0)
        ens_b = EnsembleSpec.goe(32, 0.5, 1.0)
        runs = lyapunov_runs(ens_a, ens_b, 40, T=600, seed=3, tail_window=200)
        cycling = runs.samples.cycling
        assert 0 < np.count_nonzero(cycling) < cycling.size
        assert np.array_equal(runs.cycle_period > 0, cycling)
        meta = runs.samples.meta
        assert meta["switches"] == int(runs.n_switches.sum())
        # every switch ends a block, and a block advances 1 to _BLOCK steps
        assert max(meta["switches"], 40 * math.ceil(600 / _BLOCK)) <= meta["blocks"] <= 40 * 600
        # every run reveals a; a completed frame (N // 8 = 4 pairs) reveals no more
        done = meta["frames_completed"]
        assert 0 < done < 40
        assert 40 + 3 * done <= meta["frame_reveals"] <= 4 * 40
        two = lyapunov_runs(ens_a, ens_b, 40, T=600, seed=3, tail_window=200, threads=2)
        assert two.samples.meta == meta


class TestSpectralFrameRoute:
    """The route of lyapunov_runs (two spectra and one Haar frame per run)
    against fresh dense draws stepped by the dense wrapper: equal in law."""

    @pytest.mark.parametrize(
        "ens_a, ens_b, T",
        [
            (EnsembleSpec.goe(32, 0.0, 2.0), EnsembleSpec.goe(32, 0.5, 1.0), 600),
            (
                EnsembleSpec.goe(24, 0.0, 0.05 * math.sqrt(2)),
                EnsembleSpec.goe(24, 0.0, 2 * math.sqrt(2)),
                400,
            ),
            (
                EnsembleSpec.invariant(SpectralModel.semicircle(0.5, 1.0), 32),
                EnsembleSpec.invariant(SpectralModel.symmetric_beta(3), 32),
                600,
            ),
        ],
        ids=["goe", "narrow-wide", "invariant"],
    )
    def test_matches_dense_route_in_law(self, ens_a, ens_b, T):
        n_real, tw = 800, 200
        fast = lyapunov_runs(ens_a, ens_b, n_real, T=T, seed=31, tail_window=tw)
        ref = list(zip(*dense_lyapunov_runs(ens_a, ens_b, n_real, T, 32, tw)))
        for got, want in (
            (fast.samples.values, ref[0]),
            (fast.n_switches, ref[8]),
            (fast.last_change, ref[7]),
        ):
            assert ks_2samp(got, want).pvalue > 0.01
        for got, want in (
            (fast.final_cone, ref[5]),
            (fast.samples.trapped, ref[2]),
            (fast.samples.cycling, ref[3]),
        ):
            p1, p2 = np.mean(got), np.mean(want)
            sigma = math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / n_real)
            assert abs(p1 - p2) <= 4 * sigma
        # the sweep covers both the revealed and the completed frame
        assert 0 < fast.samples.meta["frames_completed"] < n_real


class TestRevealedFrame:
    """The on-demand Haar frame of lyapunov_runs: C p_i = q_i on the revealed
    pairs, both bases orthonormal, and a completed C orthogonal."""

    @staticmethod
    def queried(n, n_queries, seed=0):
        frame = _RevealedFrame(n, rng_from_seed(seed))
        queries = rng_from_seed(seed + 1).standard_normal((n_queries, n))
        outs = [frame.forward(x) if i % 3 else frame.transpose(x) for i, x in enumerate(queries)]
        return frame, queries, outs

    def test_revealed_pairs_are_orthonormal(self):
        frame, _, _ = self.queried(96, 10)
        # a query 1e-9 off the revealed span still reveals a pair, and its
        # residual keeps full orthogonality only after the second pass
        near = frame.p[0] + frame.p[1] + 1e-9 * rng_from_seed(9).standard_normal(96)
        frame.forward(near)
        k = frame.revealed
        assert k == 11 and frame.dense is None
        p, q = frame.p[:k], frame.q[:k]
        assert np.max(np.abs(p @ p.T - np.eye(k))) < 1e-12
        assert np.max(np.abs(q @ q.T - np.eye(k))) < 1e-12
        mapped = np.array([frame.forward(row) for row in p])
        assert np.max(np.abs(mapped - q)) < 1e-12
        assert frame.revealed == k  # a revealed direction reveals nothing new

    def test_transpose_undoes_forward(self):
        for n_queries in (4, 12):  # before and after completion at N // 8 = 6
            frame, queries, outs = self.queried(48, n_queries)
            assert (frame.dense is not None) == (n_queries > 6)
            for i, (x, y) in enumerate(zip(queries, outs)):
                back = frame.transpose(y) if i % 3 else frame.forward(y)
                assert np.max(np.abs(back - x)) < 1e-12 * np.linalg.norm(x)
            x = queries[0] + queries[1]
            assert np.max(np.abs(frame.transpose(frame.forward(x)) - x)) < 1e-12

    def test_completed_frame_is_orthogonal_and_keeps_pairs(self):
        frame, _, _ = self.queried(48, 6)
        p, q = frame.p.copy(), frame.q.copy()
        x = rng_from_seed(5).standard_normal(48)
        y = frame.forward(x)  # a 7th pair completes the frame
        c = frame.dense
        assert c is not None and frame.revealed == 6
        assert np.max(np.abs(c @ c.T - np.eye(48))) < 1e-12
        assert np.max(np.abs(p @ c.T - q)) < 1e-12
        assert np.array_equal(y, c @ x)

    def test_query_in_revealed_span_reveals_nothing(self):
        frame, queries, outs = self.queried(64, 5)
        x = queries[1] - 2.0 * queries[2]
        y = frame.forward(x)
        assert frame.revealed == 5
        assert np.max(np.abs(y - (outs[1] - 2.0 * outs[2]))) < 1e-12

    def test_run_without_switch_forms_no_square_matrix(self, monkeypatch):
        # a frame is completed only on a run that asks for more than N // 8
        # pairs, and never draws an N x N Haar matrix
        n, sizes = 64, []
        original = dynamics._haar_orthogonal

        def guarded(size, rng):
            if size == n:
                raise AssertionError("an N x N Haar matrix was drawn")
            sizes.append(size)
            return original(size, rng)

        monkeypatch.setattr(dynamics, "_haar_orthogonal", guarded)
        monkeypatch.setattr(ensembles, "_haar_orthogonal", guarded)
        fields = dynamics._lyapunov_chunk(
            EnsembleSpec.goe(n, 0.0, 2.0), EnsembleSpec.goe(n, 0.5, 1.0), 400, 7, 100, 0, 40
        )
        n_switches, reveals, completed = fields[8], fields[11], fields[12]
        still = n_switches == 0
        assert np.any(still) and np.any(completed)
        assert not np.any(completed[still]) and np.all(reveals[still] <= 2)
        assert np.all(reveals[completed] == n // 8)
        assert sizes == [n - n // 8] * int(np.count_nonzero(completed))


class TestWorkerCountInvariance:
    """Seeds derive from the realization index, so the process count must
    not change any output; both sizes exceed one chunk of the parallel map."""

    def test_persistence_matrix(self):
        ens = EnsembleSpec.goe(32)
        one = estimate_persistence_matrix(ens, ens, 300, T=60, seed=21, threads=1)
        two = estimate_persistence_matrix(ens, ens, 300, T=60, seed=21, threads=2)
        assert np.array_equal(one.tau, two.tau)
        assert np.array_equal(one.q0, two.q0)

    def test_lyapunov_runs(self):
        ens = EnsembleSpec.goe(16)
        one = lyapunov_runs(ens, ens, 40, T=300, seed=22, tail_window=100, threads=1)
        two = lyapunov_runs(ens, ens, 40, T=300, seed=22, tail_window=100, threads=2)
        for name in ("lam_tail", "final_cone", "nu_max_final", "last_change", "n_switches"):
            assert np.array_equal(getattr(one, name), getattr(two, name))
        assert np.array_equal(one.samples.values, two.samples.values)
        assert np.array_equal(one.samples.trapped, two.samples.trapped)
        assert np.array_equal(one.samples.cycling, two.samples.cycling)
        for key in ("frame_reveals", "frames_completed"):
            assert one.samples.meta[key] == two.samples.meta[key]


class TestScalingCollapse:
    def test_needs_three_sizes(self):
        with pytest.raises(CollapseUndefinedError):
            scaling_collapse([64, 512], goe_family(), 100, T=100, mu=0.476, seed=0)

    def test_needs_span(self):
        with pytest.raises(CollapseUndefinedError):
            scaling_collapse([64, 128, 256], goe_family(), 100, T=100, mu=0.476, seed=0)

    def test_small_scale_collapse_structure(self):
        out = scaling_collapse(
            [16, 48, 128], goe_family(), 1500, T=320, mu=0.4764, seed=17
        )
        assert isinstance(out, ScalingCollapse)
        assert out.spread.shape == out.u_grid.shape
        assert out.spread_central >= 0
        assert set(out.plateau) == {16, 48, 128}
        # correct exponent collapses at least as well as a badly wrong one
        wrong = scaling_collapse(
            [16, 48, 128], goe_family(), 1500, T=320, mu=1.6, seed=17
        )
        assert out.spread_central < wrong.spread_central


    def test_large_n_collapse(self):
        # N = 32768 is out of reach of dense draws (8.6 GB per matrix); the
        # tridiagonal route's cost depends on the horizon only
        sizes = [512, 4096, 32768]
        out = scaling_collapse(sizes, goe_family(), 1000, T=1024, mu=0.4764, seed=17)
        wrong = scaling_collapse(sizes, goe_family(), 1000, T=1024, mu=1.6, seed=17)
        assert out.spread_central < wrong.spread_central
        assert out.curves[-1].meta["N"] == 32768


class TestTopEigenvalue:
    def test_atomic_like_degenerate(self):
        from conewise import SpectralModel

        ens = EnsembleSpec.invariant(SpectralModel.atomic(1.2), 32)
        chk = top_eigenvalue_check(ens, 10, seed=3)
        assert np.allclose(chk.nu_max, 1.2, atol=1e-12)
        assert np.allclose(chk.sigma1, 0.0, atol=1e-9)

    def test_fluctuation_scale_shrinks_with_n(self):
        sd = {}
        for n in (64, 256):
            chk = top_eigenvalue_check(EnsembleSpec.goe(n, 0.0, 2.0), 300, seed=4)
            sd[n] = np.std(chk.nu_max - 2.0, ddof=1)
        ratio = sd[64] / sd[256]
        assert ratio == pytest.approx(4 ** (2 / 3), rel=0.35)

    def test_sigma1_is_radius_free(self):
        a = top_eigenvalue_check(EnsembleSpec.goe(64, 0.0, 2.0), 200, seed=5)
        b = top_eigenvalue_check(EnsembleSpec.goe(64, 0.0, 7.0), 200, seed=5)
        assert np.allclose(a.sigma1, b.sigma1, atol=1e-10)

    def test_goe_tridiagonal_matches_dense(self):
        n_dim, n_draws = 64, 3000
        chk = top_eigenvalue_check(EnsembleSpec.goe(n_dim, 0.0, 2.0), n_draws, seed=6)
        dense = [np.linalg.eigvalsh(sample_goe(n_dim, 0.0, 2.0, seed=10**6 + k))[-1] for k in range(n_draws)]
        assert ks_2samp(chk.nu_max, dense).pvalue > 0.01

    @pytest.mark.parametrize("placement", ["quantile", "iid"])
    def test_invariant_reads_placed_spectrum(self, placement):
        # the placed eigenvalues are the dense draw's spectrum at the same seed
        ens = EnsembleSpec.invariant(SpectralModel.semicircle(0.5, 1.0), 64, placement)
        chk = top_eigenvalue_check(ens, 6, seed=7)
        dense = [
            eigh(ens.sample(derive_seed(7, k)), eigvals_only=True, subset_by_index=[63, 63])[0]
            for k in range(6)
        ]
        assert np.max(np.abs(chk.nu_max - dense)) < 1e-12

    def test_elliptic_rejected(self):
        with pytest.raises(InvalidSpecError):
            top_eigenvalue_check(EnsembleSpec.elliptic(32, 0.3), 5, seed=0)

    @pytest.mark.parametrize("n_draws", [0, -3])
    def test_bad_draw_count_is_typed(self, n_draws):
        with pytest.raises(InvalidSpecError, match=f"n_draws must be >= 1, got {n_draws}"):
            top_eigenvalue_check(EnsembleSpec.goe(16), n_draws, seed=0)

    def test_trapped_pairs_match_closely(self):
        ens_a = EnsembleSpec.goe(64, 0.0, 0.05 * math.sqrt(2))
        ens_b = EnsembleSpec.goe(64, 0.0, 2 * math.sqrt(2))
        pairs = trapped_run_edge_pairs(ens_a, ens_b, 60, T=6000, seed=9)
        assert pairs["n_trapped_used"] > 0
        assert np.max(np.abs(pairs["sigma1_dynamics"] - pairs["sigma1_eigenvalue"])) < 0.05

    def test_trapped_pairs_need_converged_runs(self):
        # cone A's spectrum is symmetric about 0, so |nu_min| and nu_max can
        # nearly tie; only runs whose subleading mode has died out are used
        ens_a = EnsembleSpec.goe(64, 0.0, 2.0)
        ens_b = EnsembleSpec.goe(64, 0.5, 1.0)
        T, tw = 3000, 1000
        pairs = trapped_run_edge_pairs(ens_a, ens_b, 48, T=T, seed=1, tail_window=tw)
        runs = lyapunov_runs(ens_a, ens_b, 48, T=T, seed=1, tail_window=tw)
        used = pairs["run_index"]
        assert np.any(pairs["cone"] == 0)
        assert np.max(np.abs(pairs["sigma1_dynamics"] - pairs["sigma1_eigenvalue"])) < 1e-9
        ratio = runs.abs_nu2_final / runs.nu_max_final
        assert np.all(ratio[used] ** (T - tw - runs.last_change[used]) < 1e-4)

    def test_trapped_pairs_skip_near_tie(self, monkeypatch):
        # two runs trapped in cone A from the start (a . w > 0 dominates every
        # other mode): with |nu_min| = 0.9997 nu_max the subleading mode is
        # still alive in the tail and the tail rate sits below ln nu_max; with
        # a gap the rate is ln nu_max.  Only the second run may be paired.
        T, tw = 3000, 1000
        a = np.array([0.6, 0.6, math.sqrt(0.28)])
        w = np.array([0.8, 0.4, 0.2]) / math.sqrt(0.84)
        nu_b = np.array([0.2, -0.1, 0.05])
        kernel_runs = [
            _lyapunov_kernel(
                (nu_a, nu_b), (a, a), DenseFrame(np.eye(3)), w, 1, T, rng_from_seed(0), tw, _BLOCK
            )
            for nu_a in (np.array([1.0, -0.9997, 0.5]), np.array([1.0, -0.5, 0.3]))
        ]
        f = [np.array(x) for x in zip(*kernel_runs)]
        assert np.all(f[2]) and not np.any(f[3]) and np.all(f[5] == 0)
        runs = LyapunovRunSet(
            samples=LyapunovSamples(f[0], np.zeros(2), f[2], f[3]),
            lam_tail=f[1],
            final_cone=f[5],
            nu_max_final=f[6],
            last_change=f[7],
            n_switches=f[8],
            abs_nu2_final=f[9],
            cycle_period=np.zeros(2, dtype=np.int64),
        )
        monkeypatch.setattr(dynamics, "lyapunov_runs", lambda *args, **kwargs: runs)
        ens_a, ens_b = EnsembleSpec.goe(3, 0.0, 1.0), EnsembleSpec.goe(3, 0.0, 0.2)
        pairs = trapped_run_edge_pairs(ens_a, ens_b, 2, T=T, seed=0, tail_window=tw)
        assert list(pairs["run_index"]) == [1]
        assert np.abs(pairs["sigma1_dynamics"] - pairs["sigma1_eigenvalue"])[0] < 1e-9
        assert math.log(runs.nu_max_final[0]) - runs.lam_tail[0] > 1e-6


class TestElliptic:
    def test_rho_zero_is_coin_flip_decay(self):
        # iid entries: each step is a fair coin, Q0(tau) -> 2^-tau as N -> inf;
        # at N = 128 the finite-N excess stays below binomial error for tau <= 4
        n_real = 4000
        out = elliptic_persistence(128, [0.0], n_real, T=40, seed=23)
        curve = out[0]["curve"]
        for tau in range(1, 5):
            p = 2.0**-tau
            sigma = math.sqrt(p * (1.0 - p) / n_real)
            assert abs(curve.q0[curve.tau == tau][0] - p) <= 4 * sigma
        assert fit_window_points(out[0]) >= TRUNCATED_FIT_MIN_POINTS

    def test_default_window_reaches_fit_minimum(self):
        out = elliptic_persistence(128, [0.0], 4000, T=40, seed=1)
        assert fit_window_points(out[0]) >= TRUNCATED_FIT_MIN_POINTS

    def test_default_window_too_few_points(self):
        with pytest.raises(FitError, match=r"window \(1\.0, .*survivors of 20 realizations"):
            elliptic_persistence(32, [0.0], 20, T=40, seed=3)

    def test_rho_validation(self):
        with pytest.raises(InvalidSpecError):
            elliptic_persistence(64, [1.2], 10, T=10, seed=0)
