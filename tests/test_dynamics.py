import itertools
import math

import numpy as np
import pytest

from conewise import (
    DegenerateDynamicsError,
    EnsembleSpec,
    InvalidSpecError,
    NumericalError,
    SpectralModel,
)
from conewise import dynamics, ensembles
from conewise.dynamics import (
    LyapunovRunSet,
    ScalingCollapse,
    elliptic_persistence,
    estimate_persistence_matrix,
    evolve,
    goe_family,
    lyapunov_runs,
    scaling_collapse,
    top_eigenvalue_check,
    trapped_run_edge_pairs,
    _BLOCK,
    _JACOBI_BLOCK,
    _LEAP,
    _RESCALE_EVERY,
    _RevealedFrame,
    _block_draws,
    _hessenberg_first_sign_changes,
    _leap_tables,
    _lyapunov_kernel,
    _persistence_chunk,
)
from conewise.ensembles import _goe_jacobi, _hessenberg_entries, _jacobi_dofs
from conewise.errors import CollapseUndefinedError, FitError
from conewise.estimators import TRUNCATED_FIT_MIN_POINTS
from conewise.records import LyapunovSamples, PersistenceCurve, log_tau_grid
from conewise.seeding import derive_seed, rng_from_seed
from conewise.surrogate import estimate_persistence_gp
from scipy.linalg import eigh
from scipy.stats import ks_2samp


# The Hessenberg kernel as it was before GOE stacks advanced eight steps
# per product: one step per iteration for every stack, kept verbatim as the
# reference of the leaping route.
def reference_hessenberg_first_sign_changes(diag, offdiag, upper, z, s0, horizon) -> np.ndarray:
    """First sign change of v1(t) = (H^t e1) . z for stacked Hessenberg H.

    Row i holds the leading K x K block of one upper-Hessenberg H: its
    symmetric tridiagonal part (``diag`` K entries, ``offdiag`` K - 1 on both
    sides of the diagonal) plus ``upper``, the (rows, K, K) strictly upper
    rest, or None when every H of the stack is tridiagonal (GOE).  With it
    the first K entries of the start vector ``z`` and the starting sign
    ``s0`` (+-1, or 0 for a start at v1 = 0); K >= min(horizon + 1, N)
    suffices because H^t e1 lives on the first t + 1 coordinates.  Rows
    step together but independently: every operation on a row is
    elementwise or a reduction over that row alone, so a row's result does
    not depend on which rows share its block.  A row changes at the first t
    where s0 v1(t) is not > 0, so an exact zero of v1 counts as a change
    and s0 = 0 changes at t = 1; a row whose H^t e1 is the zero vector
    raises :class:`DegenerateDynamicsError`.  Returns per-row times
    (horizon + 1 when the sign never changes).

    Only signs matter, so the state is never normalized.  Each row of H is
    first divided by a power of two 2^e >= 4 p, p the largest of its
    tridiagonal entries and of the row sums of ``|upper|``; that bounds its
    inf-norm (a row has at most three tridiagonal entries), so no entry of
    H^t e1 outgrows the largest one of the step before and nothing
    overflows; every ``_RESCALE_EVERY`` steps a row is multiplied by the
    power of two that brings its largest entry into [1/2, 1), so nothing
    underflows.  Both scalings are exact.
    """
    rows, k = diag.shape
    times = np.full(rows, horizon + 1, dtype=np.int64)
    peak = np.maximum(np.abs(diag).max(axis=1), np.abs(offdiag).max(axis=1, initial=0.0))
    if upper is not None:
        peak = np.maximum(peak, np.abs(upper).sum(axis=2).max(axis=1))
    shift = -(np.frexp(peak)[1] + 2)[:, None]
    diag, offdiag = np.ldexp(diag, shift), np.ldexp(offdiag, shift)
    if upper is not None:
        upper = np.ldexp(upper, shift[:, :, None])
    s0 = np.asarray(s0, dtype=float)
    zs = z * s0[:, None]  # v1(t) s0 = (H^t e1) . zs: positive until the change
    x = np.zeros((rows, k))
    x[:, 0] = 1.0
    row_of = np.arange(rows)  # original row of each stacked row
    for t in range(1, horizon + 1):
        c = min(t + 1, k)
        e = offdiag[:, : c - 1]
        y = diag[:, :c] * x[:, :c]
        y[:, 1:] += e * x[:, : c - 1]
        y[:, :-1] += e * x[:, 1:c]
        if upper is not None:
            # rows that left the stack stay in upper: gather only this step's corner
            y[:, :-1] += np.matmul(upper[row_of, : c - 1, 1:c], x[:, 1:c, None])[:, :, 0]
        if t % _RESCALE_EVERY == 0:
            y = np.ldexp(y, -np.frexp(np.abs(y).max(axis=1))[1][:, None])
        x[:, :c] = y
        signed = np.vecdot(y, zs[:, :c])
        if np.minimum.reduce(signed) > 0.0:
            continue
        if not y[signed == 0.0].any(axis=1).all():
            raise DegenerateDynamicsError(t)
        changed = ~(signed > 0.0)
        times[row_of[changed]] = t
        keep = ~changed
        if not keep.any():
            break
        # finished rows leave the stack at once, so every row left is alive
        diag, offdiag, zs, x, row_of = (a[keep] for a in (diag, offdiag, zs, x, row_of))
    return times


def goe_rows(n_dim, T, cone, rows, seed):
    """(diag, offdiag, z, s0) of ``rows`` GOE(n_dim, *cone) starts, drawn as
    the persistence route draws them, for horizon T."""
    k = min(T + 1, n_dim)
    spec = EnsembleSpec.goe(n_dim, *cone)
    rng = rng_from_seed(seed)
    z = rng.standard_normal((rows, k))
    chisq = rng.chisquare(_jacobi_dofs(n_dim, k), (rows, k - 1))
    diag, off = _hessenberg_entries(spec.center, spec.sigma, 1.0, rng.standard_normal((rows, k)), chisq)
    return diag, off, z, np.sign(z[:, 0])


def gaussian(n, seed):
    return rng_from_seed(seed).standard_normal(n)


def _first_sign_change(m, v0, horizon):
    """Step of the first sign change of the first component of m^t v0, or
    horizon + 1: the dense reference kernel, one normalized matrix-vector
    product per step.  The sign holds while v1(0) v1(t) > 0, so an exact
    zero of v1 counts as a change."""
    v = v0 / np.linalg.norm(v0)
    s0 = np.sign(v[0])
    w = np.empty_like(v)
    for t in range(1, horizon + 1):
        np.matmul(m, v, out=w)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            raise DegenerateDynamicsError(t)
        np.divide(w, nrm, out=v)
        if not s0 * v[0] > 0.0:
            return t
    return horizon + 1


def dense_first_changes(ens_a, ens_b, n_real, T, seed):
    """First-change times of fresh dense draws stepped by the reference
    kernel: slot 0 for the start vector, slots 1 and 2 for the matrices of
    cones A (v0[0] >= 0) and B."""
    times = np.empty(n_real, dtype=np.int64)
    for r in range(n_real):
        v0 = rng_from_seed(derive_seed(seed, r, 0)).standard_normal(ens_a.dimension)
        ens, slot = (ens_a, 1) if v0[0] >= 0.0 else (ens_b, 2)
        times[r] = _first_sign_change(ens.sample(derive_seed(seed, r, slot)), v0, T)
    return times


def route_heads(seed, n_real, k):
    """Start-vector heads of realizations 0..n_real-1 as the persistence
    route draws them, one block of _JACOBI_BLOCK rows at a time."""
    blocks = range(-(-n_real // _JACOBI_BLOCK))
    heads = [_block_draws(seed, b, 0, _JACOBI_BLOCK, k)[0] for b in blocks]
    return np.concatenate(heads)[:n_real]


def no_runs(*args, **kwargs):
    raise AssertionError("work started before the inputs were checked")


class DenseFrame:
    """A basis change given as a matrix, in the kernel's frame interface."""

    def __init__(self, cross):
        self.cross = cross

    def forward(self, x):
        return self.cross @ x

    def transpose(self, y):
        return self.cross.T @ y


def dense_lyapunov_single(mats, v0, T, tail_window, block):
    """One run of the block evolution from two dense symmetric matrices:
    both diagonalized by ``eigh``, then stepped by the one kernel.  The
    reference that lyapunov_runs and the step-by-step evolve are tested
    against."""
    (nu_a, u_a), (nu_b, u_b) = (np.linalg.eigh(m) for m in mats)
    v = v0 / np.linalg.norm(v0)
    cone = int(v[0] < 0.0)
    w = (u_a, u_b)[cone].T @ v
    return _lyapunov_kernel(
        (nu_a, nu_b), (u_a[0, :], u_b[0, :]), DenseFrame(u_b.T @ u_a), w, cone, T, tail_window,
        block,
    )


def dense_lyapunov_runs(ens_a, ens_b, n_real, T, seed, tail_window):
    """Kernel tuples of fresh dense draws stepped by the dense wrapper, with
    slot 0 for the start vector and slots 1, 2 for the matrices."""
    runs = []
    for r in range(n_real):
        v0 = rng_from_seed(derive_seed(seed, r, 0)).standard_normal(ens_a.dimension)
        mats = (ens_a.sample(derive_seed(seed, r, 1)), ens_b.sample(derive_seed(seed, r, 2)))
        runs.append(dense_lyapunov_single(mats, v0, T, tail_window, _BLOCK))
    return runs


def blockwise_reference(mats, v0, T, tail_window, block):
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
    active = 0 if v[0] >= 0.0 else 1
    w_coord = eigvecs[active].T @ v
    t, log_norm, last_change, n_switches = 0, 0.0, 0, 0
    stop, tail_l = max(T - tail_window, 0), 0.0  # the tail is read inside its block
    seen, cycling, cycle_period = {}, False, 0
    k_next = 8
    while t < T:
        k = min(k_next, block, caps[active], T - t)
        powers = np.cumprod(np.broadcast_to(eigvals[active], (k, n)), axis=0)
        v1 = powers @ (first_row[active] * w_coord)
        bad = v1 < 0.0 if active == 0 else v1 >= 0.0  # the step that leaves the cone
        j = int(np.argmax(bad)) if bad.any() else -1
        adv = k if j < 0 else j + 1
        if t < stop <= t + adv:
            at_stop = w_coord * powers[stop - t - 1]
            peak = float(np.max(np.abs(at_stop)))
            tail_l = log_norm + (math.log(peak) + math.log(float(np.linalg.norm(at_stop / peak))))
        w_coord = w_coord * powers[adv - 1]
        peak = float(np.max(np.abs(w_coord)))
        w_coord /= peak
        nrm = float(np.linalg.norm(w_coord))
        log_norm += math.log(peak) + math.log(nrm)
        w_coord /= nrm
        t += adv
        k_next = 8 if j >= 0 else min(4 * k, block)
        if j >= 0:
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
    lam = log_norm / T
    lam_tail = (log_norm - tail_l) / (T - stop)
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


# GOE cones and horizons of the leaping route against its reference:
# centred, shifted and extreme-scale cones; horizons below, at and past the
# first leap (24), with partial last leaps (25, 30)
LEAP_CONES = [(0.0, 2.0), (0.5, 1.0), (1.0, 2.0), (0.0, 2e200), (1e200, 2e200), (0.0, 2e-200)]
LEAP_HORIZONS = (1, 7, 8, 9, 16, 17, 23, 24, 25, 30, 120, 400)

SEMI = SpectralModel.semicircle(0.5, 1.0)
BETA3 = SpectralModel.symmetric_beta(3)

# one pair per route and mix of routes, with the block streams each opens
PAIRS = [
    (EnsembleSpec.goe(64, 0.0, 2.0), EnsembleSpec.goe(64, 0.0, 2.0)),
    (EnsembleSpec.goe(64, 0.0, 2.0), EnsembleSpec.elliptic(64, 0.5)),
    (EnsembleSpec.invariant(SEMI, 64), EnsembleSpec.invariant(SEMI, 64)),
    (EnsembleSpec.invariant(SEMI, 64, "iid"), EnsembleSpec.invariant(BETA3, 64, "iid")),
    (EnsembleSpec.elliptic(64, 0.3), EnsembleSpec.elliptic(64, 0.7)),
    (EnsembleSpec.goe(64, 0.5, 1.0), EnsembleSpec.invariant(BETA3, 64)),
]
PAIR_IDS = ["goe", "goe-elliptic", "invariant-quantile", "invariant-iid", "elliptic", "goe-invariant"]
PAIR_STREAMS = [2, 3, 2, 3, 3, 3]


def _law_grid():
    """The equivalence grid: (cone A, cone B, dense realizations) cases."""
    inv, ell, goe = EnsembleSpec.invariant, EnsembleSpec.elliptic, EnsembleSpec.goe
    cases = []
    for n, n_dense in ((16, 4000), (64, 1500)):
        pairs = {
            "invariant-quantile": (inv(SEMI, n), inv(SEMI, n), n_dense),
            "invariant-iid": (inv(SEMI, n, "iid"), inv(SEMI, n, "iid"), n_dense // 4),
            **{f"elliptic-{rho}": (ell(n, rho), ell(n, rho), n_dense) for rho in (0.0, 0.3, 0.7, 1.0)},
            "goe-invariant": (goe(n), inv(BETA3, n), n_dense),
            "goe-elliptic": (goe(n, 0.5, 1.0), ell(n, 0.5), n_dense),
        }
        cases += [pytest.param(*case, id=f"{n}-{name}") for name, case in pairs.items()]
    return cases + [
        pytest.param(inv(SEMI, 256), inv(SEMI, 256), 400, id="256-invariant-quantile"),
        pytest.param(ell(256, 0.3), ell(256, 0.3), 600, id="256-elliptic-0.3"),
    ]


LAW_GRID = _law_grid()


class TestEvolve:
    def test_single_matrix_limit_is_power_iteration(self):
        m = EnsembleSpec.goe(48, 0.0, 2.0).sample(5)
        top = np.max(np.abs(np.linalg.eigvalsh(m)))
        traj = evolve([m], gaussian(48, 1), T=4000)  # p = 0: no sign bit
        assert abs(traj.lyapunov - math.log(top)) < 10 / 4000

    def test_scalar_dynamics_trapped_exact_rate(self):
        a = 1.3 * np.eye(8)
        b = 0.2 * np.eye(8)
        v0 = np.abs(gaussian(8, 2))  # v1(0) > 0: stays in the A cone forever
        traj = evolve([a, b], v0, T=1500)
        assert traj.lyapunov == pytest.approx(math.log(1.3), rel=1e-12)
        assert traj.trapped
        assert len(traj.residence_intervals) == 0
        assert traj.open_interval == (0, 1500)

    def test_unit_direction_each_step(self):
        a = EnsembleSpec.goe(16, 0.0, 0.5).sample(1)
        b = EnsembleSpec.goe(16, 0.0, 3.0).sample(2)
        traj = evolve([a, b], gaussian(16, 3), T=200)
        assert abs(np.linalg.norm(traj.direction) - 1.0) < 1e-12

    def test_log_norm_matches_raw_products(self):
        # oracle equivalence on an overflow-safe instance
        a = EnsembleSpec.goe(12, 0.0, 0.9).sample(21)
        b = EnsembleSpec.goe(12, 0.0, 1.1).sample(22)
        v0 = gaussian(12, 23)
        traj = evolve([a, b], v0, T=50)
        v = v0 / np.linalg.norm(v0)
        for t in range(50):
            v = (a if traj.cone_labels[t] == 0 else b) @ v
            ref = math.log(np.linalg.norm(v))
            assert traj.log_norm[t + 1] == pytest.approx(ref, rel=1e-8, abs=1e-10)

    def test_interval_bookkeeping_reconstructs_labels(self):
        a = EnsembleSpec.goe(32, 0.0, 2.0).sample(31)
        b = EnsembleSpec.goe(32, 0.0, 2.0).sample(32)
        traj = evolve([a, b], gaussian(32, 33), T=400)
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
        a = EnsembleSpec.goe(16, 0.0, 2.0).sample(41)
        b = EnsembleSpec.goe(16, 0.0, 2.0).sample(42)
        t1 = evolve([a, b], gaussian(16, 43), T=128)
        t2 = evolve([a, b], gaussian(16, 43), T=128)
        assert np.array_equal(t1.log_norm, t2.log_norm)
        assert np.array_equal(t1.signs, t2.signs)

    def test_wide_interval_spread_for_goe_pair(self):
        a = EnsembleSpec.goe(512, 0.0, 2.0).sample(51)
        b = EnsembleSpec.goe(512, 0.0, 2.0).sample(52)
        traj = evolve([a, b], gaussian(512, 53), T=4000)
        lengths = [tau for _, tau in traj.residence_intervals]
        assert min(lengths) == 1
        assert max(lengths) >= 100  # spans two decades of residence times

    def test_kernel_direction_raises(self):
        # steps are numbered from 1, as on the persistence routes
        a = np.zeros((4, 4))
        with pytest.raises(DegenerateDynamicsError) as err:
            evolve([a, a], np.ones(4), T=10)
        assert err.value.step == 1

    def test_scale_past_float_range(self):
        # each step's product is near 1e300; its squares are not representable
        traj = evolve([1e300 * np.eye(3)], np.ones(3), T=5)
        assert traj.log_norm == pytest.approx(np.arange(6) * math.log(1e300), rel=1e-14)
        assert np.allclose(traj.direction, np.ones(3) / math.sqrt(3), rtol=1e-14)

    def test_non_finite_product_raises(self):
        with pytest.raises(NumericalError, match="float range at step 1"):
            evolve([1e308 * np.ones((4, 4))], np.ones(4), T=3)

    def test_exact_zero_stays_in_a_and_leaves_b(self):
        # v0 = (-1, 0) starts in B, which maps it to (0, -1): v1 = 0 exactly,
        # so A acts from then on, and A = I keeps v1 = 0
        a, b = np.eye(2), np.array([[0.0, 0.0], [1.0, 0.0]])
        traj = evolve([a, b], np.array([-1.0, 0.0]), T=6)
        assert list(traj.cone_labels) == [1, 0, 0, 0, 0, 0]
        assert list(traj.signs) == [-1, 0, 0, 0, 0, 0, 0]
        # with two sign bits, a zero component sets no bit: (0, -1) is cone 2
        multi = evolve([b, b, a, b], np.array([0.0, -1.0]), T=3)
        assert list(multi.cone_labels) == [2, 2, 2]

    def test_vbar1_scaling(self):
        a = EnsembleSpec.goe(64, 0.0, 2.0).sample(61)
        traj = evolve([a, a], gaussian(64, 62), T=32)
        assert np.allclose(np.abs(traj.vbar1), 8 * np.abs(traj.direction[0]), atol=1e9)
        assert traj.vbar1[-1] == pytest.approx(8 * traj.direction[0])


class TestMulticone:
    def test_p1_reduces_to_evolve(self):
        # four cones whose matrices ignore the second sign bit run the
        # two-cone dynamics: same norms, and labels equal modulo 2
        a = EnsembleSpec.goe(24, 0.0, 1.5).sample(71)
        b = EnsembleSpec.goe(24, 0.0, 2.5).sample(72)
        v0 = gaussian(24, 73)
        t1 = evolve([a, b], v0, T=200)
        t2 = evolve([a, b, a, b], v0, T=200)
        assert (t1.meta["p"], t2.meta["p"]) == (1, 2)
        assert np.array_equal(t1.log_norm, t2.log_norm)
        assert np.array_equal(t1.cone_labels, t2.cone_labels % 2)
        assert len(np.unique(t2.cone_labels)) == 4

    def test_all_equal_matrices_power_iteration(self):
        m = EnsembleSpec.goe(32, 0.0, 2.0).sample(75)
        top = np.max(np.abs(np.linalg.eigvalsh(m)))
        traj = evolve([m, m, m, m], gaussian(32, 76), T=3000)
        assert abs(traj.lyapunov - math.log(top)) < 10 / 3000

    def test_wrong_matrix_count(self):
        m = EnsembleSpec.goe(8, 0.0, 2.0).sample(1)
        with pytest.raises(InvalidSpecError):
            evolve([m, m, m], gaussian(8, 2), T=10)

    def test_cone_labels_follow_sign_bits(self):
        a = [EnsembleSpec.goe(16, 0.0, 2.0).sample(80 + k) for k in range(4)]
        traj = evolve(a, gaussian(16, 90), T=150)
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

    @pytest.mark.parametrize("placement", ["quantile", "iid"])
    def test_zero_spectrum_raises_at_first_step(self, placement):
        ens = EnsembleSpec.invariant(SpectralModel.atomic(0.0), 16, placement)
        with pytest.raises(DegenerateDynamicsError) as err:
            estimate_persistence_matrix(ens, ens, 10, T=5, seed=0)
        assert err.value.step == 1

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
    """Persistence starts step the leading block of the Hessenberg form (GOE
    and elliptic cones) or scan the paths of a power table (invariant
    cones); in law the first-change times equal those of dense draws and
    the reference kernel."""

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
        stacked = _hessenberg_first_sign_changes(diag, off, None, z, s0, T)
        alone = [
            _hessenberg_first_sign_changes(
                diag[i : i + 1], off[i : i + 1], None, z[i : i + 1], s0[i : i + 1], T
            )[0]
            for i in range(30)
        ]
        assert np.array_equal(stacked, alone)
        assert stacked.min() == 1 and stacked.max() > 10

    @pytest.mark.parametrize("n_dim", [2, 3, 9, 16, 64, 256, 1024])
    def test_leaps_match_frozen_reference(self, n_dim):
        # GOE stacks advance eight steps per product after step 8; their
        # times equal the per-step reference's on every row, in stacks of
        # 256 rows, of their first 40 and of the longest-lived row alone
        # (K = N < T + 1 for the small N)
        leaped = 0
        for i, (T, cone) in enumerate(itertools.product(LEAP_HORIZONS, LEAP_CONES)):
            diag, off, z, s0 = goe_rows(n_dim, T, cone, 256, derive_seed(71, n_dim, i))
            ref = reference_hessenberg_first_sign_changes(diag, off, None, z, s0, T)
            longest = int(np.argmax(ref))
            for rows in (slice(None), slice(40), slice(longest, longest + 1)):
                times = _hessenberg_first_sign_changes(diag[rows], off[rows], None, z[rows], s0[rows], T)
                assert np.array_equal(times, ref[rows]), (T, cone)
            leaped += np.count_nonzero(ref > 24) if T >= 24 else 0
        assert leaped > 1000

    @pytest.mark.parametrize("i, cone", enumerate(LEAP_CONES), ids=map(str, LEAP_CONES))
    def test_long_leaps_match_frozen_reference(self, i, cone):
        # T = 3000 at N = 16: hundreds of leaps and rescalings per row
        diag, off, z, s0 = goe_rows(16, 3000, cone, 256, derive_seed(72, i))
        ref = reference_hessenberg_first_sign_changes(diag, off, None, z, s0, 3000)
        assert np.array_equal(_hessenberg_first_sign_changes(diag, off, None, z, s0, 3000), ref)
        assert np.count_nonzero(ref > 1000) > 10

    @pytest.mark.parametrize("w", [2, 5, 16, 17, 40])
    def test_leap_tables_are_truncated_powers(self, w):
        # the band of J^8 and J^j z, j = 1..8, for J truncated to w columns,
        # against dense matrix powers; band entries past the w columns are 0
        rng = rng_from_seed(w)
        diag, off, z = (rng.standard_normal((3, n)) for n in (w, w - 1, w))
        band, powers = _leap_tables(diag, off, z)
        assert band.shape == (3, 2 * _LEAP + 1, w) and powers.shape == (3, _LEAP, w)
        column = np.arange(w) + np.arange(-_LEAP, _LEAP + 1)[:, None]
        inside = (column >= 0) & (column < w)
        for r in range(3):
            jac = np.diag(diag[r]) + np.diag(off[r], 1) + np.diag(off[r], -1)
            top = np.linalg.matrix_power(jac, _LEAP)
            expected = np.where(inside, top[np.arange(w), np.clip(column, 0, w - 1)], 0.0)
            assert np.all(band[r][~inside] == 0.0)
            assert np.allclose(band[r], expected, rtol=0, atol=1e-13 * np.abs(top).max())
            for j in range(1, _LEAP + 1):
                zj = np.linalg.matrix_power(jac, j) @ z[r]
                assert np.allclose(powers[r, j - 1], zj, rtol=0, atol=1e-13 * np.abs(zj).max())

    def test_short_horizons_step_one_at_a_time(self, monkeypatch):
        # below T = 24 no table is built: a build cannot pay for the steps left
        def no_tables(*args):
            raise AssertionError("a short horizon built leap tables")

        monkeypatch.setattr(dynamics, "_leap_tables", no_tables)
        diag, off, z, s0 = goe_rows(64, 23, (0.0, 2.0), 256, 5)
        times = _hessenberg_first_sign_changes(diag, off, None, z, s0, 23)
        assert np.array_equal(times, reference_hessenberg_first_sign_changes(diag, off, None, z, s0, 23))
        with pytest.raises(AssertionError, match="built leap tables"):
            _hessenberg_first_sign_changes(diag, off, None, z, s0, 24)

    def test_exact_zero_counts_as_change(self, monkeypatch):
        # J e1 = (0, 1, 0): v1(1) = z . (0, 1, 0) = 0 exactly, a change on
        # every row, decided without opening any stream
        def no_stream(seed):
            raise AssertionError("an exact zero opened a stream")

        monkeypatch.setattr(dynamics, "rng_from_seed", no_stream)
        diag, off = np.zeros((8, 3)), np.ones((8, 2))
        z = np.tile([1.0, 0.0, 0.0], (8, 1))
        times = _hessenberg_first_sign_changes(diag, off, None, z, np.ones(8), 5)
        assert np.all(times == 1)

    def test_zero_start_changes_at_first_step(self, monkeypatch):
        # v0[0] = 0: the start is in cone A and its sign has changed at t = 1,
        # on the dense reference, the Hessenberg route and both invariant
        # scans; cone B at 1.4 I would never change sign
        goe, flat = EnsembleSpec.goe(16), EnsembleSpec.invariant(SpectralModel.atomic(1.4), 16)
        v0 = np.concatenate([[0.0], gaussian(15, 4)])
        assert _first_sign_change(goe.sample(3), v0, 20) == 1
        draws = dynamics._block_draws

        def zero_starts(*args):
            heads, normals = draws(*args)
            heads[:, 0] = 0.0
            return heads, normals

        monkeypatch.setattr(dynamics, "_block_draws", zero_starts)
        for cone_a in (goe, flat, EnsembleSpec.invariant(SEMI, 16, "iid")):
            assert np.all(_persistence_chunk(cone_a, flat, 20, 5, 0, 300) == 1)

    def test_zero_matrix_raises(self):
        diag, off = np.zeros((3, 4)), np.zeros((3, 3))
        z = np.ones((3, 4))
        with pytest.raises(DegenerateDynamicsError) as err:
            _hessenberg_first_sign_changes(diag, off, None, z, np.ones(3), 5)
        assert err.value.step == 1

    def test_mixed_kinds_route_per_start(self):
        # an invariant cone at 1.4 I never changes sign: its starts survive;
        # GOE starts take the tridiagonal route exactly as in a GOE pair
        goe = EnsembleSpec.goe(32)
        flat = EnsembleSpec.invariant(SpectralModel.atomic(1.4), 32)
        T, n_real = 50, 400
        mixed = _persistence_chunk(goe, flat, T, 3, 0, n_real)
        pure = _persistence_chunk(goe, goe, T, 3, 0, n_real)
        negative = route_heads(3, n_real, 32)[:, 0] < 0
        assert np.all(mixed[negative] == T + 1)
        assert np.array_equal(mixed[~negative], pure[~negative])
        assert 0 < negative.sum() < n_real

    @pytest.mark.parametrize("ens_a, ens_b", PAIRS, ids=PAIR_IDS)
    def test_prefix_of_longer_sweep(self, ens_a, ens_b):
        # a realization's draws do not depend on how many realizations run,
        # nor on where a chunk starts inside a block
        longer = _persistence_chunk(ens_a, ens_b, 60, 17, 0, 1300)
        assert np.array_equal(_persistence_chunk(ens_a, ens_b, 60, 17, 0, 1000), longer[:1000])
        assert np.array_equal(_persistence_chunk(ens_a, ens_b, 60, 17, 300, 1000), longer[300:1000])

    def test_upper_pieces_do_not_change_times(self, monkeypatch):
        # elliptic rows step in pieces of the upper parts' stream; the rows
        # of a piece and their draws do not depend on its size
        ens_a, ens_b = EnsembleSpec.elliptic(64, 0.3), EnsembleSpec.goe(64, 0.5, 1.0)
        whole = _persistence_chunk(ens_a, ens_b, 60, 19, 100, 700)
        monkeypatch.setattr(dynamics, "_UPPER_ENTRIES", 5 * 61 * 61)
        assert np.array_equal(_persistence_chunk(ens_a, ens_b, 60, 19, 100, 700), whole)

    @pytest.mark.parametrize(
        "ens_a, ens_b, streams", [(a, b, n) for (a, b), n in zip(PAIRS, PAIR_STREAMS)], ids=PAIR_IDS
    )
    def test_block_opens_fixed_streams(self, ens_a, ens_b, streams, monkeypatch):
        # each block draws from a fixed set of block streams (slot 3; slot 4
        # for a GOE or elliptic cone, 7 for an elliptic one, 5 for an
        # invariant one and 6 for iid placement); no start opens its own
        opened = []

        def counted(seed):
            opened.append(seed)
            return rng_from_seed(seed)

        monkeypatch.setattr(dynamics, "rng_from_seed", counted)
        _persistence_chunk(ens_a, ens_b, 60, 5, 0, 3 * _JACOBI_BLOCK)
        assert len(opened) == 3 * streams
        assert len(set(opened)) == len(opened)

    @pytest.mark.parametrize("ens_a, ens_b, n_dense", LAW_GRID)
    def test_matrix_free_routes_match_dense_reference(self, ens_a, ens_b, n_dense):
        # the invariant scan and the Hessenberg route against dense draws:
        # Q0 within 4 sigma at every tau and a two-sample KS test at 1%
        T = 40
        grid = np.arange(T + 1)
        fast_times = _persistence_chunk(ens_a, ens_b, T, 31, 0, 4 * n_dense)
        ref_times = dense_first_changes(ens_a, ens_b, n_dense, T, seed=32)
        fast, ref = (
            PersistenceCurve.from_first_change_times(t, T, grid=grid)
            for t in (fast_times, ref_times)
        )
        sigma = np.sqrt(fast.stderr**2 + ref.stderr**2)
        inside = sigma > 0
        assert np.all(np.abs(fast.q0 - ref.q0)[inside] <= 4 * sigma[inside])
        assert ks_2samp(fast_times, ref_times).pvalue > 0.01

    @pytest.mark.parametrize(
        "scaled, plain",
        [
            ((0.0, 2e200, 0.0, 2e200), (0.0, 2.0, 0.0, 2.0)),
            ((0.0, 2e-200, 0.0, 2e-200), (0.0, 2.0, 0.0, 2.0)),
            ((0.0, 2e200, 1e200, 2e200), (0.0, 2.0, 1.0, 2.0)),
        ],
        ids=["radius-2e200", "radius-2e-200", "centre-1e200"],
    )
    def test_extreme_scales(self, scaled, plain):
        # signs do not see the scale of J: the scaled pair must neither
        # overflow nor underflow, and must match its unscaled counterpart
        T, n_real = 200, 2000
        grid = np.arange(T + 1)
        curves = []
        for c_a, r_a, c_b, r_b in (scaled, plain):
            pair = EnsembleSpec.goe(64, c_a, r_a), EnsembleSpec.goe(64, c_b, r_b)
            times = _persistence_chunk(*pair, T, 51, 0, n_real)
            curves.append(PersistenceCurve.from_first_change_times(times, T, grid=grid))
        sigma = np.sqrt(curves[0].stderr ** 2 + curves[1].stderr ** 2)
        assert np.all(np.abs(curves[0].q0 - curves[1].q0) <= 4 * sigma)

    def test_long_horizon_matches_dense_reference(self):
        # runs held in a shifted cone step thousands of times: the periodic
        # rescaling keeps them from underflowing into zero vectors
        ens_a, ens_b = EnsembleSpec.goe(16, 0.0, 2.0), EnsembleSpec.goe(16, 1.0, 2.0)
        T, n_real = 3000, 400
        grid = log_tau_grid(T, points=40)
        fast_times = _persistence_chunk(ens_a, ens_b, T, 61, 0, n_real)
        ref_times = dense_first_changes(ens_a, ens_b, n_real, T, seed=62)
        fast, ref = (
            PersistenceCurve.from_first_change_times(t, T, grid=grid)
            for t in (fast_times, ref_times)
        )
        assert fast.q0[-1] > 0.2
        sigma = np.sqrt(fast.stderr**2 + ref.stderr**2)
        inside = sigma > 0
        assert np.all(np.abs(fast.q0 - ref.q0)[inside] <= 4 * sigma[inside])
        assert ks_2samp(fast_times, ref_times).pvalue > 0.01

    @pytest.mark.parametrize("ens_a, ens_b", PAIRS[1:], ids=PAIR_IDS[1:])
    def test_no_dense_draw(self, ens_a, ens_b, monkeypatch):
        # no persistence start draws a dense matrix or a Haar frame
        def forbidden(*args, **kwargs):
            raise AssertionError("the persistence route drew a dense matrix")

        monkeypatch.setattr(EnsembleSpec, "sample", forbidden)
        monkeypatch.setattr(ensembles, "_haar_orthogonal", forbidden)
        monkeypatch.setattr(dynamics, "_haar_orthogonal", forbidden)
        curve = estimate_persistence_matrix(ens_a, ens_b, 300, T=60, seed=2)
        assert curve.meta["ensembles"] == (ens_a.describe(), ens_b.describe())


class TestMatrixAgainstSurrogate:
    """The finite-N matrix route and the infinite-N Gaussian-process route
    describe one sign process; at N = 32768 their difference is far below
    the sampling error of these sizes."""

    def test_goe_matches_gp_surrogate(self):
        T = 60
        grid = np.arange(T + 1)
        ens = EnsembleSpec.goe(32768, 0.0, 2.0)
        matrix = estimate_persistence_matrix(ens, ens, 60_000, T, seed=41, grid=grid)
        gp = estimate_persistence_gp(
            SpectralModel.semicircle(0.0, 2.0), T, 300_000, seed=71, grid=grid
        )
        sigma = np.sqrt(matrix.stderr**2 + gp.stderr**2)[1:]
        assert np.max(np.abs(matrix.q0 - gp.q0)[1:] / sigma) < 4


    @pytest.mark.parametrize("spec", [SEMI, BETA3], ids=["semicircle", "beta3"])
    def test_invariant_matches_gp_surrogate(self, spec):
        # tau <= N^{2/3} / 16 keeps the finite-N correction below the errors
        T = 25
        grid = np.arange(T + 1)
        ens = EnsembleSpec.invariant(spec, 8192)
        matrix = estimate_persistence_matrix(ens, ens, 4000, T, seed=43, grid=grid)
        gp = estimate_persistence_gp(spec, T, 200_000, seed=73, grid=grid)
        sigma = np.sqrt(matrix.stderr**2 + gp.stderr**2)[1:]
        assert np.max(np.abs(matrix.q0 - gp.q0)[1:] / sigma) < 4


class TestLyapunovRuns:
    def test_eigen_route_matches_reference(self):
        a = EnsembleSpec.goe(48, 0.0, 0.05 * math.sqrt(2)).sample(11)
        b = EnsembleSpec.goe(48, 0.0, 2 * math.sqrt(2)).sample(12)
        v0 = gaussian(48, 13)
        traj = evolve([a, b], v0, T=80)
        out = dense_lyapunov_single((a, b), v0, 80, tail_window=20, block=16)
        assert out[0] == pytest.approx(traj.lyapunov, rel=1e-10, abs=1e-12)
        assert out[8] == len(traj.residence_intervals)

    def test_single_matrix_limit(self):
        # the same matrix in both cones is power iteration: the rate tends to
        # ln max|nu|; with -m the negative edge dominates and the sign flips
        # every step, which drives the block route through a switch per step
        T = 4000
        m = EnsembleSpec.goe(64, 0.0, 2.0).sample(5)
        top = math.log(np.max(np.abs(np.linalg.eigvalsh(m))))
        v0 = gaussian(64, 1)
        for mat in (m, -m):
            out = dense_lyapunov_single((mat, mat), v0, T, tail_window=2000, block=192)
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
        assert samples.rates == (r1, r2) and "rates" not in samples.meta
        assert np.allclose(samples.normalized, (samples.values - r1) / (r2 - r1))

    def test_power_tables_keep_dense_outputs(self):
        # the dense wrapper reads one power table per cone; the rows are the
        # per-block cumprod's floats, so every output is the same bit for bit,
        # also on the -m run of test_single_matrix_limit, which switches at
        # nearly every step, and on a GOE pair whose run cycles
        a = EnsembleSpec.goe(48, 0.0, 0.05 * math.sqrt(2)).sample(11)
        b = EnsembleSpec.goe(48, 0.0, 2 * math.sqrt(2)).sample(12)
        m = -EnsembleSpec.goe(64, 0.0, 2.0).sample(5)
        c = EnsembleSpec.goe(48, 0.0, 2.0).sample(25)
        d = EnsembleSpec.goe(48, 0.5, 1.0).sample(125)
        cases = [
            ((a, b), gaussian(48, 13), 80, 20, 16),
            ((a, b), gaussian(48, 13), 3000, 500, 192),
            ((m, m), gaussian(64, 1), 4000, 2000, 192),
            ((c, d), gaussian(48, 225), 2000, 500, 192),
        ]
        outs = []
        for mats, v0, T, tw, block in cases:
            out = dense_lyapunov_single(mats, v0, T, tw, block)
            assert out[:10] == blockwise_reference(mats, v0, T, tw, block)
            assert out[8] > 0
            outs.append(out)
        assert outs[2][8] > 3900  # switches
        assert outs[3][3]  # cycling

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

    @pytest.mark.parametrize("tail_window", [2.5, 100.0, 0, "100"])
    @pytest.mark.parametrize("entry", [lyapunov_runs, trapped_run_edge_pairs])
    def test_tail_window_must_be_integer(self, entry, tail_window, monkeypatch):
        monkeypatch.setattr(dynamics, "map_index_chunks", no_runs)
        ens = EnsembleSpec.goe(16)
        with pytest.raises(InvalidSpecError, match=f"tail_window must be >= 1, got {tail_window}"):
            entry(ens, ens, 4, T=200, seed=0, tail_window=tail_window)

    def test_zero_tail_window_is_typed(self):
        ens = EnsembleSpec.goe(16)
        with pytest.raises(InvalidSpecError, match="tail_window must be >= 1, got 0"):
            lyapunov_runs(ens, ens, 4, T=100, seed=0, tail_window=0)

    def test_zero_upper_edge_is_typed(self):
        # GOE(-2, 2) has nu_plus = 0, whose edge rate ln|nu_plus| is undefined
        with pytest.raises(InvalidSpecError, match=r"ln\|nu_plus\| needs nu_plus != 0"):
            lyapunov_runs(EnsembleSpec.goe(8, -2, 2), EnsembleSpec.goe(8), 4, T=100, seed=0)

    def test_tail_window_past_horizon_is_whole_run(self):
        ens = EnsembleSpec.goe(16)
        runs = lyapunov_runs(ens, ens, 6, T=100, seed=0, tail_window=500)
        assert np.array_equal(runs.lam_tail, runs.samples.values)
        edge = lyapunov_runs(ens, ens, 6, T=100, seed=0, tail_window=100)
        assert np.array_equal(edge.lam_tail, runs.lam_tail)

    def test_short_tail_is_not_the_whole_run(self):
        # a tail far shorter than a block is still its own window: no
        # trapped run reports the whole-run rate as its tail rate
        ens_a, ens_b = EnsembleSpec.goe(64, 0.0, 2.0), EnsembleSpec.goe(64, 0.5, 1.0)
        runs = lyapunov_runs(ens_a, ens_b, 40, T=3000, seed=1, tail_window=50)
        sel = runs.samples.trapped & ~runs.samples.cycling
        assert np.count_nonzero(sel) >= 10
        assert not np.any(runs.lam_tail[sel] == runs.samples.values[sel])

    @pytest.mark.parametrize(
        "ens_a, ens_b",
        [
            (EnsembleSpec.goe(64, 0.0, 2.0), EnsembleSpec.goe(64, 0.5, 1.0)),
            (EnsembleSpec.invariant(SEMI, 64), EnsembleSpec.invariant(BETA3, 64)),
        ],
        ids=["goe", "invariant"],
    )
    def test_tail_starts_where_shorter_run_ends(self, ens_a, ens_b):
        # T lam(T) - w lam_tail(T) is the log norm at T - w, where a run of
        # horizon T - w with a whole-run tail ends; the longer run reads it
        # inside its block, from the product that ends the shorter run
        T, w = 3000, 700
        runs = lyapunov_runs(ens_a, ens_b, 60, T=T, seed=5, tail_window=w)
        short = lyapunov_runs(ens_a, ens_b, 60, T=T - w, seed=5, tail_window=T - w)
        head = T * runs.samples.values - w * runs.lam_tail
        np.testing.assert_allclose(head, (T - w) * short.samples.values, rtol=1e-12, atol=0)

    def test_path_does_not_depend_on_tail_window(self):
        # run 4 switches cones about every other step, so a block boundary
        # at T - tail_window would move its switches; the tail is read
        # inside its block instead, and only lam_tail and the meta's
        # tail_window follow the window
        ens_a, ens_b = EnsembleSpec.goe(64, 0.0, 2.0), EnsembleSpec.goe(64, 0.5, 1.0)
        T = 2300
        runs = [lyapunov_runs(ens_a, ens_b, 60, T=T, seed=5, tail_window=w) for w in (100, 2000, T)]
        assert runs[0].n_switches[4] > 800
        for other in runs[1:]:
            for name in ("n_switches", "last_change", "final_cone", "cycle_period"):
                assert np.array_equal(getattr(other, name), getattr(runs[0], name)), name
            assert np.array_equal(other.samples.values, runs[0].samples.values)
            for key in ("blocks", "frame_reveals", "frames_completed", "switches"):
                assert other.samples.meta[key] == runs[0].samples.meta[key], key
        assert [r.samples.meta["tail_window"] for r in runs] == [100, 2000, T]
        assert np.array_equal(runs[2].lam_tail, runs[2].samples.values)
        # the tail of the 2000-step window starts where a 300-step run ends
        short = lyapunov_runs(ens_a, ens_b, 60, T=T - 2000, seed=5, tail_window=T - 2000)
        head = T * runs[1].samples.values - 2000 * runs[1].lam_tail
        np.testing.assert_allclose(head, (T - 2000) * short.samples.values, rtol=1e-12, atol=0)

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
                (nu, nu), (a, a), DenseFrame(np.eye(3)), w, 0, 400, 100, _BLOCK
            )
            assert out[3] is cycles
            assert out[4] == (2 if cycles else 0)

    def test_exact_zero_stays_in_a_and_leaves_b(self):
        # a o w = (x, -x) and equal eigenvalues: v1(t) = 0 exactly at every
        # step, so a run in cone A never stops and a run in cone B leaves it
        # at t = 1 and then stays in A
        r = math.sqrt(0.5)
        nu, a, w = np.array([0.5, 0.5]), np.array([r, r]), np.array([r, -r])
        outs = [
            _lyapunov_kernel((nu, nu), (a, a), DenseFrame(np.eye(2)), w, cone, 50, 10, _BLOCK)
            for cone in (0, 1)
        ]
        # fields: n_switches, last_change, final cone
        assert [(o[8], o[7], o[5]) for o in outs] == [(0, 0, 0), (1, 1, 0)]

    def test_cycle_period_and_meta_on_sweep(self):
        ens_a = EnsembleSpec.goe(32, 0.0, 2.0)
        ens_b = EnsembleSpec.goe(32, 0.5, 1.0)
        runs = lyapunov_runs(ens_a, ens_b, 40, T=600, seed=3, tail_window=200)
        cycling = runs.samples.cycling
        assert 0 < np.count_nonzero(cycling) < cycling.size
        assert np.array_equal(runs.cycle_period > 0, cycling)
        meta = runs.samples.meta
        assert meta["tail_window"] == 200
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
        n_switches, reveals, completed = (
            fields["n_switches"], fields["frame_reveals"], fields["frame_completed"]
        )
        still = n_switches == 0
        assert np.any(still) and np.any(completed)
        # a start asks the frame nothing: a run that never switches reveals only b = C a
        assert not np.any(completed[still]) and np.all(reveals[still] == 1)
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

    def test_persistence_matrix_partial_blocks(self):
        # 1000 is no multiple of the 256-realization draw blocks
        ens_a, ens_b = EnsembleSpec.goe(32, 0.0, 2.0), EnsembleSpec.goe(32, 0.5, 1.0)
        one = estimate_persistence_matrix(ens_a, ens_b, 1000, T=60, seed=23, threads=1)
        two = estimate_persistence_matrix(ens_a, ens_b, 1000, T=60, seed=23, threads=2)
        assert np.array_equal(one.q0, two.q0)

    @pytest.mark.parametrize("ens_a, ens_b", PAIRS[1:], ids=PAIR_IDS[1:])
    def test_persistence_matrix_all_routes(self, ens_a, ens_b):
        one = estimate_persistence_matrix(ens_a, ens_b, 600, T=60, seed=24, threads=1)
        two = estimate_persistence_matrix(ens_a, ens_b, 600, T=60, seed=24, threads=2)
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
    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -float("inf"), 0.0, -0.5])
    def test_mu_must_be_finite_and_positive(self, mu, monkeypatch):
        monkeypatch.setattr(dynamics, "estimate_persistence_matrix", no_runs)
        with pytest.raises(InvalidSpecError, match="mu must be finite and > 0"):
            scaling_collapse([16, 64, 256], goe_family(), 100, T=100, mu=mu, seed=0)

    @pytest.mark.parametrize(
        "sizes, shown", [([16.7, 64, 256], "16.7"), ([16, 64.0, 256], "64.0"), ([1, 16, 64], "1")]
    )
    def test_sizes_must_be_integers(self, sizes, shown, monkeypatch):
        monkeypatch.setattr(dynamics, "estimate_persistence_matrix", no_runs)
        with pytest.raises(InvalidSpecError, match=f"integers >= 2, got {shown}"):
            scaling_collapse(sizes, goe_family(), 100, T=100, mu=0.476, seed=0)

    @pytest.mark.parametrize("T", [-5, 0, 2.5])
    def test_horizon_checked_before_any_draw(self, T, monkeypatch):
        monkeypatch.setattr(dynamics, "estimate_persistence_matrix", no_runs)
        with pytest.raises(InvalidSpecError, match=f"horizon T must be an integer >= 1, got {T}"):
            scaling_collapse([16, 64, 256], goe_family(), 100, T=T, mu=0.476, seed=0)

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
        ens = EnsembleSpec.goe(n_dim, 0.0, 2.0)
        chk = top_eigenvalue_check(ens, n_draws, seed=6)
        dense = [np.linalg.eigvalsh(ens.sample(10**6 + k))[-1] for k in range(n_draws)]
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

    @pytest.mark.parametrize("n_draws", [0, -3, 3.0])
    def test_bad_draw_count_is_typed(self, n_draws):
        with pytest.raises(InvalidSpecError, match=f"n_draws must be an integer >= 1, got {n_draws}"):
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

    @pytest.mark.filterwarnings("error")
    def test_trapped_pairs_with_late_last_change_do_not_overflow(self):
        # a run whose last change falls inside the tail window has no
        # settling steps; it is left out without raising the ratio to a
        # negative power
        ens_a, ens_b = EnsembleSpec.goe(3, 0, 2), EnsembleSpec.goe(3, 0.5, 1)
        T, tw = 3000, 1000
        pairs = trapped_run_edge_pairs(ens_a, ens_b, 200, T=T, seed=0, tail_window=tw)
        runs = lyapunov_runs(ens_a, ens_b, 200, T=T, seed=0, tail_window=tw)
        late = np.flatnonzero(runs.last_change > T - tw)
        assert late.size and pairs["n_trapped_used"] > 0
        assert not np.isin(late, pairs["run_index"]).any()

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
                (nu_a, nu_b), (a, a), DenseFrame(np.eye(3)), w, 0, T, tw, _BLOCK
            )
            for nu_a in (np.array([1.0, -0.9997, 0.5]), np.array([1.0, -0.5, 0.3]))
        ]
        f = [np.array(x) for x in zip(*kernel_runs)]
        assert np.all(f[2]) and not np.any(f[3]) and np.all(f[5] == 0)
        runs = LyapunovRunSet(
            samples=LyapunovSamples(f[0], (0.0, 0.0), f[2], f[3]),
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
        # T = 7 leaves at most 7 positive points, one short of the fit's 8,
        # whatever the draws
        with pytest.raises(FitError, match=r"window \(1\.0, .*survivors of 20 realizations"):
            elliptic_persistence(32, [0.0], 20, T=7, seed=3)

    def test_rho_validation(self):
        with pytest.raises(InvalidSpecError):
            elliptic_persistence(64, [1.2], 10, T=10, seed=0)

    def test_persistence_does_not_depend_on_scale(self):
        # c M steps v1 to c^t v1, the same sign; radii 2 and 8 differ by a
        # power of two, which the route's pre-scaling removes exactly
        times = [
            _persistence_chunk(ens, ens, 60, 4, 0, 600)
            for ens in (EnsembleSpec.elliptic(32, 0.5, r) for r in (2.0, 8.0))
        ]
        assert np.array_equal(*times)
        assert np.unique(times[0]).size > 5
