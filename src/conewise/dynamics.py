"""Finite-N cone-wise matrix dynamics.

The state is a unit direction plus an accumulated log norm: with spectral
edges like 2*sqrt(2) (or 0.05*sqrt(2)) over 1e4 steps the raw norm would
overflow (or underflow), so every step renormalizes and adds ln of the step
growth to a running total.  Two equivalent evolution routes exist:

* :func:`evolve` / :func:`evolve_multicone` -- literal per-step matrix
  products, recording signs, residence intervals and trapping (the
  reference semantics);
* :func:`lyapunov_runs` -- an eigenbasis block route for long horizons:
  whole cone-residence stretches advance through tabulated eigenvalue
  powers, and basis changes happen only at cone switches.  Within
  floating-point limits both describe the same dynamics; the blocked route
  makes ensemble sweeps at N ~ 1e3, T ~ 1e4 tractable.

The block route needs neither matrix, only four things: the spectra nu_A
and nu_B, the basis change C = U_B^T U_A between the eigenbases, their first
rows a = U_A^T e1 and b = U_B^T e1, and the start w = U^T v0 / |v0| in the
starting cone's basis.  For GOE and invariant ensembles U_A and U_B are
independent Haar matrices, independent of the spectra (eigenvector signs
and eigenvalue order do not matter).  So C is Haar and independent of U_A,
a is uniform on the sphere and independent of C, and b = C a.  Given
(C, a), U_A^T = R_a S with R_a any fixed orthogonal map with R_a e1 = a and
S Haar on the stabiliser of e1, independent of v0; S v0 has the law of v0
with the same first entry, so w_A = R_a v0 / |v0| has the right joint law,
and a . w_A = v0[0] / |v0| keeps the starting sign's meaning.  A run that
starts in cone B uses w_B = C w_A.  :func:`lyapunov_runs` therefore draws
per run two spectra (the tridiagonal form for GOE, the placed eigenvalues
for invariant ensembles), one uniform a and one Haar C, and calls the one
kernel :func:`_lyapunov_kernel`, which the tests also drive from two dense
``eigh`` calls as the reference.

The kernel reads C only at a cone switch, so C is revealed on demand
(:class:`_RevealedFrame`) rather than drawn by an N x N QR.  The frame keeps
orthonormal p_1..p_k and q_1..q_k with C p_i = q_i.  For a new x, let r =
x - P P^T x (two Gram-Schmidt passes); given the revealed pairs, C restricted
to P-perp -> Q-perp is again Haar, so C x = Q P^T x + |r| u with u uniform on
the unit sphere of Q-perp, independent of everything revealed; (r/|r|, u)
becomes pair k + 1.  C^T y is the mirror image.  The first reveal is (a, b =
C a) with b uniform on the sphere.  The queries depend on C only through
earlier reveals, so every answer has the law of a dense Haar C.  Once
N // ``_FRAME_COMPLETE_AT`` pairs are known, the next reveal instead draws
the rest of C at once: C = V_Q diag(D, H) V_P^T, where V_P and V_Q are the
Householder factors of QR(P) and QR(Q), D the signs that make C P = Q, and H
a Haar (N - k) x (N - k) matrix; from then on a switch is one mat-vec.  A
query with |r| <= ``_REVEAL_TOL`` |x| lies in the revealed span to round-off
and reveals nothing: it returns Q P^T x, which drops a component of relative
size at most 1e-12, below the round-off of a dense mat-vec, so the law moves
by no more than round-off does.  Per run, slot 3 gives a, then the normals
of each reveal's u in query order, then the completion's H.

Persistence (:func:`estimate_persistence_matrix`) only follows a run to its
first sign change, when only the starting cone's matrix M has acted.  A run
that starts in a GOE cone takes the tridiagonal route: with J = Q^T M Q the
Householder tridiagonal form fixing e1, v1(t) = (J^t e1) . z for z = Q^T v0,
and J^t e1 lives on the first t + 1 coordinates.  J's entries are
independent (Dumitriu-Edelman), and z is again iid N(0, 1), independent of
J, with z[0] = v0[0], so drawing the leading min(T + 1, N) entries of J and
z gives first-change times with exactly the law of the dense route, at a
cost of O(tau^2) that does not depend on N.  Runs that start in an
invariant or elliptic cone step a dense matrix (:func:`_first_sign_change`,
also the reference the tridiagonal route is tested against).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dgeqrf, dormqr

from .ensembles import EnsembleSpec, _eigenvalues, _goe_jacobi, _haar_orthogonal
from .errors import (
    CollapseUndefinedError,
    DegenerateDynamicsError,
    FitError,
    InvalidSpecError,
)
from .estimators import TRUNCATED_FIT_MIN_POINTS, empirical_cdf, fit_truncated_powerlaw
from .parallel import map_index_chunks
from .records import LyapunovSamples, PersistenceCurve, log_tau_grid
from .seeding import derive_seed, rng_from_seed

__all__ = [
    "Trajectory",
    "evolve",
    "evolve_multicone",
    "estimate_persistence_matrix",
    "ScalingCollapse",
    "scaling_collapse",
    "goe_family",
    "lyapunov_runs",
    "LyapunovRunSet",
    "TopEigenvalueCheck",
    "top_eigenvalue_check",
    "trapped_run_edge_pairs",
    "elliptic_persistence",
]

# directions are quantized on this grid to detect cycles
_CYCLE_GRID = 1e-6
# longest block of steps the eigenbasis route advances at once
_BLOCK = 192
# a revealed frame is completed once N // this many of its pairs are known
_FRAME_COMPLETE_AT = 8
# a frame query this close to the revealed span, relative to its norm,
# reveals nothing (see the module docstring)
_REVEAL_TOL = 1e-12
# realizations the tridiagonal persistence route steps together; bounds its
# working set to a few arrays of this many rows by min(T + 1, N) columns
_JACOBI_BLOCK = 256
# rescaled-time grid density of the collapse comparison
_COLLAPSE_POINTS_PER_DECADE = 24
# a trapped run is paired with its top eigenvalue only once the subleading
# eigenvector's weight has shrunk by this factor, (|nu_2|/nu_1)**steps,
# before the tail window opens; with start weights of order one its tail
# rate is then within about 1e-8 / (2 tail_window) of ln nu_1
_EDGE_SETTLED_DECAY = 1e-4


def _sign_with_coin(value: float, rng: np.random.Generator) -> int:
    """Sign of a component; exact zeros resolved by a fair coin from the
    run's stream (probability zero in float dynamics, handled anyway)."""
    if value > 0.0:
        return 1
    if value < 0.0:
        return -1
    return 1 if rng.random() < 0.5 else -1


def _runs_of(labels: np.ndarray) -> list[tuple[int, int]]:
    """Maximal constant runs of a label sequence as (label, length)."""
    runs = []
    if labels.size == 0:
        return runs
    start = 0
    for i in range(1, labels.size):
        if labels[i] != labels[start]:
            runs.append((int(labels[start]), i - start))
            start = i
    runs.append((int(labels[start]), labels.size - start))
    return runs


@dataclass
class Trajectory:
    """Renormalized orbit record of one cone-wise run."""

    horizon: int
    direction: np.ndarray  # final unit vector
    log_norm: np.ndarray  # cumulative ln ||v(t)|| / ||v(0)||, length T+1
    signs: np.ndarray  # sign of v_1(t), length T+1 (0 only for exact zeros)
    vbar1: np.ndarray  # sqrt(N) * first component of the unit direction
    cone_labels: np.ndarray  # matrix index applied at each step, length T
    residence_intervals: list  # closed (label, tau) runs
    open_interval: tuple  # final, possibly continuing (label, tau)
    trapped: bool
    meta: dict = field(default_factory=dict)

    @property
    def lyapunov(self) -> float:
        return float(self.log_norm[-1]) / self.horizon

    def interval_partition_ok(self) -> bool:
        total = sum(t for _, t in self.residence_intervals) + self.open_interval[1]
        return total == self.horizon


def _trap_window(T: int) -> int:
    return min(T, max(1000, T // 10))


def evolve_multicone(
    matrices,
    p: int,
    v0: np.ndarray,
    T: int,
    seed: int = 0,
) -> Trajectory:
    """Cone-wise evolution where sign bits of the first p components select
    one of 2**p matrices (bit i set when component i is negative)."""
    if len(matrices) != 2**p:
        raise InvalidSpecError(f"need exactly {2**p} matrices for p = {p}, got {len(matrices)}")
    n = matrices[0].shape[0]
    if n < p:
        raise InvalidSpecError(f"dimension {n} too small for {p} sign components")
    for m in matrices:
        if m.shape != (n, n):
            raise InvalidSpecError("all matrices must share one square shape")
    v0 = np.asarray(v0, dtype=float)
    nrm0 = float(np.linalg.norm(v0))
    if nrm0 == 0.0 or T < 1:
        raise InvalidSpecError("need a nonzero start vector and T >= 1")
    rng = rng_from_seed(seed)
    v = v0 / nrm0
    sqrt_n = math.sqrt(n)

    log_norm = np.zeros(T + 1)
    signs = np.zeros(T + 1, dtype=np.int8)
    vbar1 = np.zeros(T + 1)
    labels = np.zeros(T, dtype=np.int64)
    signs[0] = np.sign(v[0])
    vbar1[0] = sqrt_n * v[0]

    w = np.empty(n)
    for t in range(T):
        idx = 0
        for comp in range(p):
            if _sign_with_coin(v[comp], rng) < 0:
                idx |= 1 << comp
        labels[t] = idx
        np.matmul(matrices[idx], v, out=w)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            raise DegenerateDynamicsError(t)
        log_norm[t + 1] = log_norm[t] + math.log(nrm)
        v = w / nrm
        signs[t + 1] = np.sign(v[0])
        vbar1[t + 1] = sqrt_n * v[0]

    runs = _runs_of(labels)
    window = _trap_window(T)
    trapped = bool(np.all(labels[-window:] == labels[-1]))
    return Trajectory(
        horizon=T,
        direction=v,
        log_norm=log_norm,
        signs=signs,
        vbar1=vbar1,
        cone_labels=labels,
        residence_intervals=runs[:-1],
        open_interval=runs[-1],
        trapped=trapped,
        meta={"N": n, "p": p, "seed": seed},
    )


def evolve(A: np.ndarray, B: np.ndarray, v0: np.ndarray, T: int, seed: int = 0) -> Trajectory:
    """Two-cone evolution: A acts while the first component is positive,
    B while it is negative (exact zeros: fair coin)."""
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidSpecError("A and B must be square matrices of one dimension")
    return evolve_multicone([A, B], 1, v0, T, seed=seed)


# -- persistence from matrix dynamics ---------------------------------------


def _first_sign_change(m: np.ndarray, v0: np.ndarray, horizon: int, rng) -> int:
    """Step of the first sign change of the first component, or horizon+1."""
    v = v0 / np.linalg.norm(v0)
    s0 = _sign_with_coin(v[0], rng)
    w = np.empty_like(v)
    for t in range(1, horizon + 1):
        np.matmul(m, v, out=w)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            raise DegenerateDynamicsError(t)
        np.divide(w, nrm, out=v)
        if _sign_with_coin(v[0], rng) != s0:
            return t
    return horizon + 1


def _jacobi_first_sign_changes(diag, offdiag, z, s0, horizon, rngs) -> np.ndarray:
    """First sign change of v1(t) = (J^t e1) . z for stacked tridiagonal J.

    Row i holds the leading K x K block of one symmetric tridiagonal J
    (``diag`` K entries, ``offdiag`` K - 1), the first K entries of its
    start vector ``z`` and its starting sign ``s0`` (+-1); K >= min(horizon
    + 1, N) suffices because J^t e1 lives on the first t + 1 coordinates.
    Rows step together but independently: every operation on a row is
    elementwise or a reduction over that row alone, so a row's result does
    not depend on which rows share its block.  Exact zeros of v1 are
    resolved by a coin from ``rngs[i]``.  Returns per-row times
    (horizon + 1 when the sign never changes).
    """
    rows, k = diag.shape
    times = np.full(rows, horizon + 1, dtype=np.int64)
    s0 = np.array(s0, dtype=float)  # set to 0 once a row has changed sign
    x = np.zeros((rows, k))
    x[:, 0] = 1.0
    row_of = np.arange(rows)  # original row of each stacked row
    n_alive = rows
    for t in range(1, horizon + 1):
        c = min(t + 1, k)
        e = offdiag[:, : c - 1]
        y = diag[:, :c] * x[:, :c]
        y[:, 1:] += e * x[:, : c - 1]
        y[:, :-1] += e * x[:, 1:c]
        peak = np.abs(y).max(axis=1)
        if not peak.all():
            if not peak[s0 != 0.0].all():
                raise DegenerateDynamicsError(t)
            peak[peak == 0.0] = 1.0  # a row that has already changed sign
        y /= peak[:, None]
        x[:, :c] = y
        signed = (y * z[:, :c]).sum(axis=1) * s0
        changed = signed < 0.0
        if np.count_nonzero(signed) < n_alive:
            for i in np.flatnonzero((signed == 0.0) & (s0 != 0.0)):
                changed[i] = _sign_with_coin(0.0, rngs[row_of[i]]) != s0[i]
        if not changed.any():
            continue
        times[row_of[changed]] = t
        s0[changed] = 0.0
        n_alive -= int(np.count_nonzero(changed))
        if n_alive == 0:
            break
        # drop finished rows once they are half the block; until then they
        # step along with s0 = 0, which keeps them out of every test above
        if 2 * n_alive <= s0.size:
            keep = s0 != 0.0
            diag, offdiag, z, s0, x, row_of = (
                a[keep] for a in (diag, offdiag, z, s0, x, row_of)
            )
    return times


def _persistence_chunk(ensemble_a, ensemble_b, T, seed, start, stop):
    n_dim = ensemble_a.dimension
    # a GOE start needs only the first k entries of the start vector; a
    # dense start draws the rest next, which gives the same values as one
    # draw of all n_dim (the normal sampler keeps no state between calls)
    k = min(T + 1, n_dim)
    times = np.empty(stop - start, dtype=np.int64)
    for lo in range(start, stop, _JACOBI_BLOCK):
        rows = []  # (index into times, z, s0, diag, offdiag, rng) of GOE starts
        for r in range(lo, min(lo + _JACOBI_BLOCK, stop)):
            rng = rng_from_seed(derive_seed(seed, r, 0))
            head = rng.standard_normal(k)
            s0 = _sign_with_coin(head[0], rng)
            ens, slot = (ensemble_a, 1) if s0 > 0 else (ensemble_b, 2)
            if ens.kind == "goe":
                diag, off = _goe_jacobi(ens, k, rng_from_seed(derive_seed(seed, r, slot)))
                rows.append((r - start, head, s0, diag, off, rng))
                continue
            v0 = head if k == n_dim else np.concatenate([head, rng.standard_normal(n_dim - k)])
            m = ens.sample(derive_seed(seed, r, slot))
            times[r - start] = _first_sign_change(m, v0, T, rng)
        if rows:
            idx, z, s0, diag, off, rngs = zip(*rows)
            times[list(idx)] = _jacobi_first_sign_changes(
                np.array(diag), np.array(off), np.array(z), s0, T, rngs
            )
    return times


def estimate_persistence_matrix(
    ensemble_a: EnsembleSpec,
    ensemble_b: EnsembleSpec,
    n_realizations: int,
    T: int,
    seed: int,
    grid: np.ndarray | None = None,
    threads: int = 1,
) -> PersistenceCurve:
    """Q0(tau) = fraction of fresh (matrix pair, start vector) draws whose
    first sign change falls after tau.

    Only the starting cone's matrix acts before the first change, so the
    other one is never materialized; seeds are assigned to both slots so the
    statistics are those of independent pair draws.  Realization r draws
    its start vector, then its starting sign, from seed slot 0 and the
    starting cone's matrix from slot 1 (A) or 2 (B).  A GOE cone is drawn
    as the leading min(T + 1, N) block of its tridiagonal form, with that
    many start-vector entries, and stepped in stacked blocks: exact in law
    (see the module docstring), O(tau^2) per run whatever N is, but not the
    same per-seed times as a dense draw.  Invariant and elliptic cones are
    drawn dense and stepped by matrix-vector products.  ``threads`` is the
    number of worker processes (see :func:`~conewise.parallel.map_index_chunks`);
    results do not depend on it (per-realization seeds are index-derived).
    ``n_realizations < 1`` and T < 1 raise :class:`InvalidSpecError`.
    """
    if ensemble_a.dimension != ensemble_b.dimension:
        raise InvalidSpecError("ensembles must share the dimension")
    if T < 1:
        raise InvalidSpecError(f"horizon T must be >= 1, got {T}")
    times = map_index_chunks(
        partial(_persistence_chunk, ensemble_a, ensemble_b, T, seed),
        n_realizations,
        threads,
    )
    meta = {
        "source": "matrix",
        "ensembles": (ensemble_a.describe(), ensemble_b.describe()),
        "N": ensemble_a.dimension,
        "T": T,
        "seed": seed,
    }
    return PersistenceCurve.from_first_change_times(times, horizon=T, grid=grid, meta=meta)


def goe_family(center: float = 0.0, radius: float = 2.0):
    """Ensemble-pair factory N -> (A, B) of centered/shifted GOE recipes."""

    def make(n: int) -> tuple[EnsembleSpec, EnsembleSpec]:
        spec = EnsembleSpec.goe(n, center, radius)
        return spec, spec

    return make


@dataclass
class ScalingCollapse:
    """Rescaled finite-N persistence curves and their collapse quality."""

    n_values: list
    mu: float
    curves: list  # per-N PersistenceCurve
    u_grid: np.ndarray  # common rescaled-time grid (tau * N^{-2/3})
    rescaled_log10: np.ndarray  # len(N) x len(u): log10(Q0 * N^{2 mu/3})
    spread: np.ndarray  # per-u stdev of rescaled_log10 across N
    central_decade: tuple  # (u_lo, u_hi)
    spread_central: float  # max spread inside the central decade
    plateau: dict  # N -> rescaled late-time level c estimate


def scaling_collapse(
    n_list,
    family,
    n_realizations: int,
    T: int,
    mu: float,
    seed: int,
    threads: int = 1,
) -> ScalingCollapse:
    """Measure Q0 at several N, rescale by (tau N^{-2/3}, Q0 N^{2 mu/3}) and
    quantify the collapse as the max cross-N spread of the rescaled curves.

    ``T`` is the horizon at the largest N; smaller sizes run to the same
    maximal rescaled time u = T * max(N)^{-2/3}.  ``threads`` is the number
    of worker processes per size.
    """
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 3:
        raise CollapseUndefinedError("need at least 3 sizes for a collapse")
    if n_list[-1] < 8 * n_list[0]:
        raise CollapseUndefinedError("sizes must span at least a factor of 8")
    if mu <= 0:
        raise InvalidSpecError("rescaling exponent must be positive")
    n_max = n_list[-1]
    u_max = T * n_max ** (-2.0 / 3.0)
    curves = []
    for i, n in enumerate(n_list):
        horizon = max(4, int(math.ceil(u_max * n ** (2.0 / 3.0))))
        ens_a, ens_b = family(n)
        grid = log_tau_grid(horizon, points=120)
        curves.append(
            estimate_persistence_matrix(
                ens_a,
                ens_b,
                n_realizations,
                horizon,
                derive_seed(seed, i),
                grid=grid,
                threads=threads,
            )
        )

    logs_u, logs_q = [], []
    for n, curve in zip(n_list, curves):
        tau, q, _ = curve.positive_part()
        logs_u.append(np.log10(tau * n ** (-2.0 / 3.0)))
        logs_q.append(np.log10(q * n ** (2.0 * mu / 3.0)))
    lo = max(lu[0] for lu in logs_u)
    hi = min(lu[-1] for lu in logs_u)
    if hi - lo < 1.0:
        raise CollapseUndefinedError(
            f"rescaled curves overlap over only {hi - lo:.2f} decades; need >= 1"
        )
    n_pts = max(8, int(round((hi - lo) * _COLLAPSE_POINTS_PER_DECADE)))
    u_grid_log = np.linspace(lo, hi, n_pts)
    rescaled = np.vstack(
        [np.interp(u_grid_log, lu, lq) for lu, lq in zip(logs_u, logs_q)]
    )
    spread = rescaled.std(axis=0, ddof=1)
    mid = 0.5 * (lo + hi)
    central = (mid - 0.5, mid + 0.5)
    in_central = (u_grid_log >= central[0]) & (u_grid_log <= central[1])
    spread_central = float(spread[in_central].max())

    plateau = {}
    for n, curve in zip(n_list, curves):
        q_last = float(curve.q0[-1])
        err_last = float(curve.stderr[-1])
        scale = n ** (2.0 * mu / 3.0)
        plateau[n] = (q_last * scale, err_last * scale)

    return ScalingCollapse(
        n_values=n_list,
        mu=mu,
        curves=curves,
        u_grid=10.0**u_grid_log,
        rescaled_log10=rescaled,
        spread=spread,
        central_decade=(10.0 ** central[0], 10.0 ** central[1]),
        spread_central=spread_central,
        plateau=plateau,
    )


# -- eigenbasis block route for long-horizon growth rates --------------------


@dataclass
class LyapunovRunSet:
    """Per-realization growth-rate estimates with trapping diagnostics.

    ``nu_max_final`` is the largest *signed* eigenvalue of the final cone's
    matrix.  A run's rate tends to its log only when the run is trapped in
    that cone; switching and cycling runs average over both cones.  With one
    matrix in both cones the rate tends to ln max|nu| instead, which differs
    from ln ``nu_max_final`` when the negative edge dominates.
    """

    samples: LyapunovSamples
    lam_tail: np.ndarray  # growth rate over the final window
    final_cone: np.ndarray  # cone index at the horizon
    nu_max_final: np.ndarray  # largest signed eigenvalue of the final cone's matrix
    last_change: np.ndarray  # time of the last sign change (0 if none)
    n_switches: np.ndarray
    abs_nu2_final: np.ndarray  # second-largest |nu| of the final cone's matrix
    cycle_period: np.ndarray  # steps between repeated cone-entry directions (0: no cycle)


def _reflect_e1_to(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """R x for one fixed orthogonal R with R e1 = a (a a unit vector).

    R = s H_u, H_u the Householder reflection along u = e1 - s a, with the
    sign s = +-1 that makes |u|^2 = 2 - 2 s a[0] >= 2, so u has no
    cancellation; then H_u e1 = s a.
    """
    s = 1.0 if a[0] <= 0.0 else -1.0
    u = -s * a
    u[0] += 1.0
    return s * (x - u * (2.0 * float(u @ x) / float(u @ u)))


class _RevealedFrame:
    """A Haar orthogonal C, revealed on demand from the stream ``rng``.

    ``forward(x)`` is C x and ``transpose(y)`` is C^T y; the law argument,
    the skip rule and the completion are in the module docstring.  Rows
    ``p[:revealed]`` and ``q[:revealed]`` hold the pairs with C p_i = q_i;
    ``dense`` is C once the frame is completed, None until then.
    """

    def __init__(self, n: int, rng: np.random.Generator):
        self._rng = rng
        self._limit = max(1, n // _FRAME_COMPLETE_AT)
        self.p = np.empty((self._limit, n))
        self.q = np.empty((self._limit, n))
        self.revealed = 0
        self.dense = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.dense is not None:
            return self.dense @ x
        return self._reveal(x, self.p, self.q)

    def transpose(self, y: np.ndarray) -> np.ndarray:
        if self.dense is not None:
            return self.dense.T @ y
        return self._reveal(y, self.q, self.p)

    def _reveal(self, x, src, dst):
        """The image of x under the map taking each row of ``src`` to the
        same row of ``dst`` (C for (p, q), C^T for (q, p))."""
        k = self.revealed
        s, d = src[:k], dst[:k]
        c = s @ x
        r = x - c @ s
        c2 = s @ r
        r -= c2 @ s
        c += c2
        r_norm = float(np.linalg.norm(r))
        if r_norm <= _REVEAL_TOL * float(np.linalg.norm(x)):
            return c @ d
        if k == self._limit:
            self._complete()
            return self.forward(x) if src is self.p else self.transpose(x)
        u = self._rng.standard_normal(x.size)
        for _ in range(2):
            u -= (d @ u) @ d
        u /= np.linalg.norm(u)
        src[k] = r / r_norm
        dst[k] = u
        self.revealed = k + 1
        return c @ d + r_norm * u

    def _complete(self):
        """Draw the rest of C: V_Q diag(D, H) V_P^T (module docstring)."""
        k, n = self.p.shape
        qr_p, tau_p, _, _ = dgeqrf(self.p.T)
        qr_q, tau_q, _, _ = dgeqrf(self.q.T)
        mid = np.zeros((n, n), order="F")
        # R of an orthonormal basis is diagonal up to round-off, with entries +-1
        mid[range(k), range(k)] = np.sign(np.diagonal(qr_p)) * np.sign(np.diagonal(qr_q))
        mid[k:, k:] = _haar_orthogonal(n - k, self._rng)
        lwork = int(dormqr("L", "N", qr_q, tau_q, mid, -1)[1][0])
        mid = dormqr("L", "N", qr_q, tau_q, mid, lwork, overwrite_c=1)[0]
        self.dense = dormqr("R", "T", qr_p, tau_p, mid, lwork, overwrite_c=1)[0]


def _lyapunov_kernel(nus, first_rows, frame, w_coord, s_cur, T, rng, tail_window, block):
    """One run of the eigenbasis block evolution from spectral data.

    Cone c's matrix is U_c diag(``nus[c]``) U_c^T; ``first_rows[c]`` is
    U_c^T e1; ``frame.forward`` applies C = U_1^T U_0, which maps cone-0
    coordinates to cone-1 coordinates, and ``frame.transpose`` applies C^T;
    ``w_coord`` is the unit start direction in the coordinates of the
    starting cone, 0 when ``s_cur`` > 0 and 1 otherwise.
    While the sign holds, first components for a whole block of steps come
    from a table of eigenvalue powers built once per cone; the basis change
    acts only at cone switches.  Directions are snapshotted (quantized) at
    every cone entry for cycle detection.  With ``tail_window >= T`` the
    tail is the whole run.
    """
    n = w_coord.size
    tables = []
    for nu in nus:
        top = float(np.max(np.abs(nu)))
        cap = max(1, int(600.0 / max(abs(math.log(top)), 1e-3))) if top > 0 else block
        # row i is nu**(i + 1): the cumulative product of one block's powers
        tables.append(np.cumprod(np.broadcast_to(nu, (min(block, cap), n)), axis=0))
    active = 0 if s_cur > 0 else 1

    t = 0
    log_norm = 0.0
    last_change = 0
    n_switches = 0
    n_blocks = 0
    tail_t, tail_l = 0, 0.0
    tail_started = tail_window >= T
    seen: dict[bytes, int] = {}
    cycling = False
    cycle_period = None

    # blocks restart small after every switch and grow while the cone holds,
    # so rapid-alternation stretches do not pay full-block overhead
    k_next = 8
    while t < T:
        table = tables[active]
        k = min(k_next, table.shape[0], T - t)
        powers = table[:k]
        v1 = powers @ (first_rows[active] * w_coord)
        if s_cur > 0:
            bad = v1 <= 0.0
        else:
            bad = v1 >= 0.0
        j = int(np.argmax(bad)) if bad.any() else -1
        adv = k if j < 0 else j + 1
        w_coord = w_coord * powers[adv - 1]
        # two-stage normalization: components can sit far below the level
        # where their squares are representable
        peak = float(np.max(np.abs(w_coord)))
        if peak == 0.0:
            raise DegenerateDynamicsError(t + adv)
        w_coord /= peak
        nrm = float(np.linalg.norm(w_coord))
        log_norm += math.log(peak) + math.log(nrm)
        w_coord /= nrm
        t += adv
        n_blocks += 1
        k_next = k if j >= 0 else min(4 * k, block)
        if j >= 0:
            new_s = _sign_with_coin(float(v1[j]), rng)
            if new_s != s_cur:
                k_next = 8
                s_cur = new_s
                last_change = t
                n_switches += 1
                w_coord = frame.forward(w_coord) if active == 0 else frame.transpose(w_coord)
                w_coord /= np.linalg.norm(w_coord)  # orthogonality round-off only
                active = 1 - active
                if not cycling:
                    key = np.round(w_coord / _CYCLE_GRID).astype(np.int64).tobytes()
                    prev = seen.get((active, key))
                    if prev is not None:
                        cycling = True
                        cycle_period = t - prev
                    else:
                        seen[(active, key)] = t
        if not tail_started and t >= T - tail_window:
            tail_t, tail_l = t, log_norm
            tail_started = True

    lam = log_norm / T
    lam_tail = (log_norm - tail_l) / (t - tail_t) if t > tail_t else lam
    window = _trap_window(T)
    trapped = (T - last_change) >= window
    nu_max_final = float(np.max(nus[active]))
    abs_nu2 = float(np.sort(np.abs(nus[active]))[-2])
    return (
        lam, lam_tail, trapped, cycling, cycle_period, active, nu_max_final, last_change,
        n_switches, abs_nu2, n_blocks,
    )


def _lyapunov_chunk(ensemble_a, ensemble_b, T, seed, tail_window, start, stop):
    n = ensemble_a.dimension
    runs = []
    for r in range(start, stop):
        rng = rng_from_seed(derive_seed(seed, r, 0))
        v0 = rng.standard_normal(n)
        nus = (
            _eigenvalues(ensemble_a, derive_seed(seed, r, 1)),
            _eigenvalues(ensemble_b, derive_seed(seed, r, 2)),
        )
        stream = rng_from_seed(derive_seed(seed, r, 3))
        a = stream.standard_normal(n)
        a /= np.linalg.norm(a)
        frame = _RevealedFrame(n, stream)
        b = frame.forward(a)
        x = v0 / np.linalg.norm(v0)
        s0 = _sign_with_coin(x[0], rng)
        w = _reflect_e1_to(a, x)
        if s0 < 0:
            w = frame.forward(w)
        out = _lyapunov_kernel(nus, (a, b), frame, w, s0, T, rng, tail_window, _BLOCK)
        runs.append((*out, frame.revealed, frame.dense is not None))
    # one array per field of _lyapunov_kernel, then the frame's reveals and
    # completion; no cycle is period 0
    fields = list(zip(*runs))
    fields[4] = [p or 0 for p in fields[4]]
    dtypes = (
        float, float, bool, bool, np.int64, np.int8, float, np.int64, np.int64, float, np.int64,
        np.int64, bool,
    )
    return tuple(np.array(f, dtype=d) for f, d in zip(fields, dtypes))


def lyapunov_runs(
    ensemble_a: EnsembleSpec,
    ensemble_b: EnsembleSpec,
    n_realizations: int,
    T: int = 10_000,
    seed: int = 0,
    tail_window: int = 2000,
    threads: int = 1,
) -> LyapunovRunSet:
    """Ensemble of growth-rate runs with fresh cone draws per realization.

    Each realization draws the spectra of two independent matrices (seed
    slots 1 and 2, from :func:`~conewise.ensembles._eigenvalues`) and the
    relative frame between their eigenbases, so it is never a single-matrix
    limit, even when ``ensemble_a`` and ``ensemble_b`` are the same recipe.
    Slot 3 gives the first row a of cone A's eigenbasis, then the frame's
    reveals in the order the run asks for them, then, once N // 8 pairs are
    known and the run asks for a new one, the rest of the frame at once (see
    the module docstring).
    Slot 0 gives the start vector, then its sign and every coin of the run.
    No matrix of the cones is formed and no ``eigh`` runs; the law is that
    of dense draws diagonalized by ``eigh`` and stepped by the same kernel,
    but the per-seed outputs differ.  ``samples.meta`` counts the revealed
    pairs over all runs (``frame_reveals``) and the runs whose frame was
    completed (``frames_completed``).  Only symmetric ensembles have this
    route; elliptic ones raise :class:`InvalidSpecError`, as do T < 1 and
    ``tail_window`` < 1.  ``tail_window >= T`` makes the tail the whole run.

    Only trapped runs have a rate near ln ``nu_max_final``; see
    :class:`LyapunovRunSet`.  ``threads`` is the number of worker processes;
    results do not depend on it.
    """
    if ensemble_a.dimension != ensemble_b.dimension:
        raise InvalidSpecError("ensembles must share the dimension")
    if T < 1:
        raise InvalidSpecError(f"horizon T must be >= 1, got {T}")
    if tail_window < 1:
        raise InvalidSpecError(f"tail_window must be >= 1, got {tail_window}")
    r1 = math.log(abs(ensemble_a.nu_plus))
    r2 = math.log(abs(ensemble_b.nu_plus))
    (
        lam,
        lam_tail,
        trapped,
        cycling,
        cycle_period,
        final_cone,
        nu_max_final,
        last_change,
        n_switches,
        abs_nu2,
        n_blocks,
        frame_reveals,
        frame_completed,
    ) = map_index_chunks(
        partial(_lyapunov_chunk, ensemble_a, ensemble_b, T, seed, tail_window),
        n_realizations,
        threads,
        chunk=32,
    )
    normalized = (lam - r1) / (r2 - r1) if r1 != r2 else np.zeros_like(lam)
    samples = LyapunovSamples(
        values=lam,
        normalized=normalized,
        trapped=trapped,
        cycling=cycling,
        meta={
            "source": "matrix",
            "route": "spectral frame",
            "ensembles": (ensemble_a.describe(), ensemble_b.describe()),
            "N": ensemble_a.dimension,
            "T": T,
            "seed": seed,
            "rates": (r1, r2),
            "n_samples": n_realizations,
            "switches": int(n_switches.sum()),
            "blocks": int(n_blocks.sum()),
            "frame_reveals": int(frame_reveals.sum()),
            "frames_completed": int(np.count_nonzero(frame_completed)),
        },
    )
    return LyapunovRunSet(
        samples=samples,
        lam_tail=lam_tail,
        final_cone=final_cone,
        nu_max_final=nu_max_final,
        last_change=last_change,
        n_switches=n_switches,
        abs_nu2_final=abs_nu2,
        cycle_period=cycle_period,
    )


# -- top eigenvalue fluctuation checks ---------------------------------------


@dataclass
class TopEigenvalueCheck:
    """Largest-eigenvalue draws and their edge-fluctuation normalization
    sigma1 = (nu_max - nu_plus) N^{2/3} / gamma with gamma = nu_plus / 2."""

    n_dim: int
    nu_plus: float
    gamma: float
    nu_max: np.ndarray
    sigma1: np.ndarray

    def cdf(self, x) -> np.ndarray:
        return empirical_cdf(self.sigma1)(x)


def top_eigenvalue_check(ensemble: EnsembleSpec, n_draws: int, seed: int) -> TopEigenvalueCheck:
    """Sample the largest eigenvalue of a symmetric ensemble n_draws times.

    GOE draws come from the whole tridiagonal form (``_goe_jacobi`` with
    K = N), which has the spectrum of a dense draw, by bisection; invariant
    draws read the eigenvalues that ``sample_invariant`` places, which are
    its matrix's spectrum at the same seed.  ``n_draws < 1`` raises
    :class:`InvalidSpecError`.
    """
    if n_draws < 1:
        raise InvalidSpecError(f"n_draws must be >= 1, got {n_draws}")
    nu_plus = ensemble.nu_plus  # raises for non-symmetric kinds
    n_dim = ensemble.dimension
    gamma = nu_plus / 2.0
    if gamma <= 0:
        raise InvalidSpecError("edge-fluctuation normalization needs nu_plus > 0")
    top = [n_dim - 1, n_dim - 1]
    nu_max = np.empty(n_draws)
    for k in range(n_draws):
        if ensemble.kind == "goe":
            diag, off = _goe_jacobi(ensemble, n_dim, rng_from_seed(derive_seed(seed, k)))
            nu_max[k] = eigvalsh_tridiagonal(
                diag, off, select="i", select_range=top, check_finite=False
            )[0]
        else:
            nu_max[k] = np.max(_eigenvalues(ensemble, derive_seed(seed, k)))
    sigma1 = (nu_max - nu_plus) * n_dim ** (2.0 / 3.0) / gamma
    return TopEigenvalueCheck(n_dim=n_dim, nu_plus=nu_plus, gamma=gamma, nu_max=nu_max, sigma1=sigma1)


def trapped_run_edge_pairs(
    ensemble_a: EnsembleSpec,
    ensemble_b: EnsembleSpec,
    n_runs: int,
    T: int = 10_000,
    seed: int = 0,
    tail_window: int = 2000,
) -> dict:
    """Matched edge fluctuations from trapped dynamics runs.

    A run is used when it is trapped, not cycling, the final cone's largest
    |nu| is its positive edge ``nu_max_final`` (which then exceeds the
    second-largest |nu_2|), and the power iteration has converged before
    the tail window: (|nu_2| / nu_max_final)**(T - tail_window -
    last_change) is below ``_EDGE_SETTLED_DECAY``.  Its tail growth rate
    then equals ln ``nu_max_final``.  Both are returned in sigma1
    normalization against the trapping cone's population edge, with the
    indices of the runs used.
    """
    runs = lyapunov_runs(ensemble_a, ensemble_b, n_runs, T, seed, tail_window=tail_window)
    edges = np.array(
        [abs(ensemble_a.nu_plus), abs(ensemble_b.nu_plus)]
    )
    positive_edge = runs.nu_max_final > runs.abs_nu2_final
    steps = T - tail_window - runs.last_change
    with np.errstate(divide="ignore", invalid="ignore"):
        decay = (runs.abs_nu2_final / runs.nu_max_final) ** steps
    use = runs.samples.trapped & ~runs.samples.cycling
    use &= positive_edge & (decay < _EDGE_SETTLED_DECAY)
    cone = runs.final_cone[use]
    nu_plus = edges[cone]
    gamma = nu_plus / 2.0
    scale = ensemble_a.dimension ** (2.0 / 3.0) / gamma
    sigma_dyn = (np.exp(runs.lam_tail[use]) - nu_plus) * scale
    sigma_eig = (runs.nu_max_final[use] - nu_plus) * scale
    return {
        "sigma1_dynamics": sigma_dyn,
        "sigma1_eigenvalue": sigma_eig,
        "cone": cone,
        "run_index": np.flatnonzero(use),
        "n_trapped_used": int(np.count_nonzero(use)),
        "n_runs": n_runs,
    }


# -- elliptic interpolation ---------------------------------------------------


def _default_fit_window(tau: np.ndarray, q: np.ndarray, n_realizations: int):
    """Default fit window of :func:`elliptic_persistence` (rule stated there)."""
    if tau.size == 0:
        raise FitError(f"no realization of {n_realizations} survives to tau = 1")
    enough = np.flatnonzero(q * n_realizations >= 25)
    end = int(enough[-1]) if enough.size else tau.size - 1
    tau_lo = 1.0 if tau[end] < 60 else 10.0
    usable = tau[tau >= tau_lo]
    if usable.size < TRUNCATED_FIT_MIN_POINTS:
        raise FitError(
            f"default fit window ({tau_lo}, {float(tau[end])}) ends with "
            f"{int(round(q[end] * n_realizations))} survivors of {n_realizations} "
            f"realizations; the truncated power-law fit needs "
            f"{TRUNCATED_FIT_MIN_POINTS} positive points from tau = {tau_lo} on, "
            f"the curve has {usable.size}"
        )
    return tau_lo, float(max(tau[end], usable[TRUNCATED_FIT_MIN_POINTS - 1]))


def elliptic_persistence(
    N: int,
    rho_list,
    n_realizations: int,
    T: int,
    seed: int,
    radius: float = 2.0,
    window=None,
    grid: np.ndarray | None = None,
    threads: int = 1,
) -> list[dict]:
    """Per-rho survival curves with truncated power-law fits.

    Each curve is :func:`estimate_persistence_matrix` with both cones drawn
    from ``EnsembleSpec.elliptic(N, rho, radius)`` and seed
    ``derive_seed(seed, i)`` for the i-th rho, run on ``threads`` worker
    processes; the curve's ``meta`` records ``rho`` and the caller's
    ``seed``.

    Without ``window`` the fit runs over [1, tau_hi] ([10, tau_hi] when
    tau_hi >= 60), tau_hi being the last grid point with at least 25
    survivors.  When that window holds fewer positive points than the
    truncated fit needs (``TRUNCATED_FIT_MIN_POINTS``), tau_hi moves out to
    the first grid point that reaches that count; a curve with fewer
    positive points raises :class:`FitError` naming the window, the
    survivors at its end and the number of realizations.

    For rho = 0 the entries are iid and Q0(tau) tends to the coin-flip law
    2^-tau only as N -> infinity.  At finite N the fixed matrix keeps a
    memory that adds a relative excess over 2^-tau which grows with tau and
    shrinks with N (at N = 128 a few percent at tau = 4, more than half at
    tau = 8).
    """
    out = []
    for i, rho in enumerate(rho_list):
        ens = EnsembleSpec.elliptic(N, rho, radius)
        curve = estimate_persistence_matrix(
            ens, ens, n_realizations, T, derive_seed(seed, i), grid, threads
        )
        curve.meta.update(rho=rho, seed=seed)
        tau, q, err = curve.positive_part()
        win = _default_fit_window(tau, q, n_realizations) if window is None else window
        fit = fit_truncated_powerlaw((tau, q), window=win, stderr=err)
        out.append({"rho": rho, "curve": curve, "fit": fit})
    return out
