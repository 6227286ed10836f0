"""Finite-N cone-wise matrix dynamics.

The state is a unit direction plus an accumulated log norm: with spectral
edges like 2*sqrt(2) (or 0.05*sqrt(2)) over 1e4 steps the raw norm would
overflow (or underflow), so every step (block, on the eigenbasis route)
divides by the largest entry and then by the norm (:func:`_renormalize`)
and adds ln of the growth to a running total.  (Persistence needs signs
only; its Hessenberg route keeps the scale in range with exact powers of
two instead, see the end of this docstring.)  Two equivalent evolution
routes exist:

* :func:`evolve` -- literal per-step matrix products under two (or 2^p)
  matrices, recording signs, residence intervals and trapping (the
  reference semantics);
* :func:`lyapunov_runs` -- an eigenbasis block route for long horizons:
  whole cone-residence stretches advance through tabulated eigenvalue
  powers, and basis changes happen only at cone switches.  Within
  floating-point limits both describe the same dynamics; the blocked route
  makes ensemble sweeps at N ~ 1e3, T ~ 1e4 tractable.

Exact zeros follow two fixed rules on every route.  Cone A's matrix acts
while v1 >= 0 and cone B's while v1 < 0 (with more cones, bit i of the
index is set when component i is negative).  A start keeps its sign
through tau when v1(0) v1(t) > 0 for every 1 <= t <= tau, so a zero of v1,
at the start or later, counts as a sign change.

The block route needs neither matrix, only four things: the spectra nu_A
and nu_B, the basis change C = U_B^T U_A between the eigenbases, their first
rows a = U_A^T e1 and b = U_B^T e1, and the start w = U^T v0 / |v0| in the
starting cone's basis.  For GOE and invariant ensembles U_A and U_B are
independent Haar matrices, independent of the spectra (eigenvector signs
and eigenvalue order do not matter).  So C is Haar and independent of U_A,
a is uniform on the sphere and independent of C, and b = C a.  One start
law covers both routes that work in an eigenbasis: with e = U^T e1 the
first row of the starting cone's basis, U^T v0 = v0[0] e + P_{e-perp} g,
g ~ N(0, I_N) independent of v0[0] and of the bases (:func:`_start`), as
U^T takes v0 - v0[0] e1, N(0, I) on e1-perp and independent of U, to
N(0, I) on e-perp; e . U^T v0 = v0[0] keeps the starting sign.  In cone A
e = a; in cone B e = b, since U_B^T v0 = C U_A^T v0 = v0[0] b + P_{b-perp}
C g and C g is again N(0, I) and independent of C.  So a start asks
nothing of C.  :func:`lyapunov_runs` therefore draws per run two spectra
(the tridiagonal form for GOE, the placed eigenvalues for invariant
ensembles), one uniform a, one Haar C and one start, and calls the one
kernel :func:`_lyapunov_kernel`, which the tests also drive from two dense
``eigh`` calls as the reference; a run's outputs are one record of the
structured dtype ``_RUN``, read by field name.  A run's path is fixed by its
system and its start: the log norm at T - ``tail_window`` is read inside its
block, so only ``lam_tail`` depends on the window.

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
first sign change, when only the starting cone's matrix M has acted, and it
never forms M.  Two representations of v1(t) = e1^T M^t v0 cover every cone
kind; both cost a number of operations that depends on the horizon (and,
for invariant cones, on N) but no N x N draw:

* GOE and elliptic cones: v1(t) = (H^t e1) . z, H = Q^T M^T Q the
  Householder upper-Hessenberg form of M^T with Q e1 = e1 and z = Q^T v0.
  H's entries are independent (law in :mod:`conewise.ensembles`; for GOE H
  is the symmetric tridiagonal form, Dumitriu-Edelman), and z is again iid
  N(0, 1), independent of H, with z[0] = v0[0].  H^t e1 lives on the first
  t + 1 coordinates, so drawing the leading min(T + 1, N) block of H and
  entries of z gives first-change times with exactly the law of the dense
  route, at a cost per run of O(tau^2) for GOE and O(tau^3) for elliptic
  cones, whatever N is.  A block's starts step together
  (:func:`_hessenberg_first_sign_changes`), never normalized: H is
  pre-scaled by a power of two at least its inf-norm, so the entries of
  H^t e1 cannot grow, and every few steps a power-of-two rescale keeps them
  from underflowing.  A GOE stack steps one at a time only through step 8:
  J = H is symmetric, so v1(t + j) = (J^t e1) . (J^j z), and from there a
  start advances eight steps per product with the band of J^8 and reads
  the eight signs in between from one product with the columns J^j z,
  j = 1..8 (when at least 16 steps are left after step 8).
* Invariant cones: v1(t) = sum_i nu_i^t a_i w_i with a = U^T e1 and w =
  U^T v0.  U is Haar and independent of nu and v0, so a is uniform on the
  sphere and w = v0[0] a + P_{a-perp} g with g ~ N(0, I_N) independent (the
  start law above, unnormalized).  With the power table (nu_i / max|nu|)^t,
  t = 0..T, as the factor and a o w as the path normals, these are the
  paths of the Gaussian-process scan (``surrogate._block_first_changes``).
  It is path-major: the starts' a o w are the rows of each product, one
  product per parity with the table's even-time or odd-time rows, and it
  forms times 1..8, 9..24, ... (doubling) only for starts still alive.
  A zero or NaN entry of v1 counts as a change there too.  Its
  start sign is that of the t = 0 product, which is v0[0] up to
  round-off; a start at v0[0] = 0 is given its change at t = 1 directly,
  so only a start with 0 < |v0[0]| at round-off level can take another
  sign than under the fixed rules.  With iid placement every start has its
  own table, and its path, one row over times 0..T, is scanned whole.

The dense reference that both are tested against steps a drawn matrix by
matrix-vector products; it lives in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dormqr

from .ensembles import (
    EnsembleSpec,
    _eigenvalues,
    _goe_jacobi,
    _haar_orthogonal,
    _hessenberg_entries,
    _hessenberg_upper,
    _jacobi_dofs,
    _placed_eigenvalues,
)
from .errors import (
    CollapseUndefinedError,
    DegenerateDynamicsError,
    FitError,
    InvalidSpecError,
    NumericalError,
    check_count,
)
from .estimators import TRUNCATED_FIT_MIN_POINTS, fit_truncated_powerlaw
from .parallel import map_index_chunks
from .records import LyapunovSamples, PersistenceCurve, check_grid, log_tau_grid
from .seeding import check_seed, derive_seed, rng_from_seed
from .spectra import edge_rate, inverse_cdf
from .surrogate import _block_first_changes

__all__ = [
    "Trajectory",
    "evolve",
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
# realizations per persistence draw block; bounds the Hessenberg route's
# working set to a few arrays of this many rows by min(T + 1, N) columns
_JACOBI_BLOCK = 256
# runs per worker task in lyapunov_runs: one run of T steps costs far more
# than starting a task, so small tasks keep the workers evenly loaded; the
# per-run seeds make results independent of it
_LYAPUNOV_CHUNK = 32
# elliptic starts step in pieces of at most this many entries of their
# (rows, k, k) upper parts (64 MB); the piece size depends on k alone
_UPPER_ENTRIES = 1 << 23
# steps between the Hessenberg route's power-of-two rescalings
_RESCALE_EVERY = 16
# the GOE stack steps one at a time through step _LEAP_FROM, then advances
# _LEAP steps per product when at least 2 _LEAP steps remain (fixed steps,
# so no row's time depends on which rows share its stack)
_LEAP_FROM = 8
_LEAP = 8
# rescaled-time grid density of the collapse comparison
_COLLAPSE_POINTS_PER_DECADE = 24
# a trapped run is paired with its top eigenvalue only once the subleading
# eigenvector's weight has shrunk by this factor, (|nu_2|/nu_1)**steps,
# before the tail window opens; with start weights of order one its tail
# rate is then within about 1e-8 / (2 tail_window) of ln nu_1
_EDGE_SETTLED_DECAY = 1e-4


def _runs_of(labels: np.ndarray) -> list[tuple[int, int]]:
    """Maximal constant runs of a nonempty label sequence as (label, length)."""
    starts = np.flatnonzero(np.diff(labels, prepend=labels[0] - 1))
    return list(zip(labels[starts].tolist(), np.diff(starts, append=labels.size).tolist()))


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


def _renormalize(w: np.ndarray, step: int) -> tuple[np.ndarray, float]:
    """``w`` scaled in place to unit length, by its largest entry and then its
    norm so the squares stay in range, and ln of its norm.  A zero ``w``
    raises :class:`DegenerateDynamicsError` and a non-finite entry
    :class:`NumericalError`, both naming ``step``."""
    peak = float(np.abs(w).max())
    if peak == 0.0:
        raise DegenerateDynamicsError(step)
    if not math.isfinite(peak):
        raise NumericalError(f"the product left the float range at step {step}")
    w /= peak
    nrm = math.sqrt(w @ w)  # the float np.linalg.norm gives for a 1-D vector
    w /= nrm
    return w, math.log(peak) + math.log(nrm)


def evolve(matrices, v0: np.ndarray, T: int) -> Trajectory:
    """Cone-wise evolution under 2**p matrices, p >= 0 read from their count:
    sign bits of the first p components pick one (bit i set when component
    i is negative), so with ``[A, B]`` A acts while v1 >= 0, B while v1 < 0.
    A count that is not a power of two, matrices that are not square of one
    shape, a start of another length, a non-finite entry, or a T that is not
    an integer >= 1 raises :class:`InvalidSpecError` before the first step.
    A finite product of any scale is renormalized; steps count from 1, and a
    zero product raises :class:`DegenerateDynamicsError` and a non-finite
    one :class:`NumericalError`, both naming the step."""
    check_count(T, 1, f"horizon T must be an integer >= 1, got {T}")
    count = len(matrices)
    if count < 1 or count & (count - 1):
        raise InvalidSpecError(f"need 2**p matrices for some p >= 0, got {count}")
    p = count.bit_length() - 1
    matrices = [np.asarray(m, dtype=float) for m in matrices]
    v0 = np.asarray(v0, dtype=float)
    shape = matrices[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(m.shape != shape for m in matrices):
        raise InvalidSpecError(
            f"matrices must be square and of one shape, got {[m.shape for m in matrices]}"
        )
    n = shape[0]
    if v0.shape != (n,):
        raise InvalidSpecError(f"start vector needs shape ({n},), got {v0.shape}")
    if not (np.isfinite(v0).all() and all(np.isfinite(m).all() for m in matrices)):
        raise InvalidSpecError("matrices and start vector must be finite")
    if n < p:
        raise InvalidSpecError(f"dimension {n} too small for {p} sign components")
    if not v0.any():
        raise InvalidSpecError("need a nonzero start vector")
    v, _ = _renormalize(v0.copy(), 0)
    sqrt_n = math.sqrt(n)

    log_norm = np.zeros(T + 1)
    signs = np.zeros(T + 1, dtype=np.int8)
    vbar1 = np.zeros(T + 1)
    labels = np.zeros(T, dtype=np.int64)
    signs[0] = np.sign(v[0])
    vbar1[0] = sqrt_n * v[0]

    # a product past the float range is typed by _renormalize, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            idx = 0
            for comp in range(p):
                if v[comp] < 0.0:
                    idx |= 1 << comp
            labels[t] = idx
            v, growth = _renormalize(matrices[idx] @ v, t + 1)
            log_norm[t + 1] = log_norm[t] + growth
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
        meta={"N": n, "p": p},
    )


# -- persistence from matrix dynamics ---------------------------------------


def _hessenberg_first_sign_changes(diag, offdiag, upper, z, s0, horizon) -> np.ndarray:
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

    The loop below steps once per iteration.  It runs elliptic stacks and
    short horizons to the end, but a GOE stack (``upper`` None) with a
    horizon of at least ``_LEAP_FROM + 2 _LEAP`` (24) only through step
    ``_LEAP_FROM`` (8), by which most of its starts have changed (four in
    five for a centred GOE(256)); :func:`_leap_first_sign_changes` then
    advances the rest eight steps per product.  Only the loop checks for a
    zero vector, and for symmetric J that suffices: over an orthonormal
    eigenbasis, J^t e1 = sum_i c_i nu_i^t u_i, so J^t e1 = 0 for some t >= 1
    gives c_i nu_i = 0 for every i, that is J e1 = 0, which the loop raises
    at t = 1.  (In floating point a state that underflowed to zero between
    two rescalings would read as a change instead; the scalings keep its
    largest entry near 1, so J would have to shrink it by about 2^-1074
    within 16 steps.)
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
    leaps = upper is None and horizon >= _LEAP_FROM + 2 * _LEAP
    stepped = _LEAP_FROM if leaps else horizon
    for t in range(1, stepped + 1):
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
            return times
        # finished rows leave the stack at once, so every row left is alive
        diag, offdiag, zs, x, row_of = (a[keep] for a in (diag, offdiag, zs, x, row_of))
    if leaps:
        _leap_first_sign_changes(diag, offdiag, zs, x, row_of, times, stepped, horizon)
    return times


def _view(buf, shape, start, strides):
    """View of C-contiguous ``buf`` whose element 0 is flat element
    ``start`` of ``buf``, with ``strides`` counted in elements."""
    size = buf.itemsize
    return np.ndarray(shape, buf.dtype, buf, start * size, tuple(size * s for s in strides))


def _leap_tables(diag, offdiag, zs):
    """The band of J^m and the columns J^j zs, j = 1..m (m = ``_LEAP``, a
    power of two), for stacked symmetric tridiagonal J truncated to the w
    columns given.

    The band of J is squared until it is that of J^m, and the band of J^a
    takes J^j zs, j < a, to J^(j + a) zs.  A table holds one track per
    diagonal or power, and a track holds the stack's rows one after
    another, each row's w columns followed by m zeros, between two zero
    rows; so a band product reads a neighbouring column at a fixed shift
    along the track, and each square and each power step is one product
    over all rows.  A column outside the w columns reads a zero, which
    truncates J, and band entries there are zero, which keeps the zeros.
    Returns ``band``, (rows, 2m + 1, w) with ``band[:, d, i] = J^m[i, i +
    d - m]`` (0 outside the w columns), and ``powers``, (rows, m, w) with
    ``powers[:, j - 1] = J^j zs``.
    """
    rows, w = diag.shape
    span = w + _LEAP  # a row's columns and the zeros after them
    n, track = rows * span, (rows + 2) * span  # a track's rows; the stride between tracks
    stack = slice(span, span + n)  # the rows within a track

    def table(tracks):
        return np.zeros((tracks, track))

    def grid(tracks):  # (tracks, rows, w) view of the rows' columns
        return tracks.reshape(len(tracks), rows + 2, span)[:, 1:-1, :w]

    # a band of half-width a has its 2a + 1 diagonals in tracks 0..2a; one
    # that is squared has 2a zero tracks after them, which the square reads
    # for diagonals past 2a
    band, a = table(5), 1
    entries = grid(band)
    entries[0, :, 1:], entries[1], entries[2, :, :-1] = offdiag, diag, offdiag
    powers = table(_LEAP + 1)
    grid(powers)[0] = zs
    while True:
        diagonals = band[: 2 * a + 1, stack]
        p = a if a < _LEAP else 1  # J^a takes powers 0..p-1 to a..a+p-1
        shifted = _view(powers, (p, 2 * a + 1, n), span - a, (track, 1, 1))
        np.einsum("dn,pdn->pn", diagonals, shifted, out=powers[a : a + p, stack])
        if a == _LEAP:
            # (rows, tracks, w) copies, so that dropping rows is one gather
            band, powers = (grid(t).transpose(1, 0, 2) for t in (band, powers[1:]))
            return np.ascontiguousarray(band), np.ascontiguousarray(powers)
        # diagonal e of the square sums, over d, diagonal d at column i
        # times diagonal e - d at column i + d - a; the square is symmetric,
        # so only e >= 2a is summed, and diagonal 2a - j at column i is
        # diagonal 2a + j at column i - j
        square = table(8 * a + 1 if 2 * a < _LEAP else 4 * a + 1)
        start = 2 * a * track + span - a
        shifted = _view(band, (2 * a + 1, 2 * a + 1, n), start, (1 - track, track, 1))
        np.einsum("dn,den->en", diagonals, shifted, out=square[2 * a : 4 * a + 1, stack])
        upper = _view(square, (2 * a, n), (2 * a + 1) * track + span - 1, (track - 1, 1))
        np.copyto(square[2 * a - 1 :: -1, stack], upper)
        band, a = square, 2 * a


def _leap_first_sign_changes(diag, offdiag, zs, x, row_of, times, t, horizon):
    """Steps ``t + 1``..``horizon`` of the GOE stack of
    :func:`_hessenberg_first_sign_changes`, m = ``_LEAP`` at a time; writes
    the first-change times of rows ``row_of`` into ``times``.

    J is symmetric, so with x = J^t e1 (scaled), v1(t + j) s0 =
    x . (J^j zs): the next m signs are one product of x with the columns
    J^j zs, and x(t + m) = J^m x one product with the 2m + 1 diagonals of
    J^m (:func:`_leap_tables`).  Both tables cover the leading w columns only:
    x(t) lives on the first t + 1, and J^m x(t) and x(t) . J^j zs read J on
    the first t + m + 1 columns, so tables of the truncated J are exact
    while t + m < w.  w starts at 4m and doubles (up to K) when t + m
    reaches it, and each build covers only the rows still alive.  The
    first-change times are those of the per-step loop up to round-off in v1:
    the two sum the same terms in another order.
    """
    m, k = _LEAP, diag.shape[1]
    live = np.arange(diag.shape[0])  # stacked rows of diag, offdiag and zs still alive
    x = x[:, : t + 1]  # the state of the last step, on its first t + 1 columns
    w = 0
    while t < horizon:
        if w < k and t + m >= w:
            w = min(max(2 * w, 4 * m), k)
            band, powers = _leap_tables(diag[live, :w], offdiag[live, : w - 1], zs[live, :w])
            # x sits after m zeros, so that window i of width 2m + 1 holds
            # x[i - m .. i + m]
            padded = np.zeros((live.size, w + 2 * m))
            padded[:, m : m + x.shape[1]] = x
        c = min(t + 1, w)
        signed = np.vecdot(powers[:, : horizon - t, :c], padded[:, None, m : m + c])
        if not np.minimum.reduce(signed, axis=None) > 0.0:
            changed = ~(signed > 0.0)
            hit = changed.any(axis=1)
            times[row_of[hit]] = t + 1 + changed[hit].argmax(axis=1)
            keep = ~hit
            if not keep.any():
                return
            band, powers, padded, row_of, live = (
                a[keep] for a in (band, powers, padded, row_of, live)
            )
        t += m
        if t >= horizon:
            return
        c = min(t + 1, w)
        window = _view(padded, (live.size, 2 * m + 1, c), 0, (padded.shape[1], 1, 1))
        x = np.einsum("rdi,rdi->ri", band[:, :, :c], window)
        if t % _RESCALE_EVERY == 0:
            x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=1))[1][:, None])
        padded[:, m : m + c] = x


def _block_draws(seed, block, lo, hi, k):
    """Rows lo..hi-1 of persistence block ``block``'s slot-3 draws.

    The stream fills a (hi, 2k) array of normals row by row: per row the
    first k start-vector entries (its head), then the k diagonal normals of
    a Hessenberg form; so a row's values do not depend on ``hi``, and rows
    before ``lo`` are drawn and dropped.  Returns (heads, normals).  Every
    other block stream of :func:`estimate_persistence_matrix` fills its
    rows the same way.
    """
    both = rng_from_seed(derive_seed(seed, block, 3)).standard_normal((hi, 2 * k))[lo:]
    return both[:, :k], both[:, k:]


def _power_table(nu: np.ndarray, T: int) -> np.ndarray:
    """(T + 1) x N table of (nu / max|nu|)^t, t = 0..T.

    Dividing by max|nu|^t keeps every sign and every entry in [-1, 1].
    Entries below the smallest normal float are flushed to zero: subnormals
    would slow every product with the table several fold.  An all-zero
    spectrum maps the start vector to zero at the first step and raises
    :class:`DegenerateDynamicsError`.
    """
    top = float(np.max(np.abs(nu)))
    if top == 0.0:
        raise DegenerateDynamicsError(1)
    table = np.empty((T + 1, nu.size))
    table[0] = 1.0
    np.cumprod(np.broadcast_to(nu / top, (T, nu.size)), axis=0, out=table[1:])
    table[np.abs(table) < np.finfo(float).tiny] = 0.0
    return table


@lru_cache(maxsize=4)
def _quantile_table(model, n_dim: int, T: int) -> np.ndarray:
    """Read-only :func:`_power_table` of the quantile-placed spectrum of
    ``model``, built once per (model, N, T); the cache holds at most four
    tables of (T + 1) N floats."""
    table = _power_table(_placed_eigenvalues(model, n_dim, None, "quantile"), T)
    table.flags.writeable = False
    return table


def _start(head, e: np.ndarray, g: np.ndarray) -> np.ndarray:
    """U^T v0 = head e + P_{e-perp} g for a start with v0[0] = ``head`` and
    an eigenbasis U with first row e = U^T e1, g ~ N(0, I) (the start law
    of the module docstring).  Works on one vector and on rows, ``head``
    then being a column."""
    return head * e + (g - e * np.vecdot(e, g, keepdims=True))


def _invariant_weights(v0_head: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Rows a o w of invariant starts, so that v1(t) = sum_i nu_i^t (a o w)_i.

    Per row, a = U^T e1 is the first half of ``normals`` made a unit vector
    (uniform on the sphere) and w = U^T v0 = :func:`_start` of the row's
    v0[0] (from ``v0_head``), a and g, the second half."""
    n_dim = normals.shape[1] // 2
    x, g = normals[:, :n_dim], normals[:, n_dim:]
    a = x / np.linalg.norm(x, axis=1, keepdims=True)
    return a * _start(v0_head[:, None], a, g)


def _persistence_chunk(ensemble_a, ensemble_b, T, seed, start, stop):
    """First-change times of realizations start..stop-1 (seed layout in
    :func:`estimate_persistence_matrix`)."""
    n_dim = ensemble_a.dimension
    k = min(T + 1, n_dim)
    pair = (ensemble_a, ensemble_b)
    invariant = np.array([ens.kind == "invariant" for ens in pair])
    elliptic = np.array([ens.kind == "elliptic" and ens.rho < 1.0 for ens in pair])
    center = np.array([e.center for e in pair])
    sigma, rho = np.array([e.sigma for e in pair]), np.array([e.rho for e in pair])
    per = max(1, _UPPER_ENTRIES // (k * k))
    times = np.empty(stop - start, dtype=np.int64)
    for lo in range(start - start % _JACOBI_BLOCK, stop, _JACOBI_BLOCK):
        first, last = max(lo, start), min(lo + _JACOBI_BLOCK, stop)
        block, i0, i1 = lo // _JACOBI_BLOCK, first - lo, last - lo
        heads, normals = _block_draws(seed, block, i0, i1, k)
        s0 = np.sign(heads[:, 0])
        cone = (s0 < 0).astype(np.intp)  # 0 for cone A, 1 for cone B
        out = times[first - start : last - start]
        if not invariant.all():
            chisq = rng_from_seed(derive_seed(seed, block, 4)).chisquare(
                _jacobi_dofs(n_dim, k), (i1, k - 1)
            )[i0:]
            c_col, s_col, r_col = (a[cone][:, None] for a in (center, sigma, rho))
            diag, sub = _hessenberg_entries(c_col, s_col, r_col, normals, chisq)
            tri = np.flatnonzero(~invariant[cone] & ~elliptic[cone])
            if tri.size:
                out[tri] = _hessenberg_first_sign_changes(
                    diag[tri], sub[tri], None, heads[tri], s0[tri], T
                )
            if elliptic.any():
                # elliptic rows step in pieces of `per` block rows, each with
                # the next rows of the upper parts' stream
                upper_rng = rng_from_seed(derive_seed(seed, block, 7))
                at = np.flatnonzero(elliptic[cone]) + i0  # block positions
                for p0 in range(0, i1, per):
                    draws = upper_rng.standard_normal((min(per, i1 - p0), k * (k - 1) // 2))
                    rows = at[(at >= p0) & (at < p0 + per)] - i0
                    if rows.size:
                        upper = _hessenberg_upper(
                            s_col[rows], r_col[rows], sub[rows], draws[rows + i0 - p0]
                        )
                        out[rows] = _hessenberg_first_sign_changes(
                            diag[rows], sub[rows], upper, heads[rows], s0[rows], T
                        )
        if invariant.any():
            frame = rng_from_seed(derive_seed(seed, block, 5)).standard_normal((i1, 2 * n_dim))[i0:]
            if any(ens.kind == "invariant" and ens.placement == "iid" for ens in pair):
                uniforms = rng_from_seed(derive_seed(seed, block, 6)).random((i1, n_dim))[i0:]
            # both cones' rows form one stack when the cones share a recipe
            stacks = [(ensemble_a, invariant[cone])] if ensemble_a == ensemble_b else [
                (ens, cone == c) for c, ens in enumerate(pair) if ens.kind == "invariant"
            ]
            for ens, member in stacks:
                rows = np.flatnonzero(member)
                if not rows.size:
                    continue
                weights = _invariant_weights(heads[rows, 0], frame[rows])
                if ens.placement == "quantile":
                    # the scan's paths are the table @ weights.T
                    table = _quantile_table(ens.spectral_model, n_dim, T)
                    first = np.minimum(*_block_first_changes(table, weights.T)[0])
                else:  # a table per row: the rows' paths, rows x (T + 1), at once
                    nus = inverse_cdf(ens.spectral_model, uniforms[rows])
                    paths = np.stack([_power_table(nu, T) @ w for nu, w in zip(nus, weights)])
                    ok = paths[:, 1:] * paths[:, :1] > 0.0
                    first = np.where(ok.all(1), T + 1, ok.argmin(1) + 1)
                # the scan reads its start sign off the t = 0 product, so a
                # start at v0[0] = 0 is given its change at t = 1 here
                out[rows] = np.where(s0[rows] == 0.0, 1, first)
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

    Only the starting cone's matrix acts before the first change, and no
    matrix is formed (module docstring); the statistics are those of
    independent pair draws.  Realizations are drawn in blocks of 256: with
    k = min(T + 1, N), realization r is row r mod 256 of block b = r // 256,
    and every block stream ``derive_seed(seed, b, slot)`` fills its array
    row by row, so r sees the same values whatever ``n_realizations``, the
    chunking or ``threads`` is.  The slots:

    * 3: per row the first k start-vector entries (its head), then k
      diagonal normals; the starting sign is that of the head's first
      entry, v0[0], and a start at v0[0] = 0 is in cone A and changes at
      t = 1;
    * 4: k - 1 chi-square variates of the subdiagonal (pairs with a GOE or
      elliptic cone);
    * 7: k (k - 1) / 2 normals of the upper part, for elliptic cones with
      rho < 1, drawn in pieces of at most 2^23 // k^2 rows, so the (rows, k,
      k) upper parts stay within 64 MB;
    * 5: 2N normals, a's and then g's (pairs with an invariant cone);
    * 6: N uniforms of the iid spectrum (iid placement), apart from the
      frame so that the two are independent.

    Slots 0, 1 and 2 are unused.  A GOE or elliptic cone scales the row's
    variates by its centre, sigma and rho into the leading k x k block of
    its Hessenberg form, and a block's starts in such cones step together,
    GOE and elliptic ones in separate stacks: exact in law and O(tau^2)
    (GOE) or O(tau^3) (elliptic) per run whatever N is.  After step 8 a GOE
    stack advances eight steps per NumPy call (when T >= 24), through tables
    built over doubling column windows for the starts still alive, so the
    call count of a block grows as T / 8 rather than T; with the 40-start
    blocks of small sweeps that count, not the arithmetic, set the cost.  An
    invariant cone turns the row's slot-5 normals into a o w and scans the
    paths of its power table; the quantile-placed table is built once per
    (model, N, T), and an iid start checks the signs of its own path.  On
    every route an exact zero of v1 counts as a change (module docstring).
    ``threads`` is the number of worker processes (see
    :func:`~conewise.parallel.map_index_chunks`), which receive whole
    blocks.  An ``n_realizations`` or T that is not an integer >= 1, a
    seed that is not an integer, or a grid that
    :func:`~conewise.records.check_grid` rejects raises
    :class:`InvalidSpecError` before any draw, and an all-zero invariant
    spectrum :class:`DegenerateDynamicsError` at step 1.
    """
    if ensemble_a.dimension != ensemble_b.dimension:
        raise InvalidSpecError("ensembles must share the dimension")
    check_count(T, 1, f"horizon T must be an integer >= 1, got {T}")
    check_seed(seed)
    grid = check_grid(grid, T)
    times = map_index_chunks(
        partial(_persistence_chunk, ensemble_a, ensemble_b, T, seed),
        n_realizations,
        threads,
        chunk=_JACOBI_BLOCK,
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
    of worker processes per size.  A size that is not an integer >= 2, a
    ``mu`` that is not finite and > 0, or a T that is not an integer >= 1
    raises :class:`InvalidSpecError` before any draw.
    """
    for n in n_list:
        check_count(n, 2, f"sizes must be integers >= 2, got {n}")
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 3:
        raise CollapseUndefinedError("need at least 3 sizes for a collapse")
    if n_list[-1] < 8 * n_list[0]:
        raise CollapseUndefinedError("sizes must span at least a factor of 8")
    if not (math.isfinite(mu) and mu > 0):
        raise InvalidSpecError(f"rescaling exponent mu must be finite and > 0, got {mu}")
    check_count(T, 1, f"horizon T must be an integer >= 1, got {T}")
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
    lam_tail: np.ndarray  # growth rate over the last `tail_window` steps (all when >= T)
    final_cone: np.ndarray  # cone index at the horizon
    nu_max_final: np.ndarray  # largest signed eigenvalue of the final cone's matrix
    last_change: np.ndarray  # time of the last sign change (0 if none)
    n_switches: np.ndarray
    abs_nu2_final: np.ndarray  # second-largest |nu| of the final cone's matrix
    cycle_period: np.ndarray  # steps between repeated cone-entry directions (0: no cycle)


# one run of lyapunov_runs: the fields of _lyapunov_kernel in its return
# order, then the frame's reveals and whether it was completed
_RUN = np.dtype(
    [
        ("lam", float), ("lam_tail", float), ("trapped", bool), ("cycling", bool),
        ("cycle_period", np.int64), ("final_cone", np.int8), ("nu_max_final", float),
        ("last_change", np.int64), ("n_switches", np.int64), ("abs_nu2_final", float),
        ("blocks", np.int64), ("frame_reveals", np.int64), ("frame_completed", bool),
    ]
)


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
        r_norm = math.sqrt(r @ r)
        if r_norm <= _REVEAL_TOL * math.sqrt(x @ x):
            return c @ d
        if k == self._limit:
            self._complete()
            return self.forward(x) if src is self.p else self.transpose(x)
        u = self._rng.standard_normal(x.size)
        for _ in range(2):
            u -= (d @ u) @ d
        u /= math.sqrt(u @ u)
        src[k] = r / r_norm
        dst[k] = u
        self.revealed = k + 1
        return c @ d + r_norm * u

    def _complete(self):
        """Draw the rest of C: V_Q diag(D, H) V_P^T (module docstring)."""
        k, n = self.p.shape
        # the default lwork makes LAPACK fall back to the unblocked code
        lwork = int(dgeqrf_lwork(n, k)[0])
        qr_p, tau_p, _, _ = dgeqrf(self.p.T, lwork)
        qr_q, tau_q, _, _ = dgeqrf(self.q.T, lwork)
        mid = np.zeros((n, n), order="F")
        # R of an orthonormal basis is diagonal up to round-off, with entries +-1
        mid[range(k), range(k)] = np.sign(np.diagonal(qr_p)) * np.sign(np.diagonal(qr_q))
        mid[k:, k:] = _haar_orthogonal(n - k, self._rng)
        lwork = int(dormqr("L", "N", qr_q, tau_q, mid, -1)[1][0])
        mid = dormqr("L", "N", qr_q, tau_q, mid, lwork, overwrite_c=1)[0]
        self.dense = dormqr("R", "T", qr_p, tau_p, mid, lwork, overwrite_c=1)[0]


def _lyapunov_kernel(nus, first_rows, frame, w_coord, active, T, tail_window, block):
    """One run of the eigenbasis block evolution from spectral data.

    Cone c's matrix is U_c diag(``nus[c]``) U_c^T; ``first_rows[c]`` is
    U_c^T e1; ``frame.forward`` applies C = U_1^T U_0, which maps cone-0
    coordinates to cone-1 coordinates, and ``frame.transpose`` applies C^T;
    ``w_coord`` is the unit start direction in the coordinates of the
    starting cone ``active`` (0 or 1).
    While the cone holds (v1 >= 0 in cone 0, v1 < 0 in cone 1), first
    components for a whole block of steps come from a table of eigenvalue
    powers built once per cone; a block stops at the first step that leaves
    the cone, and the basis change acts only at these switches.  Directions
    are snapshotted (quantized) at every cone entry for cycle detection.
    The log norm at step max(T - ``tail_window``, 0) is read inside its
    block from a fresh product that the path never uses, so the tail rate
    covers exactly the last ``tail_window`` steps (the whole run when
    ``tail_window >= T``) and the path does not depend on ``tail_window``.
    Returns the first eleven fields of ``_RUN`` in order; ``cycle_period``
    is 0 when the run does not cycle.
    """
    n = w_coord.size
    tables = []
    for nu in nus:
        top = float(np.abs(nu).max())
        cap = max(1, int(600.0 / max(abs(math.log(top)), 1e-3))) if top > 0 else block
        # row i is nu**(i + 1): the cumulative product of one block's powers
        tables.append(np.cumprod(np.broadcast_to(nu, (min(block, cap), n)), axis=0))

    t = 0
    log_norm = 0.0
    last_change = 0
    n_switches = 0
    n_blocks = 0
    stop = max(T - tail_window, 0)  # the tail is steps stop + 1..T
    tail_l = 0.0
    seen: dict[bytes, int] = {}
    cycling = False
    cycle_period = 0

    # blocks restart small after every switch and grow while the cone holds,
    # so rapid-alternation stretches do not pay full-block overhead
    k_next = 8
    while t < T:
        table = tables[active]
        k = min(k_next, table.shape[0], T - t)
        powers = table[:k]
        v1 = powers @ (first_rows[active] * w_coord)
        bad = v1 < 0.0 if active == 0 else v1 >= 0.0
        j = int(bad.argmax())  # the first True, or 0 when none is
        if not bad[j]:
            j = -1
        adv = k if j < 0 else j + 1
        if t < stop <= t + adv:
            tail_l = log_norm + _renormalize(w_coord * powers[stop - t - 1], stop)[1]
        w_coord, growth = _renormalize(w_coord * powers[adv - 1], t + adv)
        log_norm += growth
        t += adv
        n_blocks += 1
        if j < 0:
            k_next = min(4 * k, block)
        else:
            k_next = 8
            last_change = t
            n_switches += 1
            w_coord = frame.forward(w_coord) if active == 0 else frame.transpose(w_coord)
            w_coord /= math.sqrt(w_coord @ w_coord)  # orthogonality round-off only
            active = 1 - active
            if not cycling:
                key = np.rint(w_coord / _CYCLE_GRID).astype(np.int64).tobytes()
                prev = seen.get((active, key))
                if prev is not None:
                    cycling = True
                    cycle_period = t - prev
                else:
                    seen[(active, key)] = t

    lam = log_norm / T
    lam_tail = (log_norm - tail_l) / (T - stop)
    window = _trap_window(T)
    trapped = (T - last_change) >= window
    nu_max_final = float(nus[active].max())
    abs_nu2 = float(np.sort(np.abs(nus[active]))[-2])
    return (
        lam, lam_tail, trapped, cycling, cycle_period, active, nu_max_final, last_change,
        n_switches, abs_nu2, n_blocks,
    )


def _lyapunov_chunk(ensemble_a, ensemble_b, T, seed, tail_window, start, stop):
    n = ensemble_a.dimension
    runs = []
    for r in range(start, stop):
        draws = rng_from_seed(derive_seed(seed, r, 0)).standard_normal(n + 1)
        head, g = float(draws[0]), draws[1:]
        nus = (
            _eigenvalues(ensemble_a, derive_seed(seed, r, 1)),
            _eigenvalues(ensemble_b, derive_seed(seed, r, 2)),
        )
        stream = rng_from_seed(derive_seed(seed, r, 3))
        a = stream.standard_normal(n)
        a /= np.linalg.norm(a)
        frame = _RevealedFrame(n, stream)
        b = frame.forward(a)
        cone = int(head < 0.0)  # cone A holds v1 >= 0
        w = _start(head, (a, b)[cone], g)
        w /= np.linalg.norm(w)
        out = _lyapunov_kernel(nus, (a, b), frame, w, cone, T, tail_window, _BLOCK)
        runs.append((*out, frame.revealed, frame.dense is not None))
    return np.array(runs, dtype=_RUN)


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
    the module docstring).  Slot 0 gives v0[0] and then N normals g, and
    the start is v0[0] times its cone's first row plus the part of g
    orthogonal to that row (the start law of the module docstring), so a
    start reveals no frame pair.
    No matrix of the cones is formed and no ``eigh`` runs; the law is that
    of dense draws diagonalized by ``eigh`` and stepped by the same kernel,
    but the per-seed outputs differ.  ``samples.meta`` counts the revealed
    pairs over all runs (``frame_reveals``) and the runs whose frame was
    completed (``frames_completed``); both sum fields of the run record
    ``_RUN``.  The edge rates ln|nu_plus| of the two ensembles are
    ``samples.rates``, not a ``meta`` entry.  Only symmetric ensembles have
    this route; elliptic ones raise :class:`InvalidSpecError`, as do a T or a
    ``tail_window`` that is not an integer >= 1, a seed that is not an
    integer and nu_plus = 0 (from :func:`~conewise.spectra.edge_rate`).
    ``lam_tail`` is the rate over exactly the last ``tail_window`` steps;
    ``tail_window >= T`` makes the tail the whole run.  ``samples.meta``
    records ``tail_window``; no other output depends on it.

    Only trapped runs have a rate near ln ``nu_max_final``; see
    :class:`LyapunovRunSet`.  ``threads`` is the number of worker processes;
    results do not depend on it.
    """
    if ensemble_a.dimension != ensemble_b.dimension:
        raise InvalidSpecError("ensembles must share the dimension")
    check_count(T, 1, f"horizon T must be an integer >= 1, got {T}")
    check_count(
        tail_window, 1, f"tail_window must be >= 1, got {tail_window}; it counts steps, so an integer"
    )
    check_seed(seed)
    rates = edge_rate(ensemble_a), edge_rate(ensemble_b)
    runs = map_index_chunks(
        partial(_lyapunov_chunk, ensemble_a, ensemble_b, T, seed, tail_window),
        n_realizations,
        threads,
        chunk=_LYAPUNOV_CHUNK,
    )
    samples = LyapunovSamples(
        values=runs["lam"],
        rates=rates,
        trapped=runs["trapped"],
        cycling=runs["cycling"],
        meta={
            "source": "matrix",
            "route": "spectral frame",
            "ensembles": (ensemble_a.describe(), ensemble_b.describe()),
            "N": ensemble_a.dimension,
            "T": T,
            "tail_window": tail_window,
            "seed": seed,
            "n_samples": n_realizations,
            "switches": int(runs["n_switches"].sum()),
            "blocks": int(runs["blocks"].sum()),
            "frame_reveals": int(runs["frame_reveals"].sum()),
            "frames_completed": int(np.count_nonzero(runs["frame_completed"])),
        },
    )
    # every other attribute of the run set is the record field of its name
    columns = {f.name: runs[f.name] for f in fields(LyapunovRunSet) if f.name != "samples"}
    return LyapunovRunSet(samples=samples, **columns)


# -- top eigenvalue fluctuation checks ---------------------------------------


def _sigma1(x, nu_plus, n_dim: int):
    """Edge-fluctuation scale (x - nu_plus) N^{2/3} / gamma, gamma = nu_plus / 2."""
    return (x - nu_plus) * n_dim ** (2.0 / 3.0) / (nu_plus / 2.0)


@dataclass
class TopEigenvalueCheck:
    """Largest-eigenvalue draws and their edge-fluctuation normalization
    sigma1 = (nu_max - nu_plus) N^{2/3} / gamma with gamma = nu_plus / 2."""

    n_dim: int
    nu_plus: float
    gamma: float
    nu_max: np.ndarray
    sigma1: np.ndarray


def top_eigenvalue_check(ensemble: EnsembleSpec, n_draws: int, seed: int) -> TopEigenvalueCheck:
    """Sample the largest eigenvalue of a symmetric ensemble n_draws times.

    GOE draws come from the whole tridiagonal form (``_goe_jacobi`` with
    K = N), which has the spectrum of a dense draw, by bisection; invariant
    draws read the eigenvalues that ``EnsembleSpec.sample`` places, which
    are its matrix's spectrum at the same seed.  An ``n_draws`` that is not an
    integer >= 1 raises :class:`InvalidSpecError`.
    """
    check_count(n_draws, 1, f"n_draws must be an integer >= 1, got {n_draws}")
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
    sigma1 = _sigma1(nu_max, nu_plus, n_dim)
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
    the tail window: (|nu_2| / nu_max_final)**max(T - tail_window -
    last_change, 0) is below ``_EDGE_SETTLED_DECAY``.  Its tail growth rate
    then equals ln ``nu_max_final``.  Both are returned in sigma1
    normalization against the trapping cone's population edge, with the
    indices of the runs used.  A T or ``tail_window`` that is not an
    integer >= 1 raises :class:`InvalidSpecError` (from
    :func:`lyapunov_runs`, before any run).
    """
    runs = lyapunov_runs(ensemble_a, ensemble_b, n_runs, T, seed, tail_window=tail_window)
    edges = np.array(
        [abs(ensemble_a.nu_plus), abs(ensemble_b.nu_plus)]
    )
    positive_edge = runs.nu_max_final > runs.abs_nu2_final
    # a run whose last change falls inside the tail window has not settled
    # at all: 0 steps, decay 1
    steps = np.maximum(T - tail_window - runs.last_change, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        decay = (runs.abs_nu2_final / runs.nu_max_final) ** steps
    use = runs.samples.trapped & ~runs.samples.cycling
    use &= positive_edge & (decay < _EDGE_SETTLED_DECAY)
    cone = runs.final_cone[use]
    nu_plus, n_dim = edges[cone], ensemble_a.dimension
    return {
        "sigma1_dynamics": _sigma1(np.exp(runs.lam_tail[use]), nu_plus, n_dim),
        "sigma1_eigenvalue": _sigma1(runs.nu_max_final[use], nu_plus, n_dim),
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
    window=None,
    grid: np.ndarray | None = None,
    threads: int = 1,
) -> list[dict]:
    """Per-rho survival curves with truncated power-law fits.

    Each curve is :func:`estimate_persistence_matrix` with both cones drawn
    from ``EnsembleSpec.elliptic(N, rho)`` and seed
    ``derive_seed(seed, i)`` for the i-th rho, run on ``threads`` worker
    processes; the curve's ``meta`` records ``rho`` and the caller's
    ``seed``.  The starts step the leading min(T + 1, N) block of the
    Hessenberg form of M^T, with independent entries (module docstrings of
    this module and of :mod:`conewise.ensembles`), so no N x N matrix is
    drawn: a run costs O(tau^3) operations and O(T^2) normals whatever N is,
    and rho = 1 is the GOE tridiagonal route.  Persistence reads signs only,
    and v1(t) under c M has the sign it has under M for any c > 0, so the
    curves do not depend on the ensemble's scale; the default radius is
    drawn.

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

    The fit's ``stderr_exponent`` treats the points of a curve as
    independent, but they are cumulative counts over the same realizations,
    so it understates the seed-to-seed spread of the exponent (at N = 64,
    rho = 0, T = 200 and 3000 realizations: a spread of 0.130 over 12 seeds
    against a median reported error of 0.081).
    """
    out = []
    for i, rho in enumerate(rho_list):
        ens = EnsembleSpec.elliptic(N, rho)
        curve = estimate_persistence_matrix(
            ens, ens, n_realizations, T, derive_seed(seed, i), grid, threads
        )
        curve.meta.update(rho=rho, seed=seed)
        tau, q, err = curve.positive_part()
        win = _default_fit_window(tau, q, n_realizations) if window is None else window
        fit = fit_truncated_powerlaw((tau, q), window=win, stderr=err)
        out.append({"rho": rho, "curve": curve, "fit": fit})
    return out
