"""The four benchmark workloads: one op is one fixed-size call into a
``conewise`` entry point, seeded from the workload seed.

Each workload builds its inputs in ``setup`` (which counts in ``setup_s``),
runs ``op(i)`` in a closed loop, pools what the correctness gates need, and
evaluates the gates at the end of the run.  Modules are reached through
their module objects so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from conewise import dynamics, estimators, renewal, surrogate
from conewise.ensembles import EnsembleSpec
from conewise.records import PersistenceCurve
from conewise.spectra import SpectralModel

# Diffusion persistence exponent theta(3); the semicircle edge (alpha = 1/2)
# maps to d = 2(alpha + 1) = 3, doubled for a sign-symmetric spectrum.
THETA_3 = 0.2382
# Relative tolerance of the exponent gates: neighbouring diffusion dimensions
# differ by >= 15%, the finite-horizon fit bias measured about 2%.
EXPONENT_RTOL = 0.06
# Kolmogorov critical value at the 1% level, applied to a fixed sample size:
# at horizon 1e6 the renewal law sits about 0.0066 (sup CDF) from the
# Lamperti limit, which a pooled sample of a whole run would resolve.
KS_CRIT = 1.63
KS_SAMPLES = 20_000
EDGE_RATE_ATOL = 1e-9
# Settled runs whose top eigenvalue has a near-degenerate neighbour converge
# too slowly to match within the window; measured: 1 in 90 at T = 5000.
EDGE_MATCH_SHARE = 0.9


def derive(seed: int, *path) -> int:
    """64-bit child seed of the workload seed along ``path``."""
    h = hashlib.blake2b(repr((int(seed),) + path).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


@dataclass
class OpResult:
    items: int
    work: dict = field(default_factory=dict)
    ok: bool = True


@dataclass
class Gate:
    name: str
    ok: bool
    value: float
    limit: float
    failed_ops: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": bool(self.ok), "value": float(self.value),
                "limit": float(self.limit), "failed_ops": len(self.failed_ops)}


class _SurvivalPool:
    """Sum of survivor counts of equally gridded curves."""

    def __init__(self):
        self.tau = None
        self.survivors = None
        self.n = 0

    def add(self, curve: PersistenceCurve, n: int) -> None:
        counts = np.rint(curve.q0 * n)
        if self.survivors is None:
            self.tau, self.survivors = curve.tau, counts
        else:
            self.survivors += counts
        self.n += n

    def curve(self) -> PersistenceCurve:
        q = self.survivors / self.n
        return PersistenceCurve(self.tau, q, np.sqrt(q * (1.0 - q) / self.n))


class Workload:
    def diagnostics(self) -> dict:
        """Values recorded next to the gates but not gated."""
        return {}


class MatrixPersistence(Workload):
    """Persistence Q0(tau) from fresh dense GOE matrices, per-step stepping."""

    name = "matrix_persistence"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n_dim = 32 if tiny else 256
        self.horizon = 120
        self.per_op = 8 if tiny else 40
        self.ref_paths = 1 << (12 if tiny else 18)

    def setup(self) -> None:
        self.spec = EnsembleSpec.goe(self.n_dim, 0.0, 2.0)
        self.grid = np.arange(self.horizon + 1)
        self.reference = surrogate.estimate_persistence_gp(
            SpectralModel.semicircle(0.0, 2.0), 8, self.ref_paths,
            seed=derive(self.seed, "reference"), grid=np.arange(9),
        )
        dynamics.estimate_persistence_matrix(
            self.spec, self.spec, 2, self.horizon, seed=derive(self.seed, "warmup"), grid=self.grid
        )
        self.pool = _SurvivalPool()
        self.ops = []

    def op(self, i: int) -> OpResult:
        curve = dynamics.estimate_persistence_matrix(
            self.spec, self.spec, self.per_op, self.horizon, seed=derive(self.seed, i), grid=self.grid
        )
        self.pool.add(curve, self.per_op)
        self.ops.append(i)
        # each realization applies its matrix min(first change, T) times
        steps = int(np.rint(curve.q0[: self.horizon] * self.per_op).sum())
        return OpResult(self.per_op, {"steps": steps})

    def gates(self) -> list[Gate]:
        n = self.pool.n
        q = self.pool.survivors[:9] / n
        half_sigma = math.sqrt(0.25 / n)
        z_half = abs(q[1] - 0.5) / half_sigma
        ref = self.reference
        sigma = np.sqrt(q * (1.0 - q) / n + ref.stderr**2)[1:]
        z_ref = float(np.max(np.abs(q[1:] - ref.q0[1:]) / sigma))
        return [
            Gate("q1_is_half", z_half <= 4.0, z_half, 4.0, [] if z_half <= 4.0 else self.ops),
            Gate("short_times_match_gp", z_ref <= 5.0, z_ref, 5.0, [] if z_ref <= 5.0 else self.ops),
        ]


class LyapunovEdges(Workload):
    """Growth-rate runs through the eigenbasis block route."""

    name = "lyapunov_edges"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n_dim = 64 if tiny else 512
        self.horizon = 5000
        self.tail_window = 1000
        self.per_op = 1

    def setup(self) -> None:
        self.spec_a = EnsembleSpec.goe(self.n_dim, 0.0, 2.0)
        self.spec_b = EnsembleSpec.goe(self.n_dim, 0.5, 1.0)
        dynamics.lyapunov_runs(
            self.spec_a, self.spec_b, 1, T=200, seed=derive(self.seed, "warmup"), tail_window=50
        )
        self.deviations = []
        self.cone_a_worst = 0.0
        self.bad_ops = []
        self.ops = []

    def op(self, i: int) -> OpResult:
        T, tw = self.horizon, self.tail_window
        runs = dynamics.lyapunov_runs(
            self.spec_a, self.spec_b, self.per_op, T=T, seed=derive(self.seed, i), tail_window=tw
        )
        s = runs.samples
        settled = s.trapped & ~s.cycling & (runs.last_change <= T - 2 * tw)
        # Signed gap between the tail growth factor and the top eigenvalue of
        # the trapping matrix.  Cone B's spectrum lies in [-0.5, 1.5], so its
        # top eigenvalue dominates every |nu|: the log norm is convex in t with
        # slope rising to ln nu_max, hence the gap is <= 0 always and 0 once
        # converged.  Cone A's spectrum is symmetric about 0, |nu_min| can pass
        # nu_max, and a run trapped there can converge to neither within T.
        gap = np.exp(runs.lam_tail) - runs.nu_max_final
        cone_b = settled & (runs.final_cone == 1)
        cone_a = settled & (runs.final_cone == 0)
        self.deviations.extend(gap[cone_b].tolist())
        self.cone_a_worst = max([self.cone_a_worst, *np.abs(gap[cone_a])])
        ok = not np.any(gap[cone_b] > EDGE_RATE_ATOL)
        self.ops.append(i)
        if not ok:
            self.bad_ops.append(i)
        work = {
            "steps": self.per_op * T,
            "switches": int(runs.n_switches.sum()),
            "cycling_runs": int(s.cycling.sum()),
        }
        return OpResult(self.per_op, work, ok)

    def gates(self) -> list[Gate]:
        dev = np.abs(np.asarray(self.deviations))
        matched = float(np.mean(dev <= EDGE_RATE_ATOL)) if dev.size else 0.0
        worst_up = max(self.deviations, default=0.0)
        ok_match = matched >= EDGE_MATCH_SHARE
        return [
            Gate("cone_b_tail_rate_not_above_top_eigenvalue", not self.bad_ops, worst_up,
                 EDGE_RATE_ATOL, self.bad_ops),
            Gate("cone_b_tail_rate_equals_top_eigenvalue_share", ok_match, matched,
                 EDGE_MATCH_SHARE, [] if ok_match else self.ops),
        ]

    def diagnostics(self) -> dict:
        return {"cone_b_runs_checked": len(self.deviations),
                "cone_a_settled_max_deviation": float(self.cone_a_worst)}


class GpSurrogate(Workload):
    """GP persistence with even/odd subprocesses, alternating a centred
    spectrum (closed-form moments) and a shifted one (quadrature moments)."""

    name = "gp_surrogate"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        centred = SpectralModel.semicircle(0.0, 2.0)
        shifted = SpectralModel.semicircle(0.5, 1.0)
        # (spec, horizon, paths per op, exponent fit window, reference exponent)
        if tiny:
            self.inputs = (
                (centred, 128, 512, (10, 120), 2.0 * THETA_3),
                (shifted, 48, 1024, (10, 48), THETA_3),
            )
        else:
            self.inputs = (
                (centred, 1024, 4096, (10, 1000), 2.0 * THETA_3),
                (shifted, 256, 49152, (20, 250), THETA_3),
            )

    def setup(self) -> None:
        for spec, T, *_ in self.inputs:
            surrogate.build_covariance(spec, T)  # fills the per-spectrum moment cache
        surrogate.estimate_persistence_gp(
            self.inputs[0][0], 8, 64, seed=derive(self.seed, "warmup"), subprocesses=True
        )
        self.pools = [[_SurvivalPool() for _ in range(3)] for _ in self.inputs]
        self.ops = [[], []]
        self.exponents = {}

    def op(self, i: int) -> OpResult:
        kind = i % 2
        spec, T, paths, *_ = self.inputs[kind]
        curves = surrogate.estimate_persistence_gp(
            spec, T, paths, seed=derive(self.seed, i), subprocesses=True
        )
        estimators.fit_powerlaw(curves[0])
        for pool, curve in zip(self.pools[kind], curves):
            pool.add(curve, paths)
        self.ops[kind].append(i)
        work = {"path_flops": 2 * (T + 1) ** 2 * paths, "covariance_bytes": 8 * (T + 1) ** 2}
        return OpResult(paths, work)

    def gates(self) -> list[Gate]:
        out = []
        full, even, odd = self.pools[0]
        if full.n:
            n = full.n
            q, qe, qo = (p.survivors / n for p in (full, even, odd))
            z_half = abs(q[1] - 0.5) / math.sqrt(0.25 / n)
            out.append(Gate("centred_q1_is_half", z_half <= 4.0, z_half, 4.0,
                            [] if z_half <= 4.0 else self.ops[0]))
            prod = qe * qo
            var = (q * (1 - q) + (qo**2) * qe * (1 - qe) + (qe**2) * qo * (1 - qo)) / n
            keep = var > 0
            z = float(np.max(np.abs(q - prod)[keep] / np.sqrt(var[keep])))
            out.append(Gate("centred_even_times_odd_is_full", z <= 4.0, z, 4.0,
                            [] if z <= 4.0 else self.ops[0]))
        for kind, label in ((0, "centred"), (1, "shifted")):
            pool = self.pools[kind][0]
            if pool.n:
                _, _, _, window, theta = self.inputs[kind]
                fit = estimators.fit_powerlaw(pool.curve(), window=window)
                self.exponents[f"{label}_exponent"] = -fit.exponent
                dev = abs(-fit.exponent / theta - 1.0)
                ok = dev <= EXPONENT_RTOL
                out.append(Gate(f"{label}_exponent_rel_error", ok, dev, EXPONENT_RTOL,
                                [] if ok else self.ops[kind]))
        return out

    def diagnostics(self) -> dict:
        return self.exponents


class RenewalLamperti(Workload):
    """Renewal growth rates with closed-form g tables, checked against the
    two-edge Lamperti law."""

    name = "renewal_lamperti"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.horizon = 1_000_000
        self.per_op = 200 if tiny else 2000

    def config(self, seed: int) -> renewal.RenewalConfig:
        return renewal.RenewalConfig.exact_spectral(
            0.5, 0.5, SpectralModel.symmetric_beta(3), SpectralModel.semicircle(0.0, 1.5),
            tau_min=1, horizon=self.horizon, seed=seed,
        )

    def setup(self) -> None:
        r1, r2 = self.config(0).rates
        self.law = renewal.LampertiParams(r1, r2, 0.5)
        renewal.sample_renewal_lyapunov(self.config(derive(self.seed, "warmup")), 16)
        self.gate_values = []
        self.gate_ops = []

    def cdf(self, lam):
        return renewal.lamperti_cdf(self.law, lam)

    def op(self, i: int) -> OpResult:
        samples = renewal.sample_renewal_lyapunov(self.config(derive(self.seed, i)), self.per_op)
        estimators.ks_distance(samples.values, self.cdf)
        if len(self.gate_values) * self.per_op < KS_SAMPLES:
            self.gate_values.append(samples.values)
            self.gate_ops.append(i)
        return OpResult(self.per_op)

    def gates(self) -> list[Gate]:
        values = np.concatenate(self.gate_values)
        d = estimators.ks_distance(values, self.cdf)
        limit = KS_CRIT / math.sqrt(values.size)
        return [Gate("lamperti_ks", d < limit, d, limit, [] if d < limit else self.gate_ops)]


WORKLOADS = {w.name: w for w in (MatrixPersistence, LyapunovEdges, GpSurrogate, RenewalLamperti)}
