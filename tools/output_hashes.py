"""Hashes of the package's outputs on fixed calls: one command to check that
a change keeps every output bit for bit.

    python3 tools/output_hashes.py > hashes.json

The package is imported from the ``src`` directory of the checkout that
holds this script, with one BLAS thread, so two checkouts side by side keep
the same outputs when ``diff`` finds their JSON equal.  Each hash is the
first 16 hex digits of the SHA-256 of a call's outputs:

* persistence curves: ``tau`` (as float), ``q0`` and ``stderr`` in turn,
  with the fitted exponent beside each ``elliptic_persistence`` curve, the
  full, even and odd curve of each Gaussian-process call and the joint
  curve of ``joint_persistence``, each of the last two with the
  ``meta["path_entries"]`` count of path entries formed;
* renewal rates: ``values`` and then ``normalized``;
* Lyapunov runs: the whole run record of every run (all ``_RUN`` fields),
  with the meta counts of ``lyapunov_runs`` beside it;
* ``evolve`` trajectories: the cone labels, the closed residence intervals
  and the log norm, each hashed on its own, with the count of closed
  intervals and the open interval;
* Haar draws: the matrix of ``sample_haar_orthogonal``.

Another NumPy, SciPy or BLAS build may round differently and change the
hashes, so compare two checkouts on one machine and one environment.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from conewise import SpectralModel, sample_haar_orthogonal
from conewise.dynamics import (
    _lyapunov_chunk,
    elliptic_persistence,
    estimate_persistence_matrix,
    evolve,
)
from conewise.ensembles import EnsembleSpec
from conewise.renewal import RenewalConfig, sample_renewal_lyapunov
from conewise.surrogate import estimate_persistence_gp, joint_persistence

goe, invariant, elliptic = EnsembleSpec.goe, EnsembleSpec.invariant, EnsembleSpec.elliptic
semicircle, symmetric_beta = SpectralModel.semicircle, SpectralModel.symmetric_beta
atomic = SpectralModel.atomic


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def curve_hash(curve) -> str:
    return digest(np.concatenate([curve.tau.astype(float), curve.q0, curve.stderr]))


def persistence_hashes() -> dict[str, str]:
    semi, beta, atom = semicircle(0.5, 1), symmetric_beta(3), atomic(1.4)
    calls = {
        "estimate_persistence_matrix(invariant(semicircle(0.5, 1), 64, 'iid'), "
        "invariant(symmetric_beta(3), 64), 3000, 120, 1)": (
            invariant(semi, 64, "iid"), invariant(beta, 64), 3000, 120, 1
        ),
        "estimate_persistence_matrix(invariant(semicircle(0.5, 1), 64, 'iid') in both cones, "
        "3000, 120, 2)": (invariant(semi, 64, "iid"), invariant(semi, 64, "iid"), 3000, 120, 2),
        "estimate_persistence_matrix(invariant(symmetric_beta(3), 64, 'iid'), "
        "invariant(semicircle(0.5, 1), 64, 'iid'), 2000, 1000, 3)": (
            invariant(beta, 64, "iid"), invariant(semi, 64, "iid"), 2000, 1000, 3
        ),
        "estimate_persistence_matrix(goe(256), goe(256), 3000, 120, 101)": (
            goe(256), goe(256), 3000, 120, 101
        ),
        "estimate_persistence_matrix(goe(64), goe(64, 0.5, 1), 2000, 200, 202)": (
            goe(64), goe(64, 0.5, 1), 2000, 200, 202
        ),
        "estimate_persistence_matrix(elliptic(64, 0.3), goe(64, 0.5, 1), 2000, 150, 9)": (
            elliptic(64, 0.3), goe(64, 0.5, 1), 2000, 150, 9
        ),
        "estimate_persistence_matrix(invariant(atomic(1.4), 64), "
        "invariant(semicircle(0.5, 1), 64), 3000, 120, 4)": (
            invariant(atom, 64), invariant(semi, 64), 3000, 120, 4
        ),
        "estimate_persistence_matrix(invariant(atomic(1.4), 64, 'iid'), "
        "invariant(semicircle(0.5, 1), 64, 'iid'), 3000, 120, 4)": (
            invariant(atom, 64, "iid"), invariant(semi, 64, "iid"), 3000, 120, 4
        ),
    }
    out = {name: curve_hash(estimate_persistence_matrix(*args)) for name, args in calls.items()}
    for entry in elliptic_persistence(64, [0, 0.3, 0.7], 2000, 100, seed=9):
        name = f"elliptic_persistence(64, [0, 0.3, 0.7], 2000, 100, seed=9), rho {entry['rho']}"
        out[name] = f"{curve_hash(entry['curve'])} fit {entry['fit'].exponent!r}"
    for spec, name, T, n_paths, seed in (
        (semicircle(0, 2), "semicircle(0, 2)", 1024, 4096, 11),
        (semicircle(0.5, 1), "semicircle(0.5, 1)", 256, 49152, 12),
    ):
        curves = estimate_persistence_gp(spec, T, n_paths, seed=seed, subprocesses=True)
        name = f"estimate_persistence_gp({name}, {T}, {n_paths}, seed={seed}, subprocesses=True)"
        hashes = " ".join(curve_hash(c) for c in curves)
        out[f"{name}: full, even, odd"] = f"{hashes} entries {curves[0].meta['path_entries']}"
    joint = joint_persistence(semicircle(0, 2), 3, 300, 2000, 8)
    out["joint_persistence(semicircle(0, 2), 3, 300, 2000, 8)"] = (
        f"{curve_hash(joint)} entries {joint.meta['path_entries']}"
    )
    cfg = RenewalConfig.exact_spectral(
        0.5, 0.5, symmetric_beta(3), semicircle(0, 1.5), tau_min=1, horizon=10**6, seed=1
    )
    samples = sample_renewal_lyapunov(cfg, 2000)
    out[
        "sample_renewal_lyapunov(exact_spectral(0.5, 0.5, symmetric_beta(3), semicircle(0, 1.5), "
        "tau_min=1, horizon=1e6, seed=1), 2000): values and normalized"
    ] = digest(np.concatenate([samples.values, samples.normalized]))
    return out


def lyapunov_hashes() -> dict[str, dict]:
    out = {}
    atom, semi = atomic(1.4), semicircle(0.5, 1)
    for pair, label, n_runs, T, seed, tail_window in (
        (
            (goe(512, 0, 2), goe(512, 0.5, 1)), "goe(512, 0, 2), goe(512, 0.5, 1)",
            200, 5000, 11, 1000,
        ),
        ((goe(64, 0, 2), goe(64, 0.5, 1)), "goe(64, 0, 2), goe(64, 0.5, 1)", 2000, 2000, 8, 500),
        (
            (invariant(atom, 64, "iid"), invariant(semi, 64, "iid")),
            "invariant(atomic(1.4), 64, 'iid'), invariant(semicircle(0.5, 1), 64, 'iid')",
            400, 2000, 5, 500,
        ),
    ):
        # the records lyapunov_runs reads its fields and meta counts from
        runs = _lyapunov_chunk(*pair, T, seed, tail_window, 0, n_runs)
        name = f"lyapunov_runs({label}, {n_runs}, T={T}, seed={seed}, tail_window={tail_window})"
        out[name] = {
            "runs": digest(runs),
            "blocks": int(runs["blocks"].sum()),
            "switches": int(runs["n_switches"].sum()),
            "frame_reveals": int(runs["frame_reveals"].sum()),
            "frames_completed": int(np.count_nonzero(runs["frame_completed"])),
        }
    return out


def evolve_hashes() -> dict[str, dict]:
    out = {}
    for rho, count in ((0.3, 2), (0.0, 4)):
        matrices = [elliptic(64, rho).sample(21 + i) for i in range(count)]
        v0 = np.random.default_rng(23).standard_normal(64)
        traj = evolve(matrices, v0, 3000)
        name = (
            f"evolve([elliptic(64, {rho}).sample(seed) for seed in 21..{20 + count}], "
            "default_rng(23) normals, 3000)"
        )
        out[name] = {
            "cone_labels": digest(traj.cone_labels),
            "residence_intervals": digest(np.array(traj.residence_intervals, dtype=np.int64)),
            "closed_intervals": len(traj.residence_intervals),
            "open_interval": list(traj.open_interval),
            "log_norm": digest(traj.log_norm),
        }
    return out


def main() -> None:
    report = {
        "persistence_and_renewal": persistence_hashes(),
        "lyapunov": lyapunov_hashes(),
        "evolve": evolve_hashes(),
        "haar": {f"sample_haar_orthogonal({n}, seed=1)": digest(sample_haar_orthogonal(n, seed=1))
                 for n in (3, 64, 448)},
    }
    json.dump(report, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
