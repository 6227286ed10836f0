"""One benchmark process: set up a workload, then (mode ``run``) drive its
ops in a closed loop for the given number of seconds.

Prints ``ready`` once set-up is done, so the parent can time set-up from
process start, and one JSON report as the last line.  Mode ``setup`` only
times the calibration kernel after ``ready``; mode ``parallel`` runs the
worker-count probe.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import sys
from contextlib import nullcontext
from time import perf_counter

import numpy as np
import scipy

import conewise
from conewise import dynamics
from conewise.ensembles import EnsembleSpec
from conewise.errors import ConewiseError

from calibration import Calibration
from tracing import SETUP_OP, Tracer
from workloads import WORKLOADS, MatrixPersistence, derive

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
CALIBRATE_EVERY_S = 0.5  # of op time
SETUP_CALIBRATIONS = 10  # kernel runs after a set-up-only start


def blas_info() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": deps.get("name"), "version": deps.get("version"), "threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    return info


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "conewise": os.path.dirname(conewise.__file__),
    }


def tail_latency(lat: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with >= 10 samples beyond it, and its value."""
    n = len(lat)
    pct = 50.0
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            pct = p
    return pct, float(np.percentile(lat, pct))


def layer_metrics(tracer: Tracer, traced_ops: set, op_work: dict, items: int) -> dict:
    """Per-layer counts and shares from the spans of the traced ops."""
    self_t = tracer.self_times()
    busy, count, work, selfsum = {}, {}, {}, {}
    op_time = setup_time = setup_spectral = 0.0
    for s, st in zip(tracer.spans, self_t):
        if s.op == SETUP_OP:
            if s.name == "setup":
                setup_time += s.duration
            elif s.name.startswith("spectral."):
                setup_spectral += s.duration
            continue
        if s.op not in traced_ops:
            continue
        if s.name == "op":
            op_time += s.duration
            continue
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        selfsum[s.name] = selfsum.get(s.name, 0.0) + st
        count[s.name] = count.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0) + (s.work or 0)

    def share(t):
        return 100.0 * t / op_time if op_time > 0 else 0.0

    def total(key):
        return sum(op_work.get(i, {}).get(key, 0) for i in traced_ops)

    def sum_of(names, table):
        return sum(table.get(n, 0) for n in names)

    spectral = ("spectral.log_moment_array", "spectral.g_array")
    estim = ("estimators.fit_powerlaw", "estimators.ks_distance")
    dyn_entries = ("entry.persistence_matrix", "entry.lyapunov_runs")
    matrices = count.get("ensembles.sample", 0)
    steps = total("steps")
    drawn = work.get("renewal.draw", 0)
    renewal_items = items if "entry.renewal" in count else 0
    return {
        "ensembles.matrices": matrices,
        "ensembles.share": share(busy.get("ensembles.sample", 0.0)),
        "dynamics.eigh_calls": count.get("linalg.eigh", 0),
        "dynamics.eigh_share": share(busy.get("linalg.eigh", 0.0)),
        "dynamics.step_self_share": share(sum_of(dyn_entries, selfsum)),
        "dynamics.steps": steps,
        "dynamics.steps_per_matrix": steps / matrices if matrices else 0.0,
        "dynamics.switches": total("switches"),
        "dynamics.cycling_runs": total("cycling_runs"),
        "spectral.calls": sum_of(spectral, count),
        "spectral.moment_orders": sum_of(spectral, work),
        "spectral.share": share(sum_of(spectral, busy)),
        "spectral.setup_share": 100.0 * setup_spectral / setup_time if setup_time else 0.0,
        "surrogate.covariance_self_share": share(selfsum.get("surrogate.build_covariance", 0.0)),
        "surrogate.psd_gate_share": share(busy.get("linalg.eigvalsh", 0.0)),
        "surrogate.factor_share": share(busy.get("linalg.cholesky", 0.0)),
        "surrogate.stream_share": share(selfsum.get("entry.persistence_gp", 0.0)),
        "surrogate.path_flops": total("path_flops"),
        "surrogate.covariance_bytes": max(
            (op_work.get(i, {}).get("covariance_bytes", 0) for i in traced_ops), default=0
        ),
        "renewal.draw_calls": count.get("renewal.draw", 0),
        "renewal.intervals_drawn": drawn,
        "renewal.intervals_per_sample": drawn / renewal_items if renewal_items else 0.0,
        "renewal.draw_share": share(busy.get("renewal.draw", 0.0)),
        "renewal.g_eval_share": share(busy.get("spectral.g_array", 0.0)),
        "renewal.accumulate_self_share": share(selfsum.get("entry.renewal", 0.0)),
        "estimators.calls": sum_of(estim, count),
        "estimators.share": share(sum_of(estim, busy)),
        "trace.op_mean_s": op_time / len(traced_ops) if traced_ops else 0.0,
    }


def run_loop(wl, seconds: float, tracer: Tracer | None, cal: Calibration) -> dict:
    """Closed loop of ops for ``seconds``, with the calibration kernel timed
    between ops.  In a traced run ops alternate in pairs between traced and
    untraced, so the tracing overhead is measured on the same mix of inputs."""
    lat, items, failed = [], {}, set()
    op_work, traced_ops = {}, set()
    i = 0
    busy = next_cal = 0.0
    t_start = perf_counter()
    while i == 0 or perf_counter() - t_start < seconds:
        traced = tracer is not None and (i // 2) % 2 == 0
        if traced:
            tracer.op = i
            tracer.install()
        t0 = perf_counter()
        try:
            with tracer.span("op") if traced else nullcontext():
                res = wl.op(i)
        except ConewiseError as exc:
            res = None
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            if traced:
                tracer.uninstall()
        lat.append(perf_counter() - t0)
        busy += lat[-1]
        if busy >= next_cal:
            cal.sample()
            next_cal = busy + CALIBRATE_EVERY_S
        if res is None or not res.ok:
            failed.add(i)
        else:
            items[i] = res.items
            op_work[i] = res.work
            if traced:
                traced_ops.add(i)
        i += 1
    cal.sample()
    elapsed = perf_counter() - t_start
    gates = wl.gates()
    for g in gates:
        failed.update(g.failed_ops)
    return {
        "attempted": i,
        "failed": failed,
        "elapsed": elapsed,
        "latencies": lat,
        "items": items,
        "gates": gates,
        "op_work": op_work,
        "traced_ops": traced_ops,
    }


def tracing_overhead(loop: dict) -> float:
    """Throughput of untraced ops over traced ops, minus one, in percent."""
    rate = {}
    for traced in (True, False):
        ops = [j for j in loop["items"] if (j in loop["traced_ops"]) == traced]
        t = sum(loop["latencies"][j] for j in ops)
        rate[traced] = sum(loop["items"][j] for j in ops) / t if t > 0 else 0.0
    return 100.0 * (rate[False] / rate[True] - 1.0) if rate[True] > 0 else 0.0


def parallel_probe(seed: int, tiny: bool) -> dict:
    """matrix_persistence with threads=1 and threads=2, twice each: identical
    curves, and the best speed-up as a share of the ideal."""
    wl = MatrixPersistence(seed, tiny)
    spec = EnsembleSpec.goe(wl.n_dim, 0.0, 2.0)
    n = 256 if tiny else 768  # >= 2 chunks of 128, so threads=2 splits the work
    workers = min(2, os.cpu_count() or 1)
    grid = np.arange(wl.horizon + 1)
    best = {1: math.inf, workers: math.inf}
    curves = []
    for threads in (1, workers, 1, workers):
        t0 = perf_counter()
        curve = dynamics.estimate_persistence_matrix(
            spec, spec, n, wl.horizon, seed=derive(seed, "parallel"), grid=grid, threads=threads
        )
        best[threads] = min(best[threads], perf_counter() - t0)
        curves.append(curve.q0)
    same = all(np.array_equal(curves[0], c) for c in curves[1:])
    return {"identical": same, "efficiency": best[1] / (workers * best[workers]),
            "workers": workers, "t1_s": best[1], "t2_s": best[workers], "realizations": n}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run", "parallel"), default="run")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    if args.mode == "parallel":
        print("ready", flush=True)
        print(json.dumps(parallel_probe(args.seed, args.tiny)))
        return 0

    # allocated first, so that its buffers are resident whenever the peak is
    cal = Calibration()
    tracer = Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    if tracer is not None:
        tracer.install()
    try:
        with tracer.span("setup") if tracer else nullcontext():
            wl.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    print("ready", flush=True)
    if args.mode == "setup":
        for _ in range(SETUP_CALIBRATIONS):
            cal.sample()
        print(json.dumps({"slowdown": cal.slowdown()}))
        return 0

    loop = run_loop(wl, args.seconds, tracer, cal)
    lat = loop["latencies"]
    pct, tail = tail_latency(lat)
    items_ok = sum(n for j, n in loop["items"].items() if j not in loop["failed"])
    items_per_s = items_ok / sum(lat)
    op_p50_s = float(np.percentile(lat, 50))
    slowdown = cal.slowdown()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "attempted": loop["attempted"],
        "failed": len(loop["failed"]),
        "elapsed_s": loop["elapsed"],
        "items": items_ok,
        "items_per_s": items_per_s,
        "op_p50_s": op_p50_s,
        "cal_items_per_s": items_per_s * slowdown,
        "cal_op_p50_s": op_p50_s / slowdown,
        "op_tail_s": tail,
        "op_tail_percentile": pct,
        "latencies_s": lat,
        "calibration": {"slowdown": slowdown, "samples_s": cal.samples},
        "peak_rss_mb": (peak_kib * 1024 - cal.resident_bytes) / 2**20,
        "gates": [g.as_dict() for g in loop["gates"]],
        "diagnostics": wl.diagnostics(),
        "provenance": provenance(),
    }
    if tracer is not None:
        traced_items = sum(loop["items"][j] for j in loop["traced_ops"])
        layers = layer_metrics(tracer, loop["traced_ops"], loop["op_work"], traced_items)
        layers["trace.overhead"] = tracing_overhead(loop)
        report["layers"] = layers
        report["spans"] = [s.as_list() for s in tracer.spans]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
