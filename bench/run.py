"""Benchmark of the paper's three routes: one command per workload and seed.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every measurement happens in a fresh
worker interpreter with one BLAS thread.  With ``--trace 0`` the set-up is
timed in separate fresh interpreters as well and the end-to-end metrics are
reported; with ``--trace 1`` the ops are traced at module boundaries and the
per-layer metrics are reported, plus the worker-count probe.  The last line
of standard output is one JSON object; a full record (provenance, gates,
spans) goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
RESULTS = BENCH_DIR / "results"
TIME_LIMIT_S = 170.0
SETUP_PROBES = 2  # extra cold set-ups; the run's own set-up is one more sample

WORKLOADS = {
    "matrix_persistence": "realizations_per_s",
    "lyapunov_edges": "lyapunov_runs_per_s",
    "gp_surrogate": "gp_paths_per_s",
    "renewal_lamperti": "renewal_samples_per_s",
}

END_TO_END = {
    "setup_s": "s",
    "cal_items_per_s": "1/s",
    "cal_op_p50_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ensembles.matrices": "count",
    "ensembles.share": "%",
    "dynamics.eigh_calls": "count",
    "dynamics.eigh_share": "%",
    "dynamics.step_self_share": "%",
    "dynamics.steps": "count",
    "dynamics.steps_per_matrix": "count",
    "dynamics.switches": "count",
    "dynamics.cycling_runs": "count",
    "spectral.calls": "count",
    "spectral.moment_orders": "count",
    "spectral.share": "%",
    "spectral.setup_share": "%",
    "surrogate.covariance_self_share": "%",
    "surrogate.psd_gate_share": "%",
    "surrogate.factor_share": "%",
    "surrogate.stream_share": "%",
    "surrogate.path_flops": "flop",
    "surrogate.covariance_bytes": "B",
    "renewal.draw_calls": "count",
    "renewal.intervals_drawn": "count",
    "renewal.intervals_per_sample": "count",
    "renewal.draw_share": "%",
    "renewal.g_eval_share": "%",
    "renewal.accumulate_self_share": "%",
    "estimators.calls": "count",
    "estimators.share": "%",
    "parallel.efficiency_2proc": "1",
    "trace.overhead": "%",
    "trace.op_mean_s": "s",
}


class BenchError(RuntimeError):
    pass


class Deadline:
    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        left = self.end - perf_counter()
        if left <= 0:
            raise BenchError("benchmark time limit reached")
        return left


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(root: Path, args: list[str], deadline: Deadline) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from start to its ``ready`` line, the
    JSON report on its last line or None)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=root, env=worker_env(root), stdout=subprocess.PIPE, text=True,
    )
    lines = []

    def read():
        for line in proc.stdout:
            lines.append((perf_counter(), line.strip()))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        code = proc.wait(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {args} exceeded the time limit")
    finally:
        reader.join(timeout=10)
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker {args} exited with code {code}")
    ready = [t for t, text in lines if text == "ready"]
    if not ready:
        raise BenchError(f"worker {args} never reported ready")
    last = lines[-1][1]
    return ready[0] - t0, (json.loads(last) if last.startswith("{") else None)


def git_commit(root: Path) -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = top.stdout.split()
    if top.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != root:
        return None
    return out[1]


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_checkout(root: Path) -> None:
    if not (root / "src" / "conewise" / "__init__.py").is_file():
        raise BenchError(f"{root} holds no src/conewise package; run from a checkout root")


def measure(args, root: Path) -> dict:
    deadline = Deadline(TIME_LIMIT_S)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny}
    if args.trace:
        _, report = spawn(root, common + ["--trace", "1"], deadline)
        _, probe = spawn(root, common + ["--mode", "parallel"], deadline)
        if report is None or probe is None:
            raise BenchError("a worker printed no report")
        report["layers"]["parallel.efficiency_2proc"] = probe["efficiency"]
        record["parallel_probe"] = probe
    else:
        setups = []  # (seconds to ready, host slowdown measured right after)
        for _ in range(SETUP_PROBES):
            ready, probe = spawn(root, common + ["--mode", "setup"], deadline)
            if probe is None:
                raise BenchError("a set-up worker printed no report")
            setups.append((ready, probe["slowdown"]))
        ready, report = spawn(root, common + ["--trace", "0"], deadline)
        if report is None:
            raise BenchError("the run worker printed no report")
        setups.append((ready, report["calibration"]["slowdown"]))
        record["setup_samples_s"] = [t for t, _ in setups]
        report["setup_wall_s"] = statistics.median(t for t, _ in setups)
        report["setup_s"] = statistics.median(t / slow for t, slow in setups)
    if not report["provenance"]["conewise"].startswith(str(root / "src")):
        raise BenchError(f"conewise was imported from {report['provenance']['conewise']}")
    record.update(report)
    record["provenance"].update(
        nproc=os.cpu_count(), git_commit=git_commit(root), source_sha256=source_digest(root),
        workload_seed=args.seed,
    )
    return record


def summary(record: dict) -> dict:
    gates_ok = all(g["ok"] for g in record["gates"])
    probe_ok = record.get("parallel_probe", {}).get("identical", True)
    if record["trace"]:
        metrics = {k: {"value": record["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": record[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": bool(gates_ok and probe_ok and record["failed"] == 0),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }


def print_human(record: dict, out: dict) -> None:
    wl = record["workload"]
    print(f"workload {wl}  seed {record['seed']}  trace {record['trace']}")
    if not record["trace"]:
        samples = ", ".join(f"{s:.3f}" for s in record["setup_samples_s"])
        slowdown = record["calibration"]["slowdown"]
        print(f"  {'cal_items_per_s':<28} {record['cal_items_per_s']:.6g} 1/s")
        print(f"  {'cal_op_p50_s':<28} {record['cal_op_p50_s']:.6g} s")
        print(f"  {'setup_s':<28} {record['setup_s']:.6g} s")
        print(f"  {'peak_rss_mb':<28} {record['peak_rss_mb']:.6g} MB")
        print(f"  {WORKLOADS[wl]:<28} {record['items_per_s']:.6g} 1/s  (wall clock)")
        print(f"  {'op_p50_s':<28} {record['op_p50_s']:.6g} s  (wall clock)")
        print(f"  {'op_tail_s':<28} {record['op_tail_s']:.6g} s  (wall clock, "
              f"p{record['op_tail_percentile']:g} of {record['attempted']} ops)")
        print(f"  {'setup wall clock':<28} {record['setup_wall_s']:.6g} s  (median of {samples})")
        print(f"  {'host slowdown':<28} {slowdown:.4g}  (calibration kernel vs reference)")
    else:
        for k, u in PER_LAYER.items():
            print(f"  {k:<32} {record['layers'][k]:.6g} {u}")
        probe = record["parallel_probe"]
        print(f"  worker-count invariance (threads=1 vs 2): "
              f"{'identical' if probe['identical'] else 'DIFFERENT'} curves")
    share = record["failed"] / record["attempted"]
    print(f"  {'fail_share':<28} {share:.6g}  ({record['failed']} of {record['attempted']} ops)")
    for g in record["gates"]:
        print(f"  gate {g['name']:<34} {'pass' if g['ok'] else 'FAIL'}  "
              f"value {g['value']:.6g}  limit {g['limit']:.6g}")
    for k, v in record.get("diagnostics", {}).items():
        print(f"  diagnostic {k:<32} {v:.6g}")
    p = record["provenance"]
    print(f"  provenance: nproc {p['nproc']}, python {p['python']}, numpy {p['numpy']}, "
          f"scipy {p['scipy']}, blas {p['blas']['name']} {p['blas']['version']} "
          f"x{p['blas']['threads']}, commit {p['git_commit']}, source {p['source_sha256'][:12]}")
    print(f"  correct {out['correct']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny problem sizes, for the self-test")
    args = ap.parse_args(argv)
    root = Path.cwd().resolve()
    try:
        check_checkout(root)
        record = measure(args, root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    out = summary(record)
    print_human(record, out)
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
