"""Run one aeroalloc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``. With ``--trace 0`` the timed section runs untraced, repeated until
``--seconds`` have passed (at least once), and the last stdout line is the
JSON result with the end-to-end metrics. With ``--trace 1`` the set-up and
one timed iteration run under the span tracer, after one untraced reference
iteration, and the result carries the per-layer metrics. See README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
FINGERPRINTS = BENCH / "fingerprints.json"
# One caller and small matrices: a single BLAS thread (<= nproc) keeps runs
# steady on a small shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 3

# The end-to-end metrics BENCHMARK.json gates: the ones every workload has.
GATED = ("wall_cal_s", "setup_s", "peak_rss_mb")


def _median(values) -> float:
    return float(statistics.median(values))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the package."""
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import aeroalloc"], env=_child_env(),
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return _median(times)


def _blas_threads() -> dict:
    """Runtime thread count of every OpenBLAS this process has loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    out = {}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[Path(lib).name] = int(fn())
                break
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": workload,
        "seed": seed,
    }


def fingerprint_digest(fingerprint: dict) -> str:
    text = json.dumps(fingerprint, sort_keys=True)  # floats print exactly (repr)
    return hashlib.sha256(text.encode()).hexdigest()


def output_notices(workload: str, seed: int, fingerprint: dict, digest: str) -> list[str]:
    """Differences between this run's outputs and the recorded ones."""
    recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    notices = []
    expected = recorded.get(workload, {}).get(str(seed))
    if expected is None:
        notices.append(f"no recorded fingerprint for {workload} seed {seed}")
    elif expected != digest:
        notices.append(f"CHANGED OUTPUT: {workload} seed {seed} fingerprint {digest} "
                       f"differs from the recorded {expected}")
    c7_pair = recorded.get("c7_seed0_rmssd_pair")
    if workload == "closed_loop" and seed == 0 and c7_pair is not None:
        if fingerprint["c7_rmssd_pair"] != c7_pair:
            notices.append(f"CHANGED OUTPUT: C7 seed-0 RMSSD pair {fingerprint['c7_rmssd_pair']} "
                           f"differs from the recorded {c7_pair}")
    return notices


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 **sizes) -> dict:
    """Set up and run one workload; returns outcomes, timings and the tracer.

    Every timed repeat runs under a :class:`RefClock`. Untraced, so does the
    set-up. Traced, the set-up runs under the tracer, then one untraced repeat
    and one traced repeat follow. ``sizes`` (``epochs``, ``duration_s``) shrink a
    workload for tests; the benchmark always runs the defaults.
    """
    from refclock import RefClock
    from spans import Tracer
    from workloads import WORKLOADS

    bench = WORKLOADS[workload](seed, **sizes)
    result = {"outcomes": [], "clocks": [], "tracer": None}
    if trace:
        result["tracer"] = tracer = Tracer()
        with tracer:
            bench.setup(workdir / "setup")
    else:
        with RefClock() as clock:
            bench.setup(workdir / "setup")
        result["setup_clock"] = clock

    started = time.perf_counter()
    while True:
        with RefClock() as clock:
            result["outcomes"].append(bench.run(workdir / f"run{len(result['clocks'])}"))
        result["clocks"].append(clock)
        if trace or time.perf_counter() - started >= seconds:
            break

    if trace:
        tracer.current_iteration = 1
        kwargs = {"step_clock": False} if workload == "closed_loop" else {}
        with tracer, RefClock() as clock:
            result["outcomes"].append(bench.run(workdir / "traced", **kwargs))
        result["traced_clock"] = clock
    return result


def _check_outcomes(workload: str, outcomes, problems: list) -> None:
    from workloads import check_calibration_limits

    for i, out in enumerate(outcomes):
        if workload == "sensing":
            check_calibration_limits(out)
        problems.extend(f"iteration {i}: {p}" for p in out.problems)
    digests = {fingerprint_digest(out.fingerprint) for out in outcomes}
    if len(digests) != 1:
        problems.append(f"outputs differ between iterations of one run: {sorted(digests)}")


def end_to_end(result: dict, import_s: float) -> dict:
    """Every end-to-end metric that applies to the workload: name -> (value, unit)."""
    clocks = result["clocks"]
    metrics = {}
    if "setup_clock" in result:  # a traced set-up has no untraced time
        metrics["setup_s"] = (import_s + result["setup_clock"].calibrated_s(), "s")
    metrics["wall_cal_s"] = (_median([c.calibrated_s() for c in clocks]), "s")
    metrics["wall_s"] = (_median([c.work_s for c in clocks]), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["failed_frac"] = (0.0, "ratio")
    steps = [out.step_s for out in result["outcomes"] if out.step_s.size]
    if steps:
        import numpy as np

        steps = np.concatenate(steps)
        metrics["step_ms_p50"] = (float(np.median(steps) * 1e3), "ms")
    metrics.update(result["outcomes"][0].quality)
    return metrics


def _emit(ok: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment(args.workload, args.seed)
    env["run_seconds"] = args.seconds
    env["trace"] = args.trace
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    attempted = WORKLOADS[args.workload].attempted
    try:
        import_s = import_seconds()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Exception:
        traceback.print_exc()
        _emit(False, attempted, attempted, {})
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes, clocks = result["outcomes"], result["clocks"]
    attempted *= len(outcomes)
    problems: list[str] = []
    _check_outcomes(args.workload, outcomes, problems)
    fingerprint = outcomes[0].fingerprint
    digest = fingerprint_digest(fingerprint)
    notices = output_notices(args.workload, args.seed, fingerprint, digest)
    metrics = end_to_end(result, import_s)
    record = {
        "env": env, "fingerprint": fingerprint, "fingerprint_sha256": digest,
        "notices": notices, "problems": problems,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "import_s": import_s,
        "clocks": {name: clock.summary() for name, clock in
                   [("setup", result.get("setup_clock"))] + [(f"run{i}", c) for i, c in enumerate(clocks)]
                   if clock is not None},
    }

    print(f"workload {args.workload} seed {args.seed}: {len(clocks)} timed "
          f"iteration(s), fingerprint {digest[:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<22} {value:>14.6g} {unit}")
    for line in notices + problems:
        print(f"  {line}")

    if args.trace:
        tracer = result["tracer"]
        layer = tracer.layer_metrics()
        traced = result["traced_clock"].calibrated_s()
        layer["trace.overhead_frac"] = traced / clocks[0].calibrated_s() - 1.0
        record["per_layer"] = layer
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        out_metrics = {k: (v, _unit(k)) for k, v in layer.items()}
    else:
        out_metrics = {k: metrics[k] for k in GATED}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))

    ok = not problems
    _emit(ok, attempted, 0, out_metrics)
    return 0 if ok else 1


def _unit(metric: str) -> str:
    suffix = metric.rsplit(".", 1)[-1]
    return {"calls": "count", "self_s": "s", "us_p50": "us", "step_ms_p99": "ms",
            "epochs_per_s": "1/s", "rows_per_s": "1/s", "rows": "count",
            "flops_computed": "flop", "gflops_per_s": "GFLOP/s"}.get(suffix, "ratio")


if __name__ == "__main__":
    if not (SRC / "aeroalloc").is_dir():
        print(f"no aeroalloc sources under {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
