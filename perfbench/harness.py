"""Measurement: set-up timing, the closed op loop, the traced phase and the
environment record.  Imported by run.py once circmix is importable.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import spec
import tracing
from circmix.errors import ExperimentError
from workloads import WORKLOADS, CheckFailed, Table1MC

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 7  # set-up is repeated this often and its median reported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
UNITS = {name: unit for name, unit, *_ in
         spec.END_TO_END + spec.REPORTED + spec.PER_LAYER + spec.POOL_ONLY}


@dataclass
class Phase:
    """Ops run back to back by one client, with their checked outcomes."""

    indices: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    reps: int = 0
    sq_err: float = 0.0
    excluded: int = 0
    l2: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def ops_per_s(self):
        return (self.attempted - self.failed) / self.elapsed_s

    def pct(self, q):
        return float(np.percentile(self.latencies_ms, q))


def _no_span(name):
    return contextlib.nullcontext()


def run_phase(workload, seconds=None, indices=None, span=_no_span, tracer=None):
    """Run ops until ``seconds`` have passed, or exactly the ops ``indices``."""
    phase = Phase()
    start = perf_counter()
    while True:
        if indices is not None:
            if len(phase.indices) == len(indices):
                break
            i = indices[len(phase.indices)]
        elif perf_counter() - start >= seconds:
            break
        else:
            i = len(phase.indices)
        phase.indices.append(i)
        args = workload.inputs(i)
        if tracer is not None:
            tracer.op = i
        reps = workload.reps_per_op
        phase.attempted += reps
        error = None
        t0 = perf_counter()
        try:
            result = workload.call(args, span)
        except ExperimentError as exc:  # run_mse refused: its replications failed
            phase.excluded += reps
            error = exc
        except Exception as exc:  # a failed op is counted and the run goes on
            error = exc
        phase.latencies_ms.append(1000.0 * (perf_counter() - t0))
        if error is None:
            try:
                outcome = workload.check(args, result)
            except (CheckFailed, OSError) as exc:
                error = exc
        if error is not None:
            phase.failed += reps
            phase.errors.append(f"op {i}: {type(error).__name__}: {error}")
            continue
        phase.reps += outcome.reps
        phase.sq_err += outcome.sq_err
        if outcome.l2 is not None:
            phase.l2.append(outcome.l2)
    phase.elapsed_s = perf_counter() - start
    return phase


def time_setup(workload):
    """Median wall time of a fresh interpreter importing circmix's CLI plus
    the workload's input preparation, over SETUP_REPS repetitions."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for k in range(SETUP_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import circmix.cli"], env=env,
                       check=True, timeout=120)
        workload.prepare(k)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _blas_threads():
    """Thread count of each OpenBLAS the process has loaded, by library file."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in paths if ".so" in p):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    """Versions, cores, BLAS and its threads, thread variables, git commit."""
    commit = None
    # Without its own .git, git would answer for an enclosing repository.
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit or "unknown (not a git checkout)",
    }


def peak_rss_mb(workload):
    """Peak RSS of this process; with a pool, plus jobs x the largest worker."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.jobs > 1:
        peak += workload.jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def measure(name, seed, seconds, trace, out_dir):
    """Run one workload; returns (report, result) where result is the final
    JSON object and report holds everything else worth keeping."""
    workdir = out_dir / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, str(workdir))
        pooled = workload.jobs > 1
        setup_s = time_setup(workload)
        phases = [run_phase(workload, indices=[0])]  # warm-up
        if not trace:
            main = run_phase(workload, seconds=seconds)
            phases.append(main)
        else:
            # Untraced ops, then the same ops again under tracing, so the
            # difference of their medians is the tracing overhead.  A pool's
            # layers are timed on the serial table1_mc ops it fans out.
            share = seconds / (3 if pooled else 2)
            main = run_phase(workload, seconds=share)
            phases.append(main)
            serial, reference = workload, main
            if pooled:
                serial = Table1MC(seed, str(workdir))
                serial.prepare(0)
                phases.append(run_phase(serial, indices=[0]))
                reference = run_phase(serial, seconds=share)
                phases.append(reference)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = run_phase(serial, indices=reference.indices,
                                   span=tracer.span, tracer=tracer)
            phases.append(traced)
            tracer.write(out_dir / f"{name}-seed{seed}-spans.json")
            layers = tracing.layer_metrics(tracer, len(traced.indices),
                                           traced.excluded, traced.attempted)
            layers["tracing_overhead_ms"] = traced.pct(50) - reference.pct(50)
            if pooled:
                layers["bench.pool_efficiency"] = (
                    main.ops_per_s / (workload.jobs * reference.ops_per_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    values = {
        "setup_s": setup_s,
        "ops_per_s": main.ops_per_s,
        "op_ms_p50": main.pct(50),
        "op_ms_tail": main.pct(workload.tail_pct),
        "peak_rss_mb": peak_rss_mb(workload),
        "fail_rate": failed / attempted,
        "theta_mse": main.sq_err / main.reps if main.reps else float("nan"),
    }
    if main.l2:
        values["f_l2_risk"] = statistics.median(main.l2)
    end_to_end = {m[0]: values.pop(m[0]) for m in spec.END_TO_END}
    if trace:
        names = [m[0] for m in spec.PER_LAYER + (spec.POOL_ONLY if pooled else ())]
        metrics = {m: layers[m] for m in names}
    else:
        metrics = end_to_end
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "ops_measured": len(main.indices), "op_ms_tail_percentile": workload.tail_pct,
        "end_to_end": end_to_end, "reported": values,
        "per_layer": layers if trace else {},
        "op_latencies_ms": main.latencies_ms,
        "errors": [e for p in phases for e in p.errors],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": UNITS[m]} for m, v in metrics.items()},
    }
    return report, result
