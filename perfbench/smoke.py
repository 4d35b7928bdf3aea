"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json declares exactly the metrics spec.py defines; runs
every workload at minimum size (one second) untraced and traced and checks
that each metric is printed with its unit; checks that table1_pool's mse.csv
is byte-identical to a jobs=1 run of the same config; and checks that
run.py fails without printing a result when the circmix source is missing.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "smoke"
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
from circmix import bench  # noqa: E402
from workloads import WORKLOADS, Table1Pool  # noqa: E402

TIMEOUT_S = 300


def expect(cond, message):
    if not cond:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}, f"BENCHMARK.json keys {sorted(declared)}")
    expect(declared["command"] == ["python3", "perfbench/run.py"], "BENCHMARK.json command")
    expect({w["name"] for w in declared["workloads"]} <= set(WORKLOADS),
           "BENCHMARK.json names a workload run.py lacks")
    expect([(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]]
           == [m[:3] for m in spec.END_TO_END], "end_to_end differs from spec.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
           == [m[:3] for m in spec.PER_LAYER], "per_layer differs from spec.PER_LAYER")
    print("ok  BENCHMARK.json matches spec.py")


def run_benchmark(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_workload(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
                                 f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload}: {result['attempted']} attempted, {result['failed']} failed")
    if trace:
        wanted = spec.PER_LAYER + (spec.POOL_ONLY if workload == "table1_pool" else ())
    else:
        wanted = spec.END_TO_END
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == {m[0]: m[1] for m in wanted}, f"{workload} trace={trace}: metrics {got}")
    expect(all(isinstance(m["value"], float) for m in result["metrics"].values()),
           f"{workload}: a metric value is not a number")
    printed = spec.END_TO_END + spec.REPORTED + (wanted if trace else ())
    for name, unit, *_ in printed:
        if name == "f_l2_risk" and workload != "large_n_cli":
            continue
        pattern = rf"^{re.escape(name)} = \S+ {re.escape(unit)}\b"
        expect(any(re.match(pattern, line) for line in lines),
               f"{workload} trace={trace}: no report line for {name} in {unit}")
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, {result['attempted']} ops")


def check_pool_matches_serial():
    dirs = {jobs: OUT / f"pool-jobs{jobs}" for jobs in (1, Table1Pool.jobs)}
    for jobs, outdir in dirs.items():
        outdir.mkdir(parents=True)
        workload = Table1Pool(1, str(outdir))
        workload.prepare(0)
        config = dataclasses.replace(workload.inputs(0), reps=2 * Table1Pool.jobs, jobs=jobs)
        bench.run_mse(config)
    serial, pooled = ((d / "mse.csv").read_bytes() for d in dirs.values())
    expect(serial == pooled, f"table1_pool mse.csv differs from jobs=1:\n{pooled!r}\n{serial!r}")
    print(f"ok  table1_pool mse.csv with jobs={Table1Pool.jobs} is byte-identical to jobs=1")


def check_refuses_without_source():
    hollow = OUT / "hollow"
    shutil.copytree(HERE, hollow / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", hollow)
    proc = run_benchmark(hollow, "table1_mc", 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without src/ run.py exited {proc.returncode} printing {proc.stdout!r}")
    print(f"ok  without src/ run.py exits {proc.returncode} and prints no result")


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    try:
        check_benchmark_json()
        check_refuses_without_source()
        check_pool_matches_serial()
        for workload in WORKLOADS:
            for trace in (0, 1):
                check_workload(workload, trace)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
