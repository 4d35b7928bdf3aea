"""Run the benchmark on two checkouts in alternating pairs and write a BENCH_*.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload table1_mc \\
        --workload large_n_cli --seeds 171-180 --seconds 50 --out BENCH_17.json \\
        --change-note "what the change does" --claim table1_mc.ops_per_s

PARENT_DIR and CHANGE_DIR are checkouts of the repository, each with its own
``perfbench/run.py`` and ``src``.  For each workload and seed, the script runs
``perfbench/run.py --workload W --seed S --seconds T`` (untraced) once in each
checkout, as a child process with that checkout as its working directory: odd
seeds run the change first, even seeds the parent.  From each child it reads
the JSON last line (correct, attempted, failed, end-to-end metrics) and, from
``os.wait4``, the CPU seconds and minor page faults of the child and of the
processes it waited for (set-up's fresh interpreters included).

The output holds, per workload, the median and quartiles of each end-to-end
metric on each side, the pairs the change won (ties count for neither), the
ratio of the medians, failed and attempted ops, and every run by seed.  With
``--claim WORKLOAD.METRIC`` it also says whether the claim is met: the change
wins at least nine in ten pairs and the medians differ by more than the
parent's interquartile range.  Exits 1 if a run fails or reports an output
check failed, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: The end-to-end metrics of BENCHMARK.json, with the direction that is better.
METRICS = {"setup_s": "lower", "ops_per_s": "higher", "op_ms_tail": "lower",
           "peak_rss_mb": "lower"}
SIDES = ("parent", "change")


def _seeds(text: str) -> list:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its result line, its
    end-to-end metrics, and the CPU time and minor faults of its processes."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, cwd=checkout, stdout=out, stderr=err)
        # wait4, not proc.wait: its rusage covers the child and the children it reaped
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        lines = out.read().decode().splitlines()
        stderr = err.read().decode()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{stderr}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")),
               {})
    run = {name: round(result["metrics"][name]["value"], 4) for name in METRICS}
    run["cpu_s"] = round(usage.ru_utime + usage.ru_stime, 2)
    run["minor_faults_per_op"] = round(usage.ru_minflt / max(result["attempted"], 1))
    return {"run": run, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "env": env}


def _quartiles(values: list) -> list:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def summarize(seeds: list, runs: dict) -> dict:
    """The end_to_end entry of one workload from its runs[seed][side]."""
    metrics = {}
    for name, better in METRICS.items():
        values = {side: [runs[s][side]["run"][name] for s in seeds] for side in SIDES}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        medians = {side: round(statistics.median(values[side]), 4) for side in SIDES}
        metrics[name] = {
            "better": better,
            "parent_median": medians["parent"],
            "change_median": medians["change"],
            "parent_quartiles": _quartiles(values["parent"]),
            "change_quartiles": _quartiles(values["change"]),
            "change_better_pairs": wins,
            "ratio_change_over_parent": round(medians["change"] / medians["parent"], 4),
        }
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "failed_ops": {side: sum(runs[s][side]["failed"] for s in seeds) for side in SIDES},
        "attempted_ops": {side: sum(runs[s][side]["attempted"] for s in seeds) for side in SIDES},
        "all_correct": {side: all(runs[s][side]["correct"] for s in seeds) for side in SIDES},
        "metrics": metrics,
        "runs_by_seed": {str(s): {side: runs[s][side]["run"] for side in SIDES} for s in seeds},
    }


def claim_reading(entry: dict, metric: str) -> tuple:
    """(met, reading) for a claimed gain on ``metric`` of one workload's entry."""
    m = entry["metrics"][metric]
    q1, q3 = m["parent_quartiles"]
    diff = abs(m["change_median"] - m["parent_median"])
    improved = (m["change_median"] < m["parent_median"]) == (m["better"] == "lower")
    met = 10 * m["change_better_pairs"] >= 9 * entry["pairs"] and improved and diff > q3 - q1
    reading = (f"Change better in {m['change_better_pairs']} of {entry['pairs']} pairs, median "
               f"{m['parent_median']} -> {m['change_median']} (ratio "
               f"{m['ratio_change_over_parent']}), median difference {round(diff, 4)} against "
               f"a parent IQR of {round(q3 - q1, 4)}.")
    return met, reading


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 171-180 or 1,3,5")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--change-note", default="", help="what the change does")
    parser.add_argument("--claim", help="WORKLOAD.METRIC whose gain the change claims")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {checkout}")
    if args.claim:
        workload, _, metric = args.claim.partition(".")
        if workload not in args.workload or metric not in METRICS:
            parser.error(f"--claim must be WORKLOAD.METRIC of a listed workload, "
                         f"got {args.claim!r}")

    env, end_to_end = {}, {}
    for workload in args.workload:
        runs = {}
        for seed in args.seeds:
            order = ("change", "parent") if seed % 2 else ("parent", "change")
            runs[seed] = {}
            for side in order:
                runs[seed][side] = run_once(checkouts[side], workload, seed, args.seconds)
                env = env or runs[seed][side]["env"]
                print(f"{workload} seed {seed} {side}: {runs[seed][side]['run']}", flush=True)
        end_to_end[workload] = summarize(args.seeds, runs)

    report = {"change": args.change_note}
    if args.claim:
        workload, _, metric = args.claim.partition(".")
        met, reading = claim_reading(end_to_end[workload], metric)
        report.update(claimed_metric=f"{workload} {metric} ({METRICS[metric]})",
                      claim_met=met, claim_reading=reading)
    report.update(
        command=f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                f"--seconds {args.seconds:g} (untraced)",
        method=(f"{len(args.seeds)} alternating parent/change pairs per workload on seeds "
                f"{args.seeds[0]}-{args.seeds[-1]}; odd seeds ran the change first, even seeds "
                "the parent; written by scripts/bench_pairs.py. cpu_s and minor_faults_per_op "
                "come from os.wait4 on each run's process, which includes the processes it "
                "waited for (set-up's fresh interpreters); minor_faults_per_op is over the ops "
                "attempted."),
        environment={"nproc": env.get("nproc"), "numpy": env.get("numpy"),
                     "scipy": env.get("scipy"), "python": env.get("python"),
                     "machine": platform.machine(),
                     "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        end_to_end=end_to_end,
    )
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    correct = all(all(entry["all_correct"].values()) for entry in end_to_end.values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
