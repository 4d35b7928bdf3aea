"""circmix benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload table1_mc --seed 1 --seconds 50 --trace 0

Runs from a checkout of the repository and imports circmix from its ``src``
directory.  Prints report lines (environment, every metric with its unit),
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Exits 1 if an output check failed and
2 if there is no circmix source to run.  Writes only under perfbench/out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circmix" / "__init__.py").is_file():
        print(f"error: no circmix source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import circmix
    if Path(circmix.__file__).resolve().parent != SRC / "circmix":
        print(f"error: imported circmix from {circmix.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(harness.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    report, result = harness.measure(args.workload, args.seed, args.seconds, args.trace, OUT)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**report, "result": result}, fh, indent=1)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ops={report['ops_measured']}")
    print("# env " + json.dumps(report["environment"]))
    for section in ("end_to_end", "reported", "per_layer"):
        for metric, value in report[section].items():
            note = f" (p{report['op_ms_tail_percentile']})" if metric == "op_ms_tail" else ""
            print(f"{metric} = {value:.6g} {harness.UNITS[metric]}{note}")
    for error in report["errors"][:20]:
        print(f"# failed {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
