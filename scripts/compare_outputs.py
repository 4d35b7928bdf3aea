"""Run a fixed list of circmix commands on two source trees and print which
outputs differ.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories, each holding a ``circmix``
package: say the ``src`` of a second checkout at the parent commit, and
``src`` of this one.  For each density the list runs ``simulate`` (to a
file, and to stdout in one and in four 16384-line blocks), ``fit``,
``density`` (with the weight cap also set by ``--pmax`` and by ``--box``),
``slope``, ``ident``, and two ``bench`` configs at
``--jobs 1`` and ``--jobs 2``.  Then ``EXTRA_COMMANDS`` run once each: bad
density specs, ``--out -``, ``simulate``, ``fit``, ``density`` and ``slope`` on
an n = 2e5 sample, and the bench configs of ``REFUSED_CONFIGS``.
Each command runs as its own ``python -m circmix.cli`` process in a work
directory of its tree, with relative paths, so the two trees see the same
command lines.

One line is printed per command: ``same``, or ``differs`` and what differs
(exit code, stdout, stderr, or a file the command wrote or changed), then
the exit code of each tree.  Then,
for each tree, every bench config whose files differ between ``--jobs 1``
and ``--jobs 2`` is named.  Exits 1 if anything differs, else 0.
"""

from __future__ import annotations

import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

THETA = "0.25,0.3927,2.0944"
DENSITIES = {
    "vm": "vonmises kappa=5",
    "wc": "wrappedcauchy gamma=0.8",
    # gamma^(2l) stays above 1e-16 up to l ~ 1.8e4 here, so the density risk
    # (the bench dens run's l2_error_f) rests on a long coefficient tail
    "wc999": "wrappedcauchy gamma=0.999",
    "wn": "wrappednormal rho=0.7",
    "uniform": "uniform",
    "tab": "tabulated path=grid.txt",
    # a location mu != 0, which ComponentDensity applies for every family
    "wcmu": "wrappedcauchy gamma=0.8 mu=2.2",
    "wnmu": "wrappednormal rho=0.7 mu=-0.4",
    "vmmu": "vonmises kappa=5 mu=1.3",
    "tabmu": "tabulated path=grid.txt mu=0.25",
}
BENCH_CONFIGS = {
    "mse": "experiment = mse,normality\nn = 500,1000\nreps = 50\nseed = 7\n",
    "dens": "experiment = density,slope\nn = 1000\nreps = 1\nseed = 8\nl_max = 30\n",
}
# Bench configs that the reader refuses, each run once by EXTRA_COMMANDS.
_SMALL = f"experiment = mse\ndensity = uniform\ntheta0 = {THETA}\nn = 200\nreps = 4\nseed = 7\n"
REFUSED_CONFIGS = {
    "bad-density": f"density = vonmises kappa=-1\ntheta0 = {THETA}\n{BENCH_CONFIGS['mse']}",
    "repeated-key": _SMALL + "n = 300\n",
    "negative-seed": _SMALL.replace("seed = 7", "seed = -1"),
    "p-above-half": _SMALL.replace(THETA, "0.75,2.0944,0.3927").replace("uniform", "vm kappa=5"),
    "repeated-kind": _SMALL.replace("mse", "mse,mse"),
}


# Run once, after the commands of every density: they read vm.txt.
EXTRA_COMMANDS = [
    ["density", "--in", "vm.txt", "--true", "vonmises kappa=5 mu=nan",
     "--out", "nan-density.csv"],
    ["simulate", "--density", "vonmises kappa=5 kappa=50", "--theta", THETA, "--n", "10"],
    ["density", "--in", "vm.txt", "--out", "-"],
    ["slope", "--in", "vm.txt", "--out", "-"],
    # the README workflow at the benchmark's large_n_cli size, where density
    # and slope read P_0..P_58 of n = 2e5 angles
    ["simulate", "--density", DENSITIES["wc"], "--theta", THETA, "--n", "200000",
     "--seed", "9", "--out", "wc-2e5.txt"],
    ["fit", "--in", "wc-2e5.txt"],
    ["density", "--in", "wc-2e5.txt", "--true", DENSITIES["wc"], "--out", "wc-2e5-density.csv"],
    ["slope", "--in", "wc-2e5.txt", "--out", "wc-2e5-slope.csv"],
] + [["bench", "--config", f"{name}.cfg", "--out", name] for name in REFUSED_CONFIGS]


def _tabulated_text() -> str:
    """A 64-point two-column (angle, value) file for the tabulated density."""
    angles = [2 * math.pi * j / 64 for j in range(64)]
    return "".join(f"{x!r} {math.exp(1.5 * math.cos(x)) + 0.2 * math.sin(2 * x) + 0.3!r}\n"
                   for x in angles)


def _commands(tag: str, spec: str) -> list:
    sample, big = f"{tag}.txt", f"{tag}-big.txt"
    cmds = [
        ["simulate", "--density", spec, "--theta", THETA, "--n", "1000", "--seed", "3",
         "--out", sample],
        ["simulate", "--density", spec, "--theta", THETA, "--n", "16385", "--seed", "4",
         "--out", big],
        ["simulate", "--density", spec, "--theta", "0,0.3,2.1", "--n", "20", "--seed", "5"],
        ["simulate", "--density", spec, "--theta", THETA, "--n", str(3 * 16384 + 5),
         "--seed", "6"],
        ["fit", "--in", sample],
        ["fit", "--in", big, "--format", "csv", "--no-cov", "--out", f"{tag}-fit.csv"],
        ["density", "--in", sample, "--true", spec, "--out", f"{tag}-density.csv",
         "--coeffs-out", f"{tag}-coeffs.csv"],
        ["density", "--in", big, "--lambda", "1", "--lmax", "20", "--grid", "7",
         "--out", f"{tag}-density2.csv"],
        # the density stage's weight cap, taken from --pmax and from --box
        ["density", "--in", sample, "--pmax", "0.3", "--true", spec,
         "--out", f"{tag}-density-pmax.csv"],
        ["density", "--in", sample, "--box", "0.01,0.3,0,3.1415,0,3.1415", "--true", spec,
         "--out", f"{tag}-density-box.csv"],
        ["slope", "--in", sample, "--out", f"{tag}-slope.csv"],
        ["ident", "--theta", "0.4,0,2.0944", "--density", spec, "--out", f"{tag}-ident.csv"],
    ]
    for name in BENCH_CONFIGS:
        for jobs in ("1", "2"):
            cmds.append(["bench", "--config", f"{tag}-{name}.cfg", "--jobs", jobs,
                         "--out", f"{tag}-{name}-j{jobs}"])
    return cmds


def _prepare(workdir: Path) -> None:
    (workdir / "grid.txt").write_text(_tabulated_text())
    for name, body in REFUSED_CONFIGS.items():
        (workdir / f"{name}.cfg").write_text(body)
    for tag, spec in DENSITIES.items():
        for name, body in BENCH_CONFIGS.items():
            (workdir / f"{tag}-{name}.cfg").write_text(
                f"density = {spec}\ntheta0 = {THETA}\n{body}")


def _files(workdir: Path) -> dict:
    return {str(p.relative_to(workdir)): p.read_bytes()
            for p in sorted(workdir.rglob("*")) if p.is_file()}


def _run(src: Path, workdir: Path, argv: list) -> dict:
    """Exit code, stdout, stderr and the files written or changed by one command."""
    before = _files(workdir)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "circmix.cli", *argv], cwd=workdir, env=env,
                          capture_output=True, timeout=600)
    written = {path: data for path, data in _files(workdir).items() if before.get(path) != data}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": written}


def _differences(old: dict, new: dict) -> list:
    parts = [key for key in ("exit code", "stdout", "stderr") if old[key] != new[key]]
    for path in sorted(set(old["files"]) | set(new["files"])):
        if old["files"].get(path) != new["files"].get(path):
            parts.append(path)
    return parts


def _jobs_mismatches(workdir: Path) -> list:
    """The bench runs whose files differ between --jobs 1 and --jobs 2."""
    bad = []
    for tag in DENSITIES:
        for name in BENCH_CONFIGS:
            one, two = (workdir / f"{tag}-{name}-j{jobs}" for jobs in ("1", "2"))
            if not one.is_dir() or _files(one) != _files(two):
                bad.append(f"{tag}-{name}")
    return bad


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 scripts/compare_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    srcs = [Path(a).resolve() for a in args]
    for src in srcs:
        if not (src / "circmix" / "__init__.py").is_file():
            print(f"error: no circmix package under {src}", file=sys.stderr)
            return 2
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdirs = [Path(tmp) / "old", Path(tmp) / "new"]
        for workdir in workdirs:
            workdir.mkdir()
            _prepare(workdir)
        commands = [cmd for tag, spec in DENSITIES.items() for cmd in _commands(tag, spec)]
        for cmd in commands + EXTRA_COMMANDS:
            old, new = (_run(src, workdir, cmd) for src, workdir in zip(srcs, workdirs))
            parts = _differences(old, new)
            differ += bool(parts)
            status = f"differs ({', '.join(parts)})" if parts else "same"
            codes = sorted({old["exit code"], new["exit code"]})
            print(f"{status}, exit {'/'.join(map(str, codes))}: circmix {shlex.join(cmd)}",
                  flush=True)
        for label, workdir in zip(("old", "new"), workdirs):
            bad = _jobs_mismatches(workdir)
            differ += len(bad)
            print(f"{label}: bench files differ across --jobs 1 and 2: "
                  f"{', '.join(bad) if bad else 'none'}")
    print(f"{differ} difference(s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
