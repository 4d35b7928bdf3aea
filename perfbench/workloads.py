"""The benchmark's workloads.

Each workload makes its inputs from the seed (``prepare`` for the set-up,
``inputs`` for op i), runs one op through circmix's public entry points
(``call``, the only timed part) and checks what the op produced (``check``).
Every workload is a closed loop with one client.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os

import numpy as np

from circmix import bench, cli
from circmix.contrast import FitOptions

THETA0 = (0.25, math.pi / 8, 2 * math.pi / 3)
THETA0_TEXT = ",".join(repr(v) for v in THETA0)
VON_MISES = "vonmises kappa=5"
WRAPPED_CAUCHY = "wrappedcauchy gamma=0.8"
# The box both run_mse and the CLI fit in (their p_max defaults to 0.49).
BOX = FitOptions().box()
MSE_HEADER = "density,n,reps,excluded,mse_p,mse_alpha_modpi,mse_beta_modpi"
KV_KEYS = ("n", "p_hat", "alpha_hat", "beta_hat", "se_p", "se_alpha", "se_beta")


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


@dataclasses.dataclass
class Outcome:
    """What one checked op contributes to the accuracy figures."""

    reps: int            # replications (table1) or fits (cli) it contains
    sq_err: float        # summed squared error of (p, alpha mod pi, beta mod pi)
    l2: float | None = None  # grid L2 distance of the density curve to f


def sub_seed(seed, *path) -> int:
    """A 32-bit seed for one input, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _finite(text, what) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{what}: not a number: {text!r}") from None
    _require(math.isfinite(value), f"{what} is not finite: {value}")
    return value


def _dist_mod_pi(a, b) -> float:
    d = (a - b) % math.pi
    return min(d, math.pi - d)


def theta_sq_err(p, alpha, beta) -> float:
    return ((p - THETA0[0]) ** 2 + _dist_mod_pi(alpha, THETA0[1]) ** 2
            + _dist_mod_pi(beta, THETA0[2]) ** 2)


class Table1MC:
    """The paper's Table 1 replications, one ``run_mse`` call with reps=1
    and jobs=1 per op, n = 1000, alternating von Mises kappa=5 and wrapped
    Cauchy gamma=0.8 at theta0 = (0.25, pi/8, 2pi/3).  The contrast optimizer
    does about 99% of the work and npdens none: a fitter change shows here.
    """

    name = "table1_mc"
    tail_pct = 90
    jobs = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.base = None

    @property
    def reps_per_op(self):
        return self.jobs

    def prepare(self, k):
        """Write and parse the experiment config, as ``circmix bench`` does."""
        path = os.path.join(self.workdir, "table1.cfg")
        with open(path, "w") as fh:
            fh.write(f"experiment = mse\ndensity = {VON_MISES}\ntheta0 = {THETA0_TEXT}\n"
                     f"n = 1000\nreps = {self.reps_per_op}\nseed = {self.seed}\n"
                     f"jobs = {self.jobs}\nout = {self.workdir}\n")
        self.base = bench.ExperimentConfig.from_file(path)

    def inputs(self, i):
        return dataclasses.replace(self.base,
                                   density_spec=VON_MISES if i % 2 == 0 else WRAPPED_CAUCHY,
                                   seed=sub_seed(self.seed, i))

    def call(self, config, span):
        with span("bench.run_mse"):
            return bench.run_mse(config)

    def check(self, config, rows) -> Outcome:
        _require(len(rows) == 1, f"run_mse returned {len(rows)} rows")
        row = rows[0]
        _require((row.n, row.reps, row.excluded) == (1000, config.reps, 0),
                 f"run_mse row n={row.n} reps={row.reps} excluded={row.excluded}")
        with open(os.path.join(config.outdir, "mse.csv")) as fh:
            lines = fh.read().splitlines()
        _require(len(lines) == 2 and lines[0] == MSE_HEADER, f"mse.csv layout: {lines!r}")
        fields = lines[1].split(",")
        _require(len(fields) == 7 and fields[:4] == [row.density, "1000", str(config.reps), "0"],
                 f"mse.csv row: {lines[1]!r}")
        mse = [_finite(v, "mse.csv value") for v in fields[4:]]
        _require(np.allclose(mse, [row.mse_p, row.mse_alpha, row.mse_beta], rtol=1e-5, atol=0),
                 "mse.csv disagrees with the returned row")
        # run_mse exposes theta_hat only through squared errors: a theta_hat
        # inside the fit box bounds them as follows.
        p_room = max(THETA0[0] - BOX[0, 0], BOX[0, 1] - THETA0[0])
        _require(row.mse_p <= p_room ** 2 and max(row.mse_alpha, row.mse_beta) <= (math.pi / 2) ** 2,
                 f"squared errors {mse} imply theta_hat outside the fit box")
        return Outcome(reps=row.reps, sq_err=(row.mse_p + row.mse_alpha + row.mse_beta) * row.reps)


class Table1Pool(Table1MC):
    """The same replications fanned out over a process pool: each op is a
    ``run_mse`` call of ``jobs`` replications with ``jobs`` workers, so the
    client sees one latency per call.  Per-process cost and thread
    oversubscription in the workers show here.
    """

    name = "table1_pool"
    tail_pct = 70
    jobs = min(2, len(os.sched_getaffinity(0)))


class LargeNCli:
    """The README workflow on recorded files of n = 2e5 wrapped Cauchy
    gamma=0.8 angles written in set-up by ``circmix simulate``.  One op is
    ``circmix fit`` (with standard errors) then ``circmix density --true``
    on the next file in turn.  The O(n) layers do about half the work.
    """

    name = "large_n_cli"
    tail_pct = 60
    jobs = 1
    reps_per_op = 1
    n = 200_000
    grid = 512

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.samples = []
        self.first_kv = {}

    def prepare(self, k):
        """Record sample file k with ``circmix simulate``."""
        path = os.path.join(self.workdir, f"sample{k}.txt")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["simulate", "--density", WRAPPED_CAUCHY, "--theta", THETA0_TEXT,
                             "--n", str(self.n), "--seed", str(sub_seed(self.seed, k)),
                             "--out", path])
        if code != 0:
            raise RuntimeError(f"circmix simulate exited with {code}")
        self.samples.append(path)

    def inputs(self, i):
        return i % len(self.samples)

    def _paths(self, k):
        base = os.path.join(self.workdir, f"out{k}")
        return base + ".kv", base + ".csv"

    def call(self, k, span):
        kv, csv = self._paths(k)
        fit_seed = str(sub_seed(self.seed, k, 1))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with span("cli.fit"):
                fit_code = cli.main(["fit", "--in", self.samples[k], "--seed", fit_seed,
                                     "--out", kv])
            with span("cli.density"):
                density_code = cli.main(["density", "--in", self.samples[k], "--seed", fit_seed,
                                         "--out", csv, "--true", WRAPPED_CAUCHY])
        return fit_code, density_code, out.getvalue(), err.getvalue()

    def check(self, k, result) -> Outcome:
        fit_code, density_code, out, err = result
        _require(fit_code == 0 and density_code == 0,
                 f"exit codes fit={fit_code} density={density_code}: {err.strip()!r}")
        kv_path, csv_path = self._paths(k)
        with open(kv_path) as fh:
            kv_text = fh.read()
        record = dict(line.split(" = ", 1) for line in kv_text.splitlines() if " = " in line)
        _require(all(key in record for key in KV_KEYS), f"fit record lacks keys: {kv_text!r}")
        _require(record["n"] == str(self.n), f"fit record n = {record['n']}")
        p, alpha, beta = (_finite(record[key], key) for key in KV_KEYS[1:4])
        _require(all(lo <= v <= hi for v, (lo, hi) in zip((p, alpha, beta), BOX)),
                 f"theta_hat ({p}, {alpha}, {beta}) outside the fit box")
        _require(all(_finite(record[key], key) > 0 for key in KV_KEYS[4:]),
                 "standard errors are not positive")
        _require(self.first_kv.setdefault(k, kv_text) == kv_text,
                 f"fit of sample {k} differs from its first fit")
        _require(any(line.startswith("L_hat = ") and line[8:].isdigit()
                     for line in out.splitlines()), f"density printed no L_hat: {out!r}")
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        _require(len(lines) == self.grid + 1 and lines[0] == "x,f_hat,f",
                 f"density csv has {len(lines)} lines, header {lines[:1]!r}")
        rows = [line.split(",") for line in lines[1:]]
        _require(all(len(row) == 3 for row in rows), "density csv rows need 3 fields")
        table = np.array([[_finite(v, "density csv value") for v in row] for row in rows])
        l2 = math.sqrt(float(np.sum((table[:, 1] - table[:, 2]) ** 2)) * 2 * math.pi / self.grid)
        return Outcome(reps=1, sq_err=theta_sq_err(p, alpha, beta), l2=l2)


WORKLOADS = {w.name: w for w in (Table1MC, LargeNCli, Table1Pool)}
