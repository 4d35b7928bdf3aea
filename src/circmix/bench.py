"""Monte Carlo experiment harness: MSE tables, normality diagnostics,
slope-calibration couples, and density-reconstruction curves.

Every replication derives its generator from the root seed and its indices,
so runs are byte-identical across repeats and across worker counts; results
are aggregated in replication order.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .circ import MixtureParams, mixture_density, parse_density, sample_mixture
from .contrast import ContrastMoments, FitOptions, estimate_theta, squared_error
from .errors import DomainError, EstimationError, ExperimentError
from .npdens import (_check_settings, _fold, _weight_floor, default_l_max, estimate_density,
                     l2_error)

EXPERIMENT_KINDS = ("mse", "normality", "density", "slope")
_STREAM_TAG = {kind: i for i, kind in enumerate(EXPERIMENT_KINDS)}
_CONFIG_KEYS = {"density", "theta0", "n", "reps", "seed", "experiment", "p_max", "l_max",
                "lambda", "jobs", "out"}

FLOAT = "%.5e"  # six significant digits, '.' decimal separator

# lines per %-format of write_rows: the part of a table in memory at once
ROW_BLOCK = 16384

# every fit of a size is kept, ~0.7 kB each: at n = 100, 10^5 reps peak at 105 MB RSS
REPS_LIMIT = 10 ** 5


@dataclass(frozen=True)
class ExperimentConfig:
    """A bench run.  ``from_file`` and ``from_dict`` check every value; a config
    built in code is not checked, apart from each runner's experiment rules."""

    density_spec: str
    theta0: MixtureParams
    n_list: tuple
    reps: int
    seed: int
    experiments: tuple = ("mse",)
    p_max: float = FitOptions.p_max
    l_max: int | None = None
    penalty: float | None = None  # None -> slope heuristic
    jobs: int = 1
    outdir: str = "."

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """The config of a ``key = value`` file; a key may appear once."""
        values = {}
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ExperimentError(f"malformed config line: {raw.strip()!r}")
                key, _, val = line.partition("=")
                key, val = key.strip().lower(), val.strip()
                if key in values:
                    _refuse(path, key, val, f"a key may appear once; it is {values[key]!r} above")
                values[key] = val
        return cls.from_dict(values, source=str(path))

    @classmethod
    def from_dict(cls, values: dict, source: str = "config") -> "ExperimentConfig":
        """The config that ``values``, a key -> text mapping, describes.

        Raises
        ------
        ValueError
            If a value does not parse, naming ``source``, the key and the text.
        ExperimentError
            If a key is missing or unknown, or a value breaks its rule or an
            experiment's: ``<source>: key '<key>' is out of range, got
            '<text>': <reason>``.
        OSError, ValueError
            If a tabulated density's file cannot be read.
        """
        texts = {"experiment": "mse", "p_max": FitOptions.p_max, "lambda": "slope", "jobs": 1}
        texts = {key: str(text) for key, text in {**texts, **values}.items()}
        unknown = set(texts) - _CONFIG_KEYS
        if unknown:
            raise ExperimentError(f"unknown config keys: {sorted(unknown)}")
        for key in ("density", "theta0", "n", "reps"):
            if key not in texts:
                raise ExperimentError(f"config key {key!r} is required")
        if "seed" not in texts:
            raise ExperimentError("bench experiments refuse to run unseeded; set seed")

        def parse(key, convert, what):
            try:
                return convert(texts[key])
            except ValueError:
                raise ValueError(f"{source}: key {key!r} must be {what}, "
                                 f"got {texts[key]!r}") from None

        def check(key, ok, reason):
            if not ok:
                _refuse(source, key, texts[key], reason)

        def accept(key, build, *args, **kwargs):
            try:
                return build(*args, **kwargs)
            except DomainError as exc:
                _refuse(source, key, texts[key], exc)

        theta0 = parse("theta0", _three_floats, "three comma-separated numbers 'p,alpha,beta'")
        theta0 = accept("theta0", MixtureParams, *theta0)
        check("theta0", theta0.p < 0.5, "p must lie in [0, 0.5): label the lighter component alpha")
        n_list = parse("n", lambda text: tuple(int(v) for v in text.split(",")),
                       "a comma-separated list of integers")
        check("n", min(n_list) >= 2, "all sample sizes must be >= 2")
        check("n", len(set(n_list)) == len(n_list), "each sample size may appear once")
        accept("n", _check_settings, n=max(n_list))
        reps, seed, jobs = (parse(key, int, "an integer") for key in ("reps", "seed", "jobs"))
        check("reps", reps >= 1, "reps must be >= 1")
        check("reps", reps <= REPS_LIMIT, f"reps must be at most {REPS_LIMIT}")
        check("seed", seed >= 0, "seed must be >= 0")
        check("jobs", jobs >= 1, "jobs must be >= 1")
        experiments = tuple(v.strip() for v in texts["experiment"].split(",") if v.strip())
        check("experiment", experiments, "no experiments to run")
        unknown_kinds = sorted(set(experiments) - set(EXPERIMENT_KINDS))
        check("experiment", not unknown_kinds, f"unknown experiments: {unknown_kinds}")
        check("experiment", len(set(experiments)) == len(experiments), "each kind may appear once")
        for kind in experiments:
            for key, reason in _experiment_rules(kind, n_list, reps):
                _refuse(source, key, texts[key], reason)
        p_max = parse("p_max", float, "a number")
        accept("p_max", FitOptions, p_max=p_max)
        if {"density", "slope"} & set(experiments):
            accept("p_max", _weight_floor, p_max)
        l_max = None if "l_max" not in texts else parse("l_max", int, "an integer")
        accept("l_max", _check_settings, l_max=l_max)
        penalty = (None if texts["lambda"].lower() == "slope"
                   else parse("lambda", float, "a number or 'slope'"))
        accept("lambda", _check_settings, penalty=penalty)
        accept("density", _parsed_density, texts["density"])
        return cls(texts["density"], theta0, n_list, reps, seed, experiments, p_max, l_max,
                   penalty, jobs, texts.get("out", "."))

    @property
    def density(self):
        """The component density of ``density_spec``."""
        return _parsed_density(self.density_spec)

    def fit_options(self, covariance: bool) -> FitOptions:
        return FitOptions(p_max=self.p_max, compute_covariance=covariance)


def _refuse(source, key: str, text: str, reason) -> None:
    raise ExperimentError(f"{source}: key {key!r} is out of range, got {text!r}: {reason}")


@lru_cache(maxsize=1)
def _parsed_density(spec: str):
    """The last spec's density: ``from_dict`` parses it to check it, and the
    experiments, replaced configs and forked pool workers read it again."""
    return parse_density(spec)


def _experiment_rules(kind: str, n_list: tuple, reps: int):
    """(key, reason) of each rule of experiment ``kind`` that n_list or reps breaks."""
    if kind in ("density", "slope") and len(n_list) != 1:
        yield "n", f"{kind} experiments use a single sample size"
    if kind == "normality" and reps < 50:
        yield "reps", "normality experiments need reps >= 50"


def _check_experiment(config: ExperimentConfig, kind: str) -> None:
    """Raise ExperimentError unless the config can run experiment ``kind``."""
    for _, reason in _experiment_rules(kind, config.n_list, config.reps):
        raise ExperimentError(reason)


def _three_floats(text: str) -> tuple:
    p, alpha, beta = (float(v) for v in text.split(","))  # a wrong count raises ValueError too
    return p, alpha, beta


def _rep_rng(config: ExperimentConfig, kind: str, n: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([config.seed, _STREAM_TAG[kind], n, rep]))


def _map_reps(config: ExperimentConfig, worker, tasks):
    # a forked pool starts all its workers at once: start no more than there are
    # tasks and CPUs, and send one block of tasks per worker
    workers = 1 if config.jobs == 1 else min(config.jobs, len(tasks), len(os.sched_getaffinity(0)))
    if workers > 1:
        # the process pool, and with it multiprocessing, loads only here
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks, chunksize=math.ceil(len(tasks) / workers)))
    return [worker(t) for t in tasks]


@contextlib.contextmanager
def open_output(path: str):
    """The text stream of an output path: stdout for '-', else the file."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="\n") as fh:
            yield fh


def write_rows(fh, fmt: str, columns) -> None:
    """Write line i as ``fmt % (columns[0][i], columns[1][i], ...)``.

    The columns are sliceable sequences of one length: arrays, lists or
    ranges.  Each block of ROW_BLOCK lines is one %-format of the block's
    values, read as Python scalars, which format faster than numpy's.
    """
    line, width = fmt + "\n", len(columns)
    for start in range(0, len(columns[0]), ROW_BLOCK):
        block = [np.asarray(c[start:start + ROW_BLOCK]).tolist() for c in columns]
        values = [None] * (width * len(block[0]))
        for k, column in enumerate(block):  # interleaved by slice: no tuple per line
            values[k::width] = column
        fh.write(line * len(block[0]) % tuple(values))


def write_csv(path: str, header, fmt: str, columns) -> None:
    """The CSV of a header line and the lines of ``write_rows(fmt, columns)``."""
    with open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        write_rows(fh, fmt, columns)


@dataclass
class MseRow:
    density: str
    n: int
    reps: int
    excluded: int
    mse_p: float
    mse_alpha: float
    mse_beta: float


def _fit_rep(task):
    """The fit of one replication's sample, or None if it fails; the
    covariance is estimated only for the normality experiment."""
    config, kind, n, rep = task
    rng = _rep_rng(config, kind, n, rep)
    sample = sample_mixture(config.theta0, config.density, n, rng)
    try:
        return estimate_theta(sample, config.fit_options(covariance=kind == "normality"))
    except EstimationError:
        return None


def _fit_reps(config: ExperimentConfig, kind: str, n: int) -> list:
    """_fit_rep of every replication at sample size n, in replication order."""
    config.density  # parsed before a pool forks, so that its workers read no file
    return _map_reps(config, _fit_rep, [(config, kind, n, r) for r in range(config.reps)])


def run_mse(config: ExperimentConfig) -> list:
    """Mean squared errors of theta_hat per sample size.

    Angular errors use the squared distance modulo pi (documented in the
    output header name); replications whose fit fails are excluded and
    counted, and more than 10% failures abort the experiment.
    """
    rows = []
    label = config.density.label
    for n in config.n_list:
        good = [squared_error(fit.theta_hat, config.theta0)
                for fit in _fit_reps(config, "mse", n) if fit is not None]
        excluded = config.reps - len(good)
        if excluded > 0.1 * config.reps:
            raise ExperimentError(
                f"{excluded}/{config.reps} replications failed at n={n}")
        mse = np.mean(good, axis=0)
        rows.append(MseRow(label, n, config.reps, excluded, *mse))
    write_csv(os.path.join(config.outdir, "mse.csv"),
              ["density", "n", "reps", "excluded",
               "mse_p", "mse_alpha_modpi", "mse_beta_modpi"],
              f"%s,%d,%d,%d,{FLOAT},{FLOAT},{FLOAT}",
              [[getattr(r, field.name) for r in rows] for field in fields(MseRow)])
    return rows


@dataclass
class NormalitySummary:
    n: int
    coord: str
    mean: float
    variance: float
    skewness: float
    reps_used: int


def run_normality(config: ExperimentConfig):
    """Centered/standardized fit statistics for histogramming.

    Emits per-replication raw errors and standardized values; returns
    per-coordinate summaries.  Covariance failures beyond 10% abort.
    """
    _check_experiment(config, "normality")
    tables = []  # per n: the n, index, errors and standardized values of its kept reps
    summaries = []
    raw_by_n = {}
    for n in config.n_list:
        good = [(i, fit) for i, fit in enumerate(_fit_reps(config, "normality", n))
                if fit is not None and fit.std_errors is not None
                and not np.any(fit.std_errors <= 0)]
        if config.reps - len(good) > 0.1 * config.reps:
            raise ExperimentError(
                f"covariance unavailable in {config.reps - len(good)}/{config.reps} reps at n={n}")
        errs = np.array([fit.theta_hat.as_array() - config.theta0.as_array() for _, fit in good])
        errs[:, 1:] = np.vectorize(math.remainder)(errs[:, 1:], math.pi)  # signed, modulo pi
        zs = errs / np.array([fit.std_errors for _, fit in good])
        raw_by_n[n] = (errs, zs)
        tables.append((np.full(len(good), n), np.array([i for i, _ in good]), errs, zs))
        for j, coord in enumerate(("p", "alpha", "beta")):
            zj = zs[:, j]
            m, v = float(zj.mean()), float(zj.var(ddof=1))
            skew = float(np.mean((zj - m) ** 3) / v ** 1.5) if v > 0 else 0.0
            summaries.append(NormalitySummary(n, coord, m, v, skew, len(zj)))
    ns, rep_ids, errs, zs = (np.concatenate(parts) for parts in zip(*tables))
    write_csv(os.path.join(config.outdir, "normality.csv"),
              ["n", "rep", "err_p", "err_alpha", "err_beta", "z_p", "z_alpha", "z_beta"],
              "%d,%d" + f",{FLOAT}" * 6, [ns, rep_ids, *errs.T, *zs.T])
    return summaries, raw_by_n


def _fit_and_density(config: ExperimentConfig, kind: str, penalty=None):
    """The one replication of a density or slope experiment: its true
    density, fit and density estimate, both stages read from one power-sum
    pass over the sample, as ``circmix density`` does."""
    _check_experiment(config, kind)
    n = config.n_list[0]
    density = config.density
    angles = sample_mixture(config.theta0, density, n, _rep_rng(config, kind, n, 0))
    l_max = default_l_max(n) if config.l_max is None else config.l_max
    moments = ContrastMoments(angles, l_max)
    fit = estimate_theta(moments, config.fit_options(covariance=False))
    estimate = estimate_density(moments, fit, l_max=l_max, penalty=penalty)
    return density, fit, estimate


def run_density_recon(config: ExperimentConfig):
    """Single-replication reconstruction curves for f and the mixture g.

    Emits a 512-point grid with the true and estimated component density
    and the corresponding mixtures; returns the grid arrays and the
    realized squared L2 error of f_hat.  The estimated mixture is folded
    from g_hat_l = M^l(theta_hat) f_hat_l, its coefficients for |l| <= L_hat.
    """
    density, fit, estimate = _fit_and_density(config, "density", config.penalty)
    x, f_hat = estimate.grid(512)
    f_true = density.pdf(x)
    g_true = mixture_density(config.theta0, density, x)
    g_hat = _fold(estimate.coeffs.g_hat[:estimate.level + 1], len(x))
    info = {
        "level": estimate.level,
        "penalty": estimate.penalty,
        "l2_error_f": l2_error(estimate, density),
        "theta_hat": fit.theta_hat,
    }
    write_csv(os.path.join(config.outdir, "density.csv"), ["x", "f", "f_hat", "g", "g_hat"],
              ",".join([FLOAT] * 5), [x, f_true, f_hat, g_true, g_hat])
    return (x, f_true, f_hat, g_true, g_hat), info


def run_slope(config: ExperimentConfig):
    """Slope-calibration couples for one replication.

    Emits ((2L+1)/n, sum_{|l|<=L} |f_hat_l|^2) for L = 0..l_max together
    with the fitted slope and lambda_hat.
    """
    _, _, estimate = _fit_and_density(config, "slope")
    write_slope_csv(os.path.join(config.outdir, "slope.csv"), estimate.slope_fit)
    return estimate.slope_fit, estimate


def write_slope_csv(path: str, slope_fit) -> None:
    """One row per level L: its couple, whether it is in the slope window, and
    the fitted slope and lambda_hat, which are formatted once, into the format."""
    levels = np.arange(len(slope_fit.shapes))
    tail = (f"{FLOAT},{FLOAT}" % (slope_fit.slope, slope_fit.lambda_hat)).replace("%", "%%")
    write_csv(path, ["L", "penalty_shape", "coeff_mass", "in_window", "slope", "lambda_hat"],
              f"%d,{FLOAT},{FLOAT},%d,{tail}",
              [levels, slope_fit.shapes, slope_fit.masses, levels >= slope_fit.window_start])


_RUNNERS = {"mse": run_mse, "normality": run_normality,
            "density": run_density_recon, "slope": run_slope}


def run_experiments(config: ExperimentConfig) -> dict:
    """Run every experiment listed in the config; returns per-kind results."""
    os.makedirs(config.outdir, exist_ok=True)
    return {kind: _RUNNERS[kind](config) for kind in config.experiments}
