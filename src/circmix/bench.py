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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circ import MixtureParams, mixture_density, parse_density, sample_mixture
from .contrast import ContrastMoments, FitOptions, estimate_theta, squared_error
from .errors import DomainError, EstimationError, ExperimentError
from .npdens import _check_settings, _weight_floor, default_l_max, estimate_density, l2_error

EXPERIMENT_KINDS = ("mse", "normality", "density", "slope")
_STREAM_TAG = {kind: i for i, kind in enumerate(EXPERIMENT_KINDS)}

FLOAT_FMT = "{:.5e}"  # six significant digits, '.' decimal separator


@dataclass(frozen=True)
class ExperimentConfig:
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

    def __post_init__(self):
        if self.reps < 1:
            raise ExperimentError("reps must be >= 1")
        if not self.n_list or any(n < 2 for n in self.n_list):
            raise ExperimentError("all sample sizes must be >= 2")
        if self.seed is None:
            raise ExperimentError("bench experiments refuse to run unseeded")
        if self.jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {self.jobs}")
        if not self.experiments:
            raise ExperimentError("no experiments to run")
        unknown = set(self.experiments) - set(EXPERIMENT_KINDS)
        if unknown:
            raise ExperimentError(f"unknown experiments: {sorted(unknown)}")
        for kind in self.experiments:
            _check_experiment(self, kind)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        values = {}
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ExperimentError(f"malformed config line: {raw.strip()!r}")
                key, _, val = line.partition("=")
                values[key.strip().lower()] = val.strip()
        return cls.from_dict(values, source=str(path))

    @classmethod
    def from_dict(cls, values: dict, source: str = "config") -> "ExperimentConfig":
        """The config that ``values``, a key -> text mapping, describes.

        Raises
        ------
        ValueError
            If a numeric value does not parse.  The message names ``source``
            (the config file), the key and the value.
        ExperimentError
            If a key is missing or unknown, or a value is out of range; for
            ``theta0``, ``n``, ``p_max``, ``l_max``, ``lambda`` and ``density``
            the message names ``source``, the key and the value.  ``p_max``
            must lie below 1/2 only when a density or slope experiment is
            listed, as the fit alone accepts a larger one.
        OSError, ValueError
            If a tabulated density's file cannot be read.
        """
        values = dict(values)

        def pop(key, default=None, required=False):
            if key in values:
                return values.pop(key)
            if required:
                raise ExperimentError(f"config key {key!r} is required")
            return default

        def parse(key, text, convert, what):
            try:
                return convert(text)
            except ValueError:
                raise ValueError(f"{source}: key {key!r} must be {what}, got {text!r}") from None

        def check(key, text, accept, *args, **kwargs):
            try:
                return accept(*args, **kwargs)
            except DomainError as exc:
                raise ExperimentError(f"{source}: key {key!r} is out of range, "
                                      f"got {text!r}: {exc}") from None

        density = pop("density", required=True)
        theta0_raw = pop("theta0", required=True)
        theta0 = check("theta0", theta0_raw, MixtureParams,
                       *parse("theta0", theta0_raw, _three_floats,
                              "three comma-separated numbers 'p,alpha,beta'"))
        n_raw = str(pop("n", required=True))
        n_list = parse("n", n_raw, lambda text: tuple(int(v) for v in text.split(",")),
                       "a comma-separated list of integers")
        check("n", n_raw, _check_settings, n=max(n_list))
        seed_raw = pop("seed")
        if seed_raw is None:
            raise ExperimentError("bench experiments refuse to run unseeded; set seed")
        experiments = tuple(v.strip() for v in str(pop("experiment", "mse")).split(",") if v.strip())
        p_max_raw = pop("p_max", FitOptions.p_max)
        p_max = parse("p_max", p_max_raw, float, "a number")
        check("p_max", p_max_raw, FitOptions, p_max=p_max)
        if {"density", "slope"} & set(experiments):
            check("p_max", p_max_raw, _weight_floor, p_max)
        l_max_raw = pop("l_max", None)
        l_max = None if l_max_raw is None else parse("l_max", l_max_raw, int, "an integer")
        check("l_max", l_max_raw, _check_settings, l_max=l_max)
        penalty_raw = pop("lambda", "slope")
        penalty = (None if str(penalty_raw).lower() == "slope"
                   else parse("lambda", penalty_raw, float, "a number or 'slope'"))
        check("lambda", penalty_raw, _check_settings, penalty=penalty)
        cfg = cls(
            density_spec=density,
            theta0=theta0,
            n_list=n_list,
            reps=parse("reps", pop("reps", required=True), int, "an integer"),
            seed=parse("seed", seed_raw, int, "an integer"),
            experiments=experiments,
            p_max=p_max,
            l_max=l_max,
            penalty=penalty,
            jobs=parse("jobs", pop("jobs", 1), int, "an integer"),
            outdir=str(pop("out", ".")),
        )
        if values:
            raise ExperimentError(f"unknown config keys: {sorted(values)}")
        check("density", density, _parsed_density, density)
        return cfg

    @property
    def density(self):
        """The component density of ``density_spec``."""
        return _parsed_density(self.density_spec)

    def fit_options(self, covariance: bool) -> FitOptions:
        return FitOptions(p_max=self.p_max, compute_covariance=covariance)


@lru_cache(maxsize=1)
def _parsed_density(spec: str):
    """The last spec's density: ``from_dict`` parses it to check it, and the
    experiments, a config rebuilt by ``dataclasses.replace`` (``bench --out``,
    ``--jobs``) and forked pool workers read it again, not the file."""
    return parse_density(spec)


def _check_experiment(config: ExperimentConfig, kind: str) -> None:
    """Raise ExperimentError unless the config can run experiment ``kind``."""
    if kind in ("density", "slope") and len(config.n_list) != 1:
        raise ExperimentError(f"{kind} experiments use a single sample size")
    if kind == "normality" and config.reps < 50:
        raise ExperimentError("normality experiments need reps >= 50")


def _three_floats(text: str) -> tuple:
    p, alpha, beta = (float(v) for v in text.split(","))  # a wrong count raises ValueError too
    return p, alpha, beta


def _rep_rng(config: ExperimentConfig, kind: str, n: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([config.seed, _STREAM_TAG[kind], n, rep]))


def _map_reps(config: ExperimentConfig, worker, tasks):
    # a forked pool starts all its workers at once: start no more than there are tasks
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        # the process pool, and with it multiprocessing, loads only here
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks, chunksize=1))
    return [worker(t) for t in tasks]


def _fmt(x) -> str:
    return FLOAT_FMT.format(float(x))


@contextlib.contextmanager
def open_output(path: str):
    """The text stream of an output path: stdout for '-', else the file."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="\n") as fh:
            yield fh


def write_csv(path: str, header, rows) -> None:
    with open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


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
              [[r.density, r.n, r.reps, r.excluded,
                _fmt(r.mse_p), _fmt(r.mse_alpha), _fmt(r.mse_beta)] for r in rows])
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
    csv_rows = []
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
        for (i, _), e, z in zip(good, errs, zs):
            csv_rows.append([n, i, *[_fmt(v) for v in e], *[_fmt(v) for v in z]])
        for j, coord in enumerate(("p", "alpha", "beta")):
            zj = zs[:, j]
            m, v = float(zj.mean()), float(zj.var(ddof=1))
            skew = float(np.mean((zj - m) ** 3) / v ** 1.5) if v > 0 else 0.0
            summaries.append(NormalitySummary(n, coord, m, v, skew, len(zj)))
    write_csv(os.path.join(config.outdir, "normality.csv"),
              ["n", "rep", "err_p", "err_alpha", "err_beta",
               "z_p", "z_alpha", "z_beta"], csv_rows)
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
    realized squared L2 error of f_hat.
    """
    density, fit, estimate = _fit_and_density(config, "density", config.penalty)
    x, f_hat = estimate.grid(512)
    f_true = density.pdf(x)
    g_true = mixture_density(config.theta0, density, x)
    g_hat = mixture_density(fit.theta_hat, estimate, x)
    info = {
        "level": estimate.level,
        "penalty": estimate.penalty,
        "l2_error_f": l2_error(estimate, density),
        "theta_hat": fit.theta_hat,
    }
    write_csv(os.path.join(config.outdir, "density.csv"),
              ["x", "f", "f_hat", "g", "g_hat"],
              [[_fmt(a), _fmt(b), _fmt(c), _fmt(d), _fmt(e)]
               for a, b, c, d, e in zip(x, f_true, f_hat, g_true, g_hat)])
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
    """One row per level L: its couple, whether it is in the slope window,
    and the fitted slope and lambda_hat."""
    window = set(slope_fit.window)
    write_csv(path, ["L", "penalty_shape", "coeff_mass", "in_window", "slope", "lambda_hat"],
              [[L, _fmt(x), _fmt(y), int(L in window),
                _fmt(slope_fit.slope), _fmt(slope_fit.lambda_hat)]
               for L, x, y in slope_fit.couples])


_RUNNERS = {"mse": run_mse, "normality": run_normality,
            "density": run_density_recon, "slope": run_slope}


def run_experiments(config: ExperimentConfig) -> dict:
    """Run every experiment listed in the config; returns per-kind results."""
    os.makedirs(config.outdir, exist_ok=True)
    return {kind: _RUNNERS[kind](config) for kind in config.experiments}
