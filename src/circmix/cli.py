"""Command-line interface.

Subcommands: simulate, fit, density, bench, slope, ident.  Sample files are
newline-delimited angles in radians; all diagnostics go to stderr.

Exit codes: 0 success; 2 usage / bad flag or spec; 3 a file that cannot be
read or written, or a malformed input file; 4 estimation failure; 5 inference
(covariance) failure; 6 experiment or calibration failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import bench
from .circ import MixtureParams, normalize, normalize_into, parse_density, sample_mixture
from .contrast import POWER_SUM_CHUNK, ContrastMoments, FitOptions, estimate_theta
from .errors import (CalibrationError, CircmixError, DomainError, EstimationError,
                     ExperimentError)
from .ident import classify, mixture_residual
from .npdens import GRID_LIMIT, _check_settings, _weight_floor, default_l_max, estimate_density

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_ESTIMATION = 4
EXIT_INFERENCE = 5
EXIT_EXPERIMENT = 6


class _CliUsage(CircmixError):
    pass


def _parse_theta(text: str, degrees: bool, p_limit: float = 0.5) -> MixtureParams:
    parts = text.split(",")
    if len(parts) != 3:
        raise _CliUsage("theta must be 'p,alpha,beta'")
    try:
        p, alpha, beta = (float(v) for v in parts)
    except ValueError as exc:
        raise _CliUsage(f"theta components must be numeric: {text!r}") from exc
    if degrees:
        alpha, beta = math.radians(alpha), math.radians(beta)
    if not 0.0 <= p < p_limit:
        raise _CliUsage(f"p must lie in [0, {p_limit:g}), got {p}")
    return MixtureParams(p, normalize(alpha), normalize(beta))


def _read_angles(path: str) -> np.ndarray:
    """Angles of a sample file, one per line; blank lines are skipped.

    numpy's parser reads a well-formed file; anything it rejects, reads as
    other than one column or reads as nan or infinite goes through the line
    loop, which accepts whatever finite number ``float`` reads and names the
    first bad line.  The angles are normalized in place, so the returned
    array is the only n-length one left.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file warns; the loop reports it
            table = np.loadtxt(path, dtype=float, comments=None, ndmin=2)
    except (OSError, ValueError):
        table = np.empty((0, 0))
    if table.shape[0] >= 1 and table.shape[1] == 1 and np.isfinite(table).all():
        angles = table[:, 0]
        return normalize_into(angles, angles)
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise OSError(f"cannot read sample file {path}: {exc}") from exc
    values = []
    for i, line in enumerate(lines, 1):
        if not line:
            continue
        try:
            value = float(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{i}: not a number: {line!r}") from exc
        if not math.isfinite(value):
            raise ValueError(f"{path}:{i}: not a finite number: {line!r}")
        values.append(value)
    if not values:
        raise ValueError(f"{path}: no angles found")
    angles = np.array(values)
    return normalize_into(angles, angles)


def _read_sample(path: str) -> np.ndarray:
    """The angles of a sample file, of which estimation needs at least 2."""
    angles = _read_angles(path)
    if len(angles) < 2:
        raise EstimationError("estimation needs at least 2 angles")
    return angles


def _fit_options(args, covariance: bool) -> FitOptions:
    kwargs = dict(p_max=args.pmax, compute_covariance=covariance)
    if args.box:
        try:
            parts = [float(v) for v in args.box.split(",")]
        except ValueError as exc:
            raise _CliUsage(f"--box values must be numeric: {args.box!r}") from exc
        if len(parts) != 6:
            raise _CliUsage("--box must be pmin,pmax,amin,amax,bmin,bmax")
        kwargs.update(p_min=parts[0], p_max=parts[1],
                      angle_min=parts[2], angle_max=parts[3])
        if (parts[2], parts[3]) != (parts[4], parts[5]):
            raise _CliUsage("--box currently requires identical alpha and beta ranges")
    return FitOptions(**kwargs)


def _fit_and_density(args, penalty=None):
    """The fit and the density estimate of ``density`` and ``slope``, both read
    from one power-sum pass over the sample file, which is read only once the
    density stage has accepted the fit's p_max, the penalty and --lmax."""
    options = _fit_options(args, covariance=False)
    _weight_floor(options.p_max)  # the density stage's weight cap is the fit's p_max
    _check_settings(args.lmax, penalty)
    angles = _read_sample(args.infile)
    l_max = default_l_max(len(angles)) if args.lmax is None else args.lmax
    moments = ContrastMoments(angles, l_max)
    fit = estimate_theta(moments, options)
    return estimate_density(moments, fit, l_max=l_max, penalty=penalty)


def cmd_simulate(args) -> int:
    density = parse_density(args.density)
    theta = _parse_theta(args.theta, args.degrees)
    if args.n < 1:
        raise _CliUsage("--n must be >= 1")
    _check_settings(n=args.n)
    rng = np.random.default_rng(args.seed)
    angles = sample_mixture(theta, density, args.n, rng)
    # a block of lines at a time, so the text never holds the whole sample
    with bench.open_output(args.out) as fh:
        for start in range(0, len(angles), POWER_SUM_CHUNK):
            block = angles[start:start + POWER_SUM_CHUNK].tolist()
            # one %-format per block: the text of an f"{x:.12g}\n" per angle, in less time
            fh.write(("%.12g\n" * len(block)) % tuple(block))
    return EXIT_OK


def cmd_fit(args) -> int:
    options = _fit_options(args, covariance=not args.no_cov)
    fit = estimate_theta(_read_sample(args.infile), options)
    if fit.near_degenerate:
        print("warning: near-degenerate fit, beta - alpha close to a multiple of 2*pi/3",
              file=sys.stderr)
    record = fit.to_kv_record() if args.format == "kv" else fit.CSV_HEADER + "\n" + fit.to_csv_row()
    with bench.open_output(args.out) as fh:
        fh.write(record + "\n")
    if not args.no_cov and fit.std_errors is None:
        print(f"warning: covariance unavailable: {fit.inference_warning}", file=sys.stderr)
        return EXIT_INFERENCE
    return EXIT_OK


def cmd_density(args) -> int:
    penalty = None
    if args.penalty != "slope":
        try:
            penalty = float(args.penalty)
        except ValueError as exc:
            raise _CliUsage(f"--lambda must be a number or 'slope': {args.penalty!r}") from exc
    if not 0 < args.grid <= GRID_LIMIT:
        raise _CliUsage(f"--grid must be in 1..{GRID_LIMIT} points, got {args.grid}")
    # a bad --true is a usage error whatever the sample holds, so it is parsed before the fit
    true = parse_density(args.true_density) if args.true_density else None
    estimate = _fit_and_density(args, penalty)
    x, f_hat = estimate.grid(args.grid)
    header = ["x", "f_hat"]
    cols = [x, f_hat]
    if true is not None:
        header.append("f")
        cols.append(true.pdf(x))
    # Python floats format faster than numpy scalars, to the same text; the
    # rows are formatted as they are written, so the text is never all in memory
    rows = ([bench.FLOAT_FMT.format(v) for v in row] for row in zip(*(c.tolist() for c in cols)))
    bench.write_csv(args.out, header, rows)
    if args.coeffs_out:
        lm, f_hat = estimate.coeffs.l_max, estimate.coeffs.f_hat
        bench.write_csv(args.coeffs_out, ["l", "re_f_hat", "im_f_hat"],
                        [[l, bench.FLOAT_FMT.format(re), bench.FLOAT_FMT.format(im)]
                         for l, re, im in zip(range(-lm, lm + 1), f_hat.real.tolist(),
                                              f_hat.imag.tolist())])
    print(f"L_hat = {estimate.level}")
    print(f"lambda = {estimate.penalty:.6g}")
    if estimate.slope_fit is not None:
        floor = estimate.slope_fit.theoretical_floor
        print(f"lambda_floor_diagnostic = {floor:.6g} "
              f"({'above' if estimate.penalty >= floor else 'below'} theoretical floor)")
    return EXIT_OK


def cmd_slope(args) -> int:
    estimate = _fit_and_density(args)
    slope_fit = estimate.slope_fit
    bench.write_slope_csv(args.out, slope_fit)
    print(f"slope = {slope_fit.slope:.6g}")
    print(f"lambda_hat = {slope_fit.lambda_hat:.6g}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise _CliUsage(f"--jobs must be >= 1, got {args.jobs}")
    config = bench.ExperimentConfig.from_file(args.config)
    if args.out:
        config = replace(config, outdir=args.out)
    if args.jobs is not None:
        config = replace(config, jobs=args.jobs)
    results = bench.run_experiments(config)
    for kind in config.experiments:
        if kind == "mse":
            for row in results[kind]:
                print(f"mse: density={row.density} n={row.n} excluded={row.excluded} "
                      f"p={row.mse_p:.5e} alpha={row.mse_alpha:.5e} beta={row.mse_beta:.5e}")
        elif kind == "normality":
            for s in results[kind][0]:
                print(f"normality: n={s.n} coord={s.coord} mean={s.mean:.4f} "
                      f"var={s.variance:.4f} skew={s.skewness:.4f} reps={s.reps_used}")
        elif kind == "density":
            info = results[kind][1]
            print(f"density: L_hat={info['level']} lambda={info['penalty']:.6g} "
                  f"l2_error_f={info['l2_error_f']:.6g}")
        elif kind == "slope":
            sf = results[kind][0]
            print(f"slope: a={sf.slope:.6g} lambda_hat={sf.lambda_hat:.6g}")
    return EXIT_OK


def cmd_ident(args) -> int:
    theta = _parse_theta(args.theta, args.degrees, p_limit=1.0)
    density = parse_density(args.density) if args.density else None
    # CLI inputs are typically rounded, so the default classification
    # tolerance here is looser than the library's exact 1e-9.
    result = classify(theta, tol=args.tol, density=density)
    print(f"tag = {result.tag.value}")
    rows = []
    for w in result.witnesses:
        tp = w.theta_prime
        line = (f"witness {w.kind.value}: p'={tp.p:.6g} alpha'={tp.alpha:.6g} "
                f"beta'={tp.beta:.6g} weights="
                + ";".join(f"({s:.6g},{wt:.6g})" for s, wt in w.f_weights))
        residual = ""
        if density is not None:
            residual = mixture_residual(theta, density, w)
            line += f" residual={residual:.3e}"
        if w.f_prime_nonneg is not None:
            line += f" f_prime_nonneg={w.f_prime_nonneg} f_prime_min={w.f_prime_min:.6g}"
        print(line)
        rows.append([w.kind.value, f"{tp.p:.12g}", f"{tp.alpha:.12g}", f"{tp.beta:.12g}",
                     "" if residual == "" else f"{residual:.5e}"])
    if args.out:
        bench.write_csv(args.out,
                        ["kind", "p_prime", "alpha_prime", "beta_prime", "residual"], rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circmix",
        description="Semiparametric estimation for two-component rotation mixtures "
                    "of circular data.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a sample from the mixture model")
    sim.add_argument("--density", required=True, help="e.g. 'vonmises:kappa=5'")
    sim.add_argument("--theta", required=True, help="p,alpha,beta (radians)")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--degrees", action="store_true",
                     help="interpret the theta angles in degrees")
    sim.add_argument("--out", default="-", help="output file, '-' for stdout")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="estimate (p, alpha, beta) from a sample file")
    _add_fit_flags(fit)
    fit.add_argument("--no-cov", action="store_true", help="skip covariance estimation")
    fit.add_argument("--format", choices=("kv", "csv"), default="kv")
    fit.add_argument("--out", default="-", help="output file, '-' for stdout")
    fit.set_defaults(func=cmd_fit)

    dens = sub.add_parser("density", help="adaptive component-density estimate")
    _add_fit_flags(dens)
    dens.add_argument("--lmax", type=int, default=None)
    dens.add_argument("--lambda", dest="penalty", default="slope",
                      help="penalty constant, or 'slope' for the data-driven choice")
    dens.add_argument("--grid", type=int, default=512)
    dens.add_argument("--true", dest="true_density", default=None,
                      help="optional true density spec to tabulate alongside")
    dens.add_argument("--coeffs-out", default=None, help="coefficient CSV, '-' for stdout")
    dens.add_argument("--out", required=True, help="curve CSV, '-' for stdout")
    dens.set_defaults(func=cmd_density)

    slo = sub.add_parser("slope", help="slope-heuristic couples and lambda_hat")
    _add_fit_flags(slo)
    slo.add_argument("--lmax", type=int, default=None)
    slo.add_argument("--out", required=True, help="couples CSV, '-' for stdout")
    slo.set_defaults(func=cmd_slope)

    ben = sub.add_parser("bench", help="run Monte Carlo experiments from a config file")
    ben.add_argument("--config", required=True)
    ben.add_argument("--out", default=None, help="override the output directory")
    ben.add_argument("--jobs", type=int, default=None, help="worker processes")
    ben.set_defaults(func=cmd_bench)

    ide = sub.add_parser("ident", help="identifiability classification and aliases")
    ide.add_argument("--theta", required=True)
    ide.add_argument("--tol", type=float, default=1e-3,
                     help="classification tolerance in radians")
    ide.add_argument("--degrees", action="store_true")
    ide.add_argument("--density", default=None,
                     help="optional density spec for residual and positivity checks")
    ide.add_argument("--out", default=None, help="optional CSV of witnesses, '-' for stdout")
    ide.set_defaults(func=cmd_ident)
    return parser


def _add_fit_flags(sub):
    sub.add_argument("--in", dest="infile", required=True, help="sample file")
    sub.add_argument("--seed", type=int, default=0,
                     help="no effect: the fit is deterministic; kept so that command "
                          "lines passing it, as the README examples do, still run")
    sub.add_argument("--pmax", type=float, default=FitOptions.p_max,
                     help="largest mixing weight searched; density and slope need "
                          "it below 1/2")
    sub.add_argument("--box", default=None,
                     help="pmin,pmax,amin,amax,bmin,bmax search box")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_CliUsage, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (CalibrationError, ExperimentError) as exc:
        print(f"experiment error: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
