"""Spans and counters for the traced run.

Wrappers go on circmix's public functions at the names the calling module
looks up (``circmix.bench.estimate_theta``, ``circmix.contrast.asymptotic_cov``,
``circmix.cli.estimate_density`` and so on), so the program is timed from
outside without touching its source.  They are installed only for the traced
phase and removed afterwards.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from time import perf_counter

# The package re-exports a function named ``contrast``, so the submodules are
# fetched by their full names.
bench, cli, contrast, npdens = (importlib.import_module(f"circmix.{m}")
                                for m in ("bench", "cli", "contrast", "npdens"))

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Spans (name, start, end, parent, op) plus per-call records."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None          # op index shared by every span of one op
        self.evals = 0          # ContrastMoments objective calls so far
        self.fits = []          # (objective evals, converged_starts, n_starts)
        self.coeff_calls = []   # (n, l_max) of empirical_coeffs
        self.densities = []     # (level, l_max) of estimate_density results

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][END] = perf_counter()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([dict(zip(("name", "start", "end", "parent", "op"), s))
                       for s in self.spans], fh)


def _spanned(tracer, name, fn, record=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if record is not None:
            record(out)
        return out
    return wrapper


def _counted(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.evals += 1
        return fn(*args, **kwargs)
    return wrapper


def _fit_wrapper(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = tracer.evals
        with tracer.span("contrast.estimate_theta"):
            fit = fn(*args, **kwargs)
        tracer.fits.append((tracer.evals - before, fit.converged_starts, fit.n_starts))
        return fit
    return wrapper


@contextlib.contextmanager
def installed(tracer):
    """Patch the wrappers in for the duration of the block."""
    moments = contrast.ContrastMoments
    estimate = npdens.DensityEstimate
    fit = _fit_wrapper(tracer, contrast.estimate_theta)
    patches = [
        (bench, "sample_mixture",
         _spanned(tracer, "circ.sample_mixture", bench.sample_mixture)),
        (bench, "estimate_theta", fit),
        (cli, "estimate_theta", fit),
        (contrast, "asymptotic_cov",
         _spanned(tracer, "contrast.asymptotic_cov", contrast.asymptotic_cov)),
        (moments, "__init__", _spanned(tracer, "contrast.moments", moments.__init__)),
        (moments, "value", _counted(tracer, moments.value)),
        (moments, "value_grad", _counted(tracer, moments.value_grad)),
        (moments, "value_grad_hess", _counted(tracer, moments.value_grad_hess)),
        (cli, "estimate_density",
         _spanned(tracer, "npdens.estimate_density", cli.estimate_density,
                  lambda est: tracer.densities.append((est.level, est.coeffs.l_max)))),
        (npdens, "empirical_coeffs",
         _spanned(tracer, "npdens.empirical_coeffs", npdens.empirical_coeffs,
                  lambda c: tracer.coeff_calls.append((c.n, c.l_max)))),
        (npdens, "slope_lambda",
         _spanned(tracer, "npdens.slope_lambda", npdens.slope_lambda)),
        (npdens, "select_level",
         _spanned(tracer, "npdens.select_level", npdens.select_level)),
        (estimate, "grid", _spanned(tracer, "npdens.grid", estimate.grid)),
        (bench, "write_csv",
         _spanned(tracer, "bench.write_csv", bench.write_csv)),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def layer_metrics(tracer, n_ops, excluded, reps):
    """Per-layer metrics of the traced phase, keyed as in spec.PER_LAYER.

    A self time is the span's duration minus the named direct children.
    ``bench.write_csv_ms`` counts only writes made by ``run_mse``: the CLI's
    CSV output belongs to the CLI's self time.
    """
    spans = tracer.spans
    children = {}
    for idx, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(idx)

    def dur(s):
        return s[END] - s[START]

    def parent_name(s):
        return None if s[PARENT] is None else spans[s[PARENT]][NAME]

    def ms(name, minus=(), parent=None):
        total = 0.0
        for idx, s in enumerate(spans):
            if s[NAME] != name or (parent and parent_name(s) != parent):
                continue
            total += dur(s) - sum(dur(spans[c]) for c in children.get(idx, ())
                                  if spans[c][NAME] in minus)
        return 1000.0 * total / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    fits = tracer.fits
    return {
        "circ.sample_mixture_ms": ms("circ.sample_mixture"),
        "contrast.moments_ms": ms("contrast.moments"),
        "contrast.asymptotic_cov_ms": ms("contrast.asymptotic_cov"),
        "contrast.estimate_theta_self_ms": ms(
            "contrast.estimate_theta", ("contrast.moments", "contrast.asymptotic_cov")),
        "contrast.objective_evals": ratio(sum(f[0] for f in fits), len(fits)),
        "contrast.converged_ratio": ratio(sum(f[1] for f in fits), sum(f[2] for f in fits)),
        "npdens.empirical_coeffs_ms": ms("npdens.empirical_coeffs"),
        "npdens.coeff_matrix_mb": ratio(sum(n * (l_max + 1) * 16 / 1e6
                                            for n, l_max in tracer.coeff_calls),
                                        len(tracer.coeff_calls)),
        "npdens.slope_lambda_ms": ms("npdens.slope_lambda"),
        "npdens.select_level_ms": ms("npdens.select_level"),
        "npdens.grid_ms": ms("npdens.grid"),
        "npdens.level": ratio(sum(d[0] for d in tracer.densities), len(tracer.densities)),
        "npdens.l_max": ratio(sum(d[1] for d in tracer.densities), len(tracer.densities)),
        "bench.run_mse_self_ms": ms(
            "bench.run_mse", ("circ.sample_mixture", "contrast.estimate_theta", "bench.write_csv")),
        "bench.write_csv_ms": ms("bench.write_csv", parent="bench.run_mse"),
        "bench.excluded_ratio": ratio(excluded, reps),
        "cli.fit_self_ms": ms("cli.fit", ("contrast.estimate_theta",)),
        "cli.density_self_ms": ms(
            "cli.density", ("contrast.estimate_theta", "npdens.estimate_density", "npdens.grid")),
    }
