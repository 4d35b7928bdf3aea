"""Monte Carlo harness: determinism, schemas, failure accounting."""

import importlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from circmix import (EstimationError, ExperimentError, Tabulated, estimate_density,
                     estimate_theta, parse_density, sample_mixture)
from circmix.bench import (ExperimentConfig, MseRow, _fit_rep, _map_reps, _rep_rng,
                           run_density_recon, run_experiments, run_mse, run_normality,
                           run_slope)

from _oracles import format_rows, mixture_curve_exact

THETA = "0.25,0.39269908,2.0943951"
# the package re-exports a function named contrast, so the modules are fetched by name
bench, contrast, npdens = (importlib.import_module(f"circmix.{m}")
                           for m in ("bench", "contrast", "npdens"))


def config(tmp_path, **overrides):
    base = dict(density="vonmises kappa=5", theta0=THETA, n="200", reps="4",
                seed="7", experiment="mse")
    base.update({k: str(v) for k, v in overrides.items()})
    cfg = ExperimentConfig.from_dict(base)
    from dataclasses import replace
    return replace(cfg, outdir=str(tmp_path))


def test_config_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# comment\nexperiment = mse\ndensity = vonmises kappa=5\n"
        f"theta0 = {THETA}\nn = 100,200\nreps = 3\nseed = 11\njobs = 2\n")
    cfg = ExperimentConfig.from_file(path)
    assert cfg.n_list == (100, 200)
    assert cfg.jobs == 2
    assert cfg.penalty is None


def test_config_requires_seed(tmp_path):
    with pytest.raises(ExperimentError):
        ExperimentConfig.from_dict(
            dict(density="uniform", theta0=THETA, n="100", reps="2"))


@pytest.mark.parametrize("jobs", [0, -4])
def test_config_rejects_jobs_below_one(tmp_path, jobs):
    with pytest.raises(ExperimentError):
        config(tmp_path, jobs=jobs)


def test_config_p_max_above_half_only_for_the_fit(tmp_path):
    # the fit accepts p_max >= 1/2; the density stage needs p_max < 1/2
    assert config(tmp_path, p_max=0.7).p_max == 0.7
    for kind in ("density", "slope"):
        with pytest.raises(ExperimentError, match="key 'p_max' is out of range"):
            config(tmp_path, p_max=0.7, n=200, experiment=f"mse,{kind}")


def test_config_rejects_unknown_keys():
    with pytest.raises(ExperimentError):
        ExperimentConfig.from_dict(
            dict(density="uniform", theta0=THETA, n="100", reps="2", seed="1",
                 bogus="1"))


@pytest.mark.parametrize("key, value, message", [
    ("reps", "0", "reps must be >= 1"), ("n", "1", "all sample sizes must be >= 2"),
    ("n", "100,1", "all sample sizes must be >= 2"),
])
def test_config_rejects_small_sizes(key, value, message):
    values = dict(density="uniform", theta0=THETA, n="100", reps="2", seed="1")
    values[key] = value
    with pytest.raises(ExperimentError,
                       match=f"^config: key '{key}' is out of range, got '{value}': {message}$"):
        ExperimentConfig.from_dict(values)


def test_config_file_line_without_equals_is_refused(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(f"density = uniform\ntheta0 = {THETA}\nn 100\nreps = 2\nseed = 1\n")
    with pytest.raises(ExperimentError, match="^malformed config line: 'n 100'$"):
        ExperimentConfig.from_file(path)


def _failing_fits(monkeypatch, failures):
    """Make bench's fit raise EstimationError on the replications of ``failures``,
    counted in call order."""
    calls = []

    def fit(sample, options):
        calls.append(len(sample))
        if len(calls) - 1 in failures:
            raise EstimationError("no polish converged")
        return estimate_theta(sample, options)

    monkeypatch.setattr(bench, "estimate_theta", fit)
    return calls


def test_run_mse_counts_a_failed_replication_in_excluded(tmp_path, monkeypatch):
    calls = _failing_fits(monkeypatch, {7})
    rows = run_mse(config(tmp_path, reps=20))
    assert len(calls) == 20
    assert (rows[0].reps, rows[0].excluded) == (20, 1)
    assert (tmp_path / "mse.csv").read_text().splitlines()[1].startswith(
        "vonmises kappa=5 mu=0,200,20,1,")


def test_run_mse_aborts_past_a_tenth_failed(tmp_path, monkeypatch):
    # 3 of 20 failed replications at the second size: no mse.csv is written
    _failing_fits(monkeypatch, {20, 25, 39})
    with pytest.raises(ExperimentError, match=r"^3/20 replications failed at n=300$"):
        run_mse(config(tmp_path, reps=20, n="200,300"))
    assert not (tmp_path / "mse.csv").exists()


def test_run_mse_deterministic(tmp_path):
    cfg = config(tmp_path / "a")
    (tmp_path / "a").mkdir()
    rows1 = run_mse(cfg)
    first = (tmp_path / "a" / "mse.csv").read_bytes()
    rows2 = run_mse(cfg)
    second = (tmp_path / "a" / "mse.csv").read_bytes()
    assert first == second
    assert rows1[0].mse_p == rows2[0].mse_p
    assert isinstance(rows1[0], MseRow)
    assert rows1[0].excluded == 0


def test_run_mse_parallel_matches_serial(tmp_path):
    serial_dir, par_dir = tmp_path / "s", tmp_path / "p"
    serial_dir.mkdir(), par_dir.mkdir()
    run_mse(config(serial_dir, reps=4))
    run_mse(config(par_dir, reps=4, jobs=2))
    assert (serial_dir / "mse.csv").read_bytes() == (par_dir / "mse.csv").read_bytes()


@pytest.mark.parametrize("jobs, reps, pool_sizes", [(64, 2, [2]), (8, 1, []), (2, 3, [2])])
def test_pool_has_no_more_workers_than_replications(tmp_path, monkeypatch, jobs, reps,
                                                     pool_sizes):
    # a forked pool starts all of its workers at once; this one starts none.
    # pool_sizes holds the size on a host with enough CPUs, and the pool
    # never has more workers than this process may run on
    import concurrent.futures
    cpus = len(os.sched_getaffinity(0))
    pool_sizes = [min(size, cpus) for size in pool_sizes if min(size, cpus) > 1]
    sizes, chunks = [], []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            chunks.append(chunksize)
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool, raising=False)
    serial_dir, pool_dir = tmp_path / "s", tmp_path / "p"
    serial_dir.mkdir(), pool_dir.mkdir()
    run_mse(config(serial_dir, reps=reps))
    run_mse(config(pool_dir, reps=reps, jobs=jobs))
    assert sizes == pool_sizes
    # one block of replications per worker
    assert chunks == [-(-reps // size) for size in pool_sizes]
    assert (serial_dir / "mse.csv").read_bytes() == (pool_dir / "mse.csv").read_bytes()


# The configs whose _fit_rep tasks the workers run, for their last experiment.
# The last config's parent runs the density experiment first, whose von Mises
# pdf loads scipy.special before the fork.
_WORKER_CONFIGS = [dict(density=spec, experiment=kind)
                   for spec in ("vonmises kappa=5", "wrappedcauchy gamma=0.8",
                                "wrappednormal rho=0.7", "uniform")
                   for kind in ("mse", "normality")]
_WORKER_CONFIGS.append(dict(density="vonmises kappa=5", experiment="density,normality"))


def _worker_threads(task):
    """_fit_rep of ``task`` in a pool worker, then the worker's thread count
    (None where /proc is absent)."""
    fit = _fit_rep(task)
    threads = "/proc/self/task"
    return fit, len(os.listdir(threads)) if os.path.isdir(threads) else None


def test_pool_workers_use_one_blas_thread(tmp_path):
    # this process has loaded scipy's OpenBLAS and started numpy's BLAS
    # threads; a forked worker inherits neither pool and its fits start none
    import scipy.special  # noqa: F401
    a = np.random.default_rng(0).standard_normal((512, 512))
    a @ a
    cfg = config(tmp_path, jobs=2, reps=50, experiment="normality")
    tasks = [(cfg, "normality", 200, r) for r in (0, 1)]
    workers = _map_reps(cfg, _worker_threads, tasks)
    for (fit, threads), task in zip(workers, tasks):
        serial = _fit_rep(task)
        assert fit.theta_hat == serial.theta_hat
        assert np.array_equal(fit.sigma_hat, serial.sigma_hat)
        if os.path.isdir("/proc/self/task"):
            assert threads == 1


def test_pool_workers_from_fresh_interpreter_use_one_blas_thread(tmp_path):
    # the fits load no scipy, so a plain forked worker runs one thread: no
    # scipy OpenBLAS starts its threads there, whatever the parent loaded
    script = textwrap.dedent(f"""\
        import json, os, sys
        from circmix import bench

        def probe(task):
            bench._fit_rep(task)
            scipy = sorted(m for m in sys.modules if m.startswith("scipy") and m not in inherited)
            threads = "/proc/self/task"
            return [scipy, len(os.listdir(threads)) if os.path.isdir(threads) else None]

        reports = []
        for values in {_WORKER_CONFIGS!r}:
            config = bench.ExperimentConfig.from_dict(dict(
                values, theta0="0.25,0.4,2.1", n="200", reps="50", seed="1", jobs="2",
                out={str(tmp_path)!r}))
            if "density" in config.experiments:
                bench.run_density_recon(config)
            inherited = {{m for m in sys.modules if m.startswith("scipy")}}
            kind = config.experiments[-1]
            reports.append(bench._map_reps(config, probe, [(config, kind, 200, r) for r in (0, 1)]))
        print(json.dumps(reports))
        """)
    path = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300, check=True)
    reports = json.loads(proc.stdout)
    assert len(reports) == len(_WORKER_CONFIGS)
    for values, workers in zip(_WORKER_CONFIGS, reports):
        for scipy, threads in workers:
            assert scipy == [], values
            if os.path.isdir("/proc/self/task"):
                assert threads == 1, values


# the floats that format oddly: signed zeros and infinities, nan, the smallest
# subnormal, a value near the largest double, and wide exponents
ODD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.8e308, -1.8e308, 0.1,
              2.5e-7, -123456.789, 1e16 / 3]


@pytest.mark.parametrize("rows", [0, 1, bench.ROW_BLOCK, bench.ROW_BLOCK + 1])
def test_writers_match_the_per_row_formatter(tmp_path, rows):
    rng = np.random.default_rng(rows)
    wide = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    floats = np.concatenate([ODD_FLOATS, wide])[:rows]
    columns = [floats, floats[::-1], rng.integers(-10 ** 15, 10 ** 15, rows),
               range(-(rows // 2), rows - rows // 2), floats > 0,
               [f"s{i}" if i % 3 else "" for i in range(rows)]]
    fmt = "%.5e,%.12g,%d,%d,%d,%s,50%% of 1.00000e+00"
    expected = format_rows(
        ["{:.5e}".format, "{:.12g}".format, str, str, lambda b: str(int(b)), str, str],
        [np.asarray(c).tolist() for c in columns] + [["50% of 1.00000e+00"] * rows])
    header = ["a", "b", "c", "d", "e", "f", "g"]
    path = tmp_path / "t.csv"
    bench.write_csv(str(path), header, fmt, columns)
    assert path.read_bytes() == ("a,b,c,d,e,f,g\n" + expected).encode()
    fh = io.StringIO()
    bench.write_rows(fh, fmt, columns)
    assert fh.getvalue() == expected


def test_mse_csv_schema(tmp_path):
    run_mse(config(tmp_path))
    header, row = (tmp_path / "mse.csv").read_text().splitlines()[:2]
    assert header == "density,n,reps,excluded,mse_p,mse_alpha_modpi,mse_beta_modpi"
    fields = row.split(",")
    assert fields[1] == "200"
    assert "e" in fields[4]  # scientific notation


def test_run_normality(tmp_path):
    cfg = config(tmp_path, reps=50, n="400")
    summaries, raw = run_normality(cfg)
    assert {s.coord for s in summaries} == {"p", "alpha", "beta"}
    errs, zs = raw[400]
    assert zs.shape[1] == 3
    assert len(zs) >= 45
    for s in summaries:
        assert abs(s.mean) < 1.5
        assert 0.2 < s.variance < 5.0
    lines = (tmp_path / "normality.csv").read_text().splitlines()
    assert lines[0] == "n,rep,err_p,err_alpha,err_beta,z_p,z_alpha,z_beta"


def test_run_normality_requires_reps():
    with pytest.raises(ExperimentError):
        run_normality(config(".", reps=10))


def test_run_density_recon(tmp_path):
    cfg = config(tmp_path, n="1000", reps=1, experiment="density")
    arrays, info = run_density_recon(cfg)
    x, f_true, f_hat, g_true, g_hat = arrays
    assert len(x) == 512
    assert info["l2_error_f"] < 0.05
    # the reconstructed mixture integrates to one
    assert abs(np.mean(g_hat) * 2 * np.pi - 1.0) < 1e-6
    lines = (tmp_path / "density.csv").read_text().splitlines()
    assert lines[0] == "x,f,f_hat,g,g_hat"
    assert len(lines) == 513


def test_density_recon_g_hat_is_the_shifted_estimate(tmp_path):
    # g_hat, folded from the g_hat_l, against p_hat f_hat(x - alpha_hat) +
    # (1 - p_hat) f_hat(x - beta_hat) summed term by term; the bound adds to the
    # fold's (1 + log2 512) eps the rounding of l * alpha and l * beta (in M^l
    # and in the oracle, up to 4 pi L eps) and of f_hat_l = g_hat_l / M^l, all
    # in units of sum_{|l|<=L} |f_hat_l| (1.05 of them measured here)
    cfg = config(tmp_path, density="wrappedcauchy gamma=0.8", n="1000", reps=1,
                 experiment="density", l_max=30)
    (_, _, _, _, g_hat), info = run_density_recon(cfg)
    _, fit, estimate = bench._fit_and_density(cfg, "density", cfg.penalty)
    level = estimate.level
    assert info["level"] == level >= 10
    half = estimate.coeffs.f_hat[:level + 1]
    exact = mixture_curve_exact(half, fit.theta_hat, 512)
    scale = abs(half[0]) + 2.0 * np.abs(half[1:]).sum()
    bound = (8 + math.log2(512) + 4 * math.pi * level) * np.finfo(float).eps * scale
    assert np.max(np.abs(g_hat - exact)) <= bound


def test_run_density_recon_uniform_flat(tmp_path):
    # this seed sits in the ~69% null event in which lambda_hat = 2 * slope
    # picks L = 0 (see criterion 8); a change to theta_hat may flip it, which
    # calls for a diagnosis, not a new seed
    cfg = config(tmp_path, density="uniform", n="1000", reps=1, experiment="density",
                 seed=3)
    arrays, info = run_density_recon(cfg)
    assert info["level"] == 0
    _, _, f_hat, _, g_hat = arrays
    assert np.allclose(f_hat, 1 / (2 * np.pi), atol=1e-12)
    assert np.allclose(g_hat, 1 / (2 * np.pi), atol=1e-12)


def test_run_slope(tmp_path):
    cfg = config(tmp_path, density="wrappedcauchy gamma=0.8", n="1000", reps=1,
                 experiment="slope", l_max=50)
    slope_fit, estimate = run_slope(cfg)
    assert slope_fit.slope > 0
    assert slope_fit.lambda_hat == pytest.approx(2 * slope_fit.slope)
    lines = (tmp_path / "slope.csv").read_text().splitlines()
    assert lines[0] == "L,penalty_shape,coeff_mass,in_window,slope,lambda_hat"
    assert len(lines) == 52


@pytest.mark.parametrize("kind", ["density", "slope"])
def test_density_and_slope_read_one_power_sum_pass(tmp_path, monkeypatch, kind):
    cfg = config(tmp_path, density="wrappedcauchy gamma=0.8", n="1000", reps=1,
                 experiment=kind, l_max=30)
    calls = []

    def counted(angles, m_max):
        calls.append(m_max)
        return power_sums(angles, m_max)

    power_sums = contrast.power_sums
    monkeypatch.setattr(contrast, "power_sums", counted)
    monkeypatch.setattr(npdens, "power_sums", counted)
    if kind == "density":
        _, info = run_density_recon(cfg)
        theta_hat, level, penalty = info["theta_hat"], info["level"], info["penalty"]
    else:
        slope_fit, estimate = run_slope(cfg)
        theta_hat, level, penalty = (estimate.coeffs.theta_used, estimate.level,
                                     slope_fit.lambda_hat)
    assert calls == [30]
    # the separate stages, each with its own pass, give the same numbers bit for
    # bit; the fit reads the same P_0..P_30 as the one pass, since above m = 8
    # power_sums may take the binned method, whose P_1..P_8 differ at rounding
    sample = sample_mixture(cfg.theta0, parse_density(cfg.density_spec), 1000,
                            _rep_rng(cfg, kind, 1000, 0))
    fit = estimate_theta(contrast.ContrastMoments(sample, 30),
                         cfg.fit_options(covariance=False))
    separate = estimate_density(sample, fit, l_max=30)
    assert theta_hat.as_array().tolist() == fit.theta_hat.as_array().tolist()
    assert (level, penalty) == (separate.level, separate.penalty)


@pytest.mark.parametrize("kinds, n, reps", [
    ("mse", "200,300", 4), ("normality", "1000", 50), ("mse,normality,density,slope", "1000", 50),
])
def test_tabulated_density_is_read_once_per_experiment(tmp_path, monkeypatch, kinds, n, reps):
    # the config parses its density once, however many sizes, replications
    # and experiments read it, rather than once per replication
    grid = tmp_path / "grid.txt"
    grid.write_text("".join(f"{x:.17g} {np.exp(1.5 * np.cos(x)) + 0.3:.17g}\n"
                            for x in np.linspace(0, 2 * np.pi, 64, endpoint=False)))
    from_text, calls = Tabulated.from_text.__func__, []

    def counted(cls, path, mu=0.0):
        calls.append(path)
        return from_text(cls, path, mu)

    monkeypatch.setattr(Tabulated, "from_text", classmethod(counted))
    cfg = config(tmp_path, density=f"tabulated path={grid}", n=n, reps=reps, experiment=kinds,
                 l_max=20)
    run_experiments(cfg)
    assert calls == [str(grid)]


def test_run_experiments_dispatch(tmp_path):
    cfg = config(tmp_path, n="300", reps=2, experiment="mse,slope")
    out = run_experiments(cfg)
    assert set(out) == {"mse", "slope"}
    assert (tmp_path / "mse.csv").exists()
    assert (tmp_path / "slope.csv").exists()


def test_bad_experiment_kind(tmp_path):
    with pytest.raises(ExperimentError):
        config(tmp_path, experiment="bogus")
