"""Command-line interface: flags, outputs, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circmix import (DomainError, EstimationError, FitOptions, MixtureParams, Tabulated,
                     VonMises, bench, cli, estimate_density, estimate_theta, normalize,
                     parse_density, penalty_floor, sample_mixture)
from circmix.cli import main
from circmix.contrast import POWER_SUM_CHUNK as CHUNK

THETA = "0.25,0.3927,2.0944"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_count_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out1, out2):
        code, _, _ = run(capsys, "simulate", "--density", "vonmises:kappa=5",
                         "--theta", THETA, "--n", "1000", "--seed", "7",
                         "--out", str(out))
        assert code == 0
    lines = out1.read_text().splitlines()
    assert len(lines) == 1000
    assert out1.read_bytes() == out2.read_bytes()
    values = np.array([float(v) for v in lines])
    assert np.all((values >= 0) & (values < 2 * np.pi))


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("density", ["vonmises:kappa=5", "wrappedcauchy:gamma=0.8",
                                     "wrappednormal:rho=0.7", "uniform"])
def test_simulate_writes_one_line_per_angle(tmp_path, capsys, density, n):
    # formatted and written a block at a time, the text is still each angle's
    # format(x, ".12g") on its own line
    angles = sample_mixture(MixtureParams(0.25, 0.3927, 2.0944), parse_density(density), n,
                            np.random.default_rng(11))
    expected = "".join(format(x, ".12g") + "\n" for x in angles)
    out = tmp_path / "s.txt"
    argv = ["simulate", "--density", density, "--theta", THETA, "--n", str(n), "--seed", "11"]
    assert run(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert out.read_bytes() == expected.encode()
    assert run(capsys, *argv, "--out", "-") == (0, expected, "")


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("density", ["wrappedcauchy:gamma=0.8", "vonmises:kappa=5"])
def test_simulate_memory_per_angle(tmp_path, density):
    # the sampler's arrays and one block of text; the whole text is ~90 B/angle
    n = 200_000
    args = cli.build_parser().parse_args(["simulate", "--density", density,
                                          "--theta", THETA, "--n", str(n), "--seed", "1",
                                          "--out", str(tmp_path / "s.txt")])
    peak, code = _peak_bytes(cli.cmd_simulate, args)
    assert code == 0
    assert peak / n <= 32, peak / n


@pytest.mark.parametrize("kappa", ["1e17", "1e200"])
def test_simulate_ends_at_large_kappa(kappa):
    # run in a subprocess with a timeout, so a sampler that never ends fails
    # the test instead of hanging it
    argv = ["simulate", "--density", f"vonmises kappa={kappa}", "--theta", THETA,
            "--n", "100", "--seed", "1"]
    proc = subprocess.run([sys.executable, "-m", "circmix.cli", *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    angles = np.array(proc.stdout.split(), dtype=float)
    assert len(angles) == 100
    assert np.isfinite(angles).all()


def test_read_angles_memory_per_angle(tmp_path):
    # the parsed column, normalized in place, and its flags; a copy is 8 B/angle more
    n, path = 200_000, tmp_path / "s.txt"
    path.write_text("\n".join(map(repr, np.random.default_rng(1).uniform(-7, 7, n).tolist())))
    peak, angles = _peak_bytes(cli._read_angles, str(path))
    assert len(angles) == n
    assert peak / n <= 12, peak / n


@pytest.mark.parametrize("extra", [[], ["1_0.5"]])
def test_read_angles_normalizes_like_normalize(tmp_path, extra):
    # in place, bit for bit: -0.0 becomes +0.0, 2*pi and the tiny negative
    # value that mod rounds up to 2*pi become 0.0; "1_0.5" takes the line loop
    path = tmp_path / "s.txt"
    for values in ([-1.5, 7.0, 2 * np.pi, -0.0, -1e-17, 0.0, 3.0, 4 * np.pi, -2 * np.pi, 1e300],
                   [-0.0, 1.0, 6.25]):
        path.write_text("".join(f"{v}\n" for v in values + extra))
        expected = normalize(np.array(values + [float(v) for v in extra]))
        assert cli._read_angles(str(path)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", ["0", "-3", "10000001", "1000000000000"])
def test_simulate_bad_n_is_a_usage_error(tmp_path, capsys, n):
    # checked with the other flags, before the sampler allocates
    out = tmp_path / "s.txt"
    code, stdout, err = run(capsys, "simulate", "--density", "uniform", "--theta", THETA,
                            "--n", n, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error:")
    assert not out.exists()


def test_simulate_rejects_large_p(capsys):
    code, _, err = run(capsys, "simulate", "--density", "uniform",
                       "--theta", "0.6,0.1,0.2", "--n", "10", "--seed", "1")
    assert code == 2
    assert "p must lie in" in err


def test_simulate_degrees(tmp_path, capsys):
    out = tmp_path / "deg.txt"
    code, _, _ = run(capsys, "simulate", "--density", "vonmises:kappa=50",
                     "--theta", "0.0,0,90", "--degrees", "--n", "400",
                     "--seed", "3", "--out", str(out))
    assert code == 0
    angles = np.array([float(v) for v in out.read_text().split()])
    mean_dir = np.angle(np.mean(np.exp(1j * angles)))
    assert abs(mean_dir - np.pi / 2) < 0.05


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(capsys, "simulate", "--密度", "uniform")
    assert code == 2


def test_fit_roundtrip(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "vonmises:kappa=5", "--theta", THETA,
        "--n", "1000", "--seed", "7", "--out", str(sample))
    code, out, err = run(capsys, "fit", "--in", str(sample), "--seed", "3")
    assert code == 0
    record = dict(line.split(" = ") for line in out.strip().splitlines())
    assert abs(float(record["p_hat"]) - 0.25) < 0.15
    assert abs(float(record["alpha_hat"]) - 0.3927) < 0.15
    assert abs(float(record["beta_hat"]) - 2.0944) < 0.15
    assert "se_p" in record


def test_fit_csv_format(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "wrappedcauchy:gamma=0.8", "--theta", THETA,
        "--n", "500", "--seed", "1", "--out", str(sample))
    code, out, _ = run(capsys, "fit", "--in", str(sample), "--seed", "2",
                       "--format", "csv", "--no-cov")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("n,p_hat,alpha_hat,beta_hat")
    assert row.split(",")[0] == "500"


def test_fit_csv_format_with_standard_errors(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "wrappedcauchy:gamma=0.8", "--theta", THETA,
        "--n", "500", "--seed", "1", "--out", str(sample))
    code, out, _ = run(capsys, "fit", "--in", str(sample), "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    fit = estimate_theta(np.loadtxt(sample))
    assert [record[f"se_{k}"] for k in ("p", "alpha", "beta")] == [
        f"{v:.5e}" for v in fit.std_errors]
    assert all(float(record[f"se_{k}"]) > 0 for k in ("p", "alpha", "beta"))


def test_fit_single_angle_fails(tmp_path, capsys):
    bad = tmp_path / "one.txt"
    bad.write_text("1.0\n")
    code, _, err = run(capsys, "fit", "--in", str(bad))
    assert code == 4
    assert "estimation" in err


def test_fit_missing_file(capsys):
    code, _, _ = run(capsys, "fit", "--in", "/nonexistent/sample.txt")
    assert code == 3


def test_fit_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnot-an-angle\n2.0\n")
    code, _, err = run(capsys, "fit", "--in", str(bad))
    assert code == 3
    assert "not a number" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_fit_non_finite_sample_is_input_error(tmp_path, capsys, value):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"1.0\n{value}\n2.0\n")
    code, _, err = run(capsys, "fit", "--in", str(bad))
    assert code == 3
    assert err == f"error: {bad}:2: not a finite number: {value!r}\n"


# Command lines that name a directory, or an existing file, where a file must be
# read or written; {dir} is a directory, {sample} a sample file, {cfg} a bench
# config whose out is that sample file and {file} a new file.
OS_ERROR_ARGV = {
    "simulate --out dir": ["simulate", "--density", "uniform", "--theta", THETA, "--n", "5",
                           "--out", "{dir}"],
    "fit --out dir": ["fit", "--in", "{sample}", "--no-cov", "--out", "{dir}"],
    "density --out dir": ["density", "--in", "{sample}", "--out", "{dir}"],
    "density --coeffs-out dir": ["density", "--in", "{sample}", "--out", "{file}",
                                 "--coeffs-out", "{dir}"],
    "density --true tabulated dir": ["density", "--in", "{sample}", "--out", "{file}",
                                     "--true", "tabulated path={dir}"],
    "slope --out dir": ["slope", "--in", "{sample}", "--out", "{dir}"],
    "ident --out dir": ["ident", "--theta", "0.4,0,2.0944", "--out", "{dir}"],
    "bench --config dir": ["bench", "--config", "{dir}"],
    "bench out = file": ["bench", "--config", "{cfg}"],
}


@pytest.mark.parametrize("case", sorted(OS_ERROR_ARGV))
def test_os_errors_exit_3(tmp_path, capsys, case):
    sample, cfg = tmp_path / "s.txt", tmp_path / "c.cfg"
    angles = sample_mixture(MixtureParams(0.25, 0.3927, 2.0944), VonMises(5.0), 300,
                            np.random.default_rng(2))
    sample.write_text("\n".join(map(repr, angles.tolist())))
    cfg.write_text(f"experiment = mse\ndensity = uniform\ntheta0 = {THETA}\n"
                   f"n = 100\nreps = 2\nseed = 5\nout = {sample}\n")
    names = dict(dir=tmp_path, sample=sample, cfg=cfg, file=tmp_path / "f.csv")
    code, _, err = run(capsys, *(arg.format(**names) for arg in OS_ERROR_ARGV[case]))
    assert code == 3
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("lmax, penalty", [(None, None), (5, 2.0), (30, None)])
def test_one_power_sum_pass_gives_the_two_pass_estimate(tmp_path, lmax, penalty):
    # density and slope read the fit and the coefficients from one pass
    angles = sample_mixture(MixtureParams(0.25, 0.3927, 2.0944), VonMises(5.0), 700,
                            np.random.default_rng(8))
    path = tmp_path / "s.txt"
    path.write_text("\n".join(map(repr, angles.tolist())))
    assert np.array_equal(cli._read_angles(str(path)), angles)  # the file holds them exactly
    level = [] if lmax is None else ["--lmax", str(lmax)]
    args = cli.build_parser().parse_args(["slope", "--in", str(path), "--out", "-", *level])
    one_pass = cli._fit_and_density(args, penalty)
    fit = estimate_theta(angles, cli._fit_options(args, covariance=False))
    two_pass = estimate_density(angles, fit, l_max=lmax, penalty=penalty)
    assert one_pass.coeffs.theta_used == two_pass.coeffs.theta_used
    assert np.array_equal(one_pass.coeffs.f_hat, two_pass.coeffs.f_hat)
    assert (one_pass.level, one_pass.penalty) == (two_pass.level, two_pass.penalty)


def _line_loop(path):
    """Reference reader: ``float`` of each stripped non-blank line, which must be finite."""
    with open(path) as fh:
        lines = [line.strip() for line in fh]
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
    return normalize(np.array(values))


def _outcome(read, path):
    try:
        return read(path).tolist()
    except (OSError, ValueError) as exc:  # the exception type sets the exit code
        return type(exc), str(exc)


ODD_FILES = [
    b"1.5\n\n2.5\n\n", b"  1.5  \n\t2.5\t\n   \n", b"1.5\r\n2.5\r\n\r\n",
    b"1_000\n2\n", b"1\n#\n2\n", b"1 # note\n", b"1 2\n3\n", b"1 2\n", b"1,2\n",
    b"nan\n1\n", b"inf\n", b"0.5", b"-7.25\n", b"", b"\n\n", b"1\n\x0c\n2\n",
    b"+1e-3\n.5\n-0\n", b"1.0\n2.0 3.0\n", b"abc\n", "\u0661\u0662\n".encode(),
]


@pytest.mark.parametrize("content", ODD_FILES)
def test_read_angles_matches_line_loop(tmp_path, content):
    # the fast parser must accept, reject and report exactly as the line loop
    path = tmp_path / "s.txt"
    path.write_bytes(content)
    assert _outcome(cli._read_angles, str(path)) == _outcome(_line_loop, str(path))


def test_density_floor_diagnostic_follows_pmax(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "vonmises:kappa=5", "--theta", THETA,
        "--n", "1000", "--seed", "7", "--out", str(sample))
    code, out, _ = run(capsys, "density", "--in", str(sample), "--pmax", "0.3",
                       "--out", str(tmp_path / "d.csv"))
    assert code == 0
    assert f"lambda_floor_diagnostic = {penalty_floor(0.3):.6g} " in out


def test_fit_output_ignores_seed(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "vonmises:kappa=5", "--theta", THETA,
        "--n", "500", "--seed", "7", "--out", str(sample))
    outputs = []
    for seed in ("1", "1", "2"):
        code, out, _ = run(capsys, "fit", "--in", str(sample), "--seed", seed)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("flags", [
    ("fit", "--box", "a,b,c,d,e,f"),
    ("fit", "--box", "0.01,0.49,2,1,2,1"),
    ("density", "--lambda", "abc"),
    ("density", "--grid", "-3"),
    ("density", "--grid", "0"),
    ("density", "--lambda", "nan"),
    ("density", "--lambda", "inf"),
    ("density", "--pmax", "0.5"),
    ("density", "--pmax", "0.6"),
    ("slope", "--pmax", "0.5"),
    ("fit", "--pmax", "0"),
    ("density", "--lmax", "-1"),
    ("slope", "--lmax", "1000000000000"),
    ("fit", "--pmax", "inf"),
    ("fit", "--pmax", "2"),
    ("fit", "--box", "0.01,0.49,0,inf,0,inf"),
    ("fit", "--box", "0.01,0.49,-inf,1,-inf,1"),
    ("density", "--grid", "1000001"),
    ("density", "--grid", "1000000000000"),
])
def test_bad_fit_flags_are_usage_errors(tmp_path, capsys, flags):
    # flags are checked before the file is read, so a one-angle file, which
    # estimation rejects with exit 4, still gives exit 2
    command, *rest = flags
    if command in ("density", "slope"):
        rest += ["--out", str(tmp_path / "d.csv")]
    for n in (200, 1):
        sample = tmp_path / f"s{n}.txt"
        run(capsys, "simulate", "--density", "vonmises:kappa=5", "--theta", THETA,
            "--n", str(n), "--seed", "7", "--out", str(sample))
        code, _, err = run(capsys, command, "--in", str(sample), *rest)
        assert code == 2, n
        assert err.startswith("error:")


def test_density_box_sets_the_weight_floor(tmp_path, capsys):
    # the density stage bounds |M^l| by the p_max the fit searched up to,
    # which --box sets over --pmax
    sample = tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "vonmises:kappa=5", "--theta", THETA,
        "--n", "200", "--seed", "7", "--out", str(sample))
    outs = []
    for pmax in ("0.1", "0.49"):
        code, out, err = run(capsys, "density", "--in", str(sample), "--pmax", pmax,
                             "--box", "0.01,0.49,0,3.14,0,3.14",
                             "--out", str(tmp_path / f"d{pmax}.csv"))
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert f"lambda_floor_diagnostic = {penalty_floor(0.49):.6g} " in outs[0]
    assert (tmp_path / "d0.1.csv").read_bytes() == (tmp_path / "d0.49.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(density=st.sampled_from(["vonmises:kappa=5", "wrappedcauchy:gamma=0.8", "uniform"]),
       p=st.floats(0.0, 0.5, exclude_max=True),
       alpha=st.floats(-7.0, 7.0), beta=st.floats(-7.0, 7.0),
       n=st.integers(1, 2000),
       pmax=st.sampled_from(["0.3", "0.49", "0.5", "0.6"]),
       penalty=st.sampled_from(["slope", "1", "nan", "-1"]),
       lmax=st.sampled_from([None, "0", "7", "30"]))
def test_cli_round_trip_exits_with_a_documented_code(density, p, alpha, beta, n, pmax,
                                                     penalty, lmax):
    # simulate, then fit, density and slope on the file: every call ends in
    # a documented exit code and none raises
    documented = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_INPUT, cli.EXIT_ESTIMATION,
                  cli.EXIT_INFERENCE, cli.EXIT_EXPERIMENT}
    level = [] if lmax is None else ["--lmax", lmax]
    with tempfile.TemporaryDirectory() as work, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sample = os.path.join(work, "s.txt")
        assert main(["simulate", "--density", density, "--theta", f"{p!r},{alpha!r},{beta!r}",
                     "--n", str(n), "--seed", "1", "--out", sample]) == cli.EXIT_OK
        flags = ["--in", sample, "--seed", "1", "--pmax", pmax]
        codes = [main(["fit", *flags]),
                 main(["density", *flags, *level, "--lambda", penalty,
                       "--out", os.path.join(work, "d.csv")]),
                 main(["slope", *flags, *level, "--out", os.path.join(work, "sl.csv")])]
    assert set(codes) <= documented, codes


def test_density_large_kappa_truth(tmp_path, capsys):
    # I_0(1000) overflows a double; the tabulated truth must not
    sample = tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "vonmises:kappa=1000", "--theta", THETA,
        "--n", "500", "--seed", "7", "--out", str(sample))
    out_csv = tmp_path / "d.csv"
    code, _, err = run(capsys, "density", "--in", str(sample), "--out", str(out_csv),
                       "--true", "vonmises:kappa=1000")
    assert code == 0, err
    values = np.array([[float(v) for v in line.split(",")]
                       for line in out_csv.read_text().splitlines()[1:]])
    assert np.all(np.isfinite(values))


def test_density_truth_ends_at_rho_next_to_one(tmp_path, capsys):
    # its Fourier series needs ~6e8 terms; run in a subprocess with a timeout,
    # so a pdf that never ends fails the test instead of hanging it
    sample = tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "vonmises:kappa=5", "--theta", THETA,
        "--n", "500", "--seed", "7", "--out", str(sample))
    out_csv = tmp_path / "d.csv"
    argv = ["density", "--in", str(sample), "--out", str(out_csv),
            "--true", "wrappednormal rho=0.9999999999999999"]
    proc = subprocess.run([sys.executable, "-m", "circmix.cli", *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    f_true = np.array([float(line.split(",")[2])
                       for line in out_csv.read_text().splitlines()[1:]])
    # sigma = 1.5e-8, so every grid point but x = 0 lies beyond 1e5 sigma
    assert f_true[0] == pytest.approx(1.0 / (1.4901161193847656e-08 * math.sqrt(2 * math.pi)),
                                      rel=1e-5)
    assert np.all(f_true[1:] == 0.0)


def test_density_tabulated_truth_just_below_two_pi(tmp_path, capsys):
    # mu is curve point 21 of 512, so one point sits just below 2*pi on the 24-point table
    grid = np.linspace(0.0, 2 * np.pi, 24, endpoint=False)
    table = tmp_path / "t.txt"
    np.savetxt(table, np.column_stack([grid, 1.0 + 0.5 * np.cos(grid)]))
    sample = tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "vonmises:kappa=5", "--theta", THETA,
        "--n", "500", "--seed", "7", "--out", str(sample))
    out_csv = tmp_path / "d.csv"
    code, _, err = run(capsys, "density", "--in", str(sample), "--out", str(out_csv),
                       "--true", f"tabulated path={table} mu=0.25770877236478823")
    assert code == 0, err
    f_true = [float(line.split(",")[2]) for line in out_csv.read_text().splitlines()[1:]]
    assert len(f_true) == 512 and np.all(np.isfinite(f_true))


def test_fit_near_degenerate_warning(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "vonmises:kappa=5",
        "--theta", "0.35,0.5,2.5944", "--n", "800", "--seed", "5",
        "--out", str(sample))
    code, _, err = run(capsys, "fit", "--in", str(sample), "--seed", "1", "--no-cov")
    assert code == 0
    assert "near-degenerate" in err


def test_density_uniform_reports_level_zero(tmp_path, capsys):
    # this seed sits in the ~69% null event in which lambda_hat = 2 * slope
    # picks L = 0 (see criterion 8); a change to theta_hat may flip it, which
    # calls for a diagnosis, not a new seed
    sample = tmp_path / "u.txt"
    run(capsys, "simulate", "--density", "uniform", "--theta", THETA,
        "--n", "1000", "--seed", "4", "--out", str(sample))
    out_csv = tmp_path / "d.csv"
    code, out, _ = run(capsys, "density", "--in", str(sample), "--seed", "2",
                       "--out", str(out_csv))
    assert code == 0
    assert "L_hat = 0" in out


def test_density_bad_true_is_a_usage_error_whatever_the_sample(tmp_path, capsys):
    one = tmp_path / "one.txt"
    one.write_text("1.0\n")
    code, _, err = run(capsys, "density", "--in", str(one), "--true", "bogus",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert err == "error: unknown density kind 'bogus'\n"


def test_density_bad_true_exits_before_the_fit(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("the fit ran")

    monkeypatch.setattr(cli, "estimate_theta", no_fit)
    sample = tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "vonmises:kappa=5", "--theta", THETA,
        "--n", "300", "--seed", "7", "--out", str(sample))
    out_csv = tmp_path / "x.csv"
    code, _, err = run(capsys, "density", "--in", str(sample), "--true", "vonmises kappa",
                       "--out", str(out_csv))
    assert code == 2
    assert err.startswith("error: malformed density parameter ")
    assert not out_csv.exists()


def test_density_outputs(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "vonmises:kappa=5", "--theta", THETA,
        "--n", "1000", "--seed", "7", "--out", str(sample))
    out_csv, coeffs_csv = tmp_path / "d.csv", tmp_path / "c.csv"
    code, out, _ = run(capsys, "density", "--in", str(sample), "--seed", "3",
                       "--out", str(out_csv), "--coeffs-out", str(coeffs_csv),
                       "--true", "vonmises:kappa=5")
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "x,f_hat,f"
    assert len(lines) == 513
    assert coeffs_csv.read_text().splitlines()[0] == "l,re_f_hat,im_f_hat"
    assert "lambda =" in out


def _peak_above_start(fn, *args):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


def test_density_stage_memory_per_level(tmp_path, capsys):
    # the half spectrum and the slope couples as arrays, and the per-level CSVs
    # written a block of rows at a time: mirrored coefficients, lists of couples
    # and whole row lists took 376, 373 and 964 B/level here, and a mirrored
    # spectrum built as one array 117 B/level
    l_max, sample = 200_000, tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "vonmises:kappa=5", "--theta", THETA,
        "--n", "1000", "--seed", "7", "--out", str(sample))
    angles = cli._read_sample(str(sample))
    fit = estimate_theta(angles, FitOptions(compute_covariance=False))
    peak, estimate = _peak_above_start(estimate_density, angles, fit, l_max)
    assert peak / l_max <= 128, peak / l_max
    peak, _ = _peak_above_start(bench.write_slope_csv, str(tmp_path / "slope.csv"),
                                estimate.slope_fit)
    assert peak / l_max <= 128, peak / l_max
    coeffs_csv = tmp_path / "c.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        peak, code = _peak_above_start(main, ["density", "--in", str(sample), "--lmax",
                                              str(l_max), "--out", str(tmp_path / "d.csv"),
                                              "--coeffs-out", str(coeffs_csv)])
    assert code == 0
    assert peak / l_max <= 104, peak / l_max
    with open(coeffs_csv) as fh:
        first, last = next(fh), None
        for last in fh:
            pass
    assert first == "l,re_f_hat,im_f_hat\n" and last.startswith(f"{l_max},")


def test_density_curve_memory_per_point(tmp_path, capsys):
    # the grid, the estimate and the true density as arrays, and the rows
    # formatted a block at a time (109 B/point here): rows formatted from
    # whole-column lists took 189 B/point
    points, sample = 200_000, tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "vonmises:kappa=5", "--theta", THETA,
        "--n", "1000", "--seed", "7", "--out", str(sample))
    with contextlib.redirect_stdout(io.StringIO()):
        peak, code = _peak_above_start(main, ["density", "--in", str(sample), "--grid",
                                              str(points), "--true", "vonmises:kappa=5",
                                              "--out", str(tmp_path / "d.csv")])
    assert code == 0
    assert peak / points <= 120, peak / points


def test_slope_command(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "wrappedcauchy:gamma=0.8", "--theta", THETA,
        "--n", "1000", "--seed", "9", "--out", str(sample))
    out_csv = tmp_path / "slope.csv"
    code, out, _ = run(capsys, "slope", "--in", str(sample), "--seed", "2",
                       "--lmax", "50", "--out", str(out_csv))
    assert code == 0
    assert "lambda_hat" in out
    assert len(out_csv.read_text().splitlines()) == 52


@pytest.mark.parametrize("command, header, summary", [
    (["density", "--grid", "16"], "x,f_hat", "L_hat = "),
    (["density", "--grid", "16", "--true", "vonmises:kappa=5"], "x,f_hat,f", "L_hat = "),
    (["slope"], "L,penalty_shape,coeff_mass,in_window,slope,lambda_hat", "slope = "),
])
def test_dash_out_writes_the_csv_then_the_summary_to_stdout(tmp_path, monkeypatch, capsys,
                                                            command, header, summary):
    monkeypatch.chdir(tmp_path)
    run(capsys, "simulate", "--density", "vonmises:kappa=5", "--theta", THETA,
        "--n", "500", "--seed", "7", "--out", "s.txt")
    code, out, _ = run(capsys, *command, "--in", "s.txt", "--out", "-")
    assert code == 0
    assert out.splitlines()[0] == header
    code, summary_only, _ = run(capsys, *command, "--in", "s.txt", "--out", "file.csv")
    assert code == 0
    assert out == (tmp_path / "file.csv").read_text() + summary_only
    assert summary_only.startswith(summary)
    assert sorted(os.listdir(tmp_path)) == ["file.csv", "s.txt"]


def test_dash_coeffs_out_and_ident_out_write_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(capsys, "simulate", "--density", "vonmises:kappa=5", "--theta", THETA,
        "--n", "500", "--seed", "7", "--out", "s.txt")
    code, out, _ = run(capsys, "density", "--in", "s.txt", "--lmax", "10", "--out", "d.csv",
                       "--coeffs-out", "-")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "l,re_f_hat,im_f_hat"
    assert [line.split(",")[0] for line in lines[1:22]] == [str(l) for l in range(-10, 11)]
    code, out, _ = run(capsys, "ident", "--theta", "0.4,0,2.0944", "--out", "-")
    assert code == 0
    assert "kind,p_prime,alpha_prime,beta_prime,residual\nLabelSwitchOnly," in out
    assert sorted(os.listdir(tmp_path)) == ["d.csv", "s.txt"]


@pytest.mark.parametrize("spec, message", [
    ("vonmises kappa=5 mu=nan", "mu must be finite, got nan"),
    ("wc gamma=0.8 mu=-inf", "mu must be finite, got -inf"),
    ("vonmises kappa=5 kappa=50", "repeated density parameter 'kappa'"),
    ("wn rho=1", "rho must lie in [0, 1), got 1.0"),
])
def test_bad_density_spec_is_a_usage_error(tmp_path, capsys, spec, message):
    sample = tmp_path / "s.txt"
    run(capsys, "simulate", "--density", "uniform", "--theta", THETA, "--n", "100",
        "--out", str(sample))
    for argv in (["simulate", "--density", spec, "--theta", THETA, "--n", "10"],
                 ["density", "--in", str(sample), "--true", spec,
                  "--out", str(tmp_path / "d.csv")],
                 ["ident", "--theta", THETA, "--density", spec]):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv
    assert not (tmp_path / "d.csv").exists()


def test_ident_case4(capsys):
    code, out, _ = run(capsys, "ident", "--theta", "0.4,0,2.0944")
    assert code == 0
    assert "tag = TwoPiOverThree" in out
    assert "p'=0.25" in out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_ident_bad_tol_is_usage_error(capsys, tol):
    code, out, err = run(capsys, "ident", "--theta", "0.3,0,0", "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_ident_with_density_residuals(tmp_path, capsys):
    out_csv = tmp_path / "w.csv"
    code, out, _ = run(capsys, "ident", "--theta", "0.3,0,3.14159265",
                       "--density", "vonmises:kappa=2", "--out", str(out_csv))
    assert code == 0
    assert "tag = Bipolar" in out
    assert "residual" in out
    header = out_csv.read_text().splitlines()[0]
    assert header == "kind,p_prime,alpha_prime,beta_prime,residual"


def test_bench_cli_determinism(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "experiment = mse\ndensity = vonmises kappa=5\n"
        f"theta0 = {THETA}\nn = 200\nreps = 3\nseed = 5\n")
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        code, out, _ = run(capsys, "bench", "--config", str(cfg), "--out", str(d))
        assert code == 0
        assert "mse:" in out
    assert (d1 / "mse.csv").read_bytes() == (d2 / "mse.csv").read_bytes()


def test_bench_prints_a_summary_of_every_experiment(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = normality,density,slope\ndensity = wrappedcauchy gamma=0.8\n"
                   f"theta0 = {THETA}\nn = 1000\nreps = 50\nseed = 5\nl_max = 30\n")
    code, out, _ = run(capsys, "bench", "--config", str(cfg), "--out", str(tmp_path / "r"))
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["normality"] * 3 + ["density", "slope"]
    assert [line.split()[2] for line in lines[:3]] == ["coord=p", "coord=alpha", "coord=beta"]
    assert re.fullmatch(r"normality: n=1000 coord=p mean=\S+ var=\S+ skew=\S+ reps=\d+",
                        lines[0])
    assert lines[3].startswith("density: L_hat=") and " l2_error_f=" in lines[3]
    assert lines[4].startswith("slope: a=") and " lambda_hat=" in lines[4]
    assert sorted(os.listdir(tmp_path / "r")) == ["density.csv", "normality.csv", "slope.csv"]


def test_bench_failed_replications_exit_6_and_write_no_mse_csv(tmp_path, capsys, monkeypatch):
    def fail(sample, options):
        raise EstimationError("no polish converged")

    monkeypatch.setattr(cli.bench, "estimate_theta", fail)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = mse\ndensity = uniform\ntheta0 = {THETA}\n"
                   "n = 100\nreps = 4\nseed = 5\n")
    out = tmp_path / "r"
    code, stdout, err = run(capsys, "bench", "--config", str(cfg), "--out", str(out))
    assert (code, stdout) == (6, "")
    assert err == "experiment error: 4/4 replications failed at n=100\n"
    assert not (out / "mse.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_reads_a_tabulated_density_once(tmp_path, capsys, monkeypatch, jobs):
    # the config checks the density when it is read, and --out and --jobs
    # rebuild the config: the file is read once all the same
    grid = tmp_path / "grid.txt"
    angles = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    np.savetxt(grid, np.column_stack([angles, np.exp(1.5 * np.cos(angles)) + 0.3]))
    from_text, calls = Tabulated.from_text.__func__, []

    def counted(cls, path, mu=0.0):
        calls.append(path)
        return from_text(cls, path, mu)

    monkeypatch.setattr(Tabulated, "from_text", classmethod(counted))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = mse,slope\ndensity = tabulated path={grid}\n"
                   f"theta0 = {THETA}\nn = 300\nreps = 4\nseed = 5\nl_max = 20\n")
    code, out, _ = run(capsys, "bench", "--config", str(cfg), "--out", str(tmp_path / "r"),
                       "--jobs", jobs)
    assert code == 0
    assert out.startswith("mse: density=tabulated n=64 mu=0 n=300 ")
    assert calls == [str(grid)]


@pytest.mark.parametrize("angles", [
    np.full(16, 1.0),                                       # step 0
    np.linspace(0.0, np.pi, 16, endpoint=False),            # a uniform grid over [0, pi)
    np.linspace(0.0, 2 * np.pi, 16, endpoint=False) + 1.0,  # the 2 pi/16 grid, shifted
], ids=["equal", "half-circle", "shifted"])
def test_tabulated_grid_other_than_2pi_j_over_n_is_refused(tmp_path, capsys, angles):
    # the values are placed at 2 pi j / N, so any other grid would misplace them
    grid = tmp_path / "grid.txt"
    np.savetxt(grid, np.column_stack([angles, 1.0 + np.cos(angles)]))
    with pytest.raises(DomainError, match=r"2\*pi\*j/16: from 0 in steps of 0\.392699081699"):
        Tabulated.from_text(grid)
    code, stdout, err = run(capsys, "ident", "--theta", "0.4,0,2.0944",
                            "--density", f"tabulated path={grid}")
    assert (code, stdout) == (2, "") and err.startswith("error: tabulated grid")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = mse\ndensity = tabulated path={grid}\n"
                   f"theta0 = {THETA}\nn = 100\nreps = 2\nseed = 5\n")
    code, stdout, err = run(capsys, "bench", "--config", str(cfg), "--out", str(tmp_path / "r"))
    assert (code, stdout) == (6, "") and "key 'density' is out of range" in err
    assert not (tmp_path / "r").exists()


def test_bench_missing_tabulated_file_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = mse\ndensity = tabulated path={tmp_path / 'none.txt'}\n"
                   f"theta0 = {THETA}\nn = 100\nreps = 2\nseed = 5\n")
    out = tmp_path / "r"
    code, stdout, err = run(capsys, "bench", "--config", str(cfg), "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err.startswith("error: ") and "none.txt" in err
    assert not out.exists()


def test_bench_requires_seed(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = mse\ndensity = uniform\ntheta0 = {THETA}\n"
                   "n = 100\nreps = 2\n")
    code, _, err = run(capsys, "bench", "--config", str(cfg))
    assert code == 6
    assert "unseeded" in err


@pytest.mark.parametrize("experiments", [",", ""])
def test_bench_empty_experiment_list(tmp_path, capsys, experiments):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = {experiments}\ndensity = uniform\ntheta0 = {THETA}\n"
                   "n = 100\nreps = 2\nseed = 5\n")
    out = tmp_path / "r"
    code, stdout, err = run(capsys, "bench", "--config", str(cfg), "--out", str(out))
    assert (code, stdout) == (6, "")
    assert "no experiments" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("n", "100,x"), ("n", "abc"), ("reps", "abc"), ("seed", "abc"), ("jobs", "abc"),
    ("l_max", "abc"), ("p_max", "abc"), ("lambda", "abc"),
    ("theta0", "a,b,c"), ("theta0", "0.25,0.39"), ("theta0", "0.25,0.39,2.09,1"),
])
def test_bench_bad_config_value_names_key_and_file(tmp_path, capsys, key, value):
    values = dict(experiment="mse", density="uniform", theta0=THETA, n="100", reps="2",
                  seed="5")
    values[key] = value
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    code, out, err = run(capsys, "bench", "--config", str(cfg), "--out", str(tmp_path / "r"))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {cfg}: key {key!r} must be ")
    assert err.endswith(f", got {value!r}\n")


@pytest.mark.parametrize("value", ["2,0,1", "-0.1,0,1", "0.2,inf,1"])
def test_bench_theta0_out_of_range_names_key_and_file(tmp_path, capsys, value):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = mse\ndensity = uniform\ntheta0 = {value}\n"
                   "n = 100\nreps = 2\nseed = 5\n")
    out = tmp_path / "r"
    code, stdout, err = run(capsys, "bench", "--config", str(cfg), "--out", str(out))
    assert (code, stdout) == (6, "")
    assert err.startswith(f"experiment error: {cfg}: key 'theta0' is out of range, "
                          f"got {value!r}: ")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("p_max", "0.7"), ("p_max", "nan"), ("l_max", "-1"), ("l_max", "1000000000000"),
    ("lambda", "-1"), ("lambda", "nan"), ("n", "1000000000000"), ("n", "100,10000001"),
    ("density", "vonmises kappa=-1"), ("density", "vonmises kappa=5 mu=nan"),
    ("reps", "0"), ("reps", str(cli.bench.REPS_LIMIT + 1)), ("n", "1"), ("n", "100,100"),
    ("jobs", "0"), ("seed", "-1"), ("experiment", "mse,mse"),
    ("theta0", "0.75,2.0944,0.3927"),
])
def test_bench_setting_out_of_range_names_key_and_file(tmp_path, capsys, key, value):
    # checked with the config, before any experiment runs or writes its file
    values = dict(experiment="mse,density", density="uniform", theta0=THETA, n="100",
                  reps="2", seed="5")
    values[key] = value
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    out = tmp_path / "r"
    code, stdout, err = run(capsys, "bench", "--config", str(cfg), "--out", str(out))
    assert (code, stdout) == (6, "")
    assert err.startswith(f"experiment error: {cfg}: key {key!r} is out of range, "
                          f"got {value!r}: ")
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "2"])
def test_bench_fit_p_max_out_of_range_names_key_and_file(tmp_path, capsys, value):
    # with no density stage listed, the fit's own box check rejects the value
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = mse\ndensity = uniform\ntheta0 = {THETA}\n"
                   f"n = 100\nreps = 2\nseed = 5\np_max = {value}\n")
    out = tmp_path / "r"
    code, stdout, err = run(capsys, "bench", "--config", str(cfg), "--out", str(out))
    assert (code, stdout) == (6, "")
    assert err.startswith(f"experiment error: {cfg}: key 'p_max' is out of range, "
                          f"got {value!r}: fit box ")
    assert not out.exists()


@pytest.mark.parametrize("experiments, sizes, reps, message", [
    ("mse,density", "200,400", "2", "density experiments use a single sample size"),
    ("mse,slope", "200,400", "2", "slope experiments use a single sample size"),
    ("mse,normality", "200", "20", "normality experiments need reps >= 50"),
])
def test_bench_experiment_rules_checked_with_the_config(tmp_path, capsys, experiments, sizes,
                                                        reps, message):
    # refused before any experiment runs, so mse writes no mse.csv; the
    # message names the key that the rule constrains
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = {experiments}\ndensity = uniform\ntheta0 = {THETA}\n"
                   f"n = {sizes}\nreps = {reps}\nseed = 5\n")
    out = tmp_path / "r"
    code, stdout, err = run(capsys, "bench", "--config", str(cfg), "--out", str(out))
    assert (code, stdout) == (6, "")
    key, value = ("reps", reps) if "reps" in message else ("n", sizes)
    assert err == (f"experiment error: {cfg}: key {key!r} is out of range, got {value!r}: "
                   f"{message}\n")
    assert not out.exists()


def test_bench_repeated_config_key_names_key_and_file(tmp_path, capsys):
    # the last of a repeated key is not silently kept
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = mse\ndensity = uniform\ntheta0 = {THETA}\n"
                   "n = 100\nreps = 2\nseed = 5\nN = 200\n")
    out = tmp_path / "r"
    code, stdout, err = run(capsys, "bench", "--config", str(cfg), "--out", str(out))
    assert (code, stdout) == (6, "")
    assert err == (f"experiment error: {cfg}: key 'n' is out of range, got '200': "
                   "a key may appear once; it is '100' above\n")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_bench_jobs_below_one(tmp_path, capsys, jobs):
    # the flag is a usage error, checked before the config is read; in the
    # config file it is an experiment error
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = mse\ndensity = uniform\ntheta0 = {THETA}\n"
                   "n = 100\nreps = 2\nseed = 5\n")
    for path in (cfg, tmp_path / "missing.cfg"):
        code, _, err = run(capsys, "bench", "--config", str(path), "--jobs", jobs,
                           "--out", str(tmp_path / "r"))
        assert code == 2
        assert err.startswith("error:")
    cfg.write_text(cfg.read_text() + f"jobs = {jobs}\n")
    code, _, err = run(capsys, "bench", "--config", str(cfg), "--out", str(tmp_path / "r"))
    assert code == 6
    assert "jobs" in err
    assert not (tmp_path / "r").exists()


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _fresh_interpreter(module, argv=None, prefixes=("scipy",)):
    """Import ``module`` in a fresh interpreter and, given ``argv``, run
    ``cli.main(argv)`` there with its output discarded.  Returns the exit code
    (None without argv) and the sorted names of the loaded modules that start
    with one of ``prefixes``, scipy's by default."""
    script = textwrap.dedent(f"""\
        import contextlib, io, json, sys
        import {module}
        code = None
        if {argv!r} is not None:
            from circmix.cli import main
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = main({argv!r})
        print(json.dumps([code, sorted(m for m in sys.modules if m.startswith({prefixes!r}))]))
        """)
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return tuple(json.loads(proc.stdout))


@pytest.mark.parametrize("module, argv, expected_code", [
    ("circmix", None, None),
    ("circmix.cli", None, None),
    ("circmix.cli", ["simulate", "--density", "vonmises:kappa=5", "--theta", THETA,
                     "--n", "100", "--seed", "1"], 0),
    ("circmix.cli", ["simulate", "--density", "wrappedcauchy:gamma=0.8", "--theta", THETA,
                     "--n", "100", "--seed", "1"], 0),
    ("circmix.cli", ["ident", "--theta", "0.4,0,2.0944"], 0),
    ("circmix.cli", ["--help"], 0),
    ("circmix.cli", ["fit", "--pmax", "x"], 2),
], ids=["import-circmix", "import-cli", "simulate-vm", "simulate-wc", "ident", "help",
        "bad-flag"])
def test_commands_that_do_not_fit_load_no_scipy(module, argv, expected_code):
    # scipy's import is most of a command's start-up, so it loads only where
    # a von Mises pdf or coefficient needs it
    assert _fresh_interpreter(module, argv) == (expected_code, [])


@pytest.mark.parametrize("spec", ["vonmises:kappa=5", "wrappedcauchy:gamma=0.8"])
def test_fit_loads_no_scipy(tmp_path, spec):
    # the polish is numpy's: a fit needs neither scipy.optimize nor, without a
    # von Mises pdf or coefficient, any other part of scipy
    path = tmp_path / "s.txt"
    angles = sample_mixture(MixtureParams(0.25, 0.3927, 2.0944), parse_density(spec), 500,
                            np.random.default_rng(3))
    np.savetxt(path, angles)
    assert _fresh_interpreter("circmix.cli", ["fit", "--in", str(path)]) == (0, [])


_PROCESS_POOL = ("multiprocessing", "concurrent.futures.process")


def test_only_bench_with_jobs_loads_the_process_pool(tmp_path):
    # every command would pay the pool's import (multiprocessing, socket,
    # subprocess), which only bench with more than one worker needs
    sample, cfg = tmp_path / "s.txt", tmp_path / "c.cfg"
    np.savetxt(sample, sample_mixture(MixtureParams(0.25, 0.3927, 2.0944),
                                      parse_density("vonmises:kappa=5"), 300,
                                      np.random.default_rng(3)))
    cfg.write_text(f"experiment = mse\ndensity = uniform\ntheta0 = {THETA}\n"
                   "n = 100\nreps = 2\nseed = 5\n")
    bench = ["bench", "--config", str(cfg), "--out", str(tmp_path / "r")]
    for argv in (None,
                 ["simulate", "--density", "wrappedcauchy:gamma=0.8", "--theta", THETA,
                  "--n", "100", "--seed", "1"],
                 ["fit", "--in", str(sample)],
                 bench + ["--jobs", "1"]):
        expected = (None if argv is None else 0, [])
        assert _fresh_interpreter("circmix.cli", argv, _PROCESS_POOL) == expected, argv
    code, modules = _fresh_interpreter("circmix.cli", bench + ["--jobs", "2"], _PROCESS_POOL)
    assert code == 0
    # two workers only where this process may run on two CPUs
    assert ("concurrent.futures.process" in modules) == (len(os.sched_getaffinity(0)) > 1)
