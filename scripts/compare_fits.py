"""Fit the same seeded samples with two source trees and compare the minima.

    python3 scripts/compare_fits.py PARENT_SRC CHANGE_SRC [--seed 2301] [--reps 42]

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a
``circmix`` package.  Each setting runs in one child process per tree, which
imports only that tree; the parent's child goes first at even settings and
the change's at odd ones, so that run order does not favour one tree's fit
times.  The child draws every sample with its own ``sample_mixture`` from
``SeedSequence([seed, setting, n, rep])`` and fits it with
``estimate_theta(..., FitOptions(compute_covariance=False))``.  The settings
are von Mises kappa=5, wrapped Cauchy gamma=0.8 and wrapped normal rho=0.7
at theta = (0.25, pi/8, 2pi/3), and von Mises kappa=5 at the collapsed
(0, 0.3, 2.1), the near-2pi/3 (0.35, 0.5, 0.5 + 2pi/3) and the p = 0.45
(0.45, pi/8, 2pi/3) theta; each at n = 300, 1000, 2e4 and 2e5, with
``--reps`` samples per cell (42 gives 1008 fits).

The child counts, per fit, the ``ContrastMoments._scan`` calls with and
without the Hessian and the ``ContrastMoments.profile_p`` calls, whatever
public method or polish made them.  Each fit is timed without the counters
and then run again to count; then ``asymptotic_cov`` gives the standard
errors at theta_hat, or refuses them.  The report gives the largest rise and
fall of n S_n at the fit (change minus parent), how far theta_hat moved,
the failed fits, and per cell the largest relative change in the standard
errors, the fits whose standard errors only one tree refused, the polishes,
Hessian scans, value scans, p-profile passes and the median fit time of each
tree.  Exits 1 if any n S_n rises by more than 1e-12, any standard error
moves by more than 1e-8 relative, or any change-side fit fails, 2 if the
two trees drew different samples, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time

TOLERANCE = 1e-12
SE_TOLERANCE = 1e-8
SIZES = (300, 1000, 20_000, 200_000)
THETA0 = (0.25, math.pi / 8, 2 * math.pi / 3)
#: name, density constructor and argument, theta0
SETTINGS = (
    ("vm", "VonMises", 5.0, THETA0),
    ("wc", "WrappedCauchy", 0.8, THETA0),
    ("wn", "WrappedNormal", 0.7, THETA0),
    ("collapsed", "VonMises", 5.0, (0.0, 0.3, 2.1)),
    ("near-2pi/3", "VonMises", 5.0, (0.35, 0.5, 0.5 + 2 * math.pi / 3)),
    ("p=0.45", "VonMises", 5.0, (0.45, math.pi / 8, 2 * math.pi / 3)),
)
COUNTS = ("hess", "value", "profile")


def child(src: str, seed: int, reps: int, setting: int) -> None:
    """Fit every sample of SETTINGS[setting] with the circmix in ``src``; one
    JSON line per fit."""
    sys.path.insert(0, src)
    import inspect

    import numpy as np

    import circmix
    from circmix import contrast

    counts = dict.fromkeys(COUNTS, 0)
    scan, profile_p = contrast.ContrastMoments._scan, contrast.ContrastMoments.profile_p
    scan_signature = inspect.signature(scan)

    def counted_scan(self, *args, **kwargs):
        hessian = scan_signature.bind(self, *args, **kwargs).arguments.get("hessian", False)
        counts["hess" if hessian else "value"] += 1
        return scan(self, *args, **kwargs)

    def counted_profile(self, *args, **kwargs):
        counts["profile"] += 1
        return profile_p(self, *args, **kwargs)

    def patch(scan_method, profile_method):
        contrast.ContrastMoments._scan = scan_method
        contrast.ContrastMoments.profile_p = profile_method

    opts = circmix.FitOptions(compute_covariance=False)
    name, family, arg, theta0 = SETTINGS[setting]
    density = getattr(circmix, family)(arg)
    for n in SIZES:
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([seed, setting, n, rep]))
            angles = circmix.sample_mixture(circmix.MixtureParams(*theta0), density, n, rng)
            moments = circmix.ContrastMoments(angles)
            record = {"key": [name, n, rep], "sample": float(angles.sum()).hex()}
            # timed without the counters, then fitted again to count
            patch(scan, profile_p)
            start = time.perf_counter()
            try:
                fit = circmix.estimate_theta(moments, opts)
            except circmix.EstimationError as exc:
                record["failed"] = str(exc)
            else:
                record.update(fun=fit.contrast_at_min * n,
                              theta=fit.theta_hat.as_array().tolist(), polishes=fit.n_starts)
            record["seconds"] = time.perf_counter() - start
            patch(counted_scan, counted_profile)
            counts.update(dict.fromkeys(COUNTS, 0))
            try:
                circmix.estimate_theta(moments, opts)
            except circmix.EstimationError:
                pass
            record.update(counts)
            if "theta" in record:
                try:
                    record["se"] = circmix.asymptotic_cov(moments, fit.theta_hat)[1].tolist()
                except circmix.InferenceError:
                    record["se"] = None
            print(json.dumps(record))


def run_child(src: str, seed: int, reps: int, setting: int) -> dict:
    argv = [sys.executable, __file__, "--child", src, str(setting), "--seed", str(seed),
            "--reps", str(reps)]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    records = (json.loads(line) for line in out.splitlines())
    return {tuple(r["key"]): r for r in records}


def _angle_moved(a: float, b: float) -> float:
    """Distance of two angles modulo pi, as the estimator identifies them."""
    d = (a - b) % math.pi
    return min(d, math.pi - d)


def compare(parent: dict, change: dict) -> int:
    if parent.keys() != change.keys() or any(
            parent[k]["sample"] != change[k]["sample"] for k in parent):
        print("the two trees drew different samples")
        return 2
    both = [k for k in parent if "fun" in parent[k] and "fun" in change[k]]
    rises = {k: change[k]["fun"] - parent[k]["fun"] for k in both}
    worst = max(both, key=rises.get, default=None)
    best = min(both, key=rises.get, default=None)
    failed = {}
    print(f"fits: {len(parent)} per tree, {len(both)} fitted on both")
    for side, recs in (("parent", parent), ("change", change)):
        failed[side] = [k for k, r in recs.items() if "failed" in r]
        print(f"failed fits ({side}): {len(failed[side])}")
        for k in failed[side]:
            print(f"  {list(k)}: {recs[k]['failed']}")
    if worst is not None:
        print(f"n S_n change minus parent: largest rise {rises[worst]:.3g} at {list(worst)}, "
              f"largest fall {rises[best]:.3g} at {list(best)}; "
              f"rose on {sum(v > 0 for v in rises.values())}, "
              f"fell on {sum(v < 0 for v in rises.values())}, "
              f"equal on {sum(v == 0 for v in rises.values())}")
    print("theta_hat moved (largest |dp|, |d alpha| and |d beta| modulo pi), standard errors"
          " (largest relative change, fits refused on one tree only), and per fit,"
          " parent -> change: polishes, Hessian scans, value scans, p-profile passes,"
          " median fit time")
    worst_se, one_sided = 0.0, 0
    for name, *_ in SETTINGS:
        for n in SIZES:
            keys = [k for k in parent if k[:2] == (name, n)]
            moved = [max((abs(change[k]["theta"][0] - parent[k]["theta"][0]) if i == 0 else
                          _angle_moved(change[k]["theta"][i], parent[k]["theta"][i])
                          for k in keys if k in both), default=math.nan) for i in range(3)]
            se_pairs = [(parent[k]["se"], change[k]["se"]) for k in keys if k in both]
            se_moved = max((abs(c / p - 1) for ps, cs in se_pairs if ps and cs
                            for p, c in zip(ps, cs)), default=0.0)
            refused = sum((ps is None) != (cs is None) for ps, cs in se_pairs)
            worst_se, one_sided = max(worst_se, se_moved), one_sided + refused

            def mean(recs, field):
                return statistics.fmean(recs[k].get(field, 0) for k in keys)

            def both_sides(field):
                return f"{mean(parent, field):.2f} -> {mean(change, field):.2f}"

            times = [1e6 * statistics.median(recs[k]["seconds"] for k in keys)
                     for recs in (parent, change)]
            print(f"  {name:>10} n={n:<6} moved p {moved[0]:.2g} alpha {moved[1]:.2g} "
                  f"beta {moved[2]:.2g} | se {se_moved:.2g}, refused once {refused} | "
                  f"polishes {both_sides('polishes')} | "
                  f"hess {both_sides('hess')} | value {both_sides('value')} | "
                  f"profile {both_sides('profile')} | "
                  f"{times[0]:.0f} -> {times[1]:.0f} us")
    print(f"standard errors: largest relative change {worst_se:.3g}; "
          f"refused on one tree only: {one_sided}")
    bad = (failed["change"] or (worst is not None and rises[worst] > TOLERANCE)
           or worst_se > SE_TOLERANCE)
    print("FAIL" if bad else "OK", f"(n S_n may rise by at most {TOLERANCE:g}, standard errors "
          f"may move by at most {SE_TOLERANCE:g} relative; no change-side fit may fail)")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="SRC")
    parser.add_argument("--seed", type=int, default=2301)
    parser.add_argument("--reps", type=int, default=42)
    parser.add_argument("--child", nargs=2, metavar=("SRC", "SETTING"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child[0], args.seed, args.reps, int(args.child[1]))
        return 0
    if len(args.trees) != 2:
        parser.error("give PARENT_SRC and CHANGE_SRC")
    records = ({}, {})  # parent, change
    for k in range(len(SETTINGS)):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            records[side].update(run_child(args.trees[side], args.seed, args.reps, k))
    return compare(*records)


if __name__ == "__main__":
    sys.exit(main())
