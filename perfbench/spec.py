"""Every metric the benchmark prints: name, unit, better direction, and the
end-to-end metric a per-layer metric is predicted to move.

BENCHMARK.json declares END_TO_END and PER_LAYER; smoke.py checks that the
two agree.  REPORTED metrics are printed on the report lines of every run
but are not in the final JSON line (see README.md for why).
"""

# Printed in the final JSON line of an untraced run, on every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Printed on the report lines only.  For one closed-loop client op_ms_p50
# tells what ops_per_s tells, with a ten-seed spread next to the largest
# bound allowed; fail_rate is 0 in a healthy run; theta_mse and f_l2_risk
# carry seed-to-seed sampling noise far wider than any usable bound.
REPORTED = (
    ("op_ms_p50", "ms"),
    ("fail_rate", "ratio"),
    ("theta_mse", "sq-err"),
    ("f_l2_risk", "L2"),  # large_n_cli only
)

# (name, unit, better, predicted link).  Times are milliseconds per op of
# the traced phase, counts are per fit or per call as the unit says.
PER_LAYER = (
    ("circ.sample_mixture_ms", "ms/op", "lower",
     "ops_per_s on table1_mc; predicted share under 1%"),
    ("contrast.moments_ms", "ms/op", "lower",
     "op_ms_p50 on large_n_cli"),
    ("contrast.asymptotic_cov_ms", "ms/op", "lower",
     "op_ms_p50 on large_n_cli"),
    ("contrast.estimate_theta_self_ms", "ms/op", "lower",
     "ops_per_s and op_ms_p50 on table1_mc; op_ms_p50 on large_n_cli"),
    ("contrast.objective_evals", "evals/fit", "lower",
     "ops_per_s and op_ms_p50 on table1_mc; op_ms_p50 on large_n_cli"),
    ("contrast.converged_ratio", "ratio", "higher",
     "ops_per_s and op_ms_p50 on table1_mc; op_ms_p50 on large_n_cli"),
    ("npdens.empirical_coeffs_ms", "ms/op", "lower",
     "op_ms_p50 and peak_rss_mb on large_n_cli"),
    ("npdens.coeff_matrix_mb", "MB-computed", "lower",
     "op_ms_p50 and peak_rss_mb on large_n_cli; n*(l_max+1)*16 B"),
    ("npdens.slope_lambda_ms", "ms/op", "lower",
     "op_ms_p50 and f_l2_risk on large_n_cli"),
    ("npdens.select_level_ms", "ms/op", "lower",
     "op_ms_p50 and f_l2_risk on large_n_cli"),
    ("npdens.grid_ms", "ms/op", "lower",
     "op_ms_p50 and f_l2_risk on large_n_cli"),
    ("npdens.level", "level", "lower",
     "op_ms_p50 and f_l2_risk on large_n_cli"),
    ("npdens.l_max", "level", "lower",
     "op_ms_p50 and f_l2_risk on large_n_cli"),
    ("bench.run_mse_self_ms", "ms/op", "lower",
     "ops_per_s and fail_rate on table1_mc"),
    ("bench.write_csv_ms", "ms/op", "lower",
     "ops_per_s and fail_rate on table1_mc"),
    ("bench.excluded_ratio", "ratio", "lower",
     "ops_per_s and fail_rate on table1_mc"),
    ("cli.fit_self_ms", "ms/op", "lower",
     "op_ms_p50 on large_n_cli"),
    ("cli.density_self_ms", "ms/op", "lower",
     "op_ms_p50 on large_n_cli"),
    ("tracing_overhead_ms", "ms", "lower",
     "none: traced op_ms_p50 minus untraced op_ms_p50 on the same ops"),
)

# Printed in the final JSON line of a traced table1_pool run only.
POOL_ONLY = (
    ("bench.pool_efficiency", "ratio", "higher",
     "ops_per_s on table1_pool only"),
)
