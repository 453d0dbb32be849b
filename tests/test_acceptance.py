"""Acceptance gate.

Each test checks one release criterion and prints a single PASS/FAIL
line (bypassing output capture) so the verdicts are visible in the
test log. Numeric targets come from the reference Monte Carlo table
and the estimator's stated properties, at reduced replication counts
with correspondingly widened tolerances.

The reference table itself is not in the repository, and its N=10^3
naive-bias bands held the asymptotic attenuation -(1 - f). At N=10^3
and p=1% the mean degree is about 10, and the attenuation is the
finite-N ratio w(N, p, f) < f. So criteria 1 and 2 check the naive
bias and the mean scaling factor against `oracles.expected_scaling_factor`,
which computes w from the binomial degree and hypergeometric observed
degree distributions with scipy alone.
"""

import numpy as np
import pytest

import conftest
from oracles import (
    connected_er, expected_scaling_factor, likelihood_gap, normal_equations_oracle,
    population_induced,
)
from netpeer import estimation, graph as graphmod, model, sampling
from netpeer.cli import main as cli_main
from netpeer.errors import ComputationError
from netpeer.estimation import ObservedDesign, fit_mle
from netpeer.identification import (
    build_swap_pair,
    find_witness,
    is_compatible,
    mean_sum_gap,
)
from netpeer.model import ModelParams, conditional_means, gen_covariates, log_likelihood, simulate_outcomes
from netpeer.sampling import rns_sample

PARAMS = conftest.PARAMS


def _verdict(capsys, name, checks, shown=()):
    """Print one PASS/FAIL line for the criterion and assert all checks.

    `shown` holds (label, value) pairs printed for comparison only.
    """
    failures = [f"{label}={value:.6g} not in [{lo:.6g}, {hi:.6g}]"
                for label, value, lo, hi in checks if not lo <= value <= hi]
    status = "PASS" if not failures else "FAIL"
    detail = "; ".join(
        [f"{label}={value:.4g}" for label, value, _, _ in checks]
        + [f"{label}={value:.4g} (shown)" for label, value in shown]
    )
    with capsys.disabled():
        print(f"[{status}] {name}: {detail}")
    assert not failures, f"{name}: " + "; ".join(failures)


def _finite_n_checks(cell, rep):
    """Naive bias and mean w_hat against the finite-N attenuation w(N, p, f)."""
    w = expected_scaling_factor(cell.n_pop, cell.density, cell.fraction)
    return [
        ("rb_naive", rep.rb_naive, w - 1.0 - 0.01, w - 1.0 + 0.01),
        ("mean_w_hat", rep.mean_w_hat, w - 0.005, w + 0.005),
    ]


def test_criterion_1_table_cell_n1e3_f20(cell_small_f20, capsys):
    cell, rep, _ = cell_small_f20
    checks = _finite_n_checks(cell, rep) + [
        ("rmse_naive", rep.rmse_naive, 1.00, 1.30),
        ("cov_naive", rep.cov_naive, 0.0, 0.01),
        ("rb_corrected", rep.rb_corrected, -0.03, 0.07),
        ("rmse_corrected", rep.rmse_corrected, 0.39, 0.59),
        ("cov_corrected_wald", rep.cov_corrected_wald, 0.94, 0.98),
        ("runtime_s", conftest.RUNTIMES["cell_small_f20"], 0.0, 120.0),
    ]
    _verdict(capsys, "criterion 1 (N=1e3, p=1%, f=20%, 2000 reps)", checks,
             shown=[("cov_corrected", rep.cov_corrected)])


def test_criterion_2_table_cell_n1e3_f80(cell_small_f80, capsys):
    cell, rep, _ = cell_small_f80
    checks = _finite_n_checks(cell, rep) + [
        ("cov_corrected_wald", rep.cov_corrected_wald, 0.94, 0.98),
    ]
    _verdict(capsys, "criterion 2 (N=1e3, p=1%, f=80%, 2000 reps)", checks,
             shown=[("cov_corrected", rep.cov_corrected)])


def test_criterion_3_table_cell_n1e4_f20(cell_large_f20, capsys):
    cell, rep, _ = cell_large_f20
    checks = [
        ("rb_naive", rep.rb_naive, -0.84, -0.74),
        ("rb_corrected", rep.rb_corrected, -0.06, 0.02),
        ("cov_corrected", rep.cov_corrected, 0.92, 0.98),
        ("runtime_s", conftest.RUNTIMES["cell_large_f20"], 0.0, 900.0),
    ]
    _verdict(capsys, "criterion 3 (N=1e4, p=1%, f=20%, 500 reps)", checks)


def test_criterion_4_mean_estimate_tracks_mean_w(cell_large_f20, cell_large_f80, capsys):
    checks = []
    for label, (cell, rep, records) in (
        ("f=0.2", cell_large_f20), ("f=0.8", cell_large_f80),
    ):
        done = [r for r in records if r.ok]
        ratio = float(np.mean([r.beta2_naive for r in done])) / cell.params.beta2
        mean_w = float(np.mean([r.w_hat for r in done]))
        checks.append((f"ratio-minus-mean-w {label}", ratio - mean_w, -0.03, 0.03))
    _verdict(capsys, "criterion 4 (mean naive estimate tracks mean scaling factor)", checks)


def test_criterion_5_scaling_factor_near_f(w_hat_sweep, capsys):
    checks = [
        (f"w_hat-minus-f f={f}", w_hat_sweep[f] - f, -0.02, 0.02)
        for f in (0.2, 0.5, 0.8)
    ]
    _verdict(capsys, "criterion 5 (scaling factor near sampling fraction)", checks)


def test_criterion_6_induced_subgraph_likelihood_exact(capsys):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng((conftest.MASTER_SEED, 6, seed))
        n_pop = int(rng.integers(60, 201))
        g = connected_er(n_pop, 0.08, rng)
        x = gen_covariates(n_pop, 3.0, 1.5, rng)
        y = simulate_outcomes(g, x, PARAMS, rng)
        n = sampling.sample_size(n_pop, 0.4)
        s = rns_sample(g, n, rng, x, y)
        p = population_induced(g, s)
        mu_full = conditional_means(g, x, PARAMS)[s.sampled_ids]
        mu_ind = conditional_means(p.g_p, x[p.origin], PARAMS)[: s.n]
        ll_full = log_likelihood(mu_full, s.y_obs, PARAMS.sigma2_eps)
        ll_ind = log_likelihood(mu_ind, s.y_obs, PARAMS.sigma2_eps)
        worst = max(worst, abs(ll_full - ll_ind))
    checks = [("max |ll_full - ll_induced|", worst, 0.0, 1e-10)]
    _verdict(capsys, "criterion 6 (induced-subgraph likelihood exactness)", checks)


def test_criterion_7_swap_witness(capsys):
    gap_trials = 0
    gap_hits = 0
    worst_formula = 0.0
    instances = 0
    seed = 0
    while instances < 100:
        rng = np.random.default_rng((conftest.MASTER_SEED, 7, seed))
        seed += 1
        g = connected_er(80, 0.08, rng)
        x = gen_covariates(80, 3.0, 1.5, rng)
        y = simulate_outcomes(g, x, PARAMS, rng)
        s = rns_sample(g, 30, rng, x, y)
        pair = find_witness(s)
        if pair is None or pair.d_j == pair.d_l:
            continue
        instances += 1
        assert pair.x_u1 != pair.x_u2
        assert is_compatible(pair.a, s) and is_compatible(pair.b, s)
        # closed form against the definition
        expected = PARAMS.beta2 * (1.0 / pair.d_j - 1.0 / pair.d_l) * (
            pair.x_u1 - pair.x_u2
        )
        worst_formula = max(worst_formula, abs(mean_sum_gap(pair, PARAMS) - expected))
        # fresh outcome draws for the sampled units
        for _ in range(10):
            y_draw = rng.normal(3.0, 2.0, size=s.n)
            gap_trials += 1
            if likelihood_gap(pair, y_draw, PARAMS) > 1e-12:
                gap_hits += 1
    # equal reported degrees force a zero gap exactly
    g = graphmod.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (1, 4), (2, 4)]
    )
    s_hand = sampling.recruit(g, np.array([0, 1, 2, 3]), x=[1.0, -0.5, 2.0, 0.25, 0.0, 0.0],
                              y=[0.1, 0.2, 0.3, 0.4, 0.0, 0.0])
    equal_pair = build_swap_pair(s_hand, 0, 2, 5.0, 4.0)
    assert equal_pair.d_j == equal_pair.d_l
    checks = [
        ("instances", float(instances), 100.0, 100.0),
        ("gap>1e-12 rate", gap_hits / gap_trials, 0.99, 1.0),
        ("max formula error", worst_formula, 0.0, 1e-12),
        ("equal-degree gap", abs(mean_sum_gap(equal_pair, PARAMS)), 0.0, 0.0),
    ]
    _verdict(capsys, "criterion 7 (non-identification swap witness)", checks)


def test_criterion_8_ols_oracle(capsys):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng((conftest.MASTER_SEED, 8, seed))
        n = int(rng.integers(4, 13))
        X = np.column_stack([
            np.ones(n), rng.normal(3.0, 1.5, n), rng.normal(3.0, 1.0, n),
        ])
        y = rng.normal(0.0, 2.0, n)
        d = ObservedDesign(X=X, y=y, dropped_count=0)
        try:
            fit = fit_mle(d)
        except ComputationError:
            continue
        beta_oracle = normal_equations_oracle(X, y)
        worst = max(worst, float(np.max(np.abs(fit.beta_hat - beta_oracle))))
    checks = [("max |beta_hat - oracle|", worst, 0.0, 1e-10)]
    _verdict(capsys, "criterion 8 (least-squares matches normal equations)", checks)


def test_criterion_9_mc_determinism(tmp_path, capsys):
    def run_mc(tag, workers):
        out = tmp_path / tag
        args = [
            "mc", "--n-pop", "300", "--density", "0.03", "--fraction", "0.4",
            "--reps", "16", "--seed", "77", "--workers", str(workers),
            "--out", str(out),
        ]
        assert cli_main(args) == 0
        return (out / "results.csv").read_bytes()

    w1a = run_mc("w1a", 1)
    w1b = run_mc("w1b", 1)
    w8a = run_mc("w8a", 8)
    w8b = run_mc("w8b", 8)
    identical = w1a == w1b == w8a == w8b
    checks = [("byte-identical CSVs", 1.0 if identical else 0.0, 1.0, 1.0)]
    _verdict(capsys, "criterion 9 (mc determinism across worker counts)", checks)
