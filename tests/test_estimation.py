import numpy as np
import pytest
from scipy import special

from netpeer.errors import RankDeficiencyError
from netpeer.estimation import (
    Z_975,
    ObservedDesign,
    build_observed_design,
    diagnostics,
    fit_corrected,
    fit_mle,
)
from netpeer.graph import from_edges, generate_er
from netpeer.model import ModelParams, conditional_means, gen_covariates, neighbor_mean_vector
from netpeer.sampling import (
    recruit,
    rns_sample,
    scaling_factor,
)

from oracles import connected_er, critical_value, normal_equations_oracle

PARAMS = ModelParams(0.0, 1.0, 1.5, 1.0)


def census_sample(g, x, y):
    return rns_sample(g, g.n_vertices, np.random.default_rng(0), x, y)


class TestBuildObservedDesign:
    def test_census_recovers_true_neighbor_means(self):
        g = connected_er(50, 0.15, np.random.default_rng(0))
        x = gen_covariates(50, 3.0, 1.5, np.random.default_rng(1))
        y = np.zeros(50)
        d = build_observed_design(census_sample(g, x, y))
        assert d.dropped_count == 0
        assert np.allclose(d.x_star, neighbor_mean_vector(g, x), atol=1e-12)

    def test_hand_values(self):
        # G_R over units 0-5: the 4-cycle 0-1-2-3 plus 1-4; unit 5 is tied only to
        # unsampled 6, so it is isolated in G_R and dropped
        g = from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (5, 6), (0, 7), (4, 7)])
        x = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
        y = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]
        d = build_observed_design(recruit(g, np.arange(6), x=x, y=y))
        assert d.X.tolist() == [
            [1.0, 1.0, 5.0],   # (x_1 + x_3) / 2
            [1.0, 2.0, 7.0],   # (x_0 + x_2 + x_4) / 3
            [1.0, 4.0, 5.0],   # (x_1 + x_3) / 2
            [1.0, 8.0, 2.5],   # (x_0 + x_2) / 2
            [1.0, 16.0, 2.0],  # x_1
        ]
        assert d.y.tolist() == [10.0, 20.0, 30.0, 40.0, 50.0]
        assert d.dropped_count == 1

    def test_isolated_unit_dropped(self):
        g = from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3), (5, 6)])
        s = recruit(g, np.arange(6), x=np.arange(7.0), y=np.arange(7.0))
        d = build_observed_design(s)
        assert d.dropped_count == 1
        assert d.n_used == 5

    def test_too_few_rows(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        s = census_sample(g, np.arange(4.0), np.arange(4.0))
        # census on a 4-path keeps 4 rows; shrink to 3 sampled units to trip
        s = recruit(g, np.array([0, 1, 2]), x=np.arange(4.0), y=np.arange(4.0))
        with pytest.raises(RankDeficiencyError):
            build_observed_design(s)


class TestFitMle:
    def test_noiseless_recovery(self):
        g = connected_er(60, 0.12, np.random.default_rng(2))
        x = gen_covariates(60, 3.0, 1.5, np.random.default_rng(3))
        y = conditional_means(g, x, PARAMS)  # sigma2 -> 0 limit
        fit = fit_mle(build_observed_design(census_sample(g, x, y)))
        assert np.allclose(fit.beta_hat, [0.0, 1.0, 1.5], atol=1e-8)

    def test_hand_dataset_matches_normal_equations(self):
        X = np.column_stack([
            np.ones(5),
            [1.0, 2.0, 0.5, -1.0, 3.0],
            [0.2, 1.1, -0.4, 2.2, 0.9],
        ])
        y = np.array([1.0, 0.4, -0.7, 2.2, 1.5])
        d = ObservedDesign(X=X, y=y, dropped_count=0)
        fit = fit_mle(d)
        assert np.max(np.abs(fit.beta_hat - normal_equations_oracle(X, y))) < 1e-10

    def test_oracle_equivalence_random_small(self):
        # 100 random datasets, 4 <= n <= 12
        rng = np.random.default_rng(12345)
        for _ in range(100):
            n = int(rng.integers(4, 13))
            X = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
            y = rng.normal(size=n)
            d = ObservedDesign(X=X, y=y, dropped_count=0)
            fit = fit_mle(d)
            assert np.max(np.abs(fit.beta_hat - normal_equations_oracle(X, y))) < 1e-10

    def test_constant_peer_column_rejected(self):
        X = np.column_stack([np.ones(6), np.arange(6.0), np.full(6, 2.0)])
        d = ObservedDesign(X=X, y=np.arange(6.0), dropped_count=0)
        with pytest.raises(RankDeficiencyError) as err:
            fit_mle(d)
        assert "peer_mean" in str(err.value)

    @pytest.mark.parametrize("own_x, peer, message", [
        # the constant intercept column is never blamed
        (np.arange(6.0), 2 * np.arange(6.0), r"collinear columns among \(intercept, own_x"),
        (np.full(6, 3.0), np.arange(6.0) ** 2, r"constant column\(s\): own_x$"),
        # full rank once each column is divided by its largest |value|
        (np.array([0.0, 1, 2, 3, 4, 1e308]), np.arange(6.0) ** 2,
         r"columns differ in scale beyond float64 precision \(largest \|value\|: "
         r"intercept 1, own_x 1e\+308, peer_mean 25\)$"),
    ], ids=["collinear", "constant own_x", "huge own_x"])
    def test_rank_deficiency_names_the_cause(self, own_x, peer, message):
        X = np.column_stack([np.ones(6), own_x, peer])
        d = ObservedDesign(X=X, y=np.arange(6.0), dropped_count=0)
        with pytest.raises(RankDeficiencyError, match=message):
            fit_mle(d)

    def test_t_quantile_widens_small_sample_ci(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(8), rng.normal(size=8), rng.normal(size=8)])
        y = rng.normal(size=8)
        d = ObservedDesign(X=X, y=y, dropped_count=0)
        z_fit = fit_mle(d, use_t=False)
        t_fit = fit_mle(d, use_t=True)
        assert (t_fit.ci_naive[1] - t_fit.ci_naive[0]) > (
            z_fit.ci_naive[1] - z_fit.ci_naive[0]
        )

    @pytest.mark.parametrize("n", [4, 5, 8, 33, 300, 1003])
    def test_critical_value_equals_scipy_stats(self, n):
        rng = np.random.default_rng(n)
        X = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
        d = ObservedDesign(X=X, y=rng.normal(size=n), dropped_count=0)
        for fit, c in ((fit_mle(d), critical_value(0.95)),
                       (fit_mle(d, use_t=True), critical_value(0.95, n - 3))):
            b, se = fit.beta_hat[2], fit.se[2]
            assert fit.ci_naive == (b - c * se, b + c * se)

    def test_normal_constant_is_scipy_ndtri(self):
        # the t quantile's 0.975 is the level's own 0.5 + 0.95 / 2
        assert 0.5 + 0.95 / 2.0 == 0.975
        assert np.float64(Z_975).tobytes() == special.ndtri(0.975).tobytes()


class TestFitMleCorrection:
    """The w_hat correction that `fit_mle` applies to the naive fit."""

    def _fit(self, w=1.0, var_w=0.0):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(20), rng.normal(size=20), rng.normal(size=20)])
        y = rng.normal(size=20)
        d = ObservedDesign(X=X, y=y, dropped_count=0)
        return fit_mle(d, w, var_w)

    def test_census_w_one_is_identity(self):
        fit = self._fit()
        assert fit.beta2_corrected == fit.beta_hat[2]
        assert fit.ci_corrected == fit.ci_naive

    def test_arithmetic(self):
        fit = self._fit(0.2)
        assert fit.beta2_corrected == fit.beta_hat[2] / 0.2

    def test_correction_identity_bit_exact(self):
        fit = self._fit()
        w = 0.37
        corrected = self._fit(w)
        assert corrected.beta2_corrected * w == fit.beta_hat[2] * (w / w)
        assert corrected.ci_corrected[0] == fit.ci_naive[0] / w
        assert corrected.ci_corrected[1] == fit.ci_naive[1] / w

    @staticmethod
    def _wald_var(fit):
        lo, hi = fit.ci_corrected_wald
        return ((hi - lo) / (2.0 * critical_value(0.95))) ** 2

    def test_wald_beta2_variance_is_loop_sandwich(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(20), rng.normal(size=20), rng.normal(size=20)])
        y = rng.normal(size=20) * np.linspace(0.2, 3.0, 20)
        d = ObservedDesign(X=X, y=y, dropped_count=0)
        fit = fit_mle(d)
        n = 20
        bread = np.linalg.inv(X.T @ X)
        e = [y[i] - sum(X[i, k] * fit.beta_hat[k] for k in range(3)) for i in range(n)]
        meat = [[sum(e[i] ** 2 * X[i, a] * X[i, b] for i in range(n))
                 for b in range(3)] for a in range(3)]
        sandwich = sum(bread[2, a] * meat[a][b] * bread[b, 2]
                       for a in range(3) for b in range(3)) * n / (n - 3)
        # at w = 1 with zero variance the Wald variance is the HC1 variance itself
        assert self._wald_var(fit) == pytest.approx(sandwich, rel=1e-10)
        w = 0.4
        assert self._wald_var(fit_mle(d, w)) * w**2 == pytest.approx(sandwich, rel=1e-10)

    def test_delta_term(self):
        w, var_w = 0.4, 2e-3
        fixed = self._fit(w, 0.0)
        assert fixed.ci_corrected_wald == self._fit(w).ci_corrected_wald
        hc1 = self._wald_var(self._fit())
        assert self._wald_var(fixed) == pytest.approx(hc1 / w**2, rel=1e-12)
        delta = self._wald_var(self._fit(w, var_w)) - self._wald_var(fixed)
        assert delta == pytest.approx(fixed.beta_hat[2] ** 2 * var_w / w**4, rel=1e-9)

    def test_wald_contains_corrected_estimate(self):
        fit = self._fit(0.3, 1e-3)
        lo, hi = fit.ci_corrected_wald
        assert lo < fit.beta2_corrected < hi
        assert (lo + hi) / 2 == pytest.approx(fit.beta2_corrected, rel=1e-12)


class TestFitCorrected:
    def test_is_the_correction_chain(self):
        g = connected_er(200, 0.05, np.random.default_rng(21))
        x = gen_covariates(200, 3.0, 1.5, np.random.default_rng(22))
        y = conditional_means(g, x, PARAMS) + np.random.default_rng(23).normal(size=200)
        s = rns_sample(g, 80, np.random.default_rng(24), x, y)
        want = fit_mle(build_observed_design(s), *scaling_factor(s), use_t=True)
        got = fit_corrected(s, use_t=True)
        assert got.to_dict() == want.to_dict()
        assert got.var_corrected == want.var_corrected
        assert 0.0 < got.w_hat < 1.0


class TestAsymptoticVariance:
    """`FitResult.var_corrected`, the plug-in variance of the corrected estimator."""

    def _design(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(30), rng.normal(size=30), rng.normal(size=30)])
        return ObservedDesign(X=X, y=rng.normal(size=30), dropped_count=0)

    def test_w_one_is_classical_slope_variance(self):
        d = self._design()
        fit = fit_mle(d, 1.0)
        x_star = d.x_star
        sxx = np.sum((x_star - x_star.mean()) ** 2)
        assert fit.var_corrected == pytest.approx(fit.sigma2_hat / sxx, rel=1e-12)

    def test_doubling_w_quarters_variance(self):
        d = self._design()
        assert fit_mle(d, 0.4).var_corrected == pytest.approx(
            fit_mle(d, 0.2).var_corrected / 4.0, rel=1e-12
        )

    def test_zero_regressor_variance_rejected(self):
        X = np.column_stack([np.ones(5), np.arange(5.0), np.full(5, 1.0)])
        d = ObservedDesign(X=X, y=np.arange(5.0), dropped_count=0)
        # the rank check names the constant column before the sxx check is reached
        with pytest.raises(RankDeficiencyError, match=r"constant column\(s\): peer_mean$"):
            fit_mle(d)

    def test_matches_monte_carlo_variance(self, cell_large_f20):
        _, _, records = cell_large_f20
        done = [r for r in records if r.ok]
        mc_var = np.var([r.beta2_corrected for r in done])
        plug_in = np.mean([r.var_corrected for r in done])
        assert abs(plug_in - mc_var) / mc_var < 0.10


class TestSignConsistency:
    def test_naive_lies_between_zero_and_truth(self, cell_large_f20, cell_large_f80):
        for _, report, records in (cell_large_f20, cell_large_f80):
            done = [r for r in records if r.ok]
            mean_naive = np.mean([r.beta2_naive for r in done])
            mean_w = np.mean([r.w_hat for r in done])
            assert 0.0 < mean_naive < 1.5
            assert abs(mean_naive - mean_w * 1.5) < 0.05 * 1.5


class TestDiagnostics:
    def test_variance_statistic(self):
        g = generate_er(10_000, 0.001, np.random.default_rng(7))
        x = gen_covariates(10_000, 3.0, 1.5, np.random.default_rng(8))
        y = x + np.random.default_rng(9).normal(size=10_000)
        s = rns_sample(g, 10_000, np.random.default_rng(10), x, y)
        rep = diagnostics(s)
        assert abs(rep["covariate_variance_stat"] - 2.25) / 2.25 < 0.03
        assert not rep["degenerate_covariate"]

    def test_census_ratios_are_one(self):
        g = connected_er(50, 0.15, np.random.default_rng(11))
        x = gen_covariates(50, 3.0, 1.5, np.random.default_rng(12))
        y = conditional_means(g, x, PARAMS)
        s = census_sample(g, x, y)
        rep = diagnostics(s)
        assert rep["degree_ratio_min"] == 1.0
        assert rep["degree_ratio_mean"] == 1.0
        assert rep["degree_ratio_max"] == 1.0
        assert rep["w_hat"] == 1.0
        assert rep["dropped_count"] == 0

    def test_constant_covariate_flagged(self):
        g = connected_er(30, 0.2, np.random.default_rng(13))
        x = np.full(30, 2.0)
        y = np.random.default_rng(14).normal(size=30)
        s = census_sample(g, x, y)
        rep = diagnostics(s)
        assert rep["degenerate_covariate"]
        assert rep["covariate_variance_stat"] == 0.0


class TestSerialization:
    def test_json_fields(self):
        rng = np.random.default_rng(15)
        X = np.column_stack([np.ones(10), rng.normal(size=10), rng.normal(size=10)])
        d = ObservedDesign(X=X, y=rng.normal(size=10), dropped_count=2)
        fit = fit_mle(d, 0.5)
        import json

        blob = json.loads(json.dumps(fit.to_dict()))
        assert blob.keys() == {"beta_hat", "se", "sigma2_hat", "w_hat", "beta2_corrected",
                               "ci_naive", "ci_corrected", "ci_corrected_wald",
                               "n_used", "dropped"}
        assert blob["dropped"] == 2
        # round-trips at full double precision
        assert blob["beta2_corrected"] == fit.beta2_corrected
