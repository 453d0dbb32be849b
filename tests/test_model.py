import math

import numpy as np
import pytest

from netpeer.errors import IsolatedVertexError, ValidationError
from netpeer.graph import from_edges, generate_connected_er, generate_er
from netpeer.model import (
    ModelParams,
    conditional_means,
    gen_covariates,
    log_likelihood,
    neighbor_mean_vector,
    read_unit_csv,
    simulate_outcomes,
    write_unit_csv,
)
from netpeer.sampling import population_induced, rns_sample
from oracles import neighborhood_mean

PARAMS = ModelParams(0.0, 1.0, 1.5, 1.0)


def star(n):
    return from_edges(n, [(0, k) for k in range(1, n)])


class TestModelParams:
    def test_requires_positive_variance(self):
        with pytest.raises(ValidationError):
            ModelParams(0, 1, 1.5, 0.0)
        with pytest.raises(ValidationError):
            ModelParams(0, 1, 1.5, -1.0)


class TestGenCovariates:
    def test_mean_at_grid_values(self):
        x = gen_covariates(100_000, 3.0, 1.5, np.random.default_rng(0))
        assert abs(x.mean() - 3.0) < 0.02

    def test_variance_matches_sd_squared(self):
        x = gen_covariates(100_000, 3.0, 1.5, np.random.default_rng(1))
        assert abs(x.var() - 2.25) / 2.25 < 0.02

    def test_single_draw_reproducible(self):
        a = gen_covariates(1, 0.0, 1.0, np.random.default_rng(5))
        b = gen_covariates(1, 0.0, 1.0, np.random.default_rng(5))
        assert a[0] == b[0]

    def test_rejects_bad_sd(self):
        with pytest.raises(ValidationError):
            gen_covariates(5, 0.0, 0.0, np.random.default_rng(0))


class TestNeighborhoodMean:
    def test_star_center(self):
        g = star(5)
        x = np.array([99.0, 1.0, 2.0, 3.0, 4.0])
        assert neighborhood_mean(g, x, 0) == pytest.approx(2.5)

    def test_single_neighbor_identity(self):
        g = from_edges(2, [(0, 1)])
        assert neighborhood_mean(g, [5.0, -3.25], 0) == -3.25

    def test_constant_covariate(self):
        g = generate_connected_er(30, 0.2, np.random.default_rng(0))
        x = np.full(30, 7.5)
        means = neighbor_mean_vector(g, x)
        assert np.allclose(means, 7.5)

    def test_isolated_vertex_error(self):
        g = from_edges(3, [(0, 1)])
        with pytest.raises(IsolatedVertexError):
            neighborhood_mean(g, [1.0, 2.0, 3.0], 2)
        with pytest.raises(IsolatedVertexError):
            neighbor_mean_vector(g, np.ones(3))

    def test_vector_matches_scalar(self):
        g = generate_connected_er(40, 0.15, np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=40)
        means = neighbor_mean_vector(g, x)
        for j in range(40):
            assert means[j] == pytest.approx(neighborhood_mean(g, x, j), abs=1e-12)

    def test_affine_shift(self):
        g = generate_connected_er(25, 0.2, np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=25)
        shift = neighbor_mean_vector(g, x + 3.7) - neighbor_mean_vector(g, x)
        assert np.allclose(shift, 3.7, atol=1e-12)


class TestOutcomes:
    def test_noiseless_constant_covariate(self):
        g = generate_connected_er(20, 0.3, np.random.default_rng(0))
        means = conditional_means(g, np.ones(20), ModelParams(0, 1, 1.5, 1))
        assert np.allclose(means, 2.5)

    def test_noiseless_three_path(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        x = np.array([1.0, 2.0, 3.0])
        b0, b1, b2 = 0.5, 2.0, -1.0
        means = conditional_means(g, x, ModelParams(b0, b1, b2, 1.0))
        expected = [b0 + b1 * 1 + b2 * 2, b0 + b1 * 2 + b2 * 2, b0 + b1 * 3 + b2 * 2]
        assert np.allclose(means, expected)

    def test_noise_has_model_variance(self):
        g = generate_connected_er(20, 0.4, np.random.default_rng(1))
        x = np.ones(20)
        params = ModelParams(0, 1, 1.5, 4.0)
        draws = np.array([
            simulate_outcomes(g, x, params, np.random.default_rng(s))[0]
            for s in range(4000)
        ])
        assert abs(draws.mean() - 2.5) < 0.1
        assert abs(draws.var() - 4.0) / 4.0 < 0.1

    def test_grid_parameter_vector(self):
        # default experiment parameters are representable exactly
        p = ModelParams(0.0, 1.0, 1.5, 1.0)
        assert (p.beta0, p.beta1, p.beta2, p.sigma2_eps) == (0.0, 1.0, 1.5, 1.0)


class TestLogLikelihood:
    def test_zero_residual_single_unit(self):
        assert log_likelihood([1.0], [1.0], 1.0) == pytest.approx(
            -0.9189385, abs=1e-6
        )

    def test_two_unit_residuals(self):
        val = log_likelihood([0.0, 0.0], [1.0, -1.0], 1.0)
        assert val == pytest.approx(-math.log(2 * math.pi) - 1.0, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=20)
        y = rng.normal(size=20)
        perm = rng.permutation(20)
        assert log_likelihood(mu, y, 2.0) == pytest.approx(
            log_likelihood(mu[perm], y[perm], 2.0), abs=1e-10
        )

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValidationError):
            log_likelihood([0.0], [0.0], 0.0)


class TestFullVsInducedLikelihood:
    def test_sampled_means_agree(self):
        # conditional means for sampled units are identical whether computed
        # on the full graph or on the extended sampled subgraph
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = generate_connected_er(80, 0.08, rng)
            x = gen_covariates(80, 3.0, 1.5, rng)
            s = rns_sample(g, 25, rng, x)
            p = population_induced(g, s)
            full = conditional_means(g, x, PARAMS)[s.sampled_ids]
            on_induced = conditional_means(p.g_p, x[p.origin], PARAMS)[: s.n]
            assert np.max(np.abs(full - on_induced)) < 1e-10


class TestUnitCsv:
    def test_round_trip(self, tmp_path):
        x = np.random.default_rng(0).normal(size=10)
        y = np.random.default_rng(1).normal(size=10)
        p = tmp_path / "units.csv"
        write_unit_csv(x, y, p)
        xb, yb = read_unit_csv(p)
        assert np.array_equal(x, xb)
        assert np.array_equal(y, yb)

    def test_rows_in_any_order(self, tmp_path):
        x = np.random.default_rng(0).normal(size=6)
        y = np.random.default_rng(1).normal(size=6)
        p = tmp_path / "units.csv"
        write_unit_csv(x, y, p)
        header, *rows = p.read_text().splitlines()
        p.write_text("\n".join([header, *rows[::-1]]) + "\n")
        xb, yb = read_unit_csv(p)
        assert np.array_equal(x, xb)
        assert np.array_equal(y, yb)

    @pytest.mark.parametrize("rows, match", [
        (["0,1.0,2.0", "0,1.5,2.5"], "unit ids"),  # duplicate id, 1 missing
        (["0,1.0,2.0", "2,1.5,2.5"], "unit ids"),  # gap
        (["-1,1.0,2.0", "0,1.5,2.5"], "unit ids"),
        (["0,1.0,2.0", "1,1.5"], "columns"),  # short row
        (["0,1.0,2.0", "1,nan,2.5"], "non-finite"),
        (["0,1.0,2.0", "1,1.5,inf"], "non-finite"),
        (["0,1.0,2.0", "1,,2.5"], "could not convert"),
        (["0,1.0,2.0", "a,1.5,2.5"], "could not convert"),
    ])
    def test_rejects_malformed(self, tmp_path, rows, match):
        p = tmp_path / "units.csv"
        p.write_text("\n".join(["unit_id,x,y", *rows]) + "\n")
        with pytest.raises(ValidationError, match=match):
            read_unit_csv(p)

    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "units.csv"
        p.write_text("id,x,y\n0,1.0,2.0\n")
        with pytest.raises(ValidationError, match="header"):
            read_unit_csv(p)
