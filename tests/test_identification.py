import dataclasses

import numpy as np
import pytest

from oracles import (
    candidate_means_loop, connected_er, find_witness_loop, likelihood_gap, population_induced,
)
from netpeer.errors import ComputationError
from netpeer.graph import degrees, from_edges
from netpeer.identification import (
    CompletionCandidate,
    build_swap_pair,
    candidate_means,
    find_witness,
    is_compatible,
    mean_sum_gap,
)
from netpeer.model import ModelParams, gen_covariates, log_likelihood, simulate_outcomes
from netpeer.montecarlo import draw_graph, draw_sample, populate
from netpeer.sampling import recruit, rns_sample

PARAMS = ModelParams(0.0, 1.0, 1.5, 1.0)


def make_instance(seed=0, n_pop=60, p=0.12, n=20):
    rng = np.random.default_rng(seed)
    g = connected_er(n_pop, p, rng)
    x = gen_covariates(n_pop, 3.0, 1.5, rng)
    y = simulate_outcomes(g, x, PARAMS, rng)
    return g, x, rns_sample(g, n, rng, x, y)


def make_sample(seed=0, n_pop=60, p=0.12, n=20):
    g, _, s = make_instance(seed, n_pop, p, n)
    return g, s


def hand_sample():
    """Small fixed sample with attachment slack at units 0 and 1."""
    g = from_edges(
        6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (1, 4), (2, 4)]
    )
    # units 4 and 5 are unsampled; their data are never observed
    return recruit(g, np.array([0, 1, 2, 3]), x=[1.0, -0.5, 2.0, 0.25, 0.0, 0.0],
                   y=[0.1, 0.2, 0.3, 0.4, 0.0, 0.0])


def identify_demo_sample():
    """The sample identify-demo draws at its defaults: seed 0, N=50, p=0.1, f=0.4."""
    g = draw_graph((0,), 50, 0.1)
    return draw_sample((0,), g, 0.4, *populate((0,), g, ModelParams()))


class TestIsCompatible:
    def test_swap_candidates_compatible(self):
        s = hand_sample()
        pair = build_swap_pair(s, 0, 1, 5.0, -5.0)
        assert is_compatible(pair.a, s)
        assert is_compatible(pair.b, s)

    def test_missing_recruitment_edge(self):
        s = hand_sample()
        pair = build_swap_pair(s, 0, 1, 5.0, -5.0)
        broken_edges = [
            (a, b) for a, b in pair.a.g_p.edge_array() if (a, b) != (0, 1)
        ]
        broken = CompletionCandidate(
            g_p=from_edges(pair.a.g_p.n_vertices, np.array(broken_edges)),
            x_tilde=pair.a.x_tilde,
        )
        assert not is_compatible(broken, s)

    def test_altered_observed_covariate(self):
        s = hand_sample()
        pair = build_swap_pair(s, 0, 1, 5.0, -5.0)
        x_bad = pair.a.x_tilde.copy()
        x_bad[2] += 1.0
        broken = CompletionCandidate(g_p=pair.a.g_p, x_tilde=x_bad)
        assert not is_compatible(broken, s)

    def test_candidate_smaller_than_the_sample(self):
        s = hand_sample()
        pair = build_swap_pair(s, 0, 1, 5.0, -5.0)
        short_x = CompletionCandidate(g_p=pair.a.g_p, x_tilde=pair.a.x_tilde[: s.n - 1])
        short_g = CompletionCandidate(g_p=from_edges(s.n - 1, []), x_tilde=pair.a.x_tilde)
        assert not is_compatible(short_x, s)
        assert not is_compatible(short_g, s)

    def test_tie_that_recruitment_would_have_observed(self):
        # RNS step 2 keeps every tie among the sampled units, and units 0 and 1
        # of this sample have none, so a completion that ties them contradicts it
        s = identify_demo_sample()
        a = find_witness(s).a
        assert 1 not in s.g_r.indices[s.g_r.offsets[0]:s.g_r.offsets[1]]
        tied = CompletionCandidate(
            g_p=from_edges(a.g_p.n_vertices, [*a.g_p.edge_array(), (0, 1)]),
            x_tilde=a.x_tilde,
        )
        assert is_compatible(a, s)
        assert not is_compatible(tied, s)

    def test_more_ties_than_reported(self):
        # unit 0 reported 2 ties; four more unsampled neighbors give it 6
        s = identify_demo_sample()
        a = find_witness(s).a
        m = a.g_p.n_vertices
        crowded = CompletionCandidate(
            g_p=from_edges(m + 4, [*a.g_p.edge_array(), *[(0, m + k) for k in range(4)]]),
            x_tilde=np.concatenate([a.x_tilde, np.zeros(4)]),
        )
        assert s.reported_degrees[0] == 2 and degrees(crowded.g_p)[0] == 6
        assert not is_compatible(crowded, s)


class TestBuildSwapPair:
    def test_structure(self):
        s = hand_sample()
        pair = build_swap_pair(s, 0, 1, 5.0, -5.0)
        n = s.n
        # the attached units n and n + 1 carry x_u1 and x_u2
        assert pair.a.x_tilde[n:].tolist() == [5.0, -5.0]
        # candidates differ exactly in the two attachment edges
        a_edges = {tuple(e) for e in pair.a.g_p.edge_array()}
        b_edges = {tuple(e) for e in pair.b.g_p.edge_array()}
        assert a_edges - b_edges == {(0, n), (1, n + 1)}
        assert b_edges - a_edges == {(0, n + 1), (1, n)}

    def test_default_attached_values(self):
        s = hand_sample()
        center, spread = s.x_obs.mean(), s.x_obs.std()
        found = find_witness(s)
        assert (found.j, found.l) == (0, 1)
        assert (found.x_u1, found.x_u2) == (center + spread, center - spread)

    @pytest.mark.parametrize("x_obs", [
        [1e200, -1e200, 3e200, 0.0],  # the sd overflows float64
        [1e20] * 4,  # mean +/- 1 rounds to one float
    ])
    def test_default_values_that_overflow_or_collapse(self, x_obs):
        s = dataclasses.replace(hand_sample(), x_obs=np.array(x_obs))
        with pytest.raises(ComputationError, match="default attached values"):
            find_witness(s)


class TestCandidateMeans:
    def test_matches_loop_oracle(self):
        cases = [make_sample(seed=seed) for seed in range(10)]
        cases.append(make_sample(seed=5001, n_pop=1000, p=0.01, n=800))
        checked = 0
        for _, s in cases:
            pair = find_witness(s)
            if pair is None:
                continue
            for cand in (pair.a, pair.b):
                got = candidate_means(cand, s, PARAMS)
                assert got.shape == (s.n,)
                np.testing.assert_allclose(
                    got, candidate_means_loop(cand, s, PARAMS), rtol=1e-12, atol=0
                )
            checked += 1
        assert checked >= 5

    def test_isolated_unit_has_no_peer_term(self):
        # hand_sample's graph plus vertex 6, isolated in the population and sampled
        g = from_edges(
            7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (1, 4), (2, 4)]
        )
        s = recruit(g, np.array([0, 1, 2, 3, 6]),
                    x=[1.0, -0.5, 2.0, 0.25, 0.0, 0.0, 3.0], y=np.zeros(7))
        assert s.reported_degrees[4] == 0
        params = ModelParams(0.5, 2.0, 1.5, 1.0)
        pair = build_swap_pair(s, 0, 1, 5.0, 4.0)
        for cand in (pair.a, pair.b):
            got = candidate_means(cand, s, params)
            assert got[4] == 0.5 + 2.0 * 3.0
            assert got.tolist() == candidate_means_loop(cand, s, params).tolist()


class TestMeanSumGap:
    def test_closed_form_value(self):
        s = hand_sample()
        # reported degrees are 3 and 4, swapped values differ by 1
        pair = build_swap_pair(s, 0, 1, 5.0, 4.0)
        expected = 1.5 * (1.0 / 3.0 - 1.0 / 4.0) * 1.0
        assert mean_sum_gap(pair, PARAMS) == pytest.approx(expected, abs=1e-15)

    def test_direct_summation_oracle(self):
        for seed in range(25):
            _, s = make_sample(seed=seed)
            pair = find_witness(s)
            if pair is None:
                continue
            direct = float(
                np.sum(candidate_means(pair.a, s, PARAMS))
                - np.sum(candidate_means(pair.b, s, PARAMS))
            )
            assert abs(mean_sum_gap(pair, PARAMS) - direct) < 1e-12

    def test_equal_degrees_give_zero(self):
        s = hand_sample()
        pair = build_swap_pair(s, 0, 2, 5.0, 4.0)  # both have reported degree 3
        assert pair.d_j == pair.d_l
        assert mean_sum_gap(pair, PARAMS) == 0.0

    def test_zero_peer_effect_gives_zero(self):
        s = hand_sample()
        pair = build_swap_pair(s, 0, 1, 5.0, 4.0)
        assert mean_sum_gap(pair, ModelParams(0.0, 1.0, 0.0, 1.0)) == 0.0


class TestLikelihoodGap:
    def test_identical_candidates_zero(self):
        s = hand_sample()
        pair = build_swap_pair(s, 0, 1, 5.0, 4.0)
        clone = dataclasses.replace(pair, b=pair.a)
        assert likelihood_gap(clone, s.y_obs, PARAMS) == 0.0

    def test_generic_pair_positive(self):
        _, s = make_sample(seed=3)
        pair = find_witness(s)
        assert pair is not None and pair.d_j != pair.d_l
        assert likelihood_gap(pair, s.y_obs, PARAMS) > 1e-12

    def test_zero_peer_effect_zero_gap(self):
        _, s = make_sample(seed=4)
        pair = find_witness(s)
        assert pair is not None
        flat = ModelParams(0.0, 1.0, 0.0, 1.0)
        assert likelihood_gap(pair, s.y_obs, flat) == 0.0


class TestFindWitness:
    def test_deterministic_first_pair(self):
        _, s = make_sample(seed=5)
        a = find_witness(s)
        b = find_witness(s)
        assert a is not None
        assert (a.j, a.l) == (b.j, b.l)

    def test_none_when_no_slack(self):
        # census sample: every unit's neighbors are all observed
        g = connected_er(20, 0.3, np.random.default_rng(0))
        x = gen_covariates(20, 3.0, 1.5, np.random.default_rng(1))
        y = simulate_outcomes(g, x, PARAMS, np.random.default_rng(2))
        s = rns_sample(g, 20, np.random.default_rng(3), x, y)
        assert find_witness(s) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_same_pair_as_loop_oracle(self, seed):
        # a 60-cycle plus up to three chords: most degrees tie at 2, so the
        # first slack unit of another degree lies anywhere in the sample, or nowhere
        rng = np.random.default_rng(seed)
        ends = rng.choice(30, size=seed % 4, replace=False)
        g = from_edges(60, [(j, (j + 1) % 60) for j in range(60)] + [(j, j + 30) for j in ends])
        x = gen_covariates(60, 3.0, 1.5, rng)
        y = simulate_outcomes(g, x, PARAMS, rng)
        s = rns_sample(g, int(rng.integers(2, 50)), rng, x, y)
        pair = find_witness(s)
        expected = find_witness_loop(s)
        assert (None if pair is None else (pair.j, pair.l)) == expected
        if pair is not None:
            # what build_swap_pair takes as given from its one caller
            assert pair.j < pair.l
            for v in (pair.j, pair.l):
                assert s.reported_degrees[v] > s.observed_degrees[v]
            assert np.isfinite([pair.x_u1, pair.x_u2]).all() and pair.x_u1 != pair.x_u2

    def test_same_pair_when_degrees_tie_first(self):
        # slack units 0 and 1 share a degree: the pair is (0, first differing unit)
        s = hand_sample()
        s.reported_degrees = np.array([4, 4, 3, 2])
        assert find_witness_loop(s) == (0, 2)
        pair = find_witness(s)
        assert (pair.j, pair.l) == (0, 2)

    def test_none_on_complete_graph_sample(self):
        # every slack unit has degree n_pop - 1: no pair has distinct degrees
        g = from_edges(40, [(j, k) for j in range(40) for k in range(j + 1, 40)])
        x = gen_covariates(40, 3.0, 1.5, np.random.default_rng(1))
        y = simulate_outcomes(g, x, PARAMS, np.random.default_rng(2))
        s = rns_sample(g, 20, np.random.default_rng(3), x, y)
        assert find_witness_loop(s) is None
        assert find_witness(s) is None


class TestTrueCompletionLikelihood:
    def test_matches_full_graph_restriction(self):
        # the population-induced subgraph preserves every sampled unit's
        # neighborhood, so conditional means (and hence the likelihood)
        # computed on it agree with the full graph
        from netpeer.model import conditional_means

        for seed in range(20):
            g, x, s = make_instance(seed=seed, n_pop=100, p=0.08, n=30)
            p = population_induced(g, s)
            mu_full = conditional_means(g, x, PARAMS)[s.sampled_ids]
            mu_ind = conditional_means(p.g_p, x[p.origin], PARAMS)[: s.n]
            ll_full = log_likelihood(mu_full, s.y_obs, PARAMS.sigma2_eps)
            ll_ind = log_likelihood(mu_ind, s.y_obs, PARAMS.sigma2_eps)
            assert abs(ll_full - ll_ind) < 1e-10
