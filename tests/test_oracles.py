import itertools

import numpy as np
import pytest

from netpeer.graph import from_edges
from oracles import (
    connected_er,
    er_inversion_loop,
    er_one_geometric_call,
    expected_scaling_factor,
    reachable_oracle,
    zero_output_pcg64,
)


class TestExpectedScalingFactor:
    def test_census_is_one(self):
        # f = 1 observes every neighbor, so d^R = d for every unit
        for n_pop, p in ((60, 0.1), (1000, 0.01)):
            assert expected_scaling_factor(n_pop, p, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_exhaustive_enumeration(self):
        # every graph on 5 vertices, weighted by its probability, and every
        # 2-unit sample: ratio of the expected sums over sampled units
        n_pop, p, n = 5, 0.3, 2
        pairs = list(itertools.combinations(range(n_pop), 2))
        num = den = 0.0
        for mask in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            weight = p ** len(edges) * (1 - p) ** (len(pairs) - len(edges))
            deg = [sum(j in e for e in edges) for j in range(n_pop)]
            for sample in itertools.combinations(range(n_pop), n):
                for j in sample:
                    d_r = sum(j in e and (set(e) - {j}) <= set(sample) for e in edges)
                    if d_r:
                        num += weight / deg[j]
                        den += weight / d_r
        assert expected_scaling_factor(n_pop, p, n / n_pop) == pytest.approx(
            num / den, rel=1e-12
        )

    def test_below_fraction_and_rising_with_n(self):
        for f in (0.2, 0.8):
            small = expected_scaling_factor(1000, 0.01, f)
            large = expected_scaling_factor(10_000, 0.01, f)
            assert small < large < f


class TestReachableOracle:
    def test_path_connected(self):
        assert reachable_oracle(from_edges(3, [(0, 1), (1, 2)]))

    def test_two_disjoint_edges(self):
        assert not reachable_oracle(from_edges(4, [(0, 1), (2, 3)]))

    def test_nine_vertex_connected(self):
        # a 9-vertex connected graph with a few cross ties
        g = from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                           (6, 7), (7, 8), (1, 5), (2, 7)])
        assert reachable_oracle(g)

    def test_trivial_graphs(self):
        assert reachable_oracle(from_edges(0, []))
        assert reachable_oracle(from_edges(1, []))

    @pytest.mark.parametrize("shape", ["isolated last vertex", "two components"])
    def test_disconnected(self, shape):
        g = connected_er(60, 0.15, np.random.default_rng(4))
        edges = g.edge_array()
        if shape == "isolated last vertex":
            h = from_edges(61, edges)
        else:
            h = from_edges(120, np.vstack([edges, edges + 60]))
        assert reachable_oracle(g) and not reachable_oracle(h)


class TestSkipOracles:
    @pytest.mark.parametrize("p,seed", [(0.05, 0), (0.3, 1), (0.33333333333333326, 2)])
    def test_inversion_loop_is_numpy_geometric_below_one_third(self, p, seed):
        # below 1/3 numpy's geometric inverts the same exponentials, one per skip
        a = er_inversion_loop(40, p, np.random.default_rng(seed))
        b = er_one_geometric_call(40, p, np.random.default_rng(seed))
        assert np.array_equal(a.edge_array(), b.edge_array())

    @pytest.mark.parametrize("seed", [0, 2])
    def test_zero_output_pcg64(self, seed):
        assert zero_output_pcg64(seed).bit_generator.random_raw() == 0
