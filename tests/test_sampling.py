from types import SimpleNamespace

import numpy as np
import pytest

from netpeer import graph as graphmod
from netpeer.errors import AllIsolatedSampleError, ValidationError
from netpeer.graph import degrees, from_edges, generate_er
from netpeer.sampling import (
    population_induced,
    read_sample_csv,
    rns_sample,
    sample_size,
    scaling_factor,
    scaling_factor_variance,
    write_sample_csv,
)


def star(n):
    return from_edges(n, [(0, k) for k in range(1, n)])


class TestSampleSize:
    def test_round_half_up(self):
        assert sample_size(10, 0.25) == 3
        assert sample_size(1000, 0.2) == 200
        assert sample_size(3, 0.5) == 2

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValidationError):
            sample_size(10, 0.0)
        with pytest.raises(ValidationError):
            sample_size(10, 1.5)


class TestRnsSample:
    def test_census_recovers_graph(self):
        g = generate_er(60, 0.1, np.random.default_rng(0))
        s = rns_sample(g, 60, np.random.default_rng(1))
        assert np.array_equal(s.observed_degrees, s.reported_degrees)
        assert np.array_equal(s.g_r.indices, g.indices)
        assert np.array_equal(s.g_r.offsets, g.offsets)

    def test_single_unit(self):
        g = generate_er(10, 0.5, np.random.default_rng(0))
        s = rns_sample(g, 1, np.random.default_rng(1))
        assert s.n == 1
        assert list(s.observed_degrees) == [0]

    def test_out_of_range(self):
        g = generate_er(10, 0.5, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            rns_sample(g, 0, np.random.default_rng(1))
        with pytest.raises(ValidationError):
            rns_sample(g, 11, np.random.default_rng(1))

    def test_deterministic(self):
        g = generate_er(50, 0.2, np.random.default_rng(0))
        a = rns_sample(g, 10, np.random.default_rng(9))
        b = rns_sample(g, 10, np.random.default_rng(9))
        assert np.array_equal(a.sampled_ids, b.sampled_ids)

    def test_degree_ratio_tracks_fraction(self):
        # each neighbor survives with probability (n-1)/(N-1) ~ f
        ratios = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            g = generate_er(1000, 0.01, rng)
            s = rns_sample(g, 200, rng)
            pos = s.reported_degrees > 0
            ratios.append(
                np.mean(s.observed_degrees[pos] / s.reported_degrees[pos])
            )
        assert abs(np.mean(ratios) - 0.2) < 0.02

    def test_unit_data_restriction(self):
        g = generate_er(30, 0.2, np.random.default_rng(2))
        x = np.arange(30.0)
        y = x * 2
        s = rns_sample(g, 7, np.random.default_rng(3), x, y)
        assert np.array_equal(s.x_obs, x[s.sampled_ids])
        assert np.array_equal(s.y_obs, y[s.sampled_ids])

    def test_sample_monotonicity(self):
        # adding a vertex to the sample never decreases observed degrees
        g = generate_er(40, 0.2, np.random.default_rng(4))
        base = np.array([1, 5, 9, 17, 23])
        sub, mapping = graphmod.induced_subgraph(g, base)
        bigger, mapping2 = graphmod.induced_subgraph(g, np.append(base, 30))
        for old in base:
            assert bigger.degree(int(mapping2[old])) >= sub.degree(int(mapping[old]))


class TestPopulationInduced:
    def test_census_has_no_boundary(self):
        g = generate_er(40, 0.15, np.random.default_rng(0))
        s = rns_sample(g, 40, np.random.default_rng(1))
        p = population_induced(g, s)
        assert p.u == 0
        assert p.g_p.n_edges() == g.n_edges()

    def test_star_leaf_sample(self):
        g = star(5)
        s = rns_sample(from_edges(5, []), 1, np.random.default_rng(0))
        # force a specific leaf: build the sample by hand via rns on g until leaf
        for seed in range(50):
            s = rns_sample(g, 1, np.random.default_rng(seed))
            if s.sampled_ids[0] != 0:
                break
        assert s.sampled_ids[0] != 0
        p = population_induced(g, s)
        assert list(p.boundary_ids) == [0]
        assert p.g_p.n_edges() == 1

    def test_definition_on_hand_graph(self):
        # two sampled units, one shared outside neighbor, one outside-outside
        # edge that must NOT appear
        g = from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        s = rns_sample(g, 2, np.random.default_rng(0))
        # rebuild with a fixed choice instead of luck
        ids = np.array([0, 1])
        sub, _ = graphmod.induced_subgraph(g, ids)
        from netpeer.sampling import RecruitmentSample

        s = RecruitmentSample(
            sampled_ids=ids,
            g_r=sub,
            observed_degrees=degrees(sub),
            reported_degrees=degrees(g)[ids],
        )
        p = population_induced(g, s)
        assert list(p.boundary_ids) == [2]
        # edges: (0,1) recruited, plus (0,2) and (1,2); never (2,3)
        assert p.g_p.n_edges() == 3
        assert p.u == 1
        # every boundary vertex touches the recruited set
        local_boundary = 2
        assert all(k < 2 for k in p.g_p.neighbors(local_boundary))

    def test_nesting_invariant(self):
        g = generate_er(50, 0.1, np.random.default_rng(5))
        s = rns_sample(g, 12, np.random.default_rng(6))
        p = population_induced(g, s)
        # V_R subset V_P subset V; E_R subset E_P subset E
        assert s.n <= p.g_p.n_vertices <= g.n_vertices
        pop_edges = {(min(a, b), max(a, b)) for a, b in g.edge_array()}
        for a, b in p.g_p.edge_array():
            pa, pb = int(p.origin[a]), int(p.origin[b])
            assert (min(pa, pb), max(pa, pb)) in pop_edges
        r_edges = {
            (int(s.sampled_ids[a]), int(s.sampled_ids[b]))
            for a, b in s.g_r.edge_array()
        }
        p_edges = {
            (min(int(p.origin[a]), int(p.origin[b])),
             max(int(p.origin[a]), int(p.origin[b])))
            for a, b in p.g_p.edge_array()
        }
        assert r_edges <= p_edges


class TestScalingFactor:
    def test_census_is_one(self):
        g = generate_er(40, 0.2, np.random.default_rng(0))
        s = rns_sample(g, 40, np.random.default_rng(1))
        assert scaling_factor(s) == 1.0

    def test_hand_arithmetic(self):
        s = SimpleNamespace(
            observed_degrees=np.array([2, 1]), reported_degrees=np.array([4, 5])
        )
        assert scaling_factor(s) == pytest.approx((0.25 + 0.2) / (0.5 + 1.0), abs=1e-15)
        assert scaling_factor(s) == pytest.approx(0.30, abs=1e-12)

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(3)
        d = rng.integers(1, 30, size=50)
        dr = np.minimum(d, rng.integers(1, 10, size=50))
        perm = rng.permutation(50)
        a = SimpleNamespace(observed_degrees=dr, reported_degrees=d)
        b = SimpleNamespace(observed_degrees=dr[perm], reported_degrees=d[perm])
        assert scaling_factor(a) == scaling_factor(b)

    def test_all_isolated_error(self):
        s = SimpleNamespace(
            observed_degrees=np.array([0, 0]), reported_degrees=np.array([3, 4])
        )
        with pytest.raises(AllIsolatedSampleError):
            scaling_factor(s)

    def test_isolated_units_excluded_from_both_sums(self):
        s = SimpleNamespace(
            observed_degrees=np.array([2, 0, 1]),
            reported_degrees=np.array([4, 9, 5]),
        )
        assert scaling_factor(s) == pytest.approx((0.25 + 0.2) / (0.5 + 1.0), abs=1e-15)


class TestScalingFactorVariance:
    def test_census_is_zero(self):
        g = generate_er(40, 0.2, np.random.default_rng(0))
        s = rns_sample(g, 40, np.random.default_rng(1))
        assert scaling_factor_variance(s, scaling_factor(s)) == 0.0

    def test_hand_arithmetic(self):
        # units with d^R > 0: a = (1/4, 1/5), b = (1/2, 1), w = 0.3, so the
        # residuals a - w b are (0.1, -0.1) and m = 2
        s = SimpleNamespace(
            observed_degrees=np.array([2, 0, 1]),
            reported_degrees=np.array([4, 9, 5]),
        )
        expected = 2 / 1 * (0.1**2 + 0.1**2) / 1.5**2
        assert scaling_factor_variance(s, 0.3) == pytest.approx(expected, rel=1e-12)

    def test_all_isolated_error(self):
        s = SimpleNamespace(
            observed_degrees=np.array([0, 0]), reported_degrees=np.array([3, 4])
        )
        with pytest.raises(AllIsolatedSampleError):
            scaling_factor_variance(s, 0.5)


class TestSampleCsv:
    def test_round_trip(self, tmp_path):
        g = generate_er(30, 0.15, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(3, 1.5, 30)
        y = np.random.default_rng(2).normal(0, 1, 30)
        s = rns_sample(g, 10, np.random.default_rng(3), x, y)
        p = tmp_path / "sample.csv"
        write_sample_csv(s, p)
        back = read_sample_csv(p, s.g_r)
        assert np.array_equal(back.sampled_ids, s.sampled_ids)
        assert np.array_equal(back.reported_degrees, s.reported_degrees)
        assert np.array_equal(back.x_obs, s.x_obs)
        assert np.array_equal(back.y_obs, s.y_obs)

    def test_header(self, tmp_path):
        g = generate_er(10, 0.3, np.random.default_rng(0))
        s = rns_sample(g, 4, np.random.default_rng(1))
        p = tmp_path / "sample.csv"
        write_sample_csv(s, p)
        assert p.read_text().splitlines()[0] == "unit_id,d_true,d_obs,x,y"

    def test_round_trip_without_unit_data(self, tmp_path):
        g = generate_er(30, 0.15, np.random.default_rng(0))
        s = rns_sample(g, 10, np.random.default_rng(3))
        p = tmp_path / "sample.csv"
        write_sample_csv(s, p)
        back = read_sample_csv(p, s.g_r)
        assert back.x_obs is None and back.y_obs is None
        assert np.array_equal(back.sampled_ids, s.sampled_ids)
        assert np.array_equal(back.reported_degrees, s.reported_degrees)
        assert np.array_equal(back.observed_degrees, s.observed_degrees)

    def test_nan_in_every_row_is_no_unit_data(self, tmp_path):
        g = generate_er(30, 0.15, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(3, 1.5, 30)
        s = rns_sample(g, 10, np.random.default_rng(3), x, x + 1.0)
        p = tmp_path / "sample.csv"
        write_sample_csv(s, p)
        header, *rows = p.read_text().splitlines()
        p.write_text("\n".join([header, *(_set(r, 3, "nan") for r in rows)]) + "\n")
        back = read_sample_csv(p, s.g_r)
        assert back.x_obs is None and np.array_equal(back.y_obs, s.y_obs)


def _set(row, col, value):
    fields = row.split(",")
    fields[col] = value
    return ",".join(fields)


def _first_tied(rows):
    # index of the first row with d_obs > 0
    return next(i for i, r in enumerate(rows) if int(r.split(",")[2]) > 0)


class TestSampleCsvRejects:
    """Every check of read_sample_csv, one malformed file each."""

    MUTATIONS = {
        "missing row": (lambda rows: rows[:-1], "rows for"),
        "extra row": (lambda rows: rows + ["999,1,0,1.0,1.0"], "rows for"),
        "rows swapped": (lambda rows: [rows[1], rows[0], *rows[2:]], "ascending"),
        "duplicate id": (lambda rows: [rows[0], *rows[:-1]], "ascending"),
        "negative id": (lambda rows: [_set(rows[0], 0, "-1"), *rows[1:]], "nonnegative"),
        "d_obs off": (
            lambda rows: [_set(rows[0], 2, str(int(rows[0].split(",")[2]) + 1)),
                          *rows[1:]],
            "d_obs disagrees",
        ),
        "d_true below d_obs": (
            lambda rows: [_set(r, 1, "0") if i == _first_tied(rows) else r
                          for i, r in enumerate(rows)],
            "exceeds",
        ),
        "one blank x": (lambda rows: [_set(rows[0], 3, ""), *rows[1:]], "every row"),
        "one blank y": (lambda rows: [*rows[:-1], _set(rows[-1], 4, "")], "every row"),
        "nan x": (lambda rows: [_set(rows[0], 3, "nan"), *rows[1:]], "every row"),
        "inf y": (lambda rows: [_set(rows[0], 4, "-inf"), *rows[1:]], "every row"),
        "non-integer id": (lambda rows: [_set(rows[0], 0, "0.5"), *rows[1:]],
                           "could not convert"),
        "short row": (lambda rows: [rows[0].rsplit(",", 1)[0], *rows[1:]], "columns"),
    }

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_rejects(self, tmp_path, name):
        g = generate_er(30, 0.15, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(3, 1.5, 30)
        s = rns_sample(g, 10, np.random.default_rng(3), x, x + 1.0)
        p = tmp_path / "sample.csv"
        write_sample_csv(s, p)
        header, *rows = p.read_text().splitlines()
        mutate, match = self.MUTATIONS[name]
        p.write_text("\n".join([header, *mutate(rows)]) + "\n")
        with pytest.raises(ValidationError, match=match):
            read_sample_csv(p, s.g_r)
