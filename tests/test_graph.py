import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netpeer import graph as graphmod
from netpeer.errors import ConnectivityError, ValidationError
from netpeer.graph import (
    Graph,
    degrees,
    from_edges,
    generate_connected_er,
    generate_er,
    induced_subgraph,
    is_connected,
    neighbor_sums,
    read_edge_list,
    write_edge_list,
)


def star(n):
    return from_edges(n, [(0, k) for k in range(1, n)])


def path(n):
    return from_edges(n, [(k, k + 1) for k in range(n - 1)])


def complete(n):
    return from_edges(n, list(itertools.combinations(range(n), 2)))


def same_csr(a, b):
    return (
        a.n_vertices == b.n_vertices
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.offsets, b.offsets)
    )


def reachable_oracle(g):
    """Brute-force reachability: DFS from every vertex over python sets."""
    n = g.n_vertices
    if n <= 1:
        return True
    adj = {j: set(g.neighbors(j).tolist()) for j in range(n)}
    for start in range(n):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            return False
    return True


class TestGenerateEr:
    def test_p_zero_is_empty(self):
        g = generate_er(5, 0.0, np.random.default_rng(0))
        assert g.n_edges() == 0
        assert list(degrees(g)) == [0] * 5

    def test_p_one_is_complete(self):
        g = generate_er(5, 1.0, np.random.default_rng(0))
        assert list(degrees(g)) == [4] * 5

    def test_mean_edge_count_matches_binomial(self):
        # expected edges = p * n(n-1)/2 = 4995 at n=1000, p=0.01
        counts = [
            generate_er(1000, 0.01, np.random.default_rng(s)).n_edges()
            for s in range(200)
        ]
        assert abs(np.mean(counts) - 4995.0) / 4995.0 < 0.02

    def test_mean_degree_matches_binomial(self):
        means = [
            degrees(generate_er(1000, 0.01, np.random.default_rng(s))).mean()
            for s in range(200)
        ]
        assert abs(np.mean(means) - 9.99) / 9.99 < 0.05

    @pytest.mark.parametrize("n,p", [(0, 0.5), (1, 0.5), (10, 0.3), (50, 0.05), (200, 0.9)])
    def test_invariants_hold(self, n, p):
        for seed in range(5):
            generate_er(n, p, np.random.default_rng(seed)).validate()

    def test_deterministic_given_seed(self):
        a = generate_er(100, 0.05, np.random.default_rng(7))
        b = generate_er(100, 0.05, np.random.default_rng(7))
        assert same_csr(a, b)

    def test_rejects_bad_p(self):
        with pytest.raises(ValidationError):
            generate_er(5, 1.5, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            generate_er(-1, 0.5, np.random.default_rng(0))


class TestConnectedEr:
    def test_returns_connected(self):
        g = generate_connected_er(50, 0.15, np.random.default_rng(3))
        assert is_connected(g)

    def test_exhausted_attempts(self):
        with pytest.raises(ConnectivityError) as err:
            generate_connected_er(100, 0.001, np.random.default_rng(0), max_attempts=3)
        assert err.value.attempts == 3


class TestIsConnected:
    def test_path_connected(self):
        assert is_connected(path(3))

    def test_two_disjoint_edges(self):
        assert not is_connected(from_edges(4, [(0, 1), (2, 3)]))

    def test_nine_vertex_connected(self):
        # a 9-vertex connected graph with a few cross ties
        g = from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                           (6, 7), (7, 8), (1, 5), (2, 7)])
        assert is_connected(g)

    def test_trivial_graphs(self):
        assert is_connected(from_edges(0, []))
        assert is_connected(from_edges(1, []))

    def test_matches_oracle_exhaustively_small(self):
        # every graph on up to 6 vertices
        for n in range(2, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(2 ** len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
                g = from_edges(n, np.array(edges).reshape(-1, 2))
                assert is_connected(g) == reachable_oracle(g)

    def test_matches_oracle_random_larger(self):
        # random sample at 7 and 8 vertices (exhaustive is out of reach)
        rng = np.random.default_rng(11)
        for n in (7, 8):
            pairs = list(itertools.combinations(range(n), 2))
            for _ in range(300):
                mask = rng.random(len(pairs)) < rng.uniform(0.05, 0.5)
                edges = [pairs[i] for i in range(len(pairs)) if mask[i]]
                g = from_edges(n, np.array(edges).reshape(-1, 2))
                assert is_connected(g) == reachable_oracle(g)


class TestDegrees:
    def test_complete_four(self):
        assert list(degrees(complete(4))) == [3, 3, 3, 3]

    def test_star_five(self):
        assert list(degrees(star(5))) == [4, 1, 1, 1, 1]


class TestNeighborSums:
    def test_star_five(self):
        vals = np.array([10.0, 1.0, 2.0, 3.0, 4.0])
        assert neighbor_sums(star(5), vals).tolist() == [10.0] * 5

    def test_isolated_vertices_sum_to_zero(self):
        g = from_edges(5, [(1, 3)])
        assert neighbor_sums(g, np.arange(5.0)).tolist() == [0.0, 3.0, 0.0, 1.0, 0.0]
        assert neighbor_sums(from_edges(0, []), np.empty(0)).size == 0


class TestInducedSubgraph:
    def test_full_set_is_identity(self):
        g = generate_er(30, 0.2, np.random.default_rng(1))
        sub, mapping = induced_subgraph(g, np.arange(30))
        assert np.array_equal(mapping, np.arange(30))
        assert same_csr(g, sub)

    def test_degree_monotone(self):
        g = generate_er(40, 0.3, np.random.default_rng(2))
        members = np.array([0, 3, 5, 8, 13, 21, 34])
        sub, mapping = induced_subgraph(g, members)
        full = degrees(g)
        for old in members:
            assert sub.degree(int(mapping[old])) <= full[old]

    def test_edges_require_both_endpoints(self):
        g = path(4)
        sub, mapping = induced_subgraph(g, [0, 2, 3])
        # only the 2-3 edge survives
        assert sub.n_edges() == 1
        assert sub.degree(int(mapping[0])) == 0

    def test_out_of_range_member(self):
        with pytest.raises(ValidationError):
            induced_subgraph(path(4), [0, 7])


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = generate_er(25, 0.2, np.random.default_rng(5))
        p = tmp_path / "g.edges"
        write_edge_list(g, p)
        h = read_edge_list(p)
        assert h.n_vertices == g.n_vertices
        assert same_csr(g, h)

    def test_header_format(self, tmp_path):
        p = tmp_path / "g.edges"
        write_edge_list(path(3), p, tags=("sample",))
        lines = p.read_text().splitlines()
        assert lines[0] == "# vertices=3"
        assert lines[1] == "# sample"
        assert lines[2:] == ["0,1", "1,2"]

    def test_rejects_self_loop(self, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("# vertices=3\n1,1\n")
        with pytest.raises(ValidationError):
            read_edge_list(p)

    def test_rejects_duplicate(self, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("# vertices=3\n0,1\n0,1\n")
        with pytest.raises(ValidationError):
            read_edge_list(p)

    def test_rejects_missing_header(self, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("0,1\n")
        with pytest.raises(ValidationError):
            read_edge_list(p)

    def test_rejects_reversed_pair(self, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("# vertices=3\n2,1\n")
        with pytest.raises(ValidationError):
            read_edge_list(p)

    def test_round_trip_without_edges(self, tmp_path):
        # loadtxt warns on a table with no rows; tier-1 turns warnings into errors
        p = tmp_path / "g.edges"
        write_edge_list(from_edges(4, []), p, tags=("sample",))
        h = read_edge_list(p)
        assert h.n_vertices == 4 and h.n_edges() == 0
        assert same_csr(h, from_edges(4, []))

    @pytest.mark.parametrize("text, match", [
        ("# vertices=abc\n0,1\n", "vertices"),
        ("# vertices=10000001\n", "vertices"),
        ("# vertices=99999999999999999999\n0,1\n", "vertices"),
        ("# vertices=3\n0,x\n", "could not convert"),
        ("# vertices=3\n0,1.0\n", "could not convert"),
        ("# vertices=3\n0,1,2\n", "columns"),
        ("# vertices=3\n0\n", "columns"),
        ("", "vertices"),
    ])
    def test_rejects_malformed(self, tmp_path, text, match):
        p = tmp_path / "bad.edges"
        p.write_text(text)
        with pytest.raises(ValidationError, match=match) as info:
            read_edge_list(p)
        assert str(p) in str(info.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            read_edge_list(tmp_path / "absent.edges")


class TestFromEdges:
    def test_rejects_duplicates_and_loops(self):
        with pytest.raises(ValidationError):
            from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(ValidationError):
            from_edges(3, [(2, 2)])
        with pytest.raises(ValidationError):
            from_edges(3, [(0, 5)])

    def test_rejects_negative_vertex_count(self, tmp_path):
        p = tmp_path / "neg.edges"
        p.write_text("# vertices=-1\n")
        with pytest.raises(ValidationError):
            read_edge_list(p)


class TestSamplerPinned:
    """The geometric-skip draw is pinned bit for bit: the Monte Carlo records
    at a fixed seed depend on it."""

    @pytest.mark.parametrize("n,seed,m,digest", [
        (1000, 7, 5024,
         "45b9747b3e7bf60481bd02c44d342352ba5a2eb42647d8b19e9a22d58d50e9c2"),
        (10000, 8, 499680,
         "8b62e2acf558e21b9f624a05ee136e06c080a8553a0e34194ef36fabbbbe3b93"),
    ])
    def test_edge_digest(self, n, seed, m, digest):
        g = generate_er(n, 0.01, np.random.default_rng(seed))
        assert g.n_edges() == m
        edges = g.edge_array().astype("<i8").tobytes()
        assert hashlib.sha256(edges).hexdigest() == digest


def csr(n, rows):
    """A Graph built directly from per-vertex neighbor lists, unchecked."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    indices = np.array([k for r in rows for k in r], dtype=np.int64)
    return Graph(n, indices, offsets)


class TestValidate:
    def test_valid_graph_passes(self):
        csr(3, [[1, 2], [0], [0]]).validate()

    @pytest.mark.parametrize("rows,message", [
        ([[1, 3], [0], []], "out of range"),
        ([[0, 1], [0], []], "self-loop"),
        ([[1, 1], [0, 0], []], "duplicate"),
        ([[2, 1], [0], [0]], "not sorted"),
        ([[1, 2], [0], []], "asymmetric"),
    ])
    def test_rejects_broken_rows(self, rows, message):
        with pytest.raises(ValidationError, match=message):
            csr(3, rows).validate()

    def test_rejects_wrong_offsets_length(self):
        g = csr(3, [[1], [0], []])
        with pytest.raises(ValidationError, match="offsets length"):
            Graph(4, g.indices, g.offsets).validate()


def set_adjacency(n, edges):
    adj = {j: set() for j in range(n)}
    for j, k in edges:
        adj[j].add(k)
        adj[k].add(j)
    return adj


def set_connected(n, adj):
    if n <= 1:
        return True
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


@st.composite
def edge_lists(draw):
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    # either orientation, any order: from_edges must canonicalise
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = [(k, j) if flip else (j, k) for (j, k), flip in zip(chosen, flips)]
    return n, edges


class TestAgainstSetAdjacency:
    @settings(max_examples=200, deadline=None)
    @given(edge_lists(), st.data())
    def test_csr_matches_sets(self, tmp_path_factory, case, data):
        n, edges = case
        g = from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        g.validate()
        adj = set_adjacency(n, edges)
        assert [set(g.neighbors(j).tolist()) for j in range(n)] == [adj[j] for j in range(n)]
        assert g.edge_array().tolist() == sorted(sorted(e) for e in edges)
        assert is_connected(g) == set_connected(n, adj)
        vals = np.arange(n) + 0.5  # sums of these are exact
        assert neighbor_sums(g, vals).tolist() == [sum(vals[k] for k in adj[j]) for j in range(n)]

        members = sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0))))) if n else []
        sub, mapping = induced_subgraph(g, members)
        sub.validate()
        new = {old: i for i, old in enumerate(members)}
        assert [set(sub.neighbors(new[j]).tolist()) for j in members] == [
            {new[k] for k in adj[j] if k in new} for j in members
        ]
        assert mapping.tolist() == [new.get(j, -1) for j in range(n)]

        p = tmp_path_factory.mktemp("io") / "g.edges"
        write_edge_list(g, p)
        h = read_edge_list(p)
        assert same_csr(g, h)
