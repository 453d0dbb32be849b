import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netpeer import graph as graphmod, montecarlo
from oracles import (
    connected_er,
    csr_int64,
    degree,
    edge_list_error,
    edge_list_text,
    er_geometric_batches,
    er_inversion_loop,
    er_one_geometric_call,
    neighbors,
    reachable_oracle,
    star,
    validate_graph,
    zero_output_pcg64,
)
from netpeer.errors import ValidationError
from netpeer.graph import (
    Graph,
    degrees,
    from_edges,
    generate_er,
    induced_subgraph,
    neighbor_sums,
    read_edge_list,
    write_edge_list,
)
from netpeer.model import ModelParams
from netpeer.montecarlo import STREAM_GRAPH, draw_graph, stream


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


class RecordingRng:
    """A Generator that logs the size of every batch of skips drawn from it.

    It has no other method, so a draw through any other call fails."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def standard_exponential(self, size):
        self.sizes.append(size)
        return self.rng.standard_exponential(size)


class SkipsOfOne:
    """A stream whose every geometric-skip draw is 1."""

    def __init__(self, p):
        self.scale = -np.log1p(-p)

    def standard_exponential(self, size):
        # ceil(E / scale) = 1
        return np.full(size, self.scale / 2)


class ZeroAt:
    """default_rng(seed)'s standard exponentials, with the one at position k
    set to 0.0: a draw that a real PCG64 makes (zero_output_pcg64). A scalar
    draw and a batch read the same stream, as a Generator's do."""

    def __init__(self, seed, k):
        self.rng, self.k, self.position = np.random.default_rng(seed), k, 0

    def standard_exponential(self, size=None):
        e = self.rng.standard_exponential(1 if size is None else size)
        if 0 <= self.k - self.position < e.size:
            e[self.k - self.position] = 0.0
        self.position += e.size
        return float(e[0]) if size is None else e


class TestGenerateEr:
    def test_mean_edge_count_matches_binomial(self):
        # expected edges = p * n(n-1)/2 = 4995 at n=1000, p=0.01
        counts = [
            generate_er(1000, 0.01, np.random.default_rng(s)).n_edges()
            for s in range(200)
        ]
        assert abs(np.mean(counts) - 4995.0) / 4995.0 < 0.02

    @pytest.mark.parametrize("p", [0.5, 0.9])
    def test_mean_edge_count_matches_binomial_above_one_third(self, p):
        # numpy's geometric stops inverting an exponential at 1/3; the scan does
        # not, and its edge count must stay Bin(n(n-1)/2, p): the mean of 2,000
        # draws within 4 of its standard errors, a band set before the run
        n, draws = 60, 2000
        m = n * (n - 1) // 2
        counts = [generate_er(n, p, np.random.default_rng(s)).n_edges() for s in range(draws)]
        assert abs(np.mean(counts) - m * p) < 4 * np.sqrt(m * p * (1 - p) / draws)

    def test_mean_degree_matches_binomial(self):
        means = [
            degrees(generate_er(1000, 0.01, np.random.default_rng(s))).mean()
            for s in range(200)
        ]
        assert abs(np.mean(means) - 9.99) / 9.99 < 0.05

    @pytest.mark.parametrize("n,p", [(0, 0.5), (1, 0.5), (10, 0.3), (50, 0.05), (200, 0.9)])
    def test_invariants_hold(self, n, p):
        for seed in range(5):
            validate_graph(generate_er(n, p, np.random.default_rng(seed)))

    @pytest.mark.parametrize("n,p,seed,calls,m", [
        (60, 0.1, 4, 1, None),
        (300, 0.02, 9, 1, None),
        # skips near 2**63 end the scan at once: the sum must not wrap
        (201, 1e-300, 5, 1, 0),
        (201, 1e-19, 6, 1, 0),
        (5, 0.999, 7, 1, 10),  # the first ten skips are 1: the complete graph
        # numpy's switch from inversion to search: the double below 1/3, 1/3 itself
        # (numpy's literal threshold rounds to it), the double above, and 1/2
        (60, 0.33333333333333326, 11, 1, 600),
        (60, 0.3333333333333333, 12, 1, 568),
        (60, 0.33333333333333337, 13, 1, 574),
        (60, 0.5, 14, 1, 870),
    ])
    def test_matches_one_geometric_call(self, n, p, seed, calls, m):
        # below 1/3 Generator.geometric inverts a standard exponential too and
        # is the reference; from 1/3 up numpy draws otherwise, and the scalar
        # inversion loop is the reference
        rng = RecordingRng(np.random.default_rng(seed))
        g = generate_er(n, p, rng)
        assert len(rng.sizes) == calls
        assert m is None or g.n_edges() == m
        oracle = er_one_geometric_call if p < 1 / 3 else er_inversion_loop
        assert same_csr(g, oracle(n, p, np.random.default_rng(seed)))

    @pytest.mark.parametrize("k", [0, 1, 5, 40])
    def test_zero_exponential_is_a_skip_of_one(self, k):
        # E = 0 inverts to a skip of 0: at position 0 it made pair index -1,
        # later it repeated a pair. Clipped to 1, it is the next pair
        g = generate_er(60, 0.1, ZeroAt(4, k))
        validate_graph(g)
        assert same_csr(g, er_inversion_loop(60, 0.1, ZeroAt(4, k)))

    def test_a_pcg64_draws_a_zero_exponential(self):
        # the zero of ZeroAt is a real draw: the state one LCG step before an
        # output of 0 gives E = 0.0, and the scan starts at pair (0, 1)
        assert zero_output_pcg64(4).standard_exponential() == 0.0
        g = generate_er(60, 0.1, zero_output_pcg64(4))
        validate_graph(g)
        assert neighbors(g, 0)[0] == 1
        assert same_csr(g, er_inversion_loop(60, 0.1, zero_output_pcg64(4)))

    @pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-19, 1e-6, 0.01, 0.2, 0.33333333333333326,
                                   0.3333333333333333, 0.33333333333333337, 0.9, 0.999])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_leaves_the_generator_where_geometric_does(self, p, seed):
        # a redraw continues on the same stream, so the state after a draw is
        # part of the output; tiny p must also raise no overflow warning
        n = 201
        rng = RecordingRng(np.random.default_rng(seed))
        generate_er(n, p, rng)
        generate_er(n, p, rng)
        # every batch reads what standard_exponential(size) reads, which below
        # 1/3 is what Generator.geometric reads: the replay there uses the latter
        replay = np.random.default_rng(seed)
        for size in rng.sizes:
            if p < 1 / 3:
                replay.geometric(p, size=size)
            else:
                replay.standard_exponential(size)
        assert rng.rng.bit_generator.state == replay.bit_generator.state
        # the batches are the ones the scan's skips request, not only the
        # skips the scan uses
        want = np.random.default_rng(seed)
        assert rng.sizes == er_geometric_batches(n, p, want) + er_geometric_batches(n, p, want)

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_skips_of_one_give_the_complete_graph_over_batches(self, p):
        # a stream whose every skip is 1 hits every pair, so the scan runs out
        # of its first batches and joins the hits of several (E = scale / 2
        # gives a skip of 1)
        n = 60
        rng = RecordingRng(SkipsOfOne(p))
        assert same_csr(generate_er(n, p, rng), complete(n))
        assert len(rng.sizes) >= 2
        assert rng.sizes == er_geometric_batches(n, p, SkipsOfOne(p))

    @pytest.mark.parametrize("n", [1000, 10_000])
    def test_one_batch_sized_to_the_draw(self, n):
        # one batch ends the scan, and at N=10^4 it draws at most 2% more
        # skips than the draw has edges
        for seed in range(20):
            rng = RecordingRng(np.random.default_rng(seed))
            g = generate_er(n, 0.01, rng)
            assert len(rng.sizes) == 1
            if n == 10_000:
                assert rng.sizes[0] <= 1.02 * g.n_edges()

    def test_deterministic_given_seed(self):
        a = generate_er(100, 0.05, np.random.default_rng(7))
        b = generate_er(100, 0.05, np.random.default_rng(7))
        assert same_csr(a, b)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_rejects_p_at_zero_and_one(self, p):
        # p = 0 leaves the peer mean undefined, p = 1 makes it linear in own x;
        # either is refused before the generator is touched
        rng = RecordingRng(np.random.default_rng(0))
        before = rng.rng.bit_generator.state
        with pytest.raises(ValidationError, match=r"^edge density must be in \(0, 1\)$"):
            generate_er(5, p, rng)
        assert rng.sizes == []
        assert rng.rng.bit_generator.state == before

    def test_rejects_bad_p(self):
        with pytest.raises(ValidationError, match=r"^edge density must be in \(0, 1\)$"):
            generate_er(5, 1.5, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            generate_er(-1, 0.5, np.random.default_rng(0))

    @pytest.mark.parametrize("n,p", [(10**7, 0.5), (20_000, 0.999)])
    def test_rejects_expected_edges_above_max_edges(self, n, p):
        # refused before any allocation
        assert n * (n - 1) // 2 * p > graphmod.MAX_EDGES
        with pytest.raises(ValidationError, match="expected edge count"):
            generate_er(n, p, np.random.default_rng(0))


def corner_edges(n):
    """The edges of a sparse G(n, p) draw plus the corner pairs (0, n-1) and
    (n-2, n-1), unique and ascending: the corners give the largest keys and
    the last row's neighbors. A single vertex has no pair."""
    g = generate_er(n, 2e-6, np.random.default_rng(n))
    validate_graph(g)
    corners = [[0, n - 1], [n - 2, n - 1]] if n > 1 else np.empty((0, 2), dtype=np.int64)
    return np.unique(np.vstack([g.edge_array(), corners]), axis=0)


class TestCsrKeyWidth:
    """Keys src << bits | dst sort as uint32 below n = 2**16 and as int64
    from there on; bits grows by one past each power of two. At n = 2**16
    the keys fit 32 bits but the last row bound n << 16 does not."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1023, 1024, 1025, 2**16 - 1, 2**16, 2**16 + 1])
    def test_matches_int64_oracle(self, n):
        edges = corner_edges(n)
        want_indices, want_offsets = csr_int64(n, edges)
        # _edge_keys takes either orientation of an edge
        keys, bits = graphmod._edge_keys(n, edges[:, 1], edges[:, 0])
        keys.sort()
        got_csr = graphmod._csr(n, keys, bits, np.empty(n + 1, dtype=np.int64))
        for got in (got_csr, from_edges(n, edges)):
            for array, want in ((got.indices, want_indices), (got.offsets, want_offsets)):
                assert array.dtype == want.dtype == np.int64
                assert array.tobytes() == want.tobytes()


class TestCsrBytesPinned:
    """The CSR arrays are pinned byte for byte, indices then offsets, as
    drawn, as re-read and as induced: every record and pinned file rests on
    them."""

    @staticmethod
    def digest(g):
        return hashlib.sha256(g.indices.tobytes() + g.offsets.tobytes()).hexdigest()

    def test_generate_er_and_induced_subgraph(self):
        g = generate_er(10_000, 0.01, np.random.default_rng(8))
        assert self.digest(g) == "c109f043456ff241c37acd0d370eb06de3f079352d1368007a60f2e7d079a1f0"
        for k, want in (
            (2000, "acce8be1cf519afdee27f268a54d3207a85f08859e921f214983d4faea7fe3e2"),
            (8000, "9f738d3a77232a6cbfc03b6b07a19bc746bd2c69a0be8d406fb3e6334c57a257"),
        ):
            members = np.sort(np.random.default_rng(1).choice(10_000, k, replace=False))
            assert self.digest(induced_subgraph(g, members)) == want

    @pytest.mark.parametrize("n,p,seed,m,isolated,want", [
        # int64 keys: n = 2**16, the first width past uint32, and the sparse
        # regime N=10^5, p=10^-4, whose draw holds isolated vertices
        (2**16, 1e-4, 16, 214240, 93,
         "a5422aed79422a715ca8e8192ba3de505046969bc4ebbbbbd12051fd008f3c63"),
        (100_000, 1e-4, 9, 501161, 5,
         "9a4dc57b3e9720b54ba1e3de697b9824b3ab144962d3d416d352f5f76350225e"),
    ])
    def test_generate_er_int64_keys(self, n, p, seed, m, isolated, want):
        g = generate_er(n, p, np.random.default_rng(seed))
        assert (g.n_edges(), int((degrees(g) == 0).sum())) == (m, isolated)
        assert self.digest(g) == want

    @pytest.mark.parametrize("n,m,want", [
        (2**16 - 1, 4232, "f4aaae4f676ea6a88962345141dbbc3492ce4ec4c966f4528db086d4aeae0fe0"),
        (2**16, 4392, "eb302477f03cf009dcfa0d184d703ef332cb77cef1d9659a6295be16d109c8d9"),
        (2**16 + 1, 4332, "61110e4493ad91b2717eb54beb9d4454725b280ed993fbf42368db004c986daf"),
    ])
    def test_from_edges(self, n, m, want):
        edges = corner_edges(n)
        assert len(edges) == m
        assert self.digest(from_edges(n, edges[:, ::-1])) == want


class TestPairIndexToEdges:
    """Linear pair indices map to the keys that _edge_keys gives the
    lexicographic pairs (i, j), i < j, byte for byte and in its dtype."""

    @staticmethod
    def assert_keys_of(n, idx, pairs):
        got, got_bits = graphmod._pair_keys(idx, n)
        want, want_bits = graphmod._edge_keys(n, pairs[:, 0], pairs[:, 1])
        assert got_bits == want_bits
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(7))
    def test_every_subset_matches_combinations(self, n):
        pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64).reshape(-1, 2)
        every = np.arange(len(pairs), dtype=np.int64)
        # each subset of the pairs, the empty one and the last pair included, as a bit mask
        for mask in range(2 ** len(pairs)):
            idx = every[(mask >> every) & 1 == 1]
            self.assert_keys_of(n, idx, pairs[idx])

    @pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1])
    def test_key_width_corners(self, n):
        # uint32 keys end below 2**16 and bits grows by one past it; the corner
        # pairs (0, n-1) and (n-2, n-1) give the largest keys and row constants
        pairs = corner_edges(n)
        i, j = pairs[:, 0], pairs[:, 1]
        idx = i * n - i * (i + 1) // 2 + j - i - 1
        assert (idx[1:] > idx[:-1]).all() and idx[-1] == n * (n - 1) // 2 - 1
        self.assert_keys_of(n, idx, pairs)


def traced_peak(fn):
    """fn's result and the peak of numpy and Python allocations during the call, in MiB."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """The N=10^4 draw and subgraph hold no dead arrays. Holding them peaked
    at 36.0 MiB for the draw and 22.2 MiB for the f=0.8 subgraph. Without
    them the draw peaked at 19.2 MiB while the int64 endpoints lived
    through the CSR sort, and at 15.25 MiB once they died before it. Keys
    packed from the int64 endpoints peaked there too, in _edge_keys, where
    the endpoints, their key-type casts and the keys were live (15.96 MiB
    with batches of 1.2 times the expected edges). Keys built straight from
    the pair indices, in their own dtype, leave no endpoints: the draw
    peaks at 12.26 MiB, about 26 bytes per edge, in _csr, where the sorted
    uint32 keys and the int64 indices are live. With int64 keys _csr masks
    the keys in place, and the N=10^5, p=10^-4 draw peaks at 16.09 MiB in
    _pair_keys (17.59 while _csr copied them into new indices, 15.30 from
    the endpoints, before the row offsets were allocated ahead of the
    scan). The row-mask
    subgraph peaked at 16.14 MiB (16.12 through row positions) while it
    gathered the kept entries into one new array and relabelled them into
    another; gathering and relabelling in the kept positions' own buffer
    brings it to 12.02 MiB. A whole f=0.8 replication's traced peak came
    with it: 24.04 MiB before, 19.93 after, against 15.91 at f=0.2, where
    populate's gather of x over the 2|E| neighbor entries, beside the
    graph, sets the peak. Each bound sits above its peak.

    These are tracemalloc peaks, not the resident set: the glibc heap
    keeps what a replication frees, and the first N=10^4 replication sets
    nearly all of the resident high-water, stage by stage (README,
    "Performance"), so the subgraph's peak hardly moves peak_rss_mb."""

    def test_draw_peak(self):
        # the TestSamplerPinned draw: 499,680 edges, a 7.6 MiB CSR
        g, peak = traced_peak(lambda: generate_er(10_000, 0.01, np.random.default_rng(8)))
        assert g.n_edges() == 499680
        # 12.26 MiB plus 6%, about the margin the bound of 17.0 MiB left over 15.96
        assert peak < 13.0

    def test_int64_key_draw_peak(self):
        # n >= 2**16 takes int64 keys: 501,161 edges, a 7.6 MiB CSR
        g, peak = traced_peak(lambda: generate_er(100_000, 1e-4, np.random.default_rng(9)))
        assert g.n_edges() == 501161
        # 16.09 MiB plus 6%
        assert peak < 17.0

    def test_skip_scan_peak(self, monkeypatch):
        # the scan holds a batch of skips and their sums, 3.9 MiB each here,
        # 8.51 MiB in all (4.6 MiB each under batches of 1.2 times the
        # expected edges); cumsum(skips, dtype=np.int64) would hold a third,
        # its cast copy
        scan = []
        real = graphmod._pair_keys

        def after_scan(idx, n):
            scan.append(tracemalloc.get_traced_memory()[1] / 2**20)
            return real(idx, n)
        monkeypatch.setattr(graphmod, "_pair_keys", after_scan)
        traced_peak(lambda: generate_er(10_000, 0.01, np.random.default_rng(8)))
        assert len(scan) == 1 and scan[0] < 9.0

    def test_induced_subgraph_peak(self):
        g = generate_er(10_000, 0.01, np.random.default_rng(8))
        members = np.sort(np.random.default_rng(0).choice(10_000, 8000, replace=False))
        sub, peak = traced_peak(lambda: induced_subgraph(g, members))
        assert sub.n_vertices == 8000
        assert peak < 13.0

    @pytest.mark.parametrize("f, bound", [(0.8, 21.0), (0.2, 17.0)])
    def test_replication_peak(self, f, bound):
        # the second of two reps, so that nothing made once per process counts
        cell = montecarlo.ExperimentCell(10_000, 0.01, f, ModelParams(), reps=2, master_seed=5)
        assert montecarlo.run_replication(cell, 0).ok
        rec, peak = traced_peak(lambda: montecarlo.run_replication(cell, 1))
        assert rec.ok
        assert peak < bound


class TestConnectedEr:
    """`oracles.connected_er` redraws G(n, p) until the graph is connected."""

    def test_returns_connected(self):
        # montecarlo.draw_graph keeps the first draw of the graph stream; at
        # this seed it is connected, so connected_er keeps the same draw
        g = draw_graph((3,), 50, 0.15)
        assert same_csr(g, generate_er(50, 0.15, stream((3,), STREAM_GRAPH)))
        assert same_csr(g, connected_er(50, 0.15, stream((3,), STREAM_GRAPH)))
        assert degrees(g).all() and reachable_oracle(g)


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
        assert same_csr(g, induced_subgraph(g, np.arange(30)))

    def test_degree_monotone(self):
        g = generate_er(40, 0.3, np.random.default_rng(2))
        members = np.array([0, 3, 5, 8, 13, 21, 34])
        sub = induced_subgraph(g, members)
        full = degrees(g)
        for old in members:
            assert degree(sub, int(np.searchsorted(members, old))) <= full[old]

    def test_edges_require_both_endpoints(self):
        g = path(4)
        members = np.array([0, 2, 3])
        sub = induced_subgraph(g, members)
        # only the 2-3 edge survives
        assert sub.n_edges() == 1
        assert degree(sub, int(np.searchsorted(members, 0))) == 0

    def test_out_of_range_member(self):
        with pytest.raises(ValidationError):
            induced_subgraph(path(4), [0, 7])

    @pytest.mark.parametrize("f", [0.2, 0.8])
    def test_matches_relabelled_edge_list_at_n_10000(self, f):
        g = generate_er(10_000, 0.01, np.random.default_rng(8))
        members = np.sort(np.random.default_rng(1).choice(10_000, int(f * 10_000), replace=False))
        edges = g.edge_array()
        kept = edges[np.isin(edges, members).all(axis=1)]
        want = from_edges(members.size, np.searchsorted(members, kept))
        before = g.indices.tobytes(), g.offsets.tobytes()
        got = induced_subgraph(g, members)
        assert same_csr(got, want)
        assert got.indices.dtype == got.offsets.dtype == np.int64
        # the in-place gathers write only the function's own buffer
        assert (g.indices.tobytes(), g.offsets.tobytes()) == before
        assert not np.shares_memory(got.indices, g.indices)

    @pytest.mark.parametrize("members", [
        [65_536, 3, 70_000, 0, 65_535, 12_345],  # unsorted
        [7, 65_536, 7, 70_000, 65_536, 0, 0],  # repeated
        [],  # empty
    ])
    def test_member_lists_past_uint32_keys(self, members):
        n = 2**16 + 5_000
        edges = corner_edges(n)
        # join the listed vertices to one another, so that some edges survive
        listed = np.unique(np.asarray(members, dtype=np.int64))
        extra = np.array(list(itertools.combinations(listed, 2)), dtype=np.int64).reshape(-1, 2)
        edges = np.unique(np.vstack([edges, extra]), axis=0)
        g = from_edges(n, edges)
        kept = edges[np.isin(edges, listed).all(axis=1)]
        want = from_edges(listed.size, np.searchsorted(listed, kept))
        got = induced_subgraph(g, members)
        assert same_csr(got, want)
        assert got.indices.dtype == got.offsets.dtype == np.int64
        assert got.indices.size // 2 >= len(extra)


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

    @pytest.mark.parametrize("graph, tags", [
        (from_edges(0, []), ()),
        (from_edges(4, []), ("sample",)),
        (path(3), ("sample", "second tag")),
        (generate_er(300, 0.05, np.random.default_rng(8)), ()),
    ])
    def test_bytes_equal_oracle(self, tmp_path, graph, tags):
        p = tmp_path / "g.edges"
        write_edge_list(graph, p, tags=tags)
        assert p.read_bytes() == edge_list_text(graph, tags).encode()

    @pytest.mark.parametrize("chunk", [1, 7, 2221, 2222, 2223])
    def test_bytes_equal_oracle_in_chunks(self, tmp_path, monkeypatch, chunk):
        # 2222 edges: chunks that divide them, leave one over, or hold all of them
        g = generate_er(300, 0.05, np.random.default_rng(8))
        assert g.n_edges() == 2222
        monkeypatch.setattr(graphmod, "WRITE_CHUNK_EDGES", chunk)
        p = tmp_path / "g.edges"
        write_edge_list(g, p, tags=("sample",))
        assert p.read_bytes() == edge_list_text(g, ("sample",)).encode()

    def test_bytes_equal_oracle_past_one_chunk(self, tmp_path):
        g = generate_er(1200, 0.1, np.random.default_rng(3))
        assert g.n_edges() > graphmod.WRITE_CHUNK_EDGES
        p = tmp_path / "g.edges"
        write_edge_list(g, p)
        assert p.read_bytes() == edge_list_text(g).encode()

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
        ("# vertices=3\n0,1\n0,1\n", "duplicate edge"),
        ("# vertices=3\n0,5\n", "endpoint out of range"),
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


class TestIntegerVertexCount:
    """A vertex count of any integer type is used as the equal Python int."""

    @pytest.mark.parametrize("kind", [np.int64, np.int32])
    def test_numpy_integer_draws_the_same_graph(self, kind):
        g = generate_er(kind(1000), 0.01, np.random.default_rng(0))
        assert same_csr(g, generate_er(1000, 0.01, np.random.default_rng(0)))
        assert type(g.n_vertices) is int

    @pytest.mark.parametrize("kind", [np.int64, np.int32])
    def test_numpy_integer_builds_the_same_graph(self, kind):
        g = from_edges(kind(5), [[0, 1]])
        assert same_csr(g, from_edges(5, [[0, 1]])) and type(g.n_vertices) is int

    def test_float_and_negative_counts_rejected(self):
        with pytest.raises(ValidationError, match="must be an integer"):
            generate_er(1000.0, 0.01, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="must be an integer"):
            from_edges(1000.0, [[0, 1]])
        with pytest.raises(ValidationError, match="nonnegative"):
            from_edges(-1, [])


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

    @staticmethod
    def assert_matches_oracle(n, edges):
        """from_edges rejects with the oracle's message, or builds the oracle's CSR."""
        expected = edge_list_error(n, edges)
        if expected is not None:
            with pytest.raises(ValidationError, match=f"^{expected}$"):
                from_edges(n, edges)
            return
        g = from_edges(n, edges)
        validate_graph(g)
        indices, offsets = csr_int64(n, edges)
        assert np.array_equal(g.indices, indices) and np.array_equal(g.offsets, offsets)

    @pytest.mark.parametrize("n, edges, verdict", [
        (3, [(0, 1), (1, 0)], "duplicate"),  # reversed duplicate
        (4, [(2, 3), (0, 1), (3, 2)], "duplicate"),
        (3, [(0, 1), (0, 1)], "duplicate"),
        (0, [], None),
        (1, [], None),
        (5, [], None),
        (0, [(0, 0)], "endpoint"),
        (1, [(0, 0)], "self-loop"),
        (1, [(0, 1)], "endpoint"),
        (3, [(1, 0), (2, 1), (0, 2)], None),
        # the checks run in order: range, then self-loop, then duplicate
        (3, [(2, 2), (0, 1), (0, 1)], "self-loop"),
        (3, [(0, 1), (0, 1), (1, 1), (0, 5)], "endpoint"),
        # and so they do with int64 keys
        (2**16, [(0, 1), (65535, 65535), (1, 0), (0, 65536)], "endpoint"),
        (2**16, [(0, 1), (65535, 65535), (1, 0)], "self-loop"),
        (2**16, [(0, 1), (65534, 65535), (1, 0)], "duplicate"),
    ] + [
        # at both key widths, uint32 then int64: a pair repeated, repeated in
        # the other orientation, and the largest pair repeated
        (n, edges, "duplicate") for n in (2**16 - 1, 2**16) for edges in (
            [(0, 1), (5, 9), (0, 1)],
            [(0, 1), (5, 9), (1, 0)],
            [(n - 2, n - 1), (0, 1), (n - 2, n - 1)],
        )
    ])
    def test_matches_unique_oracle(self, n, edges, verdict):
        message = edge_list_error(n, edges)
        assert (message is None) if verdict is None else (verdict in message)
        self.assert_matches_oracle(n, edges)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6), st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7)),
                                       max_size=12))
    def test_matches_unique_oracle_random(self, n, edges):
        self.assert_matches_oracle(n, edges)

    def test_shuffled_er_list(self):
        rng = np.random.default_rng(3)
        g = generate_er(400, 0.03, rng)
        edges = rng.permutation(g.edge_array())
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        self.assert_matches_oracle(400, edges)
        assert same_csr(from_edges(400, edges), g)
        # the same list with one edge repeated in the other orientation
        self.assert_matches_oracle(400, np.vstack([edges, edges[7, ::-1]]))


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

    def test_edge_digest_above_one_third(self):
        # geometric-skip v3, pinned when it took over from Generator.geometric
        # at p >= 1/3
        g = generate_er(300, 0.5, np.random.default_rng(21))
        assert g.n_edges() == 22293
        edges = g.edge_array().astype("<i8").tobytes()
        digest = "ba009f5a206ca1e429e94499ddfeaded4c09392eeb5f719318f0236a9b3daa8b"
        assert hashlib.sha256(edges).hexdigest() == digest


def csr(n, rows):
    """A Graph built directly from per-vertex neighbor lists, unchecked."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    indices = np.array([k for r in rows for k in r], dtype=np.int64)
    return Graph(n, indices, offsets)


class TestValidate:
    def test_valid_graph_passes(self):
        validate_graph(csr(3, [[1, 2], [0], [0]]))

    @pytest.mark.parametrize("rows,message", [
        ([[1, 3], [0], []], "out of range"),
        ([[0, 1], [0], []], "self-loop"),
        ([[1, 1], [0, 0], []], "duplicate"),
        ([[2, 1], [0], [0]], "not sorted"),
        ([[1, 2], [0], []], "asymmetric"),
    ])
    def test_rejects_broken_rows(self, rows, message):
        with pytest.raises(ValidationError, match=message):
            validate_graph(csr(3, rows))

    def test_rejects_wrong_offsets_length(self):
        g = csr(3, [[1], [0], []])
        with pytest.raises(ValidationError, match="offsets length"):
            validate_graph(Graph(4, g.indices, g.offsets))


def set_adjacency(n, edges):
    adj = {j: set() for j in range(n)}
    for j, k in edges:
        adj[j].add(k)
        adj[k].add(j)
    return adj


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
        validate_graph(g)
        adj = set_adjacency(n, edges)
        assert [set(neighbors(g, j).tolist()) for j in range(n)] == [adj[j] for j in range(n)]
        assert g.edge_array().tolist() == sorted(sorted(e) for e in edges)
        vals = np.arange(n) + 0.5  # sums of these are exact
        assert neighbor_sums(g, vals).tolist() == [sum(vals[k] for k in adj[j]) for j in range(n)]

        members = sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0))))) if n else []
        sub = induced_subgraph(g, members)
        validate_graph(sub)
        new = {old: i for i, old in enumerate(members)}
        assert [set(neighbors(sub, new[j]).tolist()) for j in members] == [
            {new[k] for k in adj[j] if k in new} for j in members
        ]

        p = tmp_path_factory.mktemp("io") / "g.edges"
        write_edge_list(g, p)
        h = read_edge_list(p)
        assert same_csr(g, h)
