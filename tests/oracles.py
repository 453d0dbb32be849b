"""Analytic oracles for the tests, computed without netpeer.

expected_scaling_factor(N, p, f) is the finite-N attenuation that the
naive peer-effect estimate has under the documented model: an
Erdős–Rényi population of N units with edge probability p, and a
uniform without-replacement sample of round(f * N) units. The scaling
factor w_hat = sum(1/d_j) / sum(1/d^R_j) over sampled units with
d^R_j > 0 is a ratio of sums over exchangeable units, so its
large-replication mean is the ratio of the per-unit expectations

    w = E[1{d^R > 0} / d] / E[1{d^R > 0} / d^R],

with d ~ Bin(N - 1, p) and, given d, d^R ~ Hypergeom(N - 1, n - 1, d):
the unit's d neighbors are among the N - 1 other units, n - 1 of which
are sampled with it. As N grows at fixed f, w tends to f from below.

candidate_means_loop(candidate, observed, params) is the per-unit loop
that `identification.candidate_means` replaced by a segmented sum,
neighborhood_mean(g, x, j) the one-vertex mean that
`model.neighbor_mean_vector` computes for all vertices at once; both give
a unit of degree 0 a peer term of 0. neighbors(g, j)
and degree(g, j) one vertex's sorted neighbors and degree, and
validate_graph(g) the CSR invariants that every netpeer graph keeps: they
read only the arrays of the netpeer objects they are given.

critical_value(level, df) is the two-sided CI critical value from
scipy.stats: the normal quantile, or the t quantile with df degrees of
freedom. csr_int64(n, edges) builds the CSR arrays of an edge list with
int64 keys and `% n` at every n.

edge_list_error(n, edges) is the message `graph.from_edges` raises for an
edge list, or None when it accepts it: the range and self-loop checks, then
duplicates found by sorting each row and counting `np.unique` keys.
edge_list_text(g, tags) and sample_csv_text(s) are the bytes of the
edge-list and sample CSV files, one formatted string per line.
find_witness_loop(s) is the pair loop that `identification.find_witness`
replaced by one scan: (j, l) of the first slack pair by index with distinct
reported degrees, or None. likelihood_gap(pair, y, params) is the absolute
difference of the two log-likelihoods `identification.log_likelihoods` gives
a witness pair.

normal_equations_oracle(X, y) solves the 3x3 normal equations X'X b = X'y
by Cramer's rule in Python floats, the reference for `estimation.fit_mle`.
star(n) is the star graph on n vertices with centre 0.

er_one_geometric_call(n, p, rng) is G(n, p) by the geometric-skip scan
that `graph.generate_er` runs in batches, from one `geometric` call long
enough for any scan (every skip is at least 1), walked in Python over the
pairs (i, j), i < j, in lexicographic order; below p = 1/3, where numpy
inverts an exponential too, it is the independent reference.
er_inversion_loop(n, p, rng) walks the same pairs with one scalar
`rng.standard_exponential()` draw per skip, max(1, ceil(E / -log1p(-p))),
the law `graph.generate_er` draws at every p. er_geometric_batches(n, p, rng)
is the list of batch sizes that the batched scan requests, with each batch's
skips inverted the same way from `rng.standard_exponential(size)`.
zero_output_pcg64(seed) is a PCG64 Generator, with `default_rng(seed)`'s
increment, whose next 64-bit output is 0: its state is one step back through
the 128-bit LCG from one whose output is 0. Its first standard exponential is
exactly 0.0, the draw numpy's ziggurat makes once in 2**53.

reachable_oracle(g) tells whether every vertex is reachable from vertex 0
by a depth-first search over Python lists. connected_er(n, p, rng) is the
first `graph.generate_er` draw that reachable_oracle calls connected: the
tests draw their graphs with it where a test needs every unit to have a
neighbor.

read_records_csv(path) reads a `montecarlo.write_records_csv` file back into
its RepRecords, in row order; the file has no column for `var_corrected`,
which stays nan.

population_induced(g, s) extends a sample's recruitment subgraph with the
unsampled neighbors of the sampled units, the completion whose likelihood
equals the full graph's: it finds the edges with array code and builds the
graph with `graph.from_edges`.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from netpeer.errors import ComputationError, ValidationError
from netpeer.graph import Graph, from_edges, generate_er
from netpeer.identification import log_likelihoods
from netpeer.montecarlo import RepRecord

# binomial tail mass left out of the degree range
_TAIL = 1e-16


def expected_scaling_factor(n_pop: int, p: float, f: float) -> float:
    """Ratio-of-expectations scaling factor w(N, p, f); exactly 1 at f = 1."""
    n = math.floor(f * n_pop + 0.5)
    degree = stats.binom(n_pop - 1, p)
    d = np.arange(max(1, int(degree.ppf(_TAIL))), int(degree.isf(_TAIL)) + 1)
    k = np.arange(1, d[-1] + 1)
    # pmf[i, j] = P(d^R = k[j] | d = d[i]); zero for k > d
    pmf = stats.hypergeom.pmf(k[None, :], n_pop - 1, d[:, None], n - 1)
    weight = degree.pmf(d)
    num = float(np.sum(weight * pmf.sum(axis=1) / d))
    den = float(np.sum(weight * (pmf / k[None, :]).sum(axis=1)))
    return num / den


def critical_value(level: float, df=None) -> float:
    """Two-sided critical value at `level`: normal, or t with df degrees of freedom."""
    q = 0.5 + level / 2.0
    return float(stats.norm.ppf(q) if df is None else stats.t.ppf(q, df=df))


def csr_int64(n: int, edges) -> tuple:
    """(indices, offsets) of an undirected edge list, keyed src * n + dst as int64."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    keys = np.sort(np.concatenate([edges[:, 0] * n + edges[:, 1],
                                   edges[:, 1] * n + edges[:, 0]]))
    offsets = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return keys % n, offsets


def edge_list_error(n: int, edges):
    """Why `from_edges(n, edges)` must reject the list, or None if it must accept it."""
    if n < 0:
        return "vertex count must be nonnegative"
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        return "edge endpoint out of range"
    if np.any(edges[:, 0] == edges[:, 1]):
        return "self-loop in edge list"
    canon = np.sort(edges, axis=1)
    if np.unique(canon[:, 0] * n + canon[:, 1]).size != len(edges):
        return "duplicate edge in edge list"
    return None


def edge_list_text(g, tags=()) -> str:
    """The edge-list file: the header, one `# tag` line per tag, then `j,k` per edge."""
    lines = [f"# vertices={g.n_vertices}\n"] + [f"# {tag}\n" for tag in tags]
    for j in range(g.n_vertices):
        lines += [f"{j},{k}\n" for k in neighbors(g, j).tolist() if k > j]
    return "".join(lines)


def sample_csv_text(s) -> str:
    """The sample CSV: its header, then one row per unit; x and y as float reprs."""
    lines = ["unit_id,d_true,d_obs,x,y\n"]
    for r in range(s.n):
        lines.append(f"{int(s.sampled_ids[r])},{int(s.reported_degrees[r])},"
                     f"{int(s.observed_degrees[r])},{float(s.x_obs[r])!r},"
                     f"{float(s.y_obs[r])!r}\n")
    return "".join(lines)


def find_witness_loop(s):
    """(j, l) of the first pair of slack units, by index, with distinct reported degrees."""
    slack = np.flatnonzero(s.reported_degrees > s.observed_degrees)
    for a_pos in range(slack.size):
        for b_pos in range(a_pos + 1, slack.size):
            j, l = int(slack[a_pos]), int(slack[b_pos])
            if s.reported_degrees[j] != s.reported_degrees[l]:
                return j, l
    return None


def likelihood_gap(pair, y_obs, params) -> float:
    """Absolute log-likelihood difference of y under a witness pair's two candidates."""
    ll_a, ll_b = log_likelihoods(pair, y_obs, params)
    return abs(ll_a - ll_b)


def normal_equations_oracle(X, y) -> np.ndarray:
    """Independent 3x3 solve of X'X beta = X'y via Cramer's rule."""
    A = [[float(X[:, i] @ X[:, j]) for j in range(3)] for i in range(3)]
    b = [float(X[:, i] @ y) for i in range(3)]

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    d = det3(A)
    out = []
    for col in range(3):
        m = [row[:] for row in A]
        for i in range(3):
            m[i][col] = b[i]
        out.append(det3(m) / d)
    return np.array(out)


def star(n: int) -> Graph:
    """The star on n vertices: vertex 0 joined to every other vertex."""
    return from_edges(n, [(0, k) for k in range(1, n)])


def er_one_geometric_call(n: int, p: float, rng) -> Graph:
    """G(n, 0 < p <= 1) from a single geometric draw of n(n-1)/2 skips.

    The skips are summed as Python ints, so no p can wrap the sum."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges, k = [], -1
    for skip in rng.geometric(p, size=len(pairs)).tolist():
        k += skip
        if k >= len(pairs):
            break
        edges.append(pairs[k])
    return from_edges(n, edges)


def inversion_skip(e: float, p: float):
    """The geometric skip of one standard exponential e: max(1, ceil(e / -log1p(-p))),
    an int, or inf where the quotient overflows at the smallest p."""
    skip = e / -math.log1p(-p)
    return max(1, math.ceil(skip)) if skip < math.inf else skip


def er_inversion_loop(n: int, p: float, rng) -> Graph:
    """G(n, 0 < p < 1) from one rng.standard_exponential() draw per skip.

    The skips are summed as Python ints, so no p can wrap the sum."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges, k = [], -1
    while True:
        k += inversion_skip(rng.standard_exponential(), p)
        if k >= len(pairs):
            break
        edges.append(pairs[k])
    return from_edges(n, edges)


def er_geometric_batches(n: int, p: float, rng) -> list:
    """Batch sizes of the geometric-skip v3 scan of G(n, 0 < p < 1), each
    batch's skips inverted from rng.standard_exponential(size).

    A batch covers the mu edges expected in the pairs left plus 8 sqrt(mu),
    8 standard deviations of a Poisson count, plus 16 skips. The skips are
    summed as Python ints."""
    m_total = n * (n - 1) // 2
    sizes, current = [], -1
    while current < m_total - 1:
        mu = (m_total - current - 1) * p
        sizes.append(int(mu + 8 * math.sqrt(mu)) + 16)
        current += sum(inversion_skip(e, p) for e in rng.standard_exponential(sizes[-1]).tolist())
    return sizes


# numpy's PCG64 steps its 128-bit state s to s * MULTIPLIER + inc, then outputs
# rotr64(hi(s) ^ lo(s), s >> 122): 0 once hi(s) == lo(s)
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def zero_output_pcg64(seed: int) -> np.random.Generator:
    """A PCG64 Generator, with default_rng(seed)'s increment, whose next
    64-bit output is 0."""
    bit_generator = np.random.PCG64(seed)
    state = bit_generator.state
    inc = state["state"]["inc"]
    zero = (1 << 64) | 1  # hi == lo
    state["state"]["state"] = (zero - inc) * pow(PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def candidate_means_loop(candidate, observed, params) -> np.ndarray:
    """Per-sampled-unit conditional means under a completion, one unit at a time.

    The peer term sums x_tilde over the unit's neighbors in the candidate
    graph (row r of its CSR arrays) and divides by the reported degree; at
    a reported degree of 0 it is 0.
    """
    g = candidate.g_p
    means = np.empty(observed.n)
    for r in range(observed.n):
        nbrs = g.indices[g.offsets[r]:g.offsets[r + 1]]
        d = int(observed.reported_degrees[r])
        peer = float(candidate.x_tilde[nbrs].sum()) / d if d else 0.0
        means[r] = params.beta0 + params.beta1 * observed.x_obs[r] + params.beta2 * peer
    return means


def neighbors(g, j: int) -> np.ndarray:
    """Sorted neighbors of vertex j: row j of the CSR arrays (a view into `indices`)."""
    return g.indices[g.offsets[j]:g.offsets[j + 1]]


def neighborhood_mean(g, x, j: int) -> float:
    """(1/d_j) * sum of x over the neighbors of j; 0.0 for isolated j."""
    nbrs = g.indices[g.offsets[j]:g.offsets[j + 1]]
    if nbrs.size == 0:
        return 0.0
    return float(np.asarray(x, dtype=float)[nbrs].mean())


def degree(g, j: int) -> int:
    """Number of neighbors of vertex j: the length of row j of the CSR arrays."""
    return int(g.offsets[j + 1] - g.offsets[j])


def validate_graph(g) -> None:
    """Check the CSR invariants; raises ValidationError on a violation."""
    n = g.n_vertices
    if n < 0:
        raise ValidationError("negative vertex count")
    offsets, indices = np.asarray(g.offsets), np.asarray(g.indices)
    if offsets.shape != (n + 1,):
        raise ValidationError("offsets length does not match vertex count")
    if offsets[0] != 0 or offsets[-1] != indices.size or np.any(np.diff(offsets) < 0):
        raise ValidationError("offsets are not a nondecreasing cover of indices")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValidationError("neighbor index out of range")
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    if np.any(indices == src):
        raise ValidationError(f"vertex {src[np.argmax(indices == src)]}: self-loop")
    same_row = src[1:] == src[:-1]
    step = np.diff(indices)
    for bad, what in ((step == 0, "duplicate neighbor"), (step < 0, "row not sorted")):
        bad &= same_row
        if bad.any():
            raise ValidationError(f"vertex {src[np.argmax(bad)]}: {what}")
    # rows are sorted, so src*n + indices is ascending; symmetry means the
    # reversed pairs give the same key set
    if not np.array_equal(src * n + indices, np.sort(indices * n + src)):
        raise ValidationError("asymmetric edge")


def reachable_oracle(g) -> bool:
    """True iff a search from vertex 0 reaches every vertex (n <= 1: True).

    In an undirected graph that is connectivity: one vertex reaches all
    exactly when every vertex does.
    """
    n = g.n_vertices
    if n <= 1:
        return True
    indices, offsets = g.indices.tolist(), g.offsets.tolist()
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for w in indices[offsets[v]:offsets[v + 1]]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_er(n: int, p: float, rng, max_attempts: int = 1000) -> Graph:
    """The first G(n, p) draw from rng that reachable_oracle calls connected."""
    for _ in range(max_attempts):
        g = generate_er(n, p, rng)
        if reachable_oracle(g):
            return g
    raise ComputationError(f"no connected graph in {max_attempts} attempts (n={n}, p={p})")


def read_records_csv(path) -> list:
    """The RepRecords of a records CSV; a failed replication keeps its error text."""
    def pair(row, name):
        return float(row[name + "_lo"]), float(row[name + "_hi"])

    with open(path, newline="") as fh:
        return [
            RepRecord(
                rep_index=int(row["rep"]), ok=True,
                beta2_naive=float(row["beta2_naive"]),
                beta2_corrected=float(row["beta2_corrected"]),
                ci_naive=pair(row, "ci_naive"),
                ci_corrected=pair(row, "ci_corrected"),
                ci_corrected_wald=pair(row, "ci_corrected_wald"),
                w_hat=float(row["w_hat"]),
            ) if row["ok"] == "1" else
            RepRecord(rep_index=int(row["rep"]), ok=False, error=row["error"])
            for row in csv.DictReader(fh)
        ]


@dataclass
class PopulationInducedSubgraph:
    """Recruitment subgraph plus unsampled neighbors and the connecting edges.

    Local indices 0..n-1 are the sampled units (same order as the
    sample); n..n+u-1 are the unsampled boundary units. origin maps
    local indices back to population indices.
    """

    g_p: Graph
    boundary_ids: np.ndarray
    origin: np.ndarray
    n_recruited: int

    @property
    def u(self) -> int:
        return self.boundary_ids.size


def population_induced(g, s) -> PopulationInducedSubgraph:
    """Extend G_R with the unsampled neighbors of sampled units.

    V_U collects every unsampled unit adjacent to the sample. g_p keeps
    every edge of g with at least one sampled end: the G_R edges plus the
    sample-to-boundary edges (no boundary-boundary edges by construction).
    """
    ids = s.sampled_ids
    in_sample = np.zeros(g.n_vertices, dtype=bool)
    in_sample[ids] = True
    edges = g.edge_array()
    edges = edges[in_sample[edges].any(axis=1)]
    boundary = np.unique(edges[~in_sample[edges]])
    n, u = ids.size, boundary.size
    local = np.full(g.n_vertices, -1, dtype=np.int64)
    local[ids] = np.arange(n)
    local[boundary] = n + np.arange(u)
    return PopulationInducedSubgraph(
        g_p=from_edges(n + u, local[edges]),
        boundary_ids=boundary,
        origin=np.concatenate([ids, boundary]),
        n_recruited=n,
    )
