"""Undirected simple graphs: Erdős–Rényi generation and structural queries.

Vertices are dense 0-based indices. Adjacency is stored in CSR form: one
flat int64 array `indices` holding every vertex's neighbors, row after
row, each row sorted ascending, plus `offsets` (length n_vertices + 1)
so that row j is indices[offsets[j]:offsets[j + 1]]. Graphs are frozen
after construction and are safe to share across worker processes.
"""

from __future__ import annotations

import math
import operator
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# bound on an edge list's vertex count: its CSR offsets take 8 bytes per vertex
MAX_VERTICES = 10**7
# bound on a G(n, p) draw's expected edge count n(n-1)/2 * p: its CSR indices
# take 16 bytes per edge, 1.6 GB at the bound. The draw peaks at about 26 bytes
# per edge with uint32 keys (n < 2**16) and 34 with int64 ones (N=10^5, p=10^-4),
# the CSR included, but an f=0.8 replication peaks higher, in the induced
# subgraph beside the graph: about 42 bytes per edge (tracemalloc, N=10^4, p=1%)
MAX_EDGES = 10**8
# edges formatted per write in write_edge_list: about 58 bytes each while formatted
WRITE_CHUNK_EDGES = 2**16


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph over vertices 0..n_vertices-1, in CSR form."""

    n_vertices: int
    indices: np.ndarray  # int64; rows sorted, no duplicates, no self-loops
    offsets: np.ndarray  # int64, length n_vertices + 1, offsets[0] == 0

    def n_edges(self) -> int:
        return self.indices.size // 2

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array, j < k in each row, rows ascending."""
        src = _row_ids(self.offsets)
        upper = self.indices > src
        return np.column_stack([src[upper], self.indices[upper]])


def _row_ids(offsets: np.ndarray) -> np.ndarray:
    """Row (vertex) of every entry of a CSR `indices` array."""
    n = offsets.size - 1
    return np.arange(n, dtype=np.int64).repeat(offsets[1:] - offsets[:-1])


def _key_layout(n: int) -> tuple:
    """(dtype, bits) of the keys src << bits | dst over n vertices, with bits
    the bit length of n - 1, so that 2**bits >= n.

    The keys are uint32, which sorts faster than int64, when n < 2**16:
    the largest value _csr computes is the last row bound n << bits, which
    fits 32 bits only below 2**16 (at n = 2**16 it wraps to 0).
    """
    return (np.uint32 if n < 2**16 else np.int64), max(1, (n - 1).bit_length())


def _edge_keys(n: int, a: np.ndarray, b: np.ndarray) -> tuple:
    """(keys, bits): both orientations of the edges (a[e], b[e]), each edge
    listed once, as _key_layout's keys; once sorted, the input of _csr."""
    key_type, bits = _key_layout(n)
    a, b = a.astype(key_type, copy=False), b.astype(key_type, copy=False)
    keys = np.empty(2 * a.size, dtype=key_type)
    forward, backward = keys[:a.size], keys[a.size:]
    np.left_shift(a, bits, out=forward)
    forward |= b
    np.left_shift(b, bits, out=backward)
    backward |= a
    return keys, bits


def _csr(n: int, keys: np.ndarray, bits: int, offsets: np.ndarray) -> Graph:
    """CSR graph of _edge_keys' or _pair_keys' keys, which the caller has
    sorted, with its row offsets written into `offsets` (n + 1 int64).

    Sorted keys are grouped by source with every row's neighbors ascending.
    A caller drops the endpoint arrays before its sort, so that the sort
    holds only the keys.
    """
    offsets[:] = keys.searchsorted(np.arange(n + 1, dtype=keys.dtype) << bits)
    # a key's low bits are its neighbor: uint32 keys widen to int64 in the
    # same pass, and int64 keys are masked in place
    indices = keys if keys.dtype == np.int64 else np.empty(keys.size, dtype=np.int64)
    np.bitwise_and(keys, (1 << bits) - 1, out=indices)
    return Graph(n, indices, offsets)


def check_integer(value, what: str) -> int:
    """value as a Python int; a float, which int() would truncate, is a ValidationError.

    A numpy integer is converted too: _key_layout takes a Python int's bit length.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, not {value!r}") from None


def from_edges(n: int, edges: np.ndarray) -> Graph:
    """Build a Graph from an edge array, rejecting self-loops and duplicates.

    Each edge gives both orientations' keys, so a pair listed twice, in
    either orientation, is two equal adjacent keys once sorted.
    """
    n = check_integer(n, "vertex count")
    if n < 0:
        raise ValidationError("vertex count must be nonnegative")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a, b = edges[:, 0], edges[:, 1]
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise ValidationError("edge endpoint out of range")
        if np.any(a == b):
            raise ValidationError("self-loop in edge list")
    keys, bits = _edge_keys(n, a, b)
    keys.sort()
    if np.any(keys[1:] == keys[:-1]):
        raise ValidationError("duplicate edge in edge list")
    return _csr(n, keys, bits, np.empty(n + 1, dtype=np.int64))


def _pair_keys(idx: np.ndarray, n: int) -> tuple:
    """_edge_keys' (keys, bits) of the pairs (i, j), i < j, at the ascending
    linear indices idx; row i covers pairs (i, i+1..n-1), from starts[i] on.

    Pair starts[i] + t is (i, i + 1 + t): its forward key is idx plus the
    row constant (i << bits) + i + 1 - starts[i], positive as 2**bits >= n.
    Each index, constant and key fits the key type, so the sums are exact.
    """
    key_type, bits = _key_layout(n)
    rows = np.arange(n, dtype=np.int64)
    starts = rows * n - rows * (rows + 1) // 2
    bounds = idx.searchsorted(starts)  # starts[n - 1] = n*(n-1)/2 exceeds every index
    row_keys = ((rows << bits) + rows + 1 - starts)[:-1].astype(key_type, copy=False)
    row_keys = row_keys.repeat(bounds[1:] - bounds[:-1])
    del rows, starts, bounds
    keys = np.empty(2 * idx.size, dtype=key_type)
    forward, backward = keys[:idx.size], keys[idx.size:]
    np.add(idx, row_keys, out=forward, dtype=key_type, casting="unsafe")
    np.bitwise_and(forward, (1 << bits) - 1, out=backward)
    backward <<= bits
    np.right_shift(forward, bits, out=row_keys)
    backward |= row_keys
    return keys, bits


def check_er_size(n: int, p: float) -> int:
    """n, as a Python int, of a valid G(n, p) request.

    Raises ValidationError, before anything is allocated, above MAX_VERTICES or
    MAX_EDGES or at p outside (0, 1), where the peer mean is absent or linear in x.
    """
    n = check_integer(n, "vertex count")
    if not 0 <= n <= MAX_VERTICES:
        raise ValidationError(f"n must be in [0, {MAX_VERTICES}]")
    if not 0.0 < p < 1.0:
        raise ValidationError("edge density must be in (0, 1)")
    expected = n * (n - 1) // 2 * p
    if expected > MAX_EDGES:
        raise ValidationError(
            f"expected edge count n(n-1)/2 * p = {expected:.3g} exceeds {MAX_EDGES:.0e}")
    return n


def generate_er(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Draw G(n, p): each unordered pair carries an edge independently with prob p.

    Uses a geometric-skip scan (Batagelj & Brandes 2005) over the
    linearized pair indices, which draws the exact G(n, p) distribution in
    O(edges) work. Deterministic per seed (algorithm version:
    geometric-skip v3, v2's edges below p = 1/3).

    Each skip inverts a standard exponential E, ceil(E / -log1p(-p)), the
    exact geometric law at every p (Devroye 1986, X.2), and is at least 1:
    numpy's exponential is 0.0 once in 2**53 draws. Below p = 1/3 numpy's
    Generator.geometric draws the same inversion, so there the scan leaves
    rng where rng.geometric(p, size=batch) would.
    A batch covers the edges expected in the pairs left plus 8 standard
    deviations; the skips past the last pair are dropped. The edges do not
    depend on the batch sizes, but the state a draw leaves rng in does: v1's
    batches held 1.2 times the expected edges.
    """
    n = check_er_size(n, p)
    # allocated before the scan, low in the heap, so that the keys freed after
    # the CSR build join its free top, where populate's neighbor gather reuses them
    offsets = np.empty(n + 1, dtype=np.int64)
    m_total = n * (n - 1) // 2
    hits = [np.empty(0, dtype=np.int64)]
    current = -1
    # math.log1p is libm's, as numpy's C is; the ufunc may take a SIMD kernel
    scale = -math.log1p(-p)
    while current < m_total - 1:
        expected = (m_total - current - 1) * p  # a second batch has odds under 1e-15
        batch = int(expected + 8 * math.sqrt(expected)) + 16
        skips = rng.standard_exponential(batch)
        # -E / log1p(-p) overflows to inf at the smallest p
        with np.errstate(over="ignore"):
            skips /= scale
        np.ceil(skips, out=skips)
        # a skip of 0, from E = 0, would repeat a pair; one past the last pair
        # ends the scan, and clipping there keeps an inf out of the int64 cast
        # and the sum from wrapping at tiny p, exact in float64 as m_total + 1 < 2**53
        np.clip(skips, 1, m_total + 1, out=skips)
        # a draw peaks at the sum of the arrays still bound, so each dies once
        # read; cumsum(skips, dtype=np.int64) would hold a third, its cast copy
        cand = skips.astype(np.int64, copy=False)
        del skips
        # the running offset rides on the first skip into the sums
        cand[0] += current
        cand.cumsum(out=cand)
        current = int(cand[-1])
        # the skips are positive, so the pair indices come out ascending and
        # the hits are a prefix, kept as a view
        hits.append(cand[:cand.searchsorted(m_total)])
        del cand
    # one batch usually ends the scan, and concatenating would copy it
    idx = hits[1] if len(hits) == 2 else np.concatenate(hits)
    del hits
    keys, bits = _pair_keys(idx, n)
    del idx
    keys.sort()
    return _csr(n, keys, bits, offsets)


def degrees(g: Graph) -> np.ndarray:
    """Degree of every vertex, as an int array of length n_vertices."""
    return g.offsets[1:] - g.offsets[:-1]


def neighbor_sums(g: Graph, values: np.ndarray) -> np.ndarray:
    """Sum of `values` over each vertex's neighbors; 0.0 for an isolated vertex."""
    sums = np.zeros(g.n_vertices)
    # CSR rows are grouped by vertex, so a segmented sum over the nonempty rows works
    nonempty = (g.offsets[1:] > g.offsets[:-1]).nonzero()[0]
    sums[nonempty] = np.add.reduceat(values[g.indices], g.offsets[nonempty])
    return sums


def induced_subgraph(g: Graph, members) -> Graph:
    """Subgraph induced on a vertex set: member k, in ascending order, becomes vertex k."""
    members = np.asarray(members, dtype=np.int64)
    if members.size and (members.min() < 0 or members.max() >= g.n_vertices):
        raise ValidationError("vertex set member out of range")
    # dedupe and sort through a mask: cheaper than np.unique's hash and sort
    member_mask = np.zeros(g.n_vertices, dtype=bool)
    member_mask[members] = True
    members = member_mask.nonzero()[0]
    # the relabel reads only members' entries
    mapping = np.empty(g.n_vertices, dtype=np.int64)
    mapping[members] = np.arange(members.size, dtype=np.int64)
    deg = degrees(g)
    # the member rows, concatenated, then the entries whose neighbor is a member
    sub = g.indices[member_mask.repeat(deg)]
    bounds = np.zeros(members.size + 1, dtype=np.int64)
    deg[members].cumsum(out=bounds[1:])
    kept = member_mask[sub].nonzero()[0]
    offsets = kept.searchsorted(bounds)
    # gather, then relabel, in kept's own buffer: entry i is read before it
    # is written, and mode="clip" (every index is in range) skips the
    # full-size copy of out that mode="raise" makes
    sub.take(kept, out=kept, mode="clip")
    del sub
    # mapping is increasing on members, so the kept rows stay sorted
    mapping.take(kept, out=kept, mode="clip")
    return Graph(int(members.size), kept, offsets)


def write_edge_list(g: Graph, path, tags=()) -> None:
    """Write the edge-list format: `# vertices=<n>` header then `j,k` lines, j<k."""
    edges = g.edge_array()
    with open(path, "w") as fh:
        fh.write(f"# vertices={g.n_vertices}\n" + "".join(f"# {tag}\n" for tag in tags))
        # one %-format per chunk of rows is cheaper than a string per edge, and
        # the chunk bounds the Python ints held at once
        for start in range(0, len(edges), WRITE_CHUNK_EDGES):
            rows = edges[start:start + WRITE_CHUNK_EDGES]
            fh.write(("%d,%d\n" * len(rows)) % tuple(rows.ravel().tolist()))


def read_table(path, dtypes) -> tuple:
    """One np.loadtxt call: (first line, one array per dtype for the rows after it).

    Blank lines and `#` comments are skipped. An unreadable file, a malformed
    field, a wrong column count or a non-finite float raises ValidationError
    naming the path.
    """
    dtype = [(f"c{i}", t) for i, t in enumerate(dtypes)]
    try:
        with open(path) as fh, warnings.catch_warnings():
            first = fh.readline().strip()
            # a header with no rows (an edge list without edges) is valid
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # older numpy parses "0.5" in an integer column as a float and truncates
            # it with only a DeprecationWarning; as an error it is loadtxt's ValueError
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            table = np.loadtxt(fh, dtype=dtype, delimiter=",", ndmin=1)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    columns = [np.ascontiguousarray(table[name]) for name, _ in dtype]
    for i, col in enumerate(columns):
        if col.dtype.kind == "f" and not np.isfinite(col).all():
            raise ValidationError(f"{path}: non-finite value in column {i + 1}")
    return first, columns


def read_edge_list(path) -> Graph:
    """Read the edge-list format; rejects self-loops, duplicates and j>=k lines."""
    first, (j, k) = read_table(path, (np.int64, np.int64))
    header = re.fullmatch(r"#\s*vertices=0*(\d{1,8})", first)
    if header is None or int(header[1]) > MAX_VERTICES:
        raise ValidationError(
            f"{path}: first line must be '# vertices=<n>' with n <= {MAX_VERTICES}")
    if np.any(j >= k):
        raise ValidationError(f"{path}: edge {j[j >= k][0]},{k[j >= k][0]} is not j<k")
    try:
        return from_edges(int(header[1]), np.column_stack([j, k]))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
