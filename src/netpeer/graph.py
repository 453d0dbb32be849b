"""Undirected simple graphs: Erdős–Rényi generation and structural queries.

Vertices are dense 0-based indices. Adjacency is stored in CSR form: one
flat int64 array `indices` holding every vertex's neighbors, row after
row, each row sorted ascending, plus `offsets` (length n_vertices + 1)
so that row j is indices[offsets[j]:offsets[j + 1]]. Graphs are frozen
after construction and are safe to share across worker processes.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConnectivityError, ValidationError

# bound on an edge list's vertex count: its CSR offsets take 8 bytes per vertex
MAX_VERTICES = 10**7


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph over vertices 0..n_vertices-1, in CSR form."""

    n_vertices: int
    indices: np.ndarray  # int64; rows sorted, no duplicates, no self-loops
    offsets: np.ndarray  # int64, length n_vertices + 1, offsets[0] == 0

    def neighbors(self, j: int) -> np.ndarray:
        """Sorted neighbors of vertex j (a view into `indices`)."""
        return self.indices[self.offsets[j]:self.offsets[j + 1]]

    def degree(self, j: int) -> int:
        return int(self.offsets[j + 1] - self.offsets[j])

    def n_edges(self) -> int:
        return self.indices.size // 2

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array, j < k in each row, rows ascending."""
        src = _row_ids(self.offsets)
        upper = self.indices > src
        return np.column_stack([src[upper], self.indices[upper]])

    def validate(self) -> None:
        """Check the structural invariants; raises ValidationError on violation."""
        n = self.n_vertices
        if n < 0:
            raise ValidationError("negative vertex count")
        offsets, indices = np.asarray(self.offsets), np.asarray(self.indices)
        if offsets.shape != (n + 1,):
            raise ValidationError("offsets length does not match vertex count")
        if offsets[0] != 0 or offsets[-1] != indices.size or np.any(np.diff(offsets) < 0):
            raise ValidationError("offsets are not a nondecreasing cover of indices")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValidationError("neighbor index out of range")
        src = _row_ids(offsets)
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


def _row_ids(offsets: np.ndarray) -> np.ndarray:
    """Row (vertex) of every entry of a CSR `indices` array."""
    n = offsets.size - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))


def _row_positions(offsets: np.ndarray, rows: np.ndarray) -> tuple:
    """Positions in `indices` of the listed rows, concatenated, and the
    offsets (length rows.size + 1) of those rows within the concatenation."""
    starts = offsets[rows]
    bounds = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(offsets[rows + 1] - starts, out=bounds[1:])
    shift = np.repeat(starts - bounds[:-1], np.diff(bounds))
    return shift + np.arange(bounds[-1], dtype=np.int64), bounds


def _csr(n: int, a: np.ndarray, b: np.ndarray) -> Graph:
    """CSR graph of the edges (a[e], b[e]), each edge listed once.

    Both orientations are keyed as src * n + dst; sorting the keys groups
    them by source with every row's neighbors ascending.
    """
    keys = np.concatenate([a * n + b, b * n + a])
    keys.sort()
    offsets = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return Graph(n, keys % n, offsets)


def from_edges(n: int, edges: np.ndarray) -> Graph:
    """Build a Graph from an edge array, rejecting self-loops and duplicates."""
    if n < 0:
        raise ValidationError("vertex count must be nonnegative")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise ValidationError("edge endpoint out of range")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise ValidationError("self-loop in edge list")
    canon = np.sort(edges, axis=1)
    if np.unique(canon[:, 0] * n + canon[:, 1]).size != len(edges):
        raise ValidationError("duplicate edge in edge list")
    return _csr(n, edges[:, 0], edges[:, 1])


def _pair_index_to_edges(idx: np.ndarray, n: int) -> tuple:
    """Map ascending linear indices over the n*(n-1)/2 unordered pairs to
    (i, j) arrays, i<j.

    Pairs are enumerated lexicographically: row i covers pairs (i, i+1..n-1).
    """
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * n - rows * (rows + 1) // 2
    i = np.repeat(rows, np.diff(np.searchsorted(idx, starts), append=idx.size))
    return i, idx - starts[i] + i + 1


def generate_er(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Draw G(n, p): each unordered pair carries an edge independently with prob p.

    Uses a geometric-skip scan over the linearized pair indices, which
    draws the exact G(n, p) distribution in O(edges) work. Deterministic
    per seed (algorithm version: geometric-skip v1).
    """
    if n < 0:
        raise ValidationError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValidationError("p must be in [0, 1]")
    m_total = n * (n - 1) // 2
    if m_total == 0 or p == 0.0:
        return Graph(n, np.empty(0, dtype=np.int64), np.zeros(n + 1, dtype=np.int64))
    if p == 1.0:
        return _csr(n, *np.triu_indices(n, k=1))
    indices = []
    current = -1
    while True:
        remaining = m_total - current - 1
        batch = max(256, int(remaining * p * 1.2) + 16)
        skips = rng.geometric(p, size=batch).astype(np.int64)
        cand = current + np.cumsum(skips)
        hits = cand[cand < m_total]
        indices.append(hits)
        if hits.size < cand.size or cand[-1] >= m_total - 1:
            break
        current = int(cand[-1])
    # the skips are positive, so the pair indices come out ascending
    return _csr(n, *_pair_index_to_edges(np.concatenate(indices), n))


def generate_connected_er(
    n: int, p: float, rng: np.random.Generator, max_attempts: int = 1000
) -> Graph:
    """Return the first connected G(n, p) draw; error out after max_attempts."""
    if max_attempts < 1:
        raise ValidationError("max_attempts must be >= 1")
    for _ in range(max_attempts):
        g = generate_er(n, p, rng)
        if is_connected(g):
            return g
    raise ConnectivityError(max_attempts, n, p)


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (empty graph: True)."""
    n = g.n_vertices
    if n <= 1:
        return True
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        reached = np.zeros(n, dtype=bool)
        reached[g.indices[_row_positions(g.offsets, frontier)[0]]] = True
        reached &= ~visited
        visited |= reached
        frontier = np.flatnonzero(reached)
    return bool(visited.all())


def degrees(g: Graph) -> np.ndarray:
    """Degree of every vertex, as an int array of length n_vertices."""
    return np.diff(g.offsets)


def neighbor_sums(g: Graph, values: np.ndarray) -> np.ndarray:
    """Sum of `values` over each vertex's neighbors; 0.0 for an isolated vertex."""
    sums = np.zeros(g.n_vertices)
    # CSR rows are grouped by vertex, so a segmented sum over the nonempty rows works
    nonempty = np.flatnonzero(np.diff(g.offsets) > 0)
    sums[nonempty] = np.add.reduceat(values[g.indices], g.offsets[nonempty])
    return sums


def induced_subgraph(g: Graph, members) -> tuple:
    """Subgraph induced on a vertex set, plus the old->new index map.

    Returns (subgraph, mapping) where mapping is an array of length
    g.n_vertices with new indices for members and -1 elsewhere. Member
    order (sorted ascending) defines the new indexing.
    """
    members = np.unique(np.asarray(members, dtype=np.int64))
    if members.size and (members.min() < 0 or members.max() >= g.n_vertices):
        raise ValidationError("vertex set member out of range")
    mapping = np.full(g.n_vertices, -1, dtype=np.int64)
    mapping[members] = np.arange(members.size, dtype=np.int64)
    pos, bounds = _row_positions(g.offsets, members)
    # mapping is increasing on members, so the kept rows stay sorted
    new = mapping[g.indices[pos]]
    kept = np.flatnonzero(new >= 0)
    return Graph(int(members.size), new[kept], np.searchsorted(kept, bounds)), mapping


def write_edge_list(g: Graph, path, tags=()) -> None:
    """Write the edge-list format: `# vertices=<n>` header then `j,k` lines, j<k."""
    head = [f"# vertices={g.n_vertices}\n"] + [f"# {tag}\n" for tag in tags]
    body = [f"{j},{k}\n" for j, k in g.edge_array().tolist()]
    with open(path, "w") as fh:
        fh.write("".join(head + body))


def read_table(path, dtypes, converters=None) -> tuple:
    """One np.loadtxt call: (first line, one array per dtype for the rows after it).

    Blank lines and `#` comments are skipped. An unreadable file, a malformed
    field, a wrong column count or a non-finite float in a column without a
    converter raises ValidationError naming the path.
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
            table = np.loadtxt(fh, dtype=dtype, delimiter=",",
                               converters=converters, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    columns = [np.ascontiguousarray(table[name]) for name, _ in dtype]
    for i, col in enumerate(columns):
        if col.dtype.kind == "f" and i not in (converters or ()):
            if not np.isfinite(col).all():
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
    return from_edges(int(header[1]), np.column_stack([j, k]))
