"""Random node sampling (RNS) and the subgraphs it induces.

Step 1 draws n units uniformly without replacement; step 2 keeps every
tie among the drawn units. Sampled units additionally report their true
population degree. The harmonic-mean degree ratio estimated from a
sample is the scaling factor used by the bias-corrected estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph as graphmod
from .errors import AllIsolatedSampleError, ValidationError
from .graph import Graph


@dataclass
class RecruitmentSample:
    """One RNS draw: sampled ids, recruitment subgraph and per-unit data.

    observed_degrees are degrees within g_r; reported_degrees are the
    true population degrees of the sampled units. Per-unit vectors are
    aligned with sampled_ids (ascending population index). Construction
    checks nothing: rns_sample builds consistent samples and
    read_sample_csv checks a file against its edge list.
    """

    sampled_ids: np.ndarray
    g_r: Graph
    observed_degrees: np.ndarray
    reported_degrees: np.ndarray
    x_obs: np.ndarray = None
    y_obs: np.ndarray = None

    @property
    def n(self) -> int:
        return self.sampled_ids.size


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


def sample_size(n_pop: int, fraction: float) -> int:
    """Sample size from a fraction, rounded half-up."""
    if not 0.0 < fraction <= 1.0:
        raise ValidationError("sample fraction must be in (0, 1]")
    return int(math.floor(fraction * n_pop + 0.5))


def rns_sample(
    g: Graph, n: int, rng: np.random.Generator, x=None, y=None
) -> RecruitmentSample:
    """Draw a uniform without-replacement sample of n units and induce G_R."""
    if not 1 <= n <= g.n_vertices:
        raise ValidationError(
            f"sample size {n} out of range for {g.n_vertices} vertices"
        )
    for vec in (x, y):
        if vec is not None and len(vec) != g.n_vertices:
            raise ValidationError("unit-data vector length must equal n_vertices")
    ids = np.sort(rng.choice(g.n_vertices, size=n, replace=False))
    g_r, _ = graphmod.induced_subgraph(g, ids)
    return RecruitmentSample(
        sampled_ids=ids,
        g_r=g_r,
        observed_degrees=graphmod.degrees(g_r),
        reported_degrees=graphmod.degrees(g)[ids],
        x_obs=None if x is None else np.asarray(x, dtype=float)[ids],
        y_obs=None if y is None else np.asarray(y, dtype=float)[ids],
    )


def population_induced(g: Graph, s: RecruitmentSample) -> PopulationInducedSubgraph:
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
    g_p = graphmod.from_edges(n + u, local[edges])
    return PopulationInducedSubgraph(
        g_p=g_p,
        boundary_ids=boundary,
        origin=np.concatenate([ids, boundary]),
        n_recruited=n,
    )


def scaling_factor(s: RecruitmentSample) -> float:
    """Harmonic-sum degree ratio: sum(1/d_j) / sum(1/d^R_j).

    Units with observed degree 0 are excluded from both sums (an
    isolated unit would put an infinite term in the denominator).
    Summation uses exact accumulation, so unit order cannot change the
    result. Always in (0, 1] since d^R_j <= d_j.
    """
    mask = s.observed_degrees > 0
    if not mask.any():
        raise AllIsolatedSampleError()
    num = math.fsum((1.0 / s.reported_degrees[mask]).tolist())
    den = math.fsum((1.0 / s.observed_degrees[mask]).tolist())
    return num / den


def scaling_factor_variance(s: RecruitmentSample, w_hat: float) -> float:
    """Ratio-estimator variance of w_hat = sum(a_j) / sum(b_j).

    With a_j = 1/d_j and b_j = 1/d^R_j over the m units with d^R_j > 0,
    var(w_hat) = m / (m - 1) * sum((a_j - w_hat b_j)^2) / (sum b_j)^2.
    No finite-population correction: d^R_j is random given the sample.
    An edge has two sampled ends, so m >= 2 whenever m > 0.
    """
    mask = s.observed_degrees > 0
    m = int(mask.sum())
    if m == 0:
        raise AllIsolatedSampleError()
    a = 1.0 / s.reported_degrees[mask]
    b = 1.0 / s.observed_degrees[mask]
    r = a - w_hat * b
    return float(r @ r) * m / ((m - 1) * float(b.sum()) ** 2)


def write_sample_csv(s: RecruitmentSample, path) -> None:
    """Sample export: `unit_id,d_true,d_obs,x,y` rows, one per sampled unit."""
    cols = [s.sampled_ids.tolist(), s.reported_degrees.tolist(), s.observed_degrees.tolist()]
    for vec in (s.x_obs, s.y_obs):
        cols.append(
            [""] * s.n if vec is None
            else [repr(v) for v in np.asarray(vec, dtype=float).tolist()]
        )
    lines = "".join(",".join(map(str, row)) + "\n" for row in zip(*cols))
    with open(path, "w") as fh:
        fh.write("unit_id,d_true,d_obs,x,y\n" + lines)


def read_sample_csv(path, g_r: Graph) -> RecruitmentSample:
    """Rebuild a RecruitmentSample from the CSV export plus its edge list.

    The rows must match g_r: one per vertex, unit ids nonnegative and
    strictly ascending, d_obs equal to the degrees in g_r and at most
    d_true. The x and y columns are each entirely blank or NaN (a sample
    without unit data) or entirely finite.
    """
    header, (ids, d_true, d_obs, x, y) = graphmod.read_table(
        path, (np.int64, np.int64, np.int64, float, float),
        converters={i: lambda field: float(field.strip() or "nan") for i in (3, 4)},
    )
    if header != "unit_id,d_true,d_obs,x,y":
        raise ValidationError(f"{path}: unexpected sample CSV header {header!r}")
    if ids.size != g_r.n_vertices:
        raise ValidationError(f"{path}: {ids.size} rows for {g_r.n_vertices} vertices")
    if ids.size and (ids[0] < 0 or np.any(np.diff(ids) <= 0)):
        raise ValidationError(f"{path}: unit ids must be nonnegative and ascending")
    if not np.array_equal(d_obs, graphmod.degrees(g_r)):
        raise ValidationError(f"{path}: d_obs disagrees with the recruitment subgraph")
    if np.any(d_obs > d_true):
        raise ValidationError(f"{path}: d_obs exceeds d_true")
    if not all(np.isnan(col).all() or np.isfinite(col).all() for col in (x, y)):
        raise ValidationError(f"{path}: x and y must each be blank in every row or finite")
    x, y = (None if np.isnan(col).all() else col for col in (x, y))
    return RecruitmentSample(ids, g_r, d_obs, d_true, x, y)
