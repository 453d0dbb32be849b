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
    x_obs: np.ndarray
    y_obs: np.ndarray

    @property
    def n(self) -> int:
        return self.sampled_ids.size


def sample_size(n_pop: int, fraction: float) -> int:
    """Sample size from a fraction, rounded half-up."""
    if not 0.0 < fraction <= 1.0:
        raise ValidationError("sample fraction must be in (0, 1]")
    return int(math.floor(fraction * n_pop + 0.5))


def check_sample_size(n: int, n_pop: int) -> None:
    """An RNS sample takes from 1 to n_pop units."""
    if not 1 <= n <= n_pop:
        raise ValidationError(f"sample size {n} out of range for {n_pop} vertices")


def rns_sample(g: Graph, n: int, rng: np.random.Generator, x, y) -> RecruitmentSample:
    """RNS step 1, a uniform without-replacement draw of n units, then `recruit`."""
    check_sample_size(n, g.n_vertices)
    if not len(x) == len(y) == g.n_vertices:
        raise ValidationError("unit-data vector length must equal n_vertices")
    ids = rng.choice(g.n_vertices, size=n, replace=False)
    ids.sort()
    return recruit(g, ids, x, y)


def recruit(g: Graph, ids: np.ndarray, x, y) -> RecruitmentSample:
    """RNS step 2: the units `ids` (ascending) with every tie among them and their data."""
    g_r = graphmod.induced_subgraph(g, ids)
    return RecruitmentSample(
        sampled_ids=ids,
        g_r=g_r,
        observed_degrees=graphmod.degrees(g_r),
        reported_degrees=graphmod.degrees(g)[ids],
        x_obs=np.asarray(x, dtype=float)[ids],
        y_obs=np.asarray(y, dtype=float)[ids],
    )


def scaling_factor(s: RecruitmentSample) -> tuple:
    """(w_hat, var(w_hat)): the harmonic-sum degree ratio and its variance.

    With a_j = 1/d_j and b_j = 1/d^R_j over the m units with d^R_j > 0,
    w_hat = sum(a_j) / sum(b_j), always in (0, 1] since d^R_j <= d_j; its
    sums use exact accumulation, so unit order cannot change it. The
    ratio-estimator variance is
    m / (m - 1) * sum((a_j - w_hat b_j)^2) / (sum b_j)^2, with no
    finite-population correction: d^R_j is random given the sample. An
    edge has two sampled ends, so m >= 2 whenever m > 0.
    """
    mask = s.observed_degrees > 0
    if not mask.any():
        raise AllIsolatedSampleError()
    a, b = 1.0 / s.reported_degrees[mask], 1.0 / s.observed_degrees[mask]
    w_hat = math.fsum(a.tolist()) / math.fsum(b.tolist())
    r = a - w_hat * b
    return w_hat, float(r @ r) * a.size / ((a.size - 1) * float(b.sum()) ** 2)


def write_sample_csv(s: RecruitmentSample, path) -> None:
    """Sample export: `unit_id,d_true,d_obs,x,y` rows, one per sampled unit."""
    rows = zip(s.sampled_ids.tolist(), s.reported_degrees.tolist(),
               s.observed_degrees.tolist(), s.x_obs.tolist(), s.y_obs.tolist())
    lines = "".join(f"{j},{d_true},{d_obs},{xj!r},{yj!r}\n" for j, d_true, d_obs, xj, yj in rows)
    with open(path, "w") as fh:
        fh.write("unit_id,d_true,d_obs,x,y\n" + lines)


def read_sample_csv(path, g_r: Graph) -> RecruitmentSample:
    """Rebuild a RecruitmentSample from the CSV export plus its edge list.

    The rows must match g_r: one per vertex, unit ids nonnegative and
    strictly ascending, d_obs equal to the degrees in g_r and at most
    d_true. x and y are finite in every row.
    """
    header, (ids, d_true, d_obs, x, y) = graphmod.read_table(
        path, (np.int64, np.int64, np.int64, float, float))
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
    return RecruitmentSample(ids, g_r, d_obs, d_true, x, y)
