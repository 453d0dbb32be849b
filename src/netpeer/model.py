"""Exogenous peer-effects data-generating process.

A unit's outcome is a linear function of its own covariate and the mean
covariate over its neighbors, plus Gaussian noise:

    y_j = beta0 + beta1 * x_j + beta2 * mean(x over neighbors of j) + eps_j

An isolated unit has no neighbor, and its peer term is 0: y_j = beta0 +
beta1 * x_j + eps_j, a zero row of the row-normalised interaction matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph as graphmod
from .errors import ComputationError, ValidationError
from .graph import Graph


@dataclass(frozen=True)
class ModelParams:
    """The simulated process: x ~ N(x_mean, x_sd^2), y's (beta0, beta1, beta2, sigma2_eps)."""

    beta0: float = 0.0
    beta1: float = 1.0
    beta2: float = 1.5
    sigma2_eps: float = 1.0
    x_mean: float = 3.0
    x_sd: float = 1.5

    def __post_init__(self):
        for name in ("beta0", "beta1", "beta2", "x_mean"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        for name in ("sigma2_eps", "x_sd"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and positive")


def gen_covariates(n: int, mean: float, sd: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Gaussian covariates of a law that `ModelParams` checks."""
    return rng.normal(mean, sd, size=n)


def neighbor_mean_vector(g: Graph, x: np.ndarray) -> np.ndarray:
    """Mean covariate over each vertex's neighborhood, vectorized; 0.0 at an isolated vertex."""
    degs = graphmod.degrees(g)
    sums = graphmod.neighbor_sums(g, np.asarray(x, dtype=float))
    return np.divide(sums, degs, out=np.zeros(g.n_vertices), where=degs > 0)


def conditional_means(g: Graph, x, params: ModelParams) -> np.ndarray:
    """Noiseless outcome means for every vertex (the sigma2 -> 0 limit)."""
    return (
        params.beta0
        + params.beta1 * np.asarray(x, dtype=float)
        + params.beta2 * neighbor_mean_vector(g, x)
    )


def simulate_outcomes(
    g: Graph, x, params: ModelParams, rng: np.random.Generator
) -> np.ndarray:
    """Draw outcomes from the peer-effects model; an isolated unit's peer term is 0.

    Raises ComputationError when an outcome is not finite in float64."""
    noise = rng.normal(0.0, math.sqrt(params.sigma2_eps), size=g.n_vertices)
    with np.errstate(over="ignore", invalid="ignore"):
        y = conditional_means(g, x, params) + noise
    if not np.isfinite(y).all():
        raise ComputationError("simulated outcomes overflow float64")
    return y


def write_unit_csv(x, y, path) -> None:
    """Unit-data export: `unit_id,x,y` rows over all population units."""
    x = np.asarray(x, dtype=float).tolist()
    y = np.asarray(y, dtype=float).tolist()
    lines = "".join(f"{i},{xv!r},{yv!r}\n" for i, (xv, yv) in enumerate(zip(x, y)))
    with open(path, "w") as fh:
        fh.write("unit_id,x,y\n" + lines)


def read_unit_csv(path):
    """Read the unit-data CSV; returns (x, y) arrays indexed by unit_id.

    Rows may come in any order; the ids must be 0..N-1, each once.
    """
    header, (ids, x, y) = graphmod.read_table(path, (np.int64, float, float))
    if header != "unit_id,x,y":
        raise ValidationError(f"{path}: unexpected unit CSV header {header!r}")
    order = np.argsort(ids)
    if not np.array_equal(ids[order], np.arange(ids.size)):
        raise ValidationError(f"{path}: unit ids must be 0..{ids.size - 1}, each once")
    return x[order], y[order]


def log_likelihood(means, y, sigma2_eps: float) -> float:
    """Gaussian log-likelihood of outcomes y around per-unit means.

    The caller, `identification.log_likelihoods`, passes one mean per
    outcome (`candidate_means` gives one per sampled unit) and the
    sigma2_eps of a `ModelParams`, which is positive.
    """
    means = np.asarray(means, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size
    rss = float(np.sum((y - means) ** 2))
    return -0.5 * n * math.log(2.0 * math.pi * sigma2_eps) - rss / (2.0 * sigma2_eps)
