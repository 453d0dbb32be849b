"""Exogenous peer-effects data-generating process.

A unit's outcome is a linear function of its own covariate and the mean
covariate over its neighbors, plus Gaussian noise:

    y_j = beta0 + beta1 * x_j + beta2 * mean(x over neighbors of j) + eps_j
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph as graphmod
from .errors import IsolatedVertexError, ValidationError
from .graph import Graph


@dataclass(frozen=True)
class ModelParams:
    """Parameter vector (beta0, beta1, beta2, sigma2_eps); noise variance > 0."""

    beta0: float
    beta1: float
    beta2: float
    sigma2_eps: float

    def __post_init__(self):
        if not self.sigma2_eps > 0:
            raise ValidationError("sigma2_eps must be positive")


def gen_covariates(
    n: int, mean: float, sd: float, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. Gaussian covariates; deterministic given the generator state."""
    if not sd > 0:
        raise ValidationError("covariate sd must be positive")
    return rng.normal(mean, sd, size=n)


def neighbor_mean_vector(g: Graph, x: np.ndarray) -> np.ndarray:
    """Mean covariate over each vertex's neighborhood, vectorized.

    Raises IsolatedVertexError if any vertex has degree zero.
    """
    degs = np.diff(g.offsets)
    if np.any(degs == 0):
        raise IsolatedVertexError(int(np.argmax(degs == 0)))
    return graphmod.neighbor_sums(g, np.asarray(x, dtype=float)) / degs


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
    """Draw outcomes from the peer-effects model on a graph with no isolated vertex."""
    means = conditional_means(g, x, params)
    return means + rng.normal(0.0, math.sqrt(params.sigma2_eps), size=g.n_vertices)


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
    """Gaussian log-likelihood of outcomes y around per-unit means."""
    if not sigma2_eps > 0:
        raise ValidationError("sigma2_eps must be positive")
    means = np.asarray(means, dtype=float)
    y = np.asarray(y, dtype=float)
    if means.shape != y.shape:
        raise ValidationError("means and outcomes must have equal length")
    n = y.size
    rss = float(np.sum((y - means) ** 2))
    return -0.5 * n * math.log(2.0 * math.pi * sigma2_eps) - rss / (2.0 * sigma2_eps)
