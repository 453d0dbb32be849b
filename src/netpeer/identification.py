"""Executable non-identification checks for the peer-effects model.

Two completions of the observed data that differ only by swapping which
recruited unit an unobserved neighbor attaches to are both compatible
with the observed data. Whenever the two recruited units have different
true degrees and the two attached covariate values differ, the swapped
completions assign different likelihoods to the same observed outcomes,
so no estimator can tell them apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph as graphmod
from .errors import ComputationError
from .graph import Graph
from .model import ModelParams, log_likelihood
from .sampling import RecruitmentSample


@dataclass
class CompletionCandidate:
    """A candidate completion: the recruitment subgraph plus attached units.

    Local indices 0..n-1 are the sampled units; appended units follow.
    """

    g_p: Graph
    x_tilde: np.ndarray


@dataclass
class WitnessPair:
    """Two compatible completions that differ by one neighbor swap."""

    a: CompletionCandidate
    b: CompletionCandidate
    observed: RecruitmentSample
    j: int
    l: int
    d_j: int
    d_l: int
    x_u1: float
    x_u2: float


def is_compatible(candidate: CompletionCandidate, observed: RecruitmentSample) -> bool:
    """Whether a candidate completion could have produced the observed data.

    Its first n vertices are the sampled units. Restricted to them, it must
    be the recruitment subgraph, since RNS step 2 keeps every tie among
    them, and carry the observed covariates; and no sampled unit may have
    more ties than its reported degree.
    """
    n = observed.n
    if candidate.g_p.n_vertices < n or candidate.x_tilde.size < n:
        return False
    restricted = graphmod.induced_subgraph(candidate.g_p, np.arange(n))
    return bool(
        np.array_equal(restricted.indices, observed.g_r.indices)
        and np.array_equal(restricted.offsets, observed.g_r.offsets)
        and np.array_equal(candidate.x_tilde[:n], observed.x_obs)
        and (graphmod.degrees(candidate.g_p)[:n] <= observed.reported_degrees).all()
    )


def build_swap_pair(observed: RecruitmentSample, j: int, l: int, x_u1, x_u2) -> WitnessPair:
    """Attach two synthetic unsampled units to recruited units j and l, both ways.

    Candidate a carries edges (j, u1) and (l, u2); candidate b swaps
    them. Both are compatible with the observed data by construction.
    j and l are local (within-sample) indices. The caller, `find_witness`,
    guarantees the rest: j < l, both units have reported degree strictly
    above their observed degree, and x_u1 and x_u2 are distinct finite floats.
    """
    n = observed.n
    u1, u2 = n, n + 1
    base = observed.g_r.edge_array()
    x_tilde = np.concatenate([observed.x_obs, [x_u1, x_u2]])

    def candidate(edge_j, edge_l):
        edges = np.concatenate(
            [base, np.array([[j, edge_j], [l, edge_l]], dtype=np.int64)]
        )
        return CompletionCandidate(g_p=graphmod.from_edges(n + 2, edges), x_tilde=x_tilde)

    return WitnessPair(
        a=candidate(u1, u2),
        b=candidate(u2, u1),
        observed=observed,
        j=j,
        l=l,
        d_j=int(observed.reported_degrees[j]),
        d_l=int(observed.reported_degrees[l]),
        x_u1=float(x_u1),
        x_u2=float(x_u2),
    )


def candidate_means(
    candidate: CompletionCandidate, observed: RecruitmentSample, params: ModelParams
) -> np.ndarray:
    """Per-sampled-unit conditional means under a candidate completion.

    The peer term divides the sum over the candidate's neighbors by the
    unit's *reported* (true) degree; at a reported degree of 0 it is 0.
    """
    d = observed.reported_degrees
    sums = graphmod.neighbor_sums(candidate.g_p, candidate.x_tilde)[:observed.n]
    peer = np.divide(sums, d, out=np.zeros(observed.n), where=d > 0)
    return params.beta0 + params.beta1 * observed.x_obs + params.beta2 * peer


def mean_sum_gap(pair: WitnessPair, params: ModelParams) -> float:
    """Difference of the summed conditional means between the two candidates.

    Closed form: beta2 * (1/d_j - 1/d_l) * (x_u1 - x_u2); zero exactly
    when the two recruited units have equal true degrees.
    """
    return params.beta2 * (1.0 / pair.d_j - 1.0 / pair.d_l) * (pair.x_u1 - pair.x_u2)


def log_likelihoods(pair: WitnessPair, y_obs, params: ModelParams) -> tuple:
    """Log-likelihoods of y under candidates a and b (-inf or nan, unwarned, on overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(
            log_likelihood(candidate_means(c, pair.observed, params), y_obs, params.sigma2_eps)
            for c in (pair.a, pair.b)
        )


def find_witness(observed: RecruitmentSample):
    """First recruited pair (by index) with attachment slack and distinct degrees.

    Returns a WitnessPair, or None when no such pair exists. The attached
    covariate values are the observed mean plus/minus one observed standard
    deviation (or 1.0 when degenerate); ComputationError unless those are
    two distinct finite floats.
    """
    slack = np.flatnonzero(observed.reported_degrees > observed.observed_degrees)
    # the first such pair in index order is slack[0] and the first slack unit
    # whose degree differs from its; if none differs, no pair qualifies
    d = observed.reported_degrees[slack]
    differ = np.flatnonzero(d != d[:1])
    if differ.size == 0:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        center, spread = float(observed.x_obs.mean()), float(observed.x_obs.std()) or 1.0
    x_u1, x_u2 = center + spread, center - spread
    if not (np.isfinite([x_u1, x_u2]).all() and x_u1 != x_u2):
        raise ComputationError(
            f"default attached values {x_u1:g} and {x_u2:g} (the covariate mean "
            "plus/minus one sd) are not two distinct finite floats"
        )
    return build_swap_pair(observed, int(slack[0]), int(slack[differ[0]]), x_u1, x_u2)
