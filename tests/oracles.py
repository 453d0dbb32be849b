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
that `identification.candidate_means` replaced by a segmented sum, and
neighborhood_mean(g, x, j) the one-vertex mean that
`model.neighbor_mean_vector` computes for all vertices at once: they read
only the arrays of the netpeer objects they are given.
"""

import math

import numpy as np
from scipy import stats

from netpeer.errors import IsolatedVertexError

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


def candidate_means_loop(candidate, observed, params) -> np.ndarray:
    """Per-sampled-unit conditional means under a completion, one unit at a time.

    The peer term sums x_tilde over the unit's neighbors in the candidate
    graph (row r of its CSR arrays) and divides by the reported degree.
    """
    g = candidate.g_p
    means = np.empty(observed.n)
    for r in range(observed.n):
        nbrs = g.indices[g.offsets[r]:g.offsets[r + 1]]
        peer = float(candidate.x_tilde[nbrs].sum()) / observed.reported_degrees[r]
        means[r] = params.beta0 + params.beta1 * observed.x_obs[r] + params.beta2 * peer
    return means


def neighborhood_mean(g, x, j: int) -> float:
    """(1/d_j) * sum of x over the neighbors of j; undefined for isolated j."""
    nbrs = g.indices[g.offsets[j]:g.offsets[j + 1]]
    if nbrs.size == 0:
        raise IsolatedVertexError(j)
    return float(np.asarray(x, dtype=float)[nbrs].mean())
