"""Fitting the peer-effects model to incomplete RNS data.

The observed-data regressor for the peer term averages covariates over
*sampled* neighbors only, which attenuates the peer-effect estimate
toward zero by roughly the degree ratio. Dividing the estimate (and the
confidence-interval limits) by the empirical scaling factor undoes the
attenuation.

The unsampled neighbors also leave a term beta2 * (true peer mean -
sampled peer mean) in each observed residual, whose variance
beta2^2 * var(x) * (1/d^R_j - 1/d_j) differs from unit to unit. The
corrected Wald interval therefore uses a heteroskedasticity-consistent
(HC1, White 1980) variance for the peer coefficient, and adds the
delta-method term for the estimated scaling factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph as graphmod, sampling as samplingmod
from .errors import RankDeficiencyError
from .sampling import RecruitmentSample

_COLUMNS = ("intercept", "own_x", "peer_mean")
MIN_ROWS = 4  # the fewest retained rows the three-coefficient fit takes

# The 95% normal critical value, scipy.special.ndtri(0.975) bit for bit. It is a
# literal, not a scipy call, because no default run imports scipy: the import
# took about half of a process's start-up. Only fit_mle's t quantile imports it
Z_975 = 1.959963984540054


@dataclass
class ObservedDesign:
    """Regression design built from a recruitment sample.

    Rows are (1, x_j, x*_j) where x*_j averages x over sampled
    neighbors; units isolated within the recruitment subgraph are
    dropped (x* undefined) and counted.
    """

    X: np.ndarray
    y: np.ndarray
    dropped_count: int

    @property
    def n_used(self) -> int:
        return self.X.shape[0]

    @property
    def x_star(self) -> np.ndarray:
        return self.X[:, 2]


@dataclass
class FitResult:
    """MLE fit and the peer-effect estimate rescaled by the scaling factor w_hat."""

    beta_hat: np.ndarray  # (beta0, beta1, beta2_naive)
    se: np.ndarray
    sigma2_hat: float
    n_used: int
    dropped: int
    ci_naive: tuple
    w_hat: float
    beta2_corrected: float
    ci_corrected: tuple
    ci_corrected_wald: tuple
    var_corrected: float  # sigma2 / (w_hat^2 * sum (x* - mean)^2)

    def to_dict(self) -> dict:
        """The fields of fit.json."""
        return {
            "beta_hat": [float(b) for b in self.beta_hat],
            "se": [float(v) for v in self.se],
            "sigma2_hat": float(self.sigma2_hat),
            "w_hat": float(self.w_hat),
            "beta2_corrected": float(self.beta2_corrected),
            "ci_naive": [float(v) for v in self.ci_naive],
            "ci_corrected": [float(v) for v in self.ci_corrected],
            "ci_corrected_wald": [float(v) for v in self.ci_corrected_wald],
            "n_used": self.n_used,
            "dropped": self.dropped,
        }


def build_observed_design(s: RecruitmentSample) -> ObservedDesign:
    """Assemble (1, x_j, x*_j) rows over sampled units with d^R_j > 0."""
    retained = (s.observed_degrees > 0).nonzero()[0]
    if retained.size < MIN_ROWS:
        raise RankDeficiencyError(f"only {retained.size} retained rows (need at least {MIN_ROWS})")
    X = np.empty((retained.size, 3))
    X[:, 0] = 1.0
    X[:, 1] = s.x_obs[retained]
    X[:, 2] = graphmod.neighbor_sums(s.g_r, s.x_obs)[retained] / s.observed_degrees[retained]
    return ObservedDesign(X=X, y=s.y_obs[retained], dropped_count=s.n - retained.size)


def _collinear_detail(X: np.ndarray) -> str:
    # the intercept column is constant by design
    flat_cols = [name for name, col in zip(_COLUMNS[1:], X.T[1:]) if np.ptp(col) == 0]
    if flat_cols:
        return "constant column(s): " + ", ".join(flat_cols)
    # lstsq's rank cut-off is relative to the largest singular value, so one
    # huge column can drop the rank of columns that are not collinear
    scale = np.abs(X).max(axis=0)
    if np.linalg.matrix_rank(X / scale) == X.shape[1]:
        return ("columns differ in scale beyond float64 precision (largest |value|: "
                + ", ".join(f"{c} {m:.3g}" for c, m in zip(_COLUMNS, scale)) + ")")
    return "collinear columns among (" + ", ".join(_COLUMNS) + ")"


def fit_mle(d: ObservedDesign, w_hat: float = 1.0, var_w_hat: float = 0.0,
            use_t: bool = False) -> FitResult:
    """Gaussian MLE of (beta0, beta1, beta2) on the observed design, corrected by w_hat.

    Solved by least squares via an orthogonal decomposition; the
    residual variance uses the (n - 3) degrees-of-freedom divisor and
    the naive 95% CI for beta2 uses the Gaussian (or, optionally, t)
    critical value. The peer-effect estimate and its CI limits are then
    divided by w_hat, with the plug-in sampling variance
    sigma2 / (w^2 * sum (x* - mean)^2) and a Wald interval whose
    delta-method variance is var_hc1 / w^2 + beta2_naive^2 * var_w_hat / w^4
    (var_hc1: the HC1 sandwich variance of beta2_naive).
    Nothing is checked: the caller, `fit_corrected`, passes
    `sampling.scaling_factor`'s pair, a finite w_hat in (0, 1] and a finite
    var_w_hat >= 0; a zero var_w_hat treats w_hat as known. The defaults
    are a census's exact values and leave the estimate uncorrected.
    """
    X, y = d.X, d.y
    n = d.n_used
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < 3:
        raise RankDeficiencyError(_collinear_detail(X))
    x_star = d.x_star
    sxx = float(((x_star - x_star.mean()) ** 2).sum())
    if sxx <= 0:
        raise RankDeficiencyError("zero variance in the peer regressor")
    resid = y - X @ beta
    sigma2 = float(resid @ resid) / (n - 3)
    xtx_inv = np.linalg.inv(X.T @ X)
    se = np.sqrt(sigma2 * xtx_inv.diagonal())
    # beta2_hat = sum_i h_i y_i, so var = sum_i h_i^2 e_i^2 with the n/(n-3) factor
    h_resid = (X @ xtx_inv[2]) * resid
    var_hc1 = float(h_resid @ h_resid) * n / (n - 3)
    if use_t:
        from scipy import special
        crit = float(special.stdtrit(n - 3, 0.975))
    else:
        crit = Z_975
    b2 = beta[2]
    lo, hi = b2 - crit * se[2], b2 + crit * se[2]
    corrected = b2 / w_hat
    half = crit * math.sqrt(var_hc1 / w_hat**2 + b2**2 * var_w_hat / w_hat**4)
    return FitResult(
        beta_hat=beta,
        se=se,
        sigma2_hat=sigma2,
        n_used=n,
        dropped=d.dropped_count,
        ci_naive=(lo, hi),
        w_hat=w_hat,
        beta2_corrected=corrected,
        ci_corrected=(lo / w_hat, hi / w_hat),
        ci_corrected_wald=(corrected - half, corrected + half),
        var_corrected=sigma2 / (w_hat**2 * sxx),
    )


def fit_corrected(s: RecruitmentSample, use_t: bool = False) -> FitResult:
    """The corrected estimator on one sample: design, w_hat and its variance, then the fit."""
    return fit_mle(build_observed_design(s), *samplingmod.scaling_factor(s), use_t)


def diagnostics(s: RecruitmentSample) -> dict:
    """Empirical checks of the regularity conditions behind the correction.

    Reports the covariate variance statistic, the observed/true
    degree-ratio summary with the scaling factor, and the count of
    isolated units the fit drops; only a sample without a tie fails. A
    statistic too large for float64 is inf or nan, without a warning.
    """
    w_hat = samplingmod.scaling_factor(s)[0]
    pos = s.reported_degrees > 0
    ratios = s.observed_degrees[pos] / s.reported_degrees[pos]
    with np.errstate(over="ignore", invalid="ignore"):
        centered = s.x_obs - s.x_obs.mean()
        var_stat = float(np.sum(centered**2)) / s.n
    return {
        "covariate_variance_stat": var_stat,
        "degenerate_covariate": var_stat == 0.0,
        "degree_ratio_min": float(ratios.min()),
        "degree_ratio_mean": float(ratios.mean()),
        "degree_ratio_max": float(ratios.max()),
        "w_hat": w_hat,
        "dropped_count": int((s.observed_degrees == 0).sum()),
        "n_sampled": s.n,
    }
