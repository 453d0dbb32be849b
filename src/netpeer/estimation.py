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
from .errors import RankDeficiencyError, ValidationError
from .sampling import RecruitmentSample

_COLUMNS = ("intercept", "own_x", "peer_mean")
MIN_ROWS = 4  # the fewest retained rows the three-coefficient fit takes

# Cephes ndtri (Moshier, Methods and Programs for Mathematical Functions,
# 1989), the algorithm scipy.special.ndtri compiles: a rational function of
# q - 1/2 up to q = 1 - exp(-2), and above it of 1/z, z = sqrt(-2 log(1 - q)).
# Each Q leads with the 1 that Cephes' p1evl leaves implicit; 1 * x + c is exact.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242e0
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# z between 2 and 8, that is 1 - q between exp(-2) and exp(-32)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# z between 8 and 64
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple) -> float:
    """Cephes' polevl, Horner's rule: coef[0] x^k + ... + coef[k]."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(q: float) -> float:
    """The standard normal quantile at q in [0.5, 1], as scipy.special.ndtri computes it."""
    if q == 1.0:
        return math.inf
    if q <= 1.0 - _EXP_M2:
        y = q - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(1.0 - q))
    z = 1.0 / x
    p, r = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    return x - math.log(x) / x - z * _polevl(z, p) / _polevl(z, r)


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
            level: float = 0.95, use_t: bool = False) -> FitResult:
    """Gaussian MLE of (beta0, beta1, beta2) on the observed design, corrected by w_hat.

    Solved by least squares via an orthogonal decomposition; the
    residual variance uses the (n - 3) degrees-of-freedom divisor and
    the naive CI for beta2 uses the Gaussian (or, optionally, t)
    critical value. The peer-effect estimate and its CI limits are then
    divided by w_hat, with the plug-in sampling variance
    sigma2 / (w^2 * sum (x* - mean)^2) and a Wald interval whose
    delta-method variance is var_hc1 / w^2 + beta2_naive^2 * var_w_hat / w^4
    (var_hc1: the HC1 sandwich variance of beta2_naive).
    Only `level` is checked. The caller, `fit_corrected`, passes
    `sampling.scaling_factor`'s pair, a finite w_hat in (0, 1] and a finite
    var_w_hat >= 0; a zero var_w_hat treats w_hat as known. The defaults
    are a census's exact values and leave the estimate uncorrected.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError("confidence level must be in (0, 1)")
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
    # the quantiles behind scipy.stats' norm.ppf and t.ppf. The normal one is
    # _ndtri, so that no default run imports scipy, which took about half of a
    # process's start-up; only the t one imports scipy.special, here
    q = 0.5 + level / 2.0
    if use_t:
        from scipy import special
        crit = float(special.stdtrit(n - 3, q))
    else:
        crit = _ndtri(q)
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


def fit_corrected(
    s: RecruitmentSample, level: float = 0.95, use_t: bool = False
) -> FitResult:
    """The corrected estimator on one sample: design, w_hat and its variance, then the fit."""
    return fit_mle(build_observed_design(s), *samplingmod.scaling_factor(s), level, use_t)


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
