"""Average-treatment-effect estimators.

Three weighted estimators share the r/M missingness weights: outcome
regression (OR), inverse probability weighting (IPW), and the doubly
robust combination (DR). The complete-case baselines are the same
estimators with M forced to 1 on the complete cases, which gives the
textbook unweighted formulas; multiple imputation applies them to each
completed dataset. Every sandwich standard error comes from one stacked
system, the fit's equations plus a tau row, with its closed-form Jacobian
as the bread; the WEE stacks read the Design of the fit, and each
complete-case estimate builds one Design on the complete cases. OR reads
no propensity model, so its system has no propensity block and the
complete-case OR fits none. Bootstrap intervals are provided for all
estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, resample
from .errors import (
    BadConfig,
    ExtremeWeight,
    MnarError,
    RankDeficient,
    TooFewDonors,
    TooManyFailures,
)
from .glm import (
    BERNOULLI,
    OUTCOME,
    TREATMENT,
    LinearModelParams,
    ModelSpec,
    design_matrix,
    expit,
    fit_model,
)
from .solver import sandwich_covariance
from .wee import DEFAULT_WEIGHT_CAP, Design, FittedModels, WeeStack, effect_summands

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class AteEstimate:
    tau: float
    method: str
    se: float | None = None
    ci: tuple | None = None

    def with_interval(self, se: float) -> "AteEstimate":
        ci = (self.tau - Z95 * se, self.tau + Z95 * se)
        return AteEstimate(self.tau, self.method, se, ci)


def _check_propensity_cap(d: Dataset, H: np.ndarray):
    mask = d.r == 1
    t = mask & (d.a == 1)
    c = mask & (d.a == 0)
    with np.errstate(divide="ignore"):
        if t.any() and (1.0 / H[t]).max() > DEFAULT_WEIGHT_CAP:
            raise ExtremeWeight("propensity weight 1/H beyond cap")
        if c.any() and (1.0 / (1.0 - H[c])).max() > DEFAULT_WEIGHT_CAP:
            raise ExtremeWeight("propensity weight 1/(1-H) beyond cap")


def _estimate(stack: WeeStack, alpha, gamma, beta, method: str,
              with_se: bool) -> AteEstimate:
    """Point estimate of the effect estimator in the stack's tau row and,
    with with_se, its standard error from the stacked sandwich: the tau
    equation is summand minus tau, so every estimated block's uncertainty
    propagates. alpha None means M is forced to 1."""
    dz = stack.design
    w = dz.weights(None if alpha is None else alpha.coefficients)
    if w.max() > DEFAULT_WEIGHT_CAP:
        raise ExtremeWeight(f"weight {w.max():.3g} beyond cap {DEFAULT_WEIGHT_CAP:.3g}")
    gamma_coef = None
    if stack.effect in ("ipw", "dr"):
        gamma_coef = gamma.coefficients
        _check_propensity_cap(dz.d, expit(dz.Xg @ gamma_coef))
    y1, y0 = (float(s.mean()) for s in effect_summands(
        stack.effect, dz, w, gamma_coef, beta.coefficients))
    est = AteEstimate(tau=y1 - y0, method=method)
    if not with_se:
        return est
    theta_hat = stack.pack(alpha, gamma, beta, tau=est.tau)
    cov = sandwich_covariance(stack.system(), theta_hat)
    return est.with_interval(float(np.sqrt(cov[-1, -1])))


def _wee_estimate(fitted: FittedModels, which: str, with_se: bool) -> AteEstimate:
    stack = WeeStack(fitted.design, "alpha" in fitted.blocks,
                     known_alpha_coef=fitted.alpha.coefficients, effect=which)
    return _estimate(stack, fitted.alpha, fitted.gamma, fitted.beta,
                     f"wee-{which}", with_se)


def tau_wee_or(fitted: FittedModels, with_se: bool = True) -> AteEstimate:
    """Weighted outcome-regression estimate of the treatment effect."""
    return _wee_estimate(fitted, "or", with_se)


def tau_wee_ipw(fitted: FittedModels, with_se: bool = True) -> AteEstimate:
    """Doubly weighted Horvitz-Thompson estimate (missingness and treatment
    probabilities both inverted)."""
    return _wee_estimate(fitted, "ipw", with_se)


def tau_wee_dr(fitted: FittedModels, with_se: bool = True) -> AteEstimate:
    """Doubly robust estimate. The control-arm augmentation enters with a
    plus sign, the form under which misspecifying one of the two nuisance
    models leaves the estimator consistent."""
    return _wee_estimate(fitted, "dr", with_se)


# complete-case baselines: the weighted estimators with M forced to 1 on
# the complete subset, which are the textbook OR, Horvitz-Thompson IPW and
# AIPW formulas

_CC_EFFECTS = {"or": "or", "ipw": "ipw", "aipw": "dr"}


def _cc_fits(dz: Design, propensity: bool = True):
    """Unweighted propensity and outcome fits on the Design of the complete
    cases; without propensity, gamma is None (OR reads the outcome model
    only)."""
    cc, spec = dz.d, dz.model_spec
    ones = np.ones(cc.n)
    gamma = None
    if propensity:
        gamma = fit_model(dz.Xg, cc.a, ones, BERNOULLI, spec.propensity_covariates)
    beta = fit_model(dz.Xb, cc.y, ones, spec.outcome_family, spec.outcome_covariates)
    return gamma, beta


def tau_cc(d: Dataset, method: str, model_spec: ModelSpec = None,
           with_se: bool = True) -> AteEstimate:
    """Complete-case estimate: drop rows with the confounder missing, fit
    unweighted models, apply the standard OR, Horvitz-Thompson IPW, or
    AIPW formula."""
    if method not in _CC_EFFECTS:
        raise BadConfig(f"unknown method {method!r}")
    model_spec = model_spec or ModelSpec.default_for(d.schema)
    dz = Design(d.complete_cases(), model_spec)
    gamma, beta = _cc_fits(dz, propensity=method != "or")
    stack = WeeStack(dz, estimate_alpha=False, effect=_CC_EFFECTS[method])
    return _estimate(stack, None, gamma, beta, f"cc-{method}", with_se)


def cc_parameter_fit(d: Dataset, model_spec: ModelSpec = None):
    """Unweighted complete-case fits with classical model-based standard
    errors: inverse information for the logistic fits, the usual
    residual-variance formula for the Gaussian fit."""
    model_spec = model_spec or ModelSpec.default_for(d.schema)
    dz = Design(d.complete_cases(), model_spec)
    gamma, beta = _cc_fits(dz)
    se_gamma = _model_based_se(dz.Xg, gamma, BERNOULLI, dz.d.a)
    se_beta = _model_based_se(dz.Xb, beta, model_spec.outcome_family, dz.d.y)
    return gamma, se_gamma, beta, se_beta


def _model_based_se(X: np.ndarray, params, family, observed) -> np.ndarray:
    if family == BERNOULLI:
        p = expit(X @ params.coefficients)
        info = (X * (p * (1 - p))[:, None]).T @ X
        return np.sqrt(np.diag(np.linalg.inv(info)))
    resid = observed - X @ params.coefficients
    dof = max(X.shape[0] - X.shape[1], 1)
    sigma2 = float(resid @ resid) / dof
    return np.sqrt(sigma2 * np.diag(np.linalg.inv(X.T @ X)))


# multiple imputation by predictive mean matching

@dataclass(frozen=True)
class MiOptions:
    m: int = 10
    k: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.m < 2:
            raise BadConfig("at least two imputations required")
        if self.k < 1:
            raise BadConfig("donor pool must be positive")


def _nearest_donors(pred_obs: np.ndarray, pred_mis: np.ndarray, k: int,
                    rng) -> np.ndarray:
    """One donor index per missing row, uniform among the k complete cases
    with nearest predicted mean; distance ties go to the lowest row index.
    Requires 1 <= k <= n_cc, the number of complete cases (len(pred_obs)).

    Candidates are min(2k, n_cc) distinct positions in predicted-mean order:
    the window [pos - k, pos + k) around each target's insertion point pos,
    shifted (not clipped) to lie inside [0, n_cc). In one dimension the k
    nearest are a contiguous run of sorted positions that reaches pos - 1 or
    pos, so they lie in that window, and a window shifted at an edge still
    covers them. The sort is stable, so equal means appear in row order and
    a tie run cut by the window's right edge loses only its highest rows.
    A run cut by the left edge would lose its lowest rows, so the window's
    positions in the run at its left edge are moved to the run's start."""
    order = np.argsort(pred_obs, kind="stable")
    po = pred_obs[order]
    n_cc = len(po)
    width = min(2 * k, n_cc)
    pos = np.searchsorted(po, pred_mis)
    start = np.clip(pos - k, 0, n_cc - width)
    cand = start[:, None] + np.arange(width)[None, :]
    vals = po[cand]
    first = np.searchsorted(po, vals[:, 0], side="left")
    # moved positions keep their value, so vals still holds po[cand]
    cand = np.where(vals == vals[:, :1], cand - (start - first)[:, None], cand)
    dist = np.abs(vals - pred_mis[:, None])
    orig = order[cand]
    # primary key distance, secondary key original row index
    ranked = np.lexsort((orig, dist), axis=1)[:, :k]
    rows = np.arange(len(pred_mis))[:, None]
    pool = orig[rows, ranked]
    return pool[np.arange(len(pred_mis)), rng.integers(0, k, size=len(pred_mis))]


def impute_pmm(d: Dataset, opts: MiOptions = None) -> list:
    """m completed copies of d. Each imputation draws the imputation-model
    coefficients from their asymptotic normal, predicts all rows, and copies
    each missing row's value from a donor among the k nearest predicted
    means of complete cases."""
    opts = opts or MiOptions()
    rng = np.random.default_rng(opts.seed)
    mask = d.r == 1
    n_cc = int(mask.sum())
    if n_cc < opts.k + 1:
        raise TooFewDonors(f"{n_cc} complete cases for donor pool size {opts.k}")
    covs = tuple(c for c in (TREATMENT,) + d.schema.confounders + (OUTCOME,)
                 if c != d.schema.missing)
    X = design_matrix(d, covs)
    target = d.confounder(d.schema.missing)
    Xc = X[mask]
    yc = target[mask]
    rank = np.linalg.matrix_rank(Xc)
    if rank < Xc.shape[1]:
        raise RankDeficient("imputation design is rank deficient")
    XtX = Xc.T @ Xc
    bhat = np.linalg.solve(XtX, Xc.T @ yc)
    resid = yc - Xc @ bhat
    dof = max(n_cc - Xc.shape[1], 1)
    sigma2 = float(resid @ resid) / dof
    L = np.linalg.cholesky(sigma2 * np.linalg.inv(XtX))
    if not mask.all():
        mis_idx = np.flatnonzero(~mask)
    completed = []
    j = d.schema.missing_index
    for _ in range(opts.m):
        if mask.all():
            completed.append(d)
            continue
        bstar = bhat + L @ rng.standard_normal(len(bhat))
        pred = X @ bstar
        donors = _nearest_donors(pred[mask], pred[~mask], opts.k, rng)
        c = d.c.copy()
        c[mis_idx, j] = yc[donors]
        completed.append(Dataset(d.a, d.y, c, d.schema))
    return completed


def rubin_combine(points: np.ndarray, variances: np.ndarray):
    """Point estimate, standard error, and normal-quantile CI under the
    usual combining rules: total variance = within + (1 + 1/m) between."""
    m = len(points)
    point = float(np.mean(points))
    within = float(np.mean(variances))
    between = float(np.var(points, ddof=1)) if m > 1 else 0.0
    total = within + (1.0 + 1.0 / m) * between
    se = float(np.sqrt(total))
    return point, se, (point - Z95 * se, point + Z95 * se)


def tau_mi(d: Dataset, method: str, opts: MiOptions = None,
           model_spec: ModelSpec = None, with_se: bool = True,
           completed: list = None) -> AteEstimate:
    """Multiple-imputation estimate: the complete-data estimator applied to
    each completed dataset, combined across imputations. completed, when
    given, must be impute_pmm(d, opts); several MI estimators of one dataset
    then share one imputation."""
    opts = opts or MiOptions()
    model_spec = model_spec or ModelSpec.default_for(d.schema)
    if completed is None:
        completed = impute_pmm(d, opts)
    points, variances = [], []
    for dataset in completed:
        est = tau_cc(dataset, method, model_spec, with_se=with_se)
        points.append(est.tau)
        variances.append(est.se**2 if with_se else np.nan)
    if with_se:
        point, se, ci = rubin_combine(np.asarray(points), np.asarray(variances))
        return AteEstimate(tau=point, method=f"mi-{method}", se=se, ci=ci)
    return AteEstimate(tau=float(np.mean(points)), method=f"mi-{method}")


def mi_parameter_fit(d: Dataset, opts: MiOptions = None,
                     model_spec: ModelSpec = None):
    """Propensity and outcome coefficients under multiple imputation,
    combined coordinate-wise. Returns (gamma, se_gamma, beta, se_beta)."""
    opts = opts or MiOptions()
    model_spec = model_spec or ModelSpec.default_for(d.schema)
    gam_pts, gam_vars, bet_pts, bet_vars = [], [], [], []
    gamma = beta = None
    for completed in impute_pmm(d, opts):
        gamma, se_g, beta, se_b = cc_parameter_fit(completed, model_spec)
        gam_pts.append(gamma.coefficients)
        gam_vars.append(se_g**2)
        bet_pts.append(beta.coefficients)
        bet_vars.append(se_b**2)
    gam_pts = np.asarray(gam_pts)
    bet_pts = np.asarray(bet_pts)
    gam_vars = np.asarray(gam_vars)
    bet_vars = np.asarray(bet_vars)

    def combine(pts, vrs):
        est = np.empty(pts.shape[1])
        se = np.empty(pts.shape[1])
        for c in range(pts.shape[1]):
            est[c], se[c], _ = rubin_combine(pts[:, c], vrs[:, c])
        return est, se

    g_est, g_se = combine(gam_pts, gam_vars)
    b_est, b_se = combine(bet_pts, bet_vars)
    gamma_hat = LinearModelParams(g_est, gamma.covariates)
    beta_hat = LinearModelParams(b_est, beta.covariates, phi=beta.phi)
    return gamma_hat, g_se, beta_hat, b_se


@dataclass(frozen=True)
class BootstrapResult:
    """se and ci are floats for a scalar estimator. For an estimator of K
    components se is a (K,) array, ci a pair of (K,) arrays (lower, upper)
    and estimates a (B - failures, K) array."""

    se: float | np.ndarray
    ci: tuple
    estimates: np.ndarray
    failures: int

    def component(self, k: int) -> "BootstrapResult":
        """The scalar result of component k of a vector estimator."""
        return BootstrapResult(se=float(self.se[k]),
                               ci=(float(self.ci[0][k]), float(self.ci[1][k])),
                               estimates=self.estimates[:, k],
                               failures=self.failures)


def _percentile_summary(est: np.ndarray) -> tuple:
    se = float(np.std(est, ddof=1))
    lo, hi = np.percentile(est, [2.5, 97.5], method="inverted_cdf")
    return se, float(lo), float(hi)


def bootstrap_ci(estimator, d: Dataset, B: int, seed: int) -> BootstrapResult:
    """Nonparametric bootstrap: B resamples with replacement, estimator
    failures excluded up to a 10% ceiling, percentile interval as the inverse
    of the bootstrap CDF (Efron & Tibshirani 1993, sec. 13.3): Hyndman & Fan
    (1996) type 1, so both endpoints are elements of the estimates.

    The estimator returns one float, or a 1-D vector of K estimates that
    share work on a resample (several estimators of one fit, say). A
    resample on which it raises is left out of every component, and failures
    counts those resamples once. Each component's SE and interval come from
    its own column, so they equal what a scalar estimator of that component
    alone gives when it fails on the same resamples."""
    if B < 2:
        raise BadConfig("at least two resamples required")
    estimates = []
    failures = 0
    for b in range(B):
        boot = resample(d, np.random.SeedSequence((seed, b)))
        try:
            estimates.append(np.asarray(estimator(boot), dtype=float))
        except MnarError:
            failures += 1
    if failures > 0.1 * B:
        raise TooManyFailures(f"{failures} of {B} bootstrap replicates failed")
    est = np.asarray(estimates)
    if est.ndim == 1:
        se, lo, hi = _percentile_summary(est)
        return BootstrapResult(se=se, ci=(lo, hi), estimates=est,
                               failures=failures)
    # one contiguous column at a time: np.std along an axis of the matrix
    # would sum in another order than the scalar path
    se, lo, hi = np.array([_percentile_summary(np.ascontiguousarray(col))
                           for col in est.T]).T
    return BootstrapResult(se=se, ci=(lo, hi), estimates=est, failures=failures)
