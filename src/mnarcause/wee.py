"""Weighted estimating equations for MNAR confounder adjustment.

Stage one solves the moment equation
    E_hat[(r/M(c,y;alpha) - 1) G(c_obs,a,y)] = 0
for the missing-probability coefficients; stage two solves the propensity
and outcome score equations weighted by r/M. A joint stacked sandwich at
the fitted point propagates first-stage uncertainty into every block.
One Design per dataset holds the design matrices that the stage-two fits,
stage one, every WeeStack and its sandwich read. A WeeStack is bound to
its Design, and a fit's FittedModels keep it for the effect estimators.

Numerical form used throughout: on r=1 rows, with lp the missing-model
linear predictor, 1/M - 1 = exp(-lp) and 1/M = 1 + exp(-lp) exactly. This
avoids dividing by expit(lp), which underflows long before the weight
itself overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset, Schema
from .errors import (
    BadConfig,
    DimensionMismatch,
    ExtremeWeight,
    MissingnessDegenerate,
    NoConvergence,
    RankDeficient,
    SingularJacobian,
)
from .glm import (
    BERNOULLI,
    GAUSSIAN,
    OUTCOME,
    TREATMENT,
    LinearModelParams,
    ModelSpec,
    design_matrix,
    expit,
    fit_model,
)
from .solver import EquationSystem, solve_root

DEFAULT_WEIGHT_CAP = 1e4  # on r/M, and on the propensity weights 1/H and 1/(1-H)
RESTARTS = 5              # jittered stage-one restarts after a failed solve


@dataclass(frozen=True)
class GSpec:
    """Ordered components of the moment function G, drawn from the constant
    '1', 'a', 'y', and fully observed confounder names. Must never reference
    the partially observed confounder: G is evaluated on r=0 rows."""

    components: tuple[str, ...]

    def validate(self, schema: Schema, model_spec: ModelSpec):
        allowed = {"1", TREATMENT, OUTCOME}
        allowed.update(c for c in schema.confounders if c != schema.missing)
        for name in self.components:
            if name == schema.missing:
                raise DimensionMismatch(
                    f"G may not reference the partially observed confounder {name!r}"
                )
            if name not in allowed:
                raise DimensionMismatch(f"unknown G component {name!r}")
        dim_alpha = 1 + len(model_spec.missing_covariates)
        if len(self.components) != dim_alpha:
            raise DimensionMismatch(
                f"G has {len(self.components)} components, missing model has {dim_alpha}"
            )

    @property
    def dim(self) -> int:
        return len(self.components)


def default_G(model_spec: ModelSpec, schema: Schema) -> GSpec:
    """(1, fully observed confounders of the missing model, a, y), with the
    treatment standing in for the partially observed confounder."""
    observed = tuple(
        c for c in model_spec.missing_covariates
        if c not in (OUTCOME, schema.missing)
    )
    spec = GSpec(("1",) + observed + (TREATMENT, OUTCOME))
    spec.validate(schema, model_spec)
    return spec


def g_matrix(gspec: GSpec, d: Dataset) -> np.ndarray:
    """(n, dim) evaluation; uses only always-present columns."""
    cols = []
    for name in gspec.components:
        if name == "1":
            cols.append(np.ones(d.n))
        elif name == TREATMENT:
            cols.append(d.a)
        elif name == OUTCOME:
            cols.append(d.y)
        else:
            cols.append(d.confounder(name))
    return np.column_stack(cols)


class Design:
    """The design matrices of one dataset under one model spec. Each is
    built on first use and then shared by the fits, the equation values and
    their Jacobian, across Newton iterations and every sandwich. gspec is
    needed only when stage one is solved."""

    def __init__(self, d: Dataset, model_spec: ModelSpec, gspec: GSpec | None = None):
        self.d = d
        self.model_spec = model_spec
        self.gspec = gspec
        self.complete = d.r == 1

    @cached_property
    def Xm(self) -> np.ndarray:
        return design_matrix(self.d, self.model_spec.missing_covariates)

    @cached_property
    def G(self) -> np.ndarray:
        return g_matrix(self.gspec, self.d)

    @cached_property
    def Xg(self) -> np.ndarray:
        return design_matrix(self.d, self.model_spec.propensity_covariates)

    @cached_property
    def Xb(self) -> np.ndarray:
        return design_matrix(self.d, self.model_spec.outcome_covariates)

    @property
    def treatment_column(self) -> int:
        return 1 + self.model_spec.outcome_covariates.index(TREATMENT)

    def tilt(self, alpha_coef) -> tuple[np.ndarray, np.ndarray]:
        """Missing-model linear predictor lp and exp(-lp); overflow gives inf."""
        lp = self.Xm @ np.asarray(alpha_coef, dtype=float)
        with np.errstate(over="ignore"):
            return lp, np.exp(-lp)

    def weights(self, alpha_coef) -> np.ndarray:
        """r/M; alpha_coef None means M is forced to 1."""
        if alpha_coef is None:
            return self.d.r.copy()
        return np.where(self.complete, 1.0 + self.tilt(alpha_coef)[1], 0.0)


def _moments(dz: Design, em: np.ndarray) -> np.ndarray:
    """Stage-one moment values from em = exp(-lp). The tilt factor is em on
    complete rows and the constant -1 on missing rows; the factor is chosen
    by mask before multiplying into G so overflow never creates NaN."""
    return np.where(dz.complete, em, -1.0)[:, None] * dz.G


def _moments_jacobian(dz: Design, em: np.ndarray) -> np.ndarray:
    """d mean(moments) / d alpha = -(1/n) sum_{r=1} exp(-lp) G x_m^T."""
    return -(dz.G * np.where(dz.complete, em, 0.0)[:, None]).T @ dz.Xm / dz.d.n


def effect_summands(which: str, dz: Design, w: np.ndarray, gamma_coef, beta_coef,
                    jacobian: bool = False):
    """Per-row contributions s1, s0 to Yhat(1) and Yhat(0) for one weighted
    estimator (or, ipw, dr) under the weights w; both vectors are exactly
    zero on rows missing the designated confounder. Written so no division
    happens on rows where the divisor is irrelevant (treated rows never
    divide by 1-H and so on). With jacobian set, also returns the
    derivatives of mean(s1 - s0) with respect to gamma and beta at fixed w;
    OR reads no gamma, so its gamma derivative is None.
    """
    mask = dz.complete
    j = dz.treatment_column
    Xb = dz.Xb.copy()
    Xb[:, j] = 1.0
    lp1 = Xb @ beta_coef
    Xb[:, j] = 0.0
    lp0 = Xb @ beta_coef
    del Xb
    if dz.model_spec.outcome_family == BERNOULLI:
        O1, O0 = expit(lp1), expit(lp0)
        dO1, dO0 = O1 * (1.0 - O1), O0 * (1.0 - O0)
    else:
        O1, O0 = lp1, lp0
        dO1 = dO0 = 1.0
    n = dz.d.n

    def beta_gradient(d1, d0):
        """mean(d1 x_b1 - d0 x_b0), x_b1 and x_b0 the outcome covariates
        with the treatment set to 1 and to 0."""
        grad = (d1 - d0) @ dz.Xb / n
        grad[j] = d1.sum() / n
        return grad

    if which == "or":
        s1, s0 = w * O1, w * O0
        if not jacobian:
            return s1, s0
        return s1, s0, None, beta_gradient(w * dO1, w * dO0)

    H = expit(dz.Xg @ gamma_coef)
    treated = dz.d.a == 1
    y = dz.d.y
    with np.errstate(divide="ignore", invalid="ignore"):
        if which == "ipw":
            s1 = np.where(mask & treated, w * y / H, 0.0)
            s0 = np.where(mask & ~treated, w * y / (1.0 - H), 0.0)
            if not jacobian:
                return s1, s0
            dg = -(s1 * (1.0 - H) + s0 * H)
            return s1, s0, dg @ dz.Xg / n, np.zeros(dz.Xb.shape[1])
        if which == "dr":
            adj1 = np.where(treated, (y - O1) / H, 0.0)
            s1 = np.where(mask, w * (O1 + adj1), 0.0)
            adj0 = np.where(~treated, (y - O0) / (1.0 - H), 0.0)
            s0 = np.where(mask, w * (O0 + adj0), 0.0)
            if not jacobian:
                return s1, s0
            dg = np.where(mask, -w * (adj1 * (1.0 - H) + adj0 * H), 0.0)
            d1 = np.where(mask, w * dO1 * np.where(treated, 1.0 - 1.0 / H, 1.0), 0.0)
            d0 = np.where(mask, w * dO0
                          * np.where(~treated, 1.0 - 1.0 / (1.0 - H), 1.0), 0.0)
            return s1, s0, dg @ dz.Xg / n, beta_gradient(d1, d0)
    raise BadConfig(f"unknown estimator {which!r}")


@dataclass(frozen=True)
class FitDiagnostics:
    stage1_iterations: int
    stage1_restarts: int
    residual_sup: dict
    min_fitted_m: float
    max_fitted_m: float
    max_weight: float


class WeeStack:
    """Stacked per-row equation values for the estimated blocks and the
    closed-form Jacobian of their average, as one equation system for the
    generic solver, bound to the Design of one dataset. Block order: alpha
    (when estimated) | gamma | beta [| phi for the Gaussian family] [| tau
    when an effect estimator is given]. The tau row is summand minus tau,
    so the sandwich propagates every estimated block's uncertainty into the
    effect.

    The OR stack has no gamma block. No beta, phi or tau row reads gamma,
    so the bread is block-triangular with gamma on its own, the tau row of
    its inverse has zero gamma entries, and dropping the block leaves the
    tau variance unchanged (Stefanski & Boos 2002).

    With alpha known, or M forced to 1 (known_alpha_coef None), there is no
    alpha block and the weights are constants; a complete-case analysis is
    this stack with M forced to 1 on the Design of the complete cases.
    """

    def __init__(self, dz: Design, estimate_alpha: bool, known_alpha_coef=None,
                 effect: str = None):
        model_spec = dz.model_spec
        self.design = dz
        self.estimate_alpha = estimate_alpha
        self.known_alpha_coef = known_alpha_coef
        self.effect = effect
        self.p_alpha = (1 + len(model_spec.missing_covariates)) if estimate_alpha else 0
        self.p_gamma = 0 if effect == "or" else 1 + len(model_spec.propensity_covariates)
        self.p_beta = 1 + len(model_spec.outcome_covariates)
        self.gaussian = model_spec.outcome_family == GAUSSIAN
        self.dim = (self.p_alpha + self.p_gamma + self.p_beta
                    + (1 if self.gaussian else 0) + (1 if effect else 0))
        blocks = {}
        at = 0
        if estimate_alpha:
            blocks["alpha"] = slice(0, self.p_alpha)
            at = self.p_alpha
        if self.p_gamma:
            blocks["gamma"] = slice(at, at + self.p_gamma)
            at += self.p_gamma
        end = at + self.p_beta + (1 if self.gaussian else 0)
        blocks["beta"] = slice(at, end)
        if effect:
            blocks["tau"] = slice(end, end + 1)
        self.blocks = blocks

    def pack(self, alpha: LinearModelParams | None, gamma: LinearModelParams | None,
             beta: LinearModelParams, tau: float = None) -> np.ndarray:
        """theta in block order; alpha is not read without an alpha block,
        nor gamma without a gamma block."""
        parts = []
        if self.estimate_alpha:
            parts.append(alpha.coefficients)
        if self.p_gamma:
            parts.append(gamma.coefficients)
        parts.append(beta.coefficients)
        if self.gaussian:
            parts.append([beta.phi])
        if self.effect:
            parts.append([tau])
        return np.concatenate(parts)

    def psi(self, theta) -> np.ndarray:
        return self.evaluate(theta)[0]

    def jacobian(self, theta) -> np.ndarray:
        return self.evaluate(theta, jacobian=True)[1]

    def evaluate(self, theta, jacobian: bool = False):
        """(n, dim) per-row equation values and, with jacobian set, the
        (dim, dim) Jacobian of their average (else None)."""
        theta = np.asarray(theta, dtype=float)
        dz = self.design
        d = dz.d
        n = d.n
        b = self.blocks
        gsl = b.get("gamma")
        bsl = slice(b["beta"].start, b["beta"].start + self.p_beta)
        gamma_coef = None if gsl is None else theta[gsl]
        beta_coef = theta[bsl]
        if self.estimate_alpha:
            lp_m, em = dz.tilt(theta[b["alpha"]])
            w = np.where(dz.complete, 1.0 + em, 0.0)
        else:
            w = dz.weights(self.known_alpha_coef)
        if self.effect:
            s1, s0, *effect_gradient = effect_summands(
                self.effect, dz, w, gamma_coef, beta_coef, jacobian=jacobian)
            effect = s1 - s0
            del s1, s0  # keeps the peak memory of large fits down
        vals = np.empty((n, self.dim))
        if self.estimate_alpha:
            vals[:, b["alpha"]] = _moments(dz, em)
        if gsl is not None:
            H = expit(dz.Xg @ gamma_coef)
            vals[:, gsl] = (w * (d.a - H))[:, None] * dz.Xg
        lp = dz.Xb @ beta_coef
        mean = lp if self.gaussian else expit(lp)
        vals[:, bsl] = (w * (d.y - mean))[:, None] * dz.Xb
        if self.gaussian:
            vals[:, bsl.stop] = w * ((d.y - lp) ** 2 - theta[bsl.stop])
        if self.effect:
            vals[:, -1] = effect - theta[-1]
        if not jacobian:
            return vals, None

        J = np.zeros((self.dim, self.dim))
        if gsl is not None:
            J[gsl, gsl] = -(dz.Xg * (w * H * (1.0 - H))[:, None]).T @ dz.Xg / n
        slope = w if self.gaussian else w * mean * (1.0 - mean)
        J[bsl, bsl] = -(dz.Xb * slope[:, None]).T @ dz.Xb / n
        if self.gaussian:
            J[bsl.stop, bsl] = -2.0 * (w * (d.y - lp)) @ dz.Xb / n
            J[bsl.stop, bsl.stop] = -w.sum() / n
        if self.effect:
            gamma_gradient, beta_gradient = effect_gradient
            J[-1, bsl] = beta_gradient
            if gsl is not None:
                J[-1, gsl] = gamma_gradient
            J[-1, -1] = -1.0
        if self.estimate_alpha:
            asl = b["alpha"]
            J[asl, asl] = _moments_jacobian(dz, em)
            # every later row is w times a factor free of alpha, and on
            # complete rows dw/dalpha = -exp(-lp) x_m = -w (1 - M) x_m
            Xm_tilted = dz.Xm * np.where(dz.complete, expit(-lp_m), 0.0)[:, None]
            J[asl.stop:, asl] = -vals[:, asl.stop:].T @ Xm_tilted / n
            if self.effect:
                J[-1, asl] = -effect @ Xm_tilted / n
        return vals, J

    def system(self) -> EquationSystem:
        return EquationSystem(
            psi=self.psi, dim=self.dim, jacobian=self.jacobian,
            psi_and_jacobian=lambda theta: self.evaluate(theta, jacobian=True))

    def moment_system(self) -> EquationSystem:
        """Stage one alone: the alpha block, which involves no other block."""
        dz = self.design

        def psi(alpha_coef):
            return _moments(dz, dz.tilt(alpha_coef)[1])

        def jacobian(alpha_coef):
            return _moments_jacobian(dz, dz.tilt(alpha_coef)[1])

        return EquationSystem(psi=psi, dim=self.p_alpha, jacobian=jacobian)


@dataclass(frozen=True)
class FittedModels:
    """Fitted missing-probability, propensity, and outcome models with the
    joint sandwich covariance of every estimated block, and the Design of
    the data they were fitted on."""

    alpha: LinearModelParams
    gamma: LinearModelParams
    beta: LinearModelParams
    covariance: np.ndarray
    blocks: dict
    diagnostics: FitDiagnostics
    design: Design

    def block_cov(self, name: str) -> np.ndarray:
        s = self.blocks[name]
        return self.covariance[s, s]

    def block_se(self, name: str) -> np.ndarray:
        return np.sqrt(np.diag(self.block_cov(name)))


def _naive_alpha_init(dz: Design) -> np.ndarray:
    """Logit fit of r on the always-present missing-model covariates, with
    zero at the position of the partially observed confounder. Exact in the
    sub-model where that coefficient is zero."""
    d, covariates = dz.d, dz.model_spec.missing_covariates
    observed = tuple(c for c in covariates if c != d.schema.missing)
    naive = fit_model(design_matrix(d, observed), d.r, np.ones(d.n), BERNOULLI,
                      observed)
    init = np.zeros(1 + len(covariates))
    init[0] = naive.coefficients[0]
    pos = {name: 1 + j for j, name in enumerate(covariates)}
    for coef, name in zip(naive.coefficients[1:], observed):
        init[pos[name]] = coef
    return init


def _solve_alpha(stack: WeeStack, restart_seed) -> tuple[np.ndarray, int, int]:
    system = stack.moment_system()
    init = _naive_alpha_init(stack.design)
    stats: dict = {}
    try:
        root = solve_root(system, init, stats=stats)
        return root, stats.get("iterations", 0), 0
    except (NoConvergence, SingularJacobian) as err:
        last = err
    rng = np.random.default_rng(restart_seed)
    for attempt in range(1, RESTARTS + 1):
        jitter = init + 0.5 * rng.standard_normal(init.shape)
        try:
            root = solve_root(system, jitter, stats=stats)
            return root, stats.get("iterations", 0), attempt
        except (NoConvergence, SingularJacobian) as err:
            last = err
    raise last


def fit_wee(d: Dataset, model_spec: ModelSpec = None, gspec: GSpec = None,
            known_alpha: LinearModelParams = None, restart_seed: int = 0,
            covariance: bool = True) -> FittedModels:
    """Two-stage fit returning all three models and the stacked sandwich.

    known_alpha supplies the missing-probability coefficients instead of
    solving the stage-one moment equation (its block then carries no
    uncertainty).
    """
    model_spec = model_spec or ModelSpec.default_for(d.schema)
    schema = d.schema
    n_missing = int((d.r == 0).sum())
    n_complete = d.n - n_missing
    if n_complete == 0:
        raise RankDeficient("no complete cases to fit on")

    estimate_alpha = known_alpha is None
    if estimate_alpha and n_missing == 0:
        raise MissingnessDegenerate(
            "no missing rows: the moment equation has no interior root; "
            "use a complete-case analysis instead"
        )
    gspec = gspec or default_G(model_spec, schema)
    dz = Design(d, model_spec, gspec)
    if estimate_alpha:
        gspec.validate(schema, model_spec)
        stack = WeeStack(dz, estimate_alpha=True)
        alpha_coef, iters, used_restarts = _solve_alpha(stack, restart_seed)
        alpha = LinearModelParams(alpha_coef, model_spec.missing_covariates)
    else:
        alpha = known_alpha
        if tuple(alpha.covariates) != model_spec.missing_covariates:
            raise DimensionMismatch("known alpha covariates disagree with the model spec")
        alpha_coef = alpha.coefficients
        stack = WeeStack(dz, estimate_alpha=False, known_alpha_coef=alpha_coef)
        iters, used_restarts = 0, 0

    w = dz.weights(alpha_coef)
    if w.max() > DEFAULT_WEIGHT_CAP:
        raise ExtremeWeight(f"weight {w.max():.3g} beyond cap {DEFAULT_WEIGHT_CAP:.3g}")
    m_fit = expit(dz.tilt(alpha_coef)[0][dz.complete])

    gamma = fit_model(dz.Xg, d.a, w, BERNOULLI, model_spec.propensity_covariates)
    beta = fit_model(dz.Xb, d.y, w, model_spec.outcome_family,
                     model_spec.outcome_covariates)

    theta_hat = stack.pack(alpha, gamma, beta)
    residual = np.abs(stack.psi(theta_hat).mean(axis=0))
    residual_sup = {name: float(residual[s].max()) for name, s in stack.blocks.items()}

    if covariance:
        # looked up at call time, so that a wrapper installed on
        # solver.sandwich_covariance (the benchmark's tracer) sees this call
        from .solver import sandwich_covariance
        cov = sandwich_covariance(stack.system(), theta_hat)
    else:
        cov = np.full((stack.dim, stack.dim), np.nan)

    diags = FitDiagnostics(
        stage1_iterations=iters,
        stage1_restarts=used_restarts,
        residual_sup=residual_sup,
        min_fitted_m=float(m_fit.min()),
        max_fitted_m=float(m_fit.max()),
        max_weight=float(w.max()),
    )
    return FittedModels(alpha=alpha, gamma=gamma, beta=beta, covariance=cov,
                        blocks=stack.blocks, diagnostics=diags, design=dz)
