"""Weighted estimating equations for MNAR confounder adjustment.

Stage one solves the moment equation
    E_hat[(r/M(c,y;alpha) - 1) G(c_obs,a,y)] = 0
for the missing-probability coefficients; stage two solves the propensity
and outcome score equations weighted by r/M. A joint stacked sandwich at
the fitted point propagates first-stage uncertainty into every block.
One Design per dataset holds the design matrices that the stage-two fits,
stage one, every WeeStack and its sandwich read. A WeeStack is bound to
its Design, and a fit's FittedModels keep it for the effect estimators.

A bootstrap resample is counts on the full-data Design: the rows drawn
at least once, each counted f times, as often as it was drawn
(Design.resampled). Every average is the count-weighted sum
sum_i f_i psi_i / n, one matrix-vector product; the fits weight each row
by its weight times f; the sandwich's meat weights each outer product by
f. These are the sums over the copy the draw would make, so no resample
is copied and no design matrix is built again. The weight caps judge
each distinct row's own weight, never f times it. On the full data
every count is 1. Multiple imputation alone copies a resample, in draw
order (estimators.bootstrap_ci): its donor ranking, tie rule and random
draws depend on row order.

Numerical form used throughout: on r=1 rows, with lp the missing-model
linear predictor, 1/M - 1 = exp(-lp) and 1/M = 1 + exp(-lp) exactly. This
avoids dividing by expit(lp), which underflows long before the weight
itself overflows.

Stage one is one damped Newton solve (solver.solve_root) from the naive
logit fit of r on the always-present covariates, with no random start.
When G holds the constant (the default G always does), the intercept is
profiled out: the constant's equation gives alpha_0 in closed form, and
Newton solves the remaining exponential-tilting equations in alpha~, the
other coefficients (_profiled_system), from the naive start without its
intercept. A G without the constant is solved in full alpha. A solve
that stops cutting the residual stops early, and a failed solve raises
its own error. Once the residual is below the solver's tolerance, up to
two full Newton steps, each kept only while the residual does not rise,
polish the root to rounding level (_polish), so the fitted alpha, and
every estimate and standard error after it, no longer depend on the
path Newton took.
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
    RankDeficient,
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
from .solver import EquationSystem, average_psi, solve_root

DEFAULT_WEIGHT_CAP = 1e4  # on r/M, and on the propensity weights 1/H and 1/(1-H)
POLISH_STEPS = 2          # full Newton steps after a stage-one solve


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
    """The design matrices of one dataset under one model spec, the columns
    a, y and r that the equations read, and counts, how many times each
    row is counted (n is their sum). Each matrix is built on first use and
    then shared by the fits, the equation values and their Jacobian, across
    Newton iterations and every sandwich. gspec is needed only when stage
    one is solved.

    A Design of some rows of the data (a bootstrap resample, the complete
    cases) builds no matrix: it slices those of the full-data Design, whose
    counts are all 1."""

    def __init__(self, d: Dataset, model_spec: ModelSpec, gspec: GSpec | None = None):
        self.d = d
        self.model_spec = model_spec
        self.gspec = gspec
        self.schema = d.schema
        self.a, self.y, self.r = d.a, d.y, d.r
        self.complete = d.r == 1
        self.counts = np.ones(d.n)
        self.n = d.n
        self._full = None  # not self: a cycle would hold the matrices until gc
        self._rows = None

    def _restrict(self, rows: np.ndarray, counts: np.ndarray) -> "Design":
        """The Design of the rows (indices) of this one, each counted counts
        times."""
        sub = object.__new__(Design)
        sub.__dict__.update(
            model_spec=self.model_spec, gspec=self.gspec, schema=self.schema,
            a=self.a[rows], y=self.y[rows], r=self.r[rows],
            complete=self.complete[rows], counts=counts, n=int(counts.sum()),
            _full=self if self._full is None else self._full,
            _rows=rows if self._rows is None else self._rows[rows])
        return sub

    def resampled(self, idx) -> "Design":
        """The bootstrap resample that draws the rows idx of this full-data
        Design: the rows drawn at least once, each counted as often as it
        was drawn."""
        counts = np.bincount(idx, minlength=self.n)
        drawn = np.flatnonzero(counts)
        return self._restrict(drawn, counts[drawn].astype(float))

    def complete_cases(self) -> "Design":
        """The complete cases with their counts; the Design itself when none
        is missing."""
        if self.complete.all():
            return self
        rows = np.flatnonzero(self.complete)
        return self._restrict(rows, self.counts[rows])

    def average(self, values: np.ndarray):
        """Count-weighted average over the rows, counts @ values / n: a
        number for a vector, one per column for a matrix."""
        return self.counts @ values / self.n

    def _matrix(self, name: str, build):
        if self._rows is None:
            return build(self.d)
        # take copies rows faster than fancy indexing does
        return np.take(getattr(self._full, name), self._rows, axis=0)

    @cached_property
    def Xm(self) -> np.ndarray:
        return self._matrix("Xm", lambda d: design_matrix(
            d, self.model_spec.missing_covariates))

    @cached_property
    def G(self) -> np.ndarray:
        return self._matrix("G", lambda d: g_matrix(self.gspec, d))

    @cached_property
    def Xg(self) -> np.ndarray:
        return self._matrix("Xg", lambda d: design_matrix(
            d, self.model_spec.propensity_covariates))

    @cached_property
    def Xb(self) -> np.ndarray:
        return self._matrix("Xb", lambda d: design_matrix(
            d, self.model_spec.outcome_covariates))

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
            return self.r.copy()
        return np.where(self.complete, 1.0 + self.tilt(alpha_coef)[1], 0.0)


def _moments(dz: Design, em: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Stage-one moment values from em = exp(-lp), written into out when
    given. The tilt factor is em on complete rows and the constant -1 on
    missing rows; the factor is chosen by mask before multiplying into G so
    overflow never creates NaN."""
    return np.multiply(np.where(dz.complete, em, -1.0)[:, None], dz.G, out=out)


def _moments_jacobian(dz: Design, em: np.ndarray) -> np.ndarray:
    """d mean(moments) / d alpha = -(1/n) sum_{r=1} f exp(-lp) G x_m^T."""
    tilted = np.where(dz.complete, dz.counts * em, 0.0)
    return -(dz.G * tilted[:, None]).T @ dz.Xm / dz.n


def effect_summands(which: str, dz: Design, w: np.ndarray, gamma_coef, beta_coef,
                    jacobian: bool = False):
    """Per-row contributions s1, s0 to Yhat(1) and Yhat(0) for one weighted
    estimator (or, ipw, dr) under the weights w; both vectors are exactly
    zero on rows missing the designated confounder. Written so no division
    happens on rows where the divisor is irrelevant (treated rows never
    divide by 1-H and so on). With jacobian set, also returns the
    derivatives of the count-weighted mean of s1 - s0 with respect to gamma
    and beta at fixed w; OR reads no gamma, so its gamma derivative is None.
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
    f, n = dz.counts, dz.n

    def beta_gradient(d1, d0):
        """mean(d1 x_b1 - d0 x_b0), x_b1 and x_b0 the outcome covariates
        with the treatment set to 1 and to 0."""
        grad = (f * (d1 - d0)) @ dz.Xb / n
        grad[j] = f @ d1 / n
        return grad

    if which == "or":
        s1, s0 = w * O1, w * O0
        if not jacobian:
            return s1, s0
        return s1, s0, None, beta_gradient(w * dO1, w * dO0)

    H = expit(dz.Xg @ gamma_coef)
    treated = dz.a == 1
    y = dz.y
    with np.errstate(divide="ignore", invalid="ignore"):
        if which == "ipw":
            s1 = np.where(mask & treated, w * y / H, 0.0)
            s0 = np.where(mask & ~treated, w * y / (1.0 - H), 0.0)
            if not jacobian:
                return s1, s0
            dg = -(s1 * (1.0 - H) + s0 * H)
            return s1, s0, (f * dg) @ dz.Xg / n, np.zeros(dz.Xb.shape[1])
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
            return s1, s0, (f * dg) @ dz.Xg / n, beta_gradient(d1, d0)
    raise BadConfig(f"unknown estimator {which!r}")


@dataclass(frozen=True)
class FitDiagnostics:
    """What a fit reports of itself. stage1_restarts is always 0: stage one
    makes a single solve. The benchmark's tracer (perfbench/tracing.py)
    still reads the field, so it stays until that read goes."""

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

    def evaluate(self, theta, jacobian: bool = False):
        """(n, dim) per-row equation values and, with jacobian set, the
        (dim, dim) Jacobian of their average (else None)."""
        theta = np.asarray(theta, dtype=float)
        dz = self.design
        n = dz.n
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
        # each block is written in place, with no temporary of its size
        vals = np.empty((len(w), self.dim))
        if self.estimate_alpha:
            _moments(dz, em, out=vals[:, b["alpha"]])
        if gsl is not None:
            H = expit(dz.Xg @ gamma_coef)
            np.multiply((w * (dz.a - H))[:, None], dz.Xg, out=vals[:, gsl])
        lp = dz.Xb @ beta_coef
        mean = lp if self.gaussian else expit(lp)
        np.multiply((w * (dz.y - mean))[:, None], dz.Xb, out=vals[:, bsl])
        if self.gaussian:
            vals[:, bsl.stop] = w * ((dz.y - lp) ** 2 - theta[bsl.stop])
        if self.effect:
            vals[:, -1] = effect - theta[-1]
        if not jacobian:
            return vals, None

        # each row enters the averages with its weight times its count
        wf = w * dz.counts
        J = np.zeros((self.dim, self.dim))
        if gsl is not None:
            J[gsl, gsl] = -(dz.Xg * (wf * H * (1.0 - H))[:, None]).T @ dz.Xg / n
        slope = wf if self.gaussian else wf * mean * (1.0 - mean)
        J[bsl, bsl] = -(dz.Xb * slope[:, None]).T @ dz.Xb / n
        if self.gaussian:
            J[bsl.stop, bsl] = -2.0 * (wf * (dz.y - lp)) @ dz.Xb / n
            J[bsl.stop, bsl.stop] = -wf.sum() / n
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
            Xm_tilted = dz.Xm * np.where(dz.complete, dz.counts * expit(-lp_m),
                                         0.0)[:, None]
            J[asl.stop:, asl] = -vals[:, asl.stop:].T @ Xm_tilted / n
            if self.effect:
                J[-1, asl] = -effect @ Xm_tilted / n
        return vals, J

    def system(self) -> EquationSystem:
        return EquationSystem(self.evaluate, self.dim, self.design.counts)

    def moment_system(self) -> EquationSystem:
        """Stage one alone: the alpha block, which involves no other block.
        Its values and Jacobian at a point come from one tilt exp(-lp)."""
        dz = self.design

        def evaluate(alpha_coef, jacobian=False):
            em = dz.tilt(alpha_coef)[1]
            return _moments(dz, em), _moments_jacobian(dz, em) if jacobian else None

        return EquationSystem(evaluate, self.p_alpha, dz.counts)


@dataclass(frozen=True)
class FittedModels:
    """Fitted missing-probability, propensity, and outcome models with the
    joint sandwich covariance of every estimated block, the Design of the
    data they were fitted on, and the weights r/M at the fitted alpha, one
    per row of that Design, which every effect estimator reads."""

    alpha: LinearModelParams
    gamma: LinearModelParams
    beta: LinearModelParams
    covariance: np.ndarray
    blocks: dict
    diagnostics: FitDiagnostics
    design: Design
    weights: np.ndarray

    def block_cov(self, name: str) -> np.ndarray:
        s = self.blocks[name]
        return self.covariance[s, s]

    def block_se(self, name: str) -> np.ndarray:
        return np.sqrt(np.diag(self.block_cov(name)))


def _naive_alpha_init(dz: Design) -> np.ndarray:
    """Logit fit of r on the always-present missing-model covariates, with
    zero at the position of the partially observed confounder. Exact in the
    sub-model where that coefficient is zero."""
    covariates = dz.model_spec.missing_covariates
    observed = tuple(c for c in covariates if c != dz.schema.missing)
    # their columns of Xm, which holds the values design_matrix would build
    columns = [0] + [1 + j for j, c in enumerate(covariates) if c in observed]
    naive = fit_model(np.take(dz.Xm, columns, axis=1), dz.r, dz.counts, BERNOULLI,
                      observed)
    init = np.zeros(1 + len(covariates))
    init[0] = naive.coefficients[0]
    pos = {name: 1 + j for j, name in enumerate(covariates)}
    for coef, name in zip(naive.coefficients[1:], observed):
        init[pos[name]] = coef
    return init


def _profiled_system(dz: Design):
    """Stage one with the intercept profiled out, when G holds the
    constant: the equation system in alpha~ (alpha without its intercept)
    and the map from alpha~ to the full alpha.

    The constant's equation fixes alpha_0 = log sum_{r=1} f exp(-x~'alpha~)
    - log n_mis, n_mis the count of missing rows. At that alpha_0 the other
    equations read E_pi[G~] = mean of G~ over the missing rows, with
    pi proportional to f exp(-x~'alpha~) on the complete rows: the
    exponential-tilting calibration form (Deville & Sarndal 1992;
    Hainmueller 2012). Its Jacobian is -(n_mis/n) Cov_pi(G~, x~), on the
    complete rows only. The tilt is shifted by its largest exponent
    (log-sum-exp), so it cannot overflow.

    The rows of the system are the complete rows, with the values of the
    full moment equations at (alpha_0, alpha~) less the constant's, and
    one row standing for all the missing rows: their mean G~, negated,
    counted n_mis times. The averages are those of the full equations.
    The values and the Jacobian at a point come from one tilt."""
    complete = dz.complete
    g_rest = np.delete(dz.G, dz.gspec.components.index("1"), axis=1)
    g_complete = g_rest[complete]
    x_complete = dz.Xm[complete, 1:]
    f = dz.counts[complete]
    n_mis = dz.n - f.sum()
    g_missing = dz.counts[~complete] @ g_rest[~complete] / n_mis  # their mean

    def tilt(alpha_rest):
        """exp(-lp) on the complete rows, and alpha_0."""
        exponent = -(x_complete @ alpha_rest)
        top = exponent.max()
        shifted = np.exp(exponent - top)
        total = f @ shifted
        return shifted * (n_mis / total), top + np.log(total) - np.log(n_mis)

    def evaluate(alpha_rest, jacobian=False):
        em = tilt(alpha_rest)[0]
        vals = np.empty((len(f) + 1, g_rest.shape[1]))
        np.multiply(em[:, None], g_complete, out=vals[:-1])
        vals[-1] = -g_missing
        if not jacobian:
            return vals, None
        w = f * em  # sums to n_mis
        g_centred = g_complete - w @ g_complete / n_mis
        x_centred = x_complete - w @ x_complete / n_mis
        return vals, -(g_centred * w[:, None]).T @ x_centred / dz.n

    def full(alpha_rest):
        return np.concatenate([[tilt(alpha_rest)[1]], alpha_rest])

    return EquationSystem(evaluate, g_rest.shape[1], np.append(f, n_mis)), full


def _polish(system: EquationSystem, root: np.ndarray) -> np.ndarray:
    """Up to POLISH_STEPS full Newton steps from a root that solve_root
    accepted, each kept only if the residual norm does not rise. From a
    residual below TOL, quadratic convergence reaches rounding level, so
    the root no longer depends on the path that found it. Each point is
    evaluated once, its residual and Jacobian from the same pass."""
    f = system.counts
    vals, J = system.evaluate(root, True)
    r = f @ vals / f.sum()
    for _ in range(POLISH_STEPS):
        try:
            cand = root - np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            break
        vals, J_cand = system.evaluate(cand, True)
        rc = f @ vals / f.sum()
        if not np.linalg.norm(rc) <= np.linalg.norm(r):
            break
        root, r, J = cand, rc, J_cand
    return root


def _solve_alpha(stack: WeeStack) -> tuple[np.ndarray, int]:
    """The stage-one root and its Newton iterations, from one solve.

    When G holds the constant, Newton solves the profiled system of
    _profiled_system in alpha~, from the naive logit start without its
    intercept; otherwise it solves the full moment system from the naive
    start. Either root is then polished (_polish); the polish steps are
    not counted as iterations. A failed solve raises its own error."""
    dz = stack.design
    init = _naive_alpha_init(dz)
    if "1" in dz.gspec.components:
        system, full = _profiled_system(dz)
        init = init[1:]
    else:
        system, full = stack.moment_system(), lambda alpha: alpha
    stats: dict = {}
    root = full(_polish(system, solve_root(system, init, stats=stats)))
    return root, stats["iterations"]


def fit_wee(d: Dataset | Design, model_spec: ModelSpec = None, gspec: GSpec = None,
            known_alpha: LinearModelParams = None,
            covariance: bool = True) -> FittedModels:
    """Two-stage fit returning all three models and the stacked sandwich.

    d is a Dataset, or a Design (of the full data or of a bootstrap
    resample), which carries its own model spec and G; model_spec and gspec
    are read only with a Dataset. known_alpha supplies the
    missing-probability coefficients instead of solving the stage-one
    moment equation (its block then carries no uncertainty). Otherwise
    stage one is solved once, from the naive start (_solve_alpha); where
    that solve fails, its NoConvergence or SingularJacobian is raised.
    """
    if isinstance(d, Design):
        dz = d
    else:
        model_spec = model_spec or ModelSpec.default_for(d.schema)
        dz = Design(d, model_spec, gspec or default_G(model_spec, d.schema))
    model_spec, schema = dz.model_spec, dz.schema
    if not dz.complete.any():
        raise RankDeficient("no complete cases to fit on")

    estimate_alpha = known_alpha is None
    if estimate_alpha and dz.complete.all():
        raise MissingnessDegenerate(
            "no missing rows: the moment equation has no interior root; "
            "use a complete-case analysis instead"
        )
    if estimate_alpha:
        if dz.gspec is None:
            raise BadConfig("stage one needs the moment components G")
        dz.gspec.validate(schema, model_spec)
        stack = WeeStack(dz, estimate_alpha=True)
        alpha_coef, iters = _solve_alpha(stack)
        alpha = LinearModelParams(alpha_coef, model_spec.missing_covariates)
    else:
        alpha = known_alpha
        if tuple(alpha.covariates) != model_spec.missing_covariates:
            raise DimensionMismatch("known alpha covariates disagree with the model spec")
        alpha_coef = alpha.coefficients
        stack = WeeStack(dz, estimate_alpha=False, known_alpha_coef=alpha_coef)
        iters = 0

    # the caps judge each row's own weight r/M, never its count times it
    lp, em = dz.tilt(alpha_coef)
    w = np.where(dz.complete, 1.0 + em, 0.0)
    if w.max() > DEFAULT_WEIGHT_CAP:
        raise ExtremeWeight(f"weight {w.max():.3g} beyond cap {DEFAULT_WEIGHT_CAP:.3g}")
    m_fit = expit(lp[dz.complete])

    wf = w * dz.counts
    gamma = fit_model(dz.Xg, dz.a, wf, BERNOULLI, model_spec.propensity_covariates)
    beta = fit_model(dz.Xb, dz.y, wf, model_spec.outcome_family,
                     model_spec.outcome_covariates)

    theta_hat = stack.pack(alpha, gamma, beta)
    system = stack.system()
    if covariance:
        # looked up at call time, so that a wrapper installed on
        # solver.sandwich_covariance (the benchmark's tracer) sees this call
        from .solver import sandwich_covariance
        stats: dict = {}
        cov = sandwich_covariance(system, theta_hat, stats)
        residual = np.abs(stats["average"])
    else:
        cov = np.full((stack.dim, stack.dim), np.nan)
        residual = np.abs(average_psi(system, theta_hat))
    residual_sup = {name: float(residual[s].max()) for name, s in stack.blocks.items()}

    diags = FitDiagnostics(
        stage1_iterations=iters,
        stage1_restarts=0,
        residual_sup=residual_sup,
        min_fitted_m=float(m_fit.min()),
        max_fitted_m=float(m_fit.max()),
        max_weight=float(w.max()),
    )
    return FittedModels(alpha=alpha, gamma=gamma, beta=beta, covariance=cov,
                        blocks=stack.blocks, diagnostics=diags, design=dz,
                        weights=w)
