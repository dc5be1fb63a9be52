"""Parametric model families used throughout: logistic models for the
missing-probability and treatment-propensity components, and a Gaussian
linear or logistic model for the outcome. Provides design matrices and
weighted fits (one weighted least-squares step, or damped Newton).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Schema
from .errors import (
    DimensionMismatch,
    NoConvergence,
    RankDeficient,
    SchemaMismatch,
    Separation,
)

GAUSSIAN = "gaussian-identity"
BERNOULLI = "bernoulli-logit"

# special covariate names; anything else must be a confounder column
TREATMENT = "a"
OUTCOME = "y"

MAX_ITER = 100  # damped-Newton iterations of a logistic fit
TOL = 1e-10     # on the sup-norm of the summed weighted score


def expit(x):
    """Logistic function 1/(1+exp(-x)). Below x = -709.78 exp(-x)
    overflows to inf and the value is 0, less than 1e-308 from the true
    one; that overflow is expected and not reported."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class LinearModelParams:
    """Coefficient vector aligned to (intercept, *covariates); phi is the
    Gaussian dispersion when applicable."""

    coefficients: np.ndarray
    covariates: tuple[str, ...]
    phi: float | None = None

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coef)
        if coef.shape != (1 + len(self.covariates),):
            raise DimensionMismatch(
                f"{coef.shape[0]} coefficients for {len(self.covariates)} covariates"
            )
        if self.phi is not None and not self.phi > 0:
            raise DimensionMismatch("dispersion must be positive")

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]


@dataclass(frozen=True)
class ModelSpec:
    """Covariate lists for the three models, by name. The intercept is
    implicit and always first; 'a' and 'y' name the treatment and outcome."""

    missing_covariates: tuple[str, ...]
    propensity_covariates: tuple[str, ...]
    outcome_covariates: tuple[str, ...]
    outcome_family: str = GAUSSIAN

    def __post_init__(self):
        if OUTCOME not in self.missing_covariates:
            raise SchemaMismatch("missing model must include the outcome y")
        if OUTCOME in self.propensity_covariates or "r" in self.propensity_covariates:
            raise SchemaMismatch("propensity covariates exclude y and r")
        if "r" in self.outcome_covariates:
            raise SchemaMismatch("outcome covariates exclude r")
        if TREATMENT not in self.outcome_covariates:
            raise SchemaMismatch("outcome model must include the treatment a")
        if self.outcome_family not in (GAUSSIAN, BERNOULLI):
            raise SchemaMismatch(f"unknown family {self.outcome_family!r}")

    @staticmethod
    def default_for(schema: Schema) -> "ModelSpec":
        """Missing model on (all confounders, y); propensity on confounders;
        outcome on (a, confounders)."""
        return ModelSpec(
            missing_covariates=schema.confounders + (OUTCOME,),
            propensity_covariates=schema.confounders,
            outcome_covariates=(TREATMENT,) + schema.confounders,
            outcome_family=GAUSSIAN if schema.outcome_family == "gaussian" else BERNOULLI,
        )


def design_matrix(d: Dataset, covariates: tuple[str, ...]) -> np.ndarray:
    """(n, 1+p) design with intercept first. The designated confounder column
    is zero-filled on r=0 rows; callers must mask those rows out by weights,
    which downstream code always does."""
    cols = [np.ones(d.n)]
    for name in covariates:
        if name == TREATMENT:
            cols.append(d.a)
        elif name == OUTCOME:
            cols.append(d.y)
        elif name in d.schema.confounders:
            col = d.confounder(name)
            if name == d.schema.missing:
                col = np.where(d.r == 1, col, 0.0)
            cols.append(col)
        else:
            raise SchemaMismatch(f"unknown covariate {name!r}")
    return np.column_stack(cols)


def _check_rank(X: np.ndarray, w: np.ndarray):
    active = w > 0
    if not active.any():
        raise RankDeficient("all weights are zero")
    r = np.linalg.matrix_rank(X[active] * np.sqrt(w[active])[:, None])
    if r < X.shape[1]:
        raise RankDeficient(f"weighted design has rank {r} < {X.shape[1]}")


def fit_model(X: np.ndarray, observed: np.ndarray, weights: np.ndarray, family: str,
              covariates: tuple[str, ...]) -> LinearModelParams:
    """Solve the weighted score equations sum_k w_k * score_k = 0 on the
    design X, whose columns after the intercept are the covariates.

    Gaussian closes in one weighted-least-squares step; the logistic fit
    runs damped Newton and declares Separation when the coefficient norm
    passes 1e4. The Gaussian dispersion uses divisor sum(w), the
    estimating-equation convention (no degrees-of-freedom correction).
    """
    w = np.asarray(weights, dtype=float)
    if (w < 0).any():
        raise DimensionMismatch("weights must be nonnegative")
    if w.sum() <= 0:
        raise RankDeficient("weight total is zero")
    _check_rank(X, w)

    if family == GAUSSIAN:
        XtW = (X * w[:, None]).T
        coef = np.linalg.solve(XtW @ X, XtW @ observed)
        resid = observed - X @ coef
        phi = float((w * resid**2).sum() / w.sum())
        return LinearModelParams(coef, covariates, phi=phi)

    coef = np.zeros(X.shape[1])
    g = (w * (observed - expit(X @ coef))) @ X
    norm = np.abs(g).max()
    for _ in range(MAX_ITER):
        if norm < TOL:
            break
        prob = expit(X @ coef)
        H = (X * (w * prob * (1 - prob))[:, None]).T @ X
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            raise Separation("information matrix singular during logistic fit")
        lam = 1.0
        stalled = True
        for _ in range(31):
            cand = coef + lam * step
            gc = (w * (observed - expit(X @ cand))) @ X
            nc = np.abs(gc).max()
            if np.isfinite(nc) and nc < norm:
                coef, g, norm = cand, gc, nc
                stalled = False
                break
            lam *= 0.5
        if stalled:
            break  # line search exhausted; final residual checked below
        if np.abs(coef).max() > 1e4:
            raise Separation("coefficients diverging, data likely separated")
    # contract: sup-norm of the summed weighted score below 1e-8
    if norm >= 1e-8:
        raise NoConvergence(f"logistic score residual {norm:.2e} above tolerance")
    return LinearModelParams(coef, covariates)

