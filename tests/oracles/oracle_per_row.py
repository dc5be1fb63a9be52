"""Reference per-row estimating functions, one observation at a time.

The library evaluates every estimating equation as a matrix over all
rows. These functions write the same equations for a single row i of a
dataset d, reading only d.a[i], d.y[i], d.c[i] and the column names in
d.schema, in plain numpy:

    G_i                                   moment function
    -G_i                 (r_i = 0)        stage one
    exp(-x_m alpha) G_i  (r_i = 1)        (1/M - 1) G, as 1/M - 1 = exp(-lp)
    w_i (a_i - expit(x_g gamma)) x_g      weighted propensity score
    w_i (y_i - mean(x_b beta)) x_b        weighted outcome score

with r_i = 0 iff the designated confounder is NaN and w_i = r_i / M_i =
r_i (1 + exp(-x_m alpha)). score_matrix gives the unweighted GLM scores of
a design matrix, one row per observation.

Covariate names follow the library: "a" the treatment, "y" the outcome,
"1" the constant (in G only), anything else a confounder column.
tests/test_wee.py, tests/test_glm.py and tests/test_solver.py load this
file by path.
"""
import numpy as np


def _expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def _value(d, i, name):
    if name == "1":
        return 1.0
    if name == "a":
        return float(d.a[i])
    if name == "y":
        return float(d.y[i])
    return float(d.c[i, d.schema.confounders.index(name)])


def _observed(d, i):
    return not np.isnan(d.c[i, d.schema.confounders.index(d.schema.missing)])


def row_vector(d, i, covariates):
    """(1, covariate values) of row i; NaN for an absent confounder."""
    return np.array([1.0] + [_value(d, i, name) for name in covariates])


def row_G(d, i, components):
    return np.array([_value(d, i, name) for name in components])


def stage_one_row(d, i, alpha_coef, alpha_covariates, components):
    G = row_G(d, i, components)
    if not _observed(d, i):
        return -G
    lp = float(row_vector(d, i, alpha_covariates) @ alpha_coef)
    return np.exp(-lp) * G


def _weight(d, i, alpha_coef, alpha_covariates):
    lp = float(row_vector(d, i, alpha_covariates) @ alpha_coef)
    return 1.0 + np.exp(-lp)


def weighted_propensity_row(d, i, gamma_coef, gamma_covariates, alpha_coef,
                            alpha_covariates):
    if not _observed(d, i):
        return np.zeros(len(gamma_coef))
    w = _weight(d, i, alpha_coef, alpha_covariates)
    x = row_vector(d, i, gamma_covariates)
    return w * (float(d.a[i]) - _expit(x @ gamma_coef)) * x


def weighted_outcome_row(d, i, beta_coef, beta_covariates, alpha_coef,
                         alpha_covariates, logistic):
    if not _observed(d, i):
        return np.zeros(len(beta_coef))
    w = _weight(d, i, alpha_coef, alpha_covariates)
    x = row_vector(d, i, beta_covariates)
    lp = x @ beta_coef
    mean = _expit(lp) if logistic else lp
    return w * (float(d.y[i]) - mean) * x


def score_matrix(coef, X, observed, logistic):
    """Per-row log-likelihood scores (observed - mean) x. The Gaussian form
    drops the 1/phi factor, which rescales but never moves the root."""
    lp = X @ coef
    mean = _expit(lp) if logistic else lp
    return (observed - mean)[:, None] * X
