"""Model families: design matrices, links, scores, weighted fits."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from mnarcause import (
    BadValue,
    Dataset,
    DimensionMismatch,
    LinearModelParams,
    ModelSpec,
    RankDeficient,
    Schema,
    SchemaMismatch,
    Separation,
    design_matrix,
    fit_model,
)
from mnarcause.glm import BERNOULLI, GAUSSIAN, expit


def _load_per_row_oracle():
    path = Path(__file__).parent / "oracles" / "oracle_per_row.py"
    spec = importlib.util.spec_from_file_location("oracle_per_row", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


per_row = _load_per_row_oracle()

# fixture shared with tests/oracles/oracle_logit_fit.py; frozen reference
# fits are printed by that script
X1 = np.array([-1.2, 0.3, 0.8, -0.5, 1.7, -2.1, 0.0, 0.9, -0.7, 1.1,
               0.4, -1.5, 2.0, -0.2, 0.6, -0.9, 1.3, 0.1, -0.4, 0.7])
X2 = np.array([0.5, -1.0, 0.2, 1.4, -0.3, 0.8, -1.7, 0.0, 0.9, -0.6,
               1.2, 0.3, -0.8, 0.7, -1.1, 0.4, 0.0, -0.5, 1.0, -0.2])
T = np.array([0, 1, 0, 1, 1, 0, 1, 1, 0, 0,
              1, 0, 1, 1, 0, 1, 0, 1, 0, 1], dtype=float)
W = np.array([1.0, 2.0, 1.0, 1.0, 0.5, 1.0, 1.5, 1.0, 1.0, 2.0,
              1.0, 1.0, 0.5, 1.0, 1.0, 2.0, 1.0, 1.0, 1.5, 1.0])
ORACLE_UNWEIGHTED = (0.15118081828752694, 0.5941171300860344,
                     -0.09443527677940211)
ORACLE_WEIGHTED = (0.17902939645982596, 0.1556999067122593,
                   -0.37092633104177675)

DESIGN20 = np.column_stack([np.ones(20), X1, X2])
COVS20 = ("x1", "x2")


class TestExpit:
    def test_zero(self):
        assert expit(0.0) == 0.5

    def test_saturation_no_overflow(self):
        with np.errstate(over="raise"):
            assert expit(800.0) == 1.0
            assert expit(-800.0) == 0.0

    def test_reference_value(self):
        # tests/oracles/oracle_expit.py, 50-digit arithmetic
        assert expit(2.5) == pytest.approx(0.92414181997875644881, abs=1e-15)

    def test_complement_identity(self):
        x = np.logspace(-8, np.log10(700.0), 60)
        total = expit(x) + expit(-x)
        assert np.max(np.abs(total - 1.0)) < 1e-15

    def test_matches_scipy(self):
        # the package computes expit with numpy alone; scipy's ufunc is the
        # reference, across the points where exp overflows (709.78) and
        # underflows to zero (745.13)
        from scipy.special import expit as reference

        edges = [709.0, 709.78, 709.79, 745.0, 745.2, 800.0, np.inf]
        x = np.concatenate([np.linspace(-800.0, 800.0, 200_001), edges,
                            [-e for e in edges], [0.0, -0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(x)
        want = reference(x)
        assert np.array_equal(got == 0.0, want == 0.0)
        nz = want != 0.0
        assert np.max(np.abs(got[nz] - want[nz]) / want[nz]) <= 1e-15


def one_row_dataset(c1=0.0, c2=0.0, a=1.0, y=1.0, r=1):
    schema = Schema("a", "y", ("c1", "c2"), "c1")
    c1v = c1 if r == 1 else np.nan
    return Dataset(a=np.array([a]), y=np.array([y]),
                   c=np.array([[c1v, c2]]), schema=schema)


def linear_predictor(params, d):
    """The first row's linear predictor, from the library's design matrix."""
    return float(design_matrix(d, params.covariates)[0] @ params.coefficients)


def model_probability(params, d):
    return float(expit(linear_predictor(params, d)))


def row_score(params, d, observed, logistic):
    """The oracle's score of the first row at a given observed value."""
    x = per_row.row_vector(d, 0, params.covariates)[None, :]
    return per_row.score_matrix(params.coefficients, x, np.array([observed]),
                                logistic)[0]


class TestLinearPredictor:
    def test_zero_coefficients(self):
        d = one_row_dataset(c1=3.0, y=5.0)
        params = LinearModelParams(np.zeros(3), ("c1", "y"))
        assert linear_predictor(params, d) == 0.0

    def test_missing_model_point(self):
        # 0.5 - 1*c1 + 2*y at (c1=0, y=1)
        d = one_row_dataset(c1=0.0, y=1.0)
        params = LinearModelParams(np.array([0.5, -1.0, 2.0]), ("c1", "y"))
        assert linear_predictor(params, d) == pytest.approx(2.5)

    def test_propensity_point(self):
        # -0.5 + c1 + c2 at (1, 1)
        d = one_row_dataset(c1=1.0, c2=1.0)
        params = LinearModelParams(np.array([-0.5, 1.0, 1.0]), ("c1", "c2"))
        assert linear_predictor(params, d) == pytest.approx(1.5)


class TestModelProbability:
    def test_all_zero(self):
        d = one_row_dataset()
        params = LinearModelParams(np.zeros(3), ("c1", "y"))
        assert model_probability(params, d) == 0.5

    def test_reference_value(self):
        # expit(1 - 2*0 + 0 + 3*0) = expit(1); oracle_expit.py
        d = one_row_dataset(c1=0.0, c2=0.0, y=0.0)
        params = LinearModelParams(np.array([1.0, -2.0, 1.0, 3.0]),
                                   ("c1", "c2", "y"))
        assert model_probability(params, d) == pytest.approx(
            0.73105857863000487925, abs=1e-15)

    def test_monotone_in_outcome(self):
        params = LinearModelParams(np.array([0.2, -0.4, 1.5]), ("c1", "y"))
        probs = [model_probability(params, one_row_dataset(y=y))
                 for y in (-1.0, 0.0, 2.0)]
        assert probs[0] < probs[1] < probs[2]


class TestScore:
    def test_zero_at_exact_fit_bernoulli(self):
        d = one_row_dataset(c1=0.3, a=1.0)
        params = LinearModelParams(np.array([0.1, 0.5]), ("c1",))
        p = model_probability(params, d)
        s = row_score(params, d, observed=p, logistic=True)
        assert np.allclose(s, 0.0, atol=1e-15)

    def test_gaussian_arithmetic(self):
        # y=2, lp=1, x=(1,3) -> (1,3)
        d = one_row_dataset(c1=3.0, y=2.0)
        params = LinearModelParams(np.array([1.0, 0.0]), ("c1",))
        s = row_score(params, d, observed=2.0, logistic=False)
        assert np.allclose(s, [1.0, 3.0])

    def test_matches_numeric_gradient(self):
        # weighted bernoulli log-likelihood gradient vs summed scores
        theta = np.array([0.3, -0.4, 0.8])

        def loglik(th):
            lp = DESIGN20 @ th
            return float(np.sum(W * (T * lp - np.logaddexp(0.0, lp))))

        grad = np.empty(3)
        for j in range(3):
            h = 1e-6 * (1.0 + abs(theta[j]))
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            grad[j] = (loglik(up) - loglik(dn)) / (2 * h)
        summed = (W[:, None] * per_row.score_matrix(
            theta, DESIGN20, T, logistic=True)).sum(axis=0)
        assert np.allclose(summed, grad, rtol=1e-6, atol=1e-8)

    def test_score_root_after_fit(self):
        fit = fit_model(DESIGN20, T, W, BERNOULLI, COVS20)
        summed = (W[:, None] * per_row.score_matrix(
            fit.coefficients, DESIGN20, T, logistic=True)).sum(axis=0)
        assert np.max(np.abs(summed)) < 1e-8


class TestWeightedGlmFit:
    def test_exact_interpolation(self):
        beta_star = np.array([0.5, -1.2, 2.0])
        y = DESIGN20 @ beta_star
        fit = fit_model(DESIGN20, y, np.ones(20), GAUSSIAN, COVS20)
        assert np.allclose(fit.coefficients, beta_star, atol=1e-10)
        assert fit.phi == pytest.approx(0.0, abs=1e-18)

    def test_unit_weight_logit_matches_reference(self):
        # frozen from tests/oracles/oracle_logit_fit.py
        fit = fit_model(DESIGN20, T, np.ones(20), BERNOULLI, COVS20)
        assert np.allclose(fit.coefficients, ORACLE_UNWEIGHTED, atol=1e-6)

    def test_weighted_logit_matches_reference(self):
        fit = fit_model(DESIGN20, T, W, BERNOULLI, COVS20)
        assert np.allclose(fit.coefficients, ORACLE_WEIGHTED, atol=1e-6)

    def test_duplicate_row_equals_double_weight(self):
        X2x = np.vstack([DESIGN20, DESIGN20[3]])
        t2x = np.append(T, T[3])
        w = np.ones(20)
        w[3] = 2.0
        by_weight = fit_model(DESIGN20, T, w, BERNOULLI, COVS20)
        by_dup = fit_model(X2x, t2x, np.ones(21), BERNOULLI, COVS20)
        assert np.allclose(by_weight.coefficients, by_dup.coefficients,
                           atol=1e-10)

    def test_gaussian_dispersion_weighted(self):
        # intercept-only, w=(1,1,2), y=(0,1,4): mean 2.25, phi 3.1875
        # (tests/oracles/oracle_hand_ate.py)
        X = np.ones((3, 1))
        fit = fit_model(X, np.array([0.0, 1.0, 4.0]), np.array([1.0, 1.0, 2.0]),
                        GAUSSIAN, ())
        assert fit.coefficients[0] == pytest.approx(2.25)
        assert fit.phi == pytest.approx(3.1875)

    def test_separation(self):
        # separated labels on a small covariate scale force the coefficient
        # norm past the divergence guard before the score can vanish
        x = np.linspace(-2, 2, 12) / 1000.0
        t = (x > 0).astype(float)
        X = np.column_stack([np.ones(12), x])
        with pytest.raises(Separation):
            fit_model(X, t, np.ones(12), BERNOULLI, ("x",))

    def test_rank_deficient(self):
        X = np.column_stack([np.ones(20), X1, 2.0 * X1])
        with pytest.raises(RankDeficient):
            fit_model(X, T, np.ones(20), GAUSSIAN, ("x1", "x1_twice"))

    def test_zero_total_weight(self):
        with pytest.raises(RankDeficient):
            fit_model(DESIGN20, T, np.zeros(20), BERNOULLI, COVS20)

    def test_negative_weight_rejected(self):
        w = np.ones(20)
        w[0] = -0.5
        with pytest.raises(DimensionMismatch):
            fit_model(DESIGN20, T, w, BERNOULLI, COVS20)


class TestDesignMatrix:
    def test_zero_fill_on_missing_rows(self):
        schema = Schema("a", "y", ("c1", "c2"), "c1")
        c = np.array([[1.5, 1.0], [np.nan, 0.0]])
        d = Dataset(a=np.array([1.0, 0.0]), y=np.array([1.0, 2.0]), c=c,
                    schema=schema)
        X = design_matrix(d, ("c1", "c2", "y"))
        assert X[0].tolist() == [1.0, 1.5, 1.0, 1.0]
        assert X[1].tolist() == [1.0, 0.0, 0.0, 2.0]

    def test_unknown_covariate(self):
        d = one_row_dataset()
        with pytest.raises(SchemaMismatch):
            design_matrix(d, ("zzz",))


class TestModelSpec:
    def test_missing_model_requires_outcome(self):
        with pytest.raises(SchemaMismatch):
            ModelSpec(missing_covariates=("c1",),
                      propensity_covariates=("c1",),
                      outcome_covariates=("a", "c1"))

    def test_propensity_excludes_outcome(self):
        with pytest.raises(SchemaMismatch):
            ModelSpec(missing_covariates=("c1", "y"),
                      propensity_covariates=("c1", "y"),
                      outcome_covariates=("a", "c1"))

    def test_outcome_requires_treatment(self):
        with pytest.raises(SchemaMismatch):
            ModelSpec(missing_covariates=("c1", "y"),
                      propensity_covariates=("c1",),
                      outcome_covariates=("c1",))

    def test_default_for_schema(self):
        schema = Schema("a", "y", ("c1", "c2"), "c1", outcome_family="binary")
        spec = ModelSpec.default_for(schema)
        assert spec.missing_covariates == ("c1", "c2", "y")
        assert spec.propensity_covariates == ("c1", "c2")
        assert spec.outcome_covariates == ("a", "c1", "c2")
        assert spec.outcome_family == BERNOULLI


class TestLinearModelParams:
    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            LinearModelParams(np.zeros(2), ("c1", "c2"))

    def test_dispersion_positive(self):
        with pytest.raises(DimensionMismatch):
            LinearModelParams(np.zeros(2), ("c1",), phi=0.0)


class TestFitModel:
    def test_targets(self):
        rng = np.random.default_rng(8)
        schema = Schema("a", "y", ("c1",), "c1")
        c1 = rng.normal(0, 1, 60)
        a = (rng.random(60) < expit(0.4 * c1)).astype(float)
        y = 1.0 + 0.5 * a - 0.3 * c1 + rng.normal(0, 1, 60)
        d = Dataset(a=a, y=y, c=c1[:, None], schema=schema)
        ones = np.ones(60)
        gam = fit_model(design_matrix(d, ("c1",)), d.a, ones, BERNOULLI, ("c1",))
        bet = fit_model(design_matrix(d, ("a", "c1")), d.y, ones, GAUSSIAN,
                        ("a", "c1"))
        assert gam.dim == 2 and bet.dim == 3 and bet.phi > 0
        assert gam.covariates == ("c1",) and bet.covariates == ("a", "c1")
