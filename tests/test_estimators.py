"""Treatment-effect estimators: weighted, complete-case, multiple
imputation, bootstrap, and the stacked-sandwich standard error with its
closed-form Jacobian; the OR stack without a propensity block against the
full-stack oracle."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mnarcause import (
    BadConfig,
    Dataset,
    Design,
    EquationSystem,
    ExtremeWeight,
    FittedModels,
    LinearModelParams,
    MiOptions,
    MnarError,
    ModelSpec,
    RankDeficient,
    Schema,
    Separation,
    TooFewDonors,
    TooManyFailures,
    bootstrap_ci,
    WeeStack,
    cc_parameter_fit,
    emit_csv,
    fit_wee,
    generate_table1,
    generate_table2,
    impute_pmm,
    numeric_jacobian,
    resample,
    rubin_combine,
    sandwich_covariance,
    tau_cc,
    tau_mi,
    tau_wee_dr,
    tau_wee_ipw,
    tau_wee_or,
)
from mnarcause import estimators
from mnarcause.estimators import _nearest_donors
from mnarcause.glm import expit
from mnarcause.simlab import TABLE2_ALPHA
from mnarcause.wee import FitDiagnostics, effect_summands

SCHEMA1 = Schema("a", "y", ("c1",), "c1")
# a known missing model with M = expit(800) = 1 exactly: every weight r/M
# is then r, and fit_wee reduces to unweighted complete-case fits
UNIT_ALPHA = LinearModelParams(np.array([800.0, 0.0, 0.0]), ("c1", "y"))


def make_fitted(d, alpha, gamma, beta):
    """Hand-assembled model container for point-estimate checks, with
    alpha known."""
    dim = gamma.dim + beta.dim
    return FittedModels(
        alpha=alpha, gamma=gamma, beta=beta,
        covariance=np.full((dim, dim), np.nan), blocks={},
        diagnostics=FitDiagnostics(0, 0, {}, 0.5, 0.5, 1.0),
        design=Design(d, ModelSpec.default_for(d.schema)),
        weights=Design(d, ModelSpec.default_for(d.schema)).weights(
            alpha.coefficients))


def arm_means(fitted, which):
    """(Yhat(1), Yhat(0)): the mean summands of one effect estimator, whose
    difference is its tau."""
    dz = fitted.design
    gamma = None if which == "or" else fitted.gamma.coefficients
    return tuple(float(s.mean()) for s in effect_summands(
        which, dz, dz.weights(fitted.alpha.coefficients), gamma,
        fitted.beta.coefficients))


def two_row_dataset():
    # row 1 complete (c1=1, a=1, y=2), row 2 missing (a=0, y=1)
    return Dataset(a=np.array([1.0, 0.0]), y=np.array([2.0, 1.0]),
                   c=np.array([[1.0], [np.nan]]), schema=SCHEMA1)


def two_row_fitted():
    spec = ModelSpec.default_for(SCHEMA1)
    alpha = LinearModelParams(np.zeros(3), spec.missing_covariates)
    gamma = LinearModelParams(np.array([0.0, 1.0]), spec.propensity_covariates)
    beta = LinearModelParams(np.array([0.5, 1.0, 0.25]),
                             spec.outcome_covariates, phi=1.0)
    return make_fitted(two_row_dataset(), alpha, gamma, beta)


def complete_dataset(n=120, seed=2):
    rng = np.random.default_rng(seed)
    c1 = rng.normal(0, 1, n)
    a = (rng.random(n) < expit(0.2 + 0.6 * c1)).astype(float)
    y = 1.0 + 2.0 * a - 0.7 * c1 + rng.normal(0, 1, n)
    return Dataset(a=a, y=y, c=c1[:, None], schema=SCHEMA1)


class TestWeeOr:
    def test_two_row_hand_values(self):
        # tests/oracles/oracle_hand_ate.py: tau = 1
        fitted = two_row_fitted()
        est = tau_wee_or(fitted, with_se=False)
        assert est.tau == pytest.approx(1.0, abs=1e-12)
        y1, y0 = arm_means(fitted, "or")
        assert y1 - y0 == pytest.approx(est.tau, abs=0)

    def test_unit_weights_reduce_to_regression_difference(self):
        # M forced to 1: the complete-case stack
        d = complete_dataset()
        est = tau_cc(d, "or", with_se=False)
        _, _, beta, _ = cc_parameter_fit(d)
        # linear outcome family: the summand difference is the treatment
        # coefficient for every row
        assert est.tau == pytest.approx(beta.coefficients[1], abs=1e-12)


class TestWeeIpw:
    def test_two_row_hand_values(self):
        # tests/oracles/oracle_hand_ate.py
        fitted = two_row_fitted()
        est = tau_wee_ipw(fitted, with_se=False)
        y1, y0 = arm_means(fitted, "ipw")
        assert y1 == pytest.approx(2.7357588823428847, abs=1e-14)
        assert y0 == 0.0
        assert est.tau == y1 - y0

    def test_extreme_propensity_weight(self):
        d = complete_dataset(n=30, seed=3)
        spec = ModelSpec.default_for(SCHEMA1)
        alpha = LinearModelParams(np.zeros(3), spec.missing_covariates)
        gamma = LinearModelParams(np.array([-30.0, 0.0]),
                                  spec.propensity_covariates)
        beta = LinearModelParams(np.array([0.0, 1.0, 0.0]),
                                 spec.outcome_covariates, phi=1.0)
        fitted = make_fitted(d, alpha, gamma, beta)
        with pytest.raises(ExtremeWeight):
            tau_wee_ipw(fitted, with_se=False)


class TestWeeDr:
    def one_row(self):
        d = Dataset(a=np.array([1.0]), y=np.array([1.5]),
                    c=np.array([[0.5]]), schema=SCHEMA1)
        spec = ModelSpec.default_for(SCHEMA1)
        alpha = LinearModelParams(np.array([0.2, -0.3, 0.1]),
                                  spec.missing_covariates)
        gamma = LinearModelParams(np.array([0.1, 0.4]),
                                  spec.propensity_covariates)
        beta = LinearModelParams(np.array([0.5, 1.0, 0.25]),
                                 spec.outcome_covariates, phi=1.0)
        return make_fitted(d, alpha, gamma, beta)

    def test_one_row_hand_values(self):
        # tests/oracles/oracle_hand_ate.py
        fitted = self.one_row()
        est = tau_wee_dr(fitted, with_se=False)
        y1, y0 = arm_means(fitted, "dr")
        assert y1 == pytest.approx(2.5596775195676784, abs=1e-14)
        assert y0 == pytest.approx(1.1367067206737387, abs=1e-14)
        assert est.tau == pytest.approx(1.4229707988939397, abs=1e-14)

    def test_zero_outcome_model_collapses_to_ipw(self):
        d = complete_dataset(n=80, seed=4)
        spec = ModelSpec.default_for(SCHEMA1)
        alpha = LinearModelParams(np.array([0.3, 0.2, -0.1]),
                                  spec.missing_covariates)
        gamma = LinearModelParams(np.array([0.1, 0.5]),
                                  spec.propensity_covariates)
        beta = LinearModelParams(np.zeros(3), spec.outcome_covariates, phi=1.0)
        fitted = make_fitted(d, alpha, gamma, beta)
        assert arm_means(fitted, "dr") == arm_means(fitted, "ipw")
        dr = tau_wee_dr(fitted, with_se=False)
        assert dr.tau == tau_wee_ipw(fitted, with_se=False).tau

    def test_interval_contains_point(self):
        data = complete_dataset(n=150, seed=5)
        miss = np.random.default_rng(6).random(150) < 0.25
        c = data.c.copy()
        c[miss, 0] = np.nan
        d = Dataset(data.a, data.y, c, SCHEMA1)
        fitted = fit_wee(d, covariance=False)
        est = tau_wee_dr(fitted)
        assert est.se >= 0.0
        assert est.ci[0] <= est.tau <= est.ci[1]


class TestReductionIdentity:
    def test_single_complete_dataset(self):
        d = complete_dataset(n=90, seed=7)
        fitted = fit_wee(d, known_alpha=UNIT_ALPHA, covariance=False)
        pairs = [(tau_wee_or, "or"), (tau_wee_ipw, "ipw"), (tau_wee_dr, "aipw")]
        for wee_fn, cc_method in pairs:
            wee = wee_fn(fitted, with_se=False)
            cc = tau_cc(d, cc_method, with_se=False)
            assert abs(wee.tau - cc.tau) < 1e-10


class TestSandwichSe:
    def test_or_matches_robust_regression_se(self):
        # frozen from tests/oracles/oracle_delta_or.py: with unit weights
        # the regression-estimator SE equals the HC0 robust SE of the
        # treatment coefficient
        rng = np.random.default_rng(123)
        n = 40
        c1 = rng.normal(0.0, 1.0, n)
        a = (rng.random(n) < 0.5).astype(float)
        y = 0.3 + 1.2 * a - 0.5 * c1 + rng.normal(0.0, 1.0, n)
        d = Dataset(a=a, y=y, c=c1[:, None], schema=SCHEMA1)
        se = tau_cc(d, "or").se  # M forced to 1
        assert se == pytest.approx(0.33687086314338849, abs=1e-6)


class TestCcBaselines:
    def test_model_based_standard_errors(self):
        # textbook formulas recomputed directly from the design matrix
        d = complete_dataset(n=100, seed=8)
        gamma, se_g, beta, se_b = cc_parameter_fit(d)
        X = np.column_stack([np.ones(100), d.confounder("c1")])
        p = expit(X @ gamma.coefficients)
        info = (X * (p * (1 - p))[:, None]).T @ X
        assert np.allclose(se_g, np.sqrt(np.diag(np.linalg.inv(info))),
                           atol=1e-10)
        Xb = np.column_stack([np.ones(100), d.a, d.confounder("c1")])
        resid = d.y - Xb @ beta.coefficients
        sigma2 = resid @ resid / (100 - 3)
        se_ols = np.sqrt(sigma2 * np.diag(np.linalg.inv(Xb.T @ Xb)))
        assert np.allclose(se_b, se_ols, atol=1e-10)

    def test_unknown_method(self):
        with pytest.raises(BadConfig):
            tau_cc(complete_dataset(), "zzz")

    def test_drops_missing_rows(self):
        base = complete_dataset(n=200, seed=9)
        cc_only = tau_cc(base, "or", with_se=False)
        # appending rows with the confounder missing must not move the
        # complete-case estimate
        extra = 40
        a = np.concatenate([base.a, np.ones(extra)])
        y = np.concatenate([base.y, np.full(extra, 99.0)])
        c = np.concatenate([base.c, np.full((extra, 1), np.nan)])
        padded = Dataset(a, y, c, SCHEMA1)
        assert tau_cc(padded, "or", with_se=False).tau == pytest.approx(
            cc_only.tau, abs=1e-12)


class TestNearestDonors:
    def test_two_nearest(self):
        rng = np.random.default_rng(0)
        pred_obs = np.array([1.0, 2.0, 3.0, 4.0])
        donors = [
            _nearest_donors(pred_obs, np.array([2.5]), 2, rng)[0]
            for _ in range(200)
        ]
        assert set(donors) == {1, 2}

    def test_tie_goes_to_lowest_row_index(self):
        rng = np.random.default_rng(0)
        pred_obs = np.array([1.0, 3.0, 3.0])
        # all three donors are at distance 1 from 2.0; k=1 must always pick
        # row 0, the lowest index among the tied candidates
        donors = {
            int(_nearest_donors(pred_obs, np.array([2.0]), 1, rng)[0])
            for _ in range(50)
        }
        assert donors == {0}

    def test_window_at_boundary(self):
        rng = np.random.default_rng(1)
        pred_obs = np.array([10.0, 20.0, 30.0])
        donors = {
            int(_nearest_donors(pred_obs, np.array([-5.0]), 2, rng)[0])
            for _ in range(200)
        }
        assert donors == {0, 1}

    @staticmethod
    def knn_oracle(pred_obs, target, k):
        """Brute force: the k rows nearest to target, distance ties to the
        lowest row index."""
        key = lambda i: (abs(pred_obs[i] - target), i)
        return set(sorted(range(len(pred_obs)), key=key)[:k])

    @staticmethod
    def donor_set(pred_obs, target, k, draws=400):
        rng = np.random.default_rng(2)
        pred_mis = np.full(draws, target)
        return {int(i) for i in _nearest_donors(pred_obs, pred_mis, k, rng)}

    @pytest.mark.parametrize("pred_obs, target, k", [
        # target above every prediction: the window meets the top edge
        ([10.0, 20.0, 30.0], 99.0, 2),
        # fewer complete cases than the 2k window
        ([10.0, 20.0, 30.0, 40.0, 50.0], 12.0, 3),
        # k equal to the number of complete cases
        ([30.0, 10.0, 20.0], 25.0, 3),
        # a tie run cut by the window's left edge keeps its lowest rows
        ([1.0, 1.0, 1.0, 1.0, 5.0], 3.0, 1),
        ([1.0, 1.0, 1.0, 1.0, 5.0], 3.0, 2),
    ])
    def test_pool_matches_brute_force(self, pred_obs, target, k):
        pred_obs = np.array(pred_obs)
        assert self.donor_set(pred_obs, target, k) == \
            self.knn_oracle(pred_obs, target, k)

    def test_random_pools_match_brute_force(self):
        g = np.random.default_rng(3)
        for _ in range(150):
            n = int(g.integers(1, 10))
            # small integer means make distance ties common
            pred_obs = g.integers(0, 5, n).astype(float)
            target = float(g.integers(-1, 6))
            k = int(g.integers(1, n + 1))
            assert self.donor_set(pred_obs, target, k) == \
                self.knn_oracle(pred_obs, target, k), (pred_obs, target, k)


def mnar_dataset(n=160, seed=10, miss_frac=0.3):
    rng = np.random.default_rng(seed)
    c1 = rng.normal(0, 1, n)
    c2 = rng.normal(0, 1, n)
    a = (rng.random(n) < expit(0.4 * c1 - 0.2 * c2)).astype(float)
    y = 0.5 + 1.0 * a + 0.8 * c1 - 0.5 * c2 + rng.normal(0, 1, n)
    r = rng.random(n) > miss_frac
    c1_obs = np.where(r, c1, np.nan)
    schema = Schema("a", "y", ("c1", "c2"), "c1")
    return Dataset(a, y, np.column_stack([c1_obs, c2]), schema)


class TestImputePmm:
    def test_no_missing_rows_returns_copies(self):
        d = complete_dataset(n=40, seed=11)
        out = impute_pmm(d, MiOptions(m=3, k=2, seed=0))
        assert len(out) == 3
        for completed in out:
            assert completed is d

    def test_k_one_copies_nearest_donor(self):
        # one missing row; with k=1 the imputed value must be the observed
        # value of the single nearest predicted mean
        d = mnar_dataset(n=60, seed=12, miss_frac=0.02)
        mis = np.flatnonzero(d.r == 0)
        if mis.size == 0:
            pytest.skip("no missing row realized")
        out = impute_pmm(d, MiOptions(m=2, k=1, seed=5))
        observed_support = set(d.confounder("c1")[d.r == 1])
        for completed in out:
            for i in mis:
                assert completed.confounder("c1")[i] in observed_support

    def test_imputed_values_from_observed_support(self):
        d = mnar_dataset(n=120, seed=13)
        out = impute_pmm(d, MiOptions(m=4, k=5, seed=1))
        support = set(d.confounder("c1")[d.r == 1])
        for completed in out:
            assert np.all(completed.r == 1)
            for v in completed.confounder("c1")[d.r == 0]:
                assert v in support

    def test_deterministic(self):
        d = mnar_dataset(n=100, seed=14)
        o1 = impute_pmm(d, MiOptions(m=3, k=4, seed=9))
        o2 = impute_pmm(d, MiOptions(m=3, k=4, seed=9))
        for d1, d2 in zip(o1, o2):
            assert np.array_equal(d1.c, d2.c)

    def test_too_few_donors(self):
        d = mnar_dataset(n=12, seed=15, miss_frac=0.7)
        n_cc = int((d.r == 1).sum())
        with pytest.raises(TooFewDonors):
            impute_pmm(d, MiOptions(m=2, k=n_cc, seed=0))

    def test_rank_deficient_imputation_design(self):
        # c2 duplicates the treatment column exactly
        rng = np.random.default_rng(16)
        n = 50
        a = (rng.random(n) < 0.5).astype(float)
        c1 = rng.normal(0, 1, n)
        y = a + c1 + rng.normal(0, 1, n)
        c1_obs = np.where(rng.random(n) < 0.8, c1, np.nan)
        d = Dataset(a, y, np.column_stack([c1_obs, a]),
                    Schema("a", "y", ("c1", "c2"), "c1"))
        with pytest.raises(RankDeficient):
            impute_pmm(d, MiOptions(m=2, k=3, seed=0))

    def test_options_validated(self):
        with pytest.raises(BadConfig):
            MiOptions(m=1)
        with pytest.raises(BadConfig):
            MiOptions(k=0)


class TestRubinCombine:
    def test_hand_example(self):
        # tests/oracles/oracle_hand_ate.py
        point, se, ci = rubin_combine(np.array([1.0, 2.0, 3.0]),
                                      np.array([0.5, 0.5, 0.5]))
        assert point == pytest.approx(2.0)
        assert se == pytest.approx(1.35400640077266, abs=1e-12)
        assert ci[0] < point < ci[1]

    def test_identical_points_have_no_between_variance(self):
        point, se, _ = rubin_combine(np.array([1.5, 1.5, 1.5]),
                                     np.array([0.25, 0.25, 0.25]))
        assert point == 1.5
        assert se == pytest.approx(0.5)


class TestTauMi:
    def test_no_missingness_equals_complete_data_estimate(self):
        d = complete_dataset(n=80, seed=17)
        mi = tau_mi(d, "or", MiOptions(m=3, k=2, seed=0))
        cc = tau_cc(d, "or")
        assert mi.tau == pytest.approx(cc.tau, abs=1e-12)

    def test_point_runs_on_mnar_data(self):
        d = mnar_dataset(n=150, seed=18)
        est = tau_mi(d, "aipw", MiOptions(m=4, k=3, seed=2))
        assert np.isfinite(est.tau) and est.se > 0.0

    @pytest.mark.parametrize("with_se", [True, False])
    def test_shared_imputations_equal_separate_calls(self, with_se):
        d = mnar_dataset(n=150, seed=18)
        opts = MiOptions(m=4, k=3, seed=2)
        completed = impute_pmm(d, opts)
        for method in ("or", "ipw", "aipw"):
            shared = tau_mi(d, method, opts, with_se=with_se, completed=completed)
            assert shared == tau_mi(d, method, opts, with_se=with_se)


class TestBootstrap:
    def estimator(self):
        return lambda boot: float(boot.y.mean())

    def test_deterministic(self):
        d = complete_dataset(n=60, seed=19)
        r1 = bootstrap_ci(self.estimator(), d, B=40, seed=7)
        r2 = bootstrap_ci(self.estimator(), d, B=40, seed=7)
        assert r1.se == r2.se and r1.ci == r2.ci
        assert np.array_equal(r1.estimates, r2.estimates)

    def test_b_two_interval_is_order_statistics(self):
        d = complete_dataset(n=60, seed=20)
        res = bootstrap_ci(self.estimator(), d, B=2, seed=1)
        lo, hi = sorted(res.estimates)
        assert res.ci == pytest.approx((lo, hi))

    def test_b_below_two_rejected(self):
        with pytest.raises(BadConfig):
            bootstrap_ci(self.estimator(), complete_dataset(), B=1, seed=0)

    def test_failures_excluded_below_ceiling(self):
        d = complete_dataset(n=60, seed=21)
        calls = {"i": 0}

        def flaky(boot):
            calls["i"] += 1
            if calls["i"] == 3:
                raise RankDeficient("synthetic failure")
            return float(boot.y.mean())

        res = bootstrap_ci(flaky, d, B=50, seed=3)
        assert res.failures == 1
        assert len(res.estimates) == 49

    def test_too_many_failures(self):
        d = complete_dataset(n=60, seed=22)

        def broken(boot):
            raise RankDeficient("synthetic failure")

        with pytest.raises(TooManyFailures):
            bootstrap_ci(broken, d, B=20, seed=4)

    def test_vector_equals_scalar_calls(self):
        # np.std along axis 0 of the (B, K) matrix sums in another order and
        # differs in the last bit for most such matrices
        d = mnar_dataset(n=80, seed=24)
        parts = (lambda b: float(b.y.mean()),
                 lambda b: float(np.median(b.y)),
                 lambda b: float(b.a.mean() - 0.3 * b.y.std()))
        res = bootstrap_ci(lambda b: [f(b) for f in parts], d, B=300, seed=6)
        assert res.estimates.shape == (300, 3) and res.failures == 0
        for k, f in enumerate(parts):
            one = bootstrap_ci(f, d, B=300, seed=6)
            assert res.component(k).se == one.se
            assert res.component(k).ci == one.ci
            assert np.array_equal(res.component(k).estimates, one.estimates)
            assert res.se[k] == one.se
            assert (res.ci[0][k], res.ci[1][k]) == one.ci

    def test_vector_failure_leaves_resample_out_of_every_component(self):
        # the second component fails on resamples whose outcome mean is
        # high; the first component never fails alone, yet those resamples
        # are missing from its column too
        d = mnar_dataset(n=80, seed=25)
        means = [float(d.subset(resample(d.n, np.random.SeedSequence((8, b)))).y.mean())
                 for b in range(40)]
        cut = sorted(means)[-3]  # three resamples fail

        def second(boot):
            if boot.y.mean() >= cut:
                raise ExtremeWeight("synthetic failure")
            return float(np.median(boot.y))

        res = bootstrap_ci(lambda b: [float(b.y.mean()), second(b)], d, B=40,
                           seed=8)
        assert res.failures == 3 and isinstance(res.failures, int)
        kept = [m for m in means if m < cut]
        assert res.estimates[:, 0].tolist() == kept
        alone = bootstrap_ci(lambda b: float(b.y.mean()), d, B=40, seed=8)
        assert alone.failures == 0 and len(alone.estimates) == 40
        # the scalar estimator that fails on the same resamples agrees
        joint = bootstrap_ci(lambda b: (second(b), float(b.y.mean()))[1], d,
                             B=40, seed=8)
        assert res.component(0).se == joint.se and res.component(0).ci == joint.ci

    def test_vector_failures_count_toward_ceiling(self):
        d = mnar_dataset(n=80, seed=26)
        calls = {"i": 0}

        def flaky(boot):
            calls["i"] += 1
            if calls["i"] % 4 == 0:
                raise RankDeficient("synthetic failure")
            return float(boot.y.mean())

        with pytest.raises(TooManyFailures):
            bootstrap_ci(lambda b: [float(b.a.mean()), flaky(b)], d, B=20, seed=9)

    def test_non_package_errors_propagate(self):
        d = complete_dataset(n=60, seed=23)

        def buggy(boot):
            raise ValueError("not a package error")

        with pytest.raises(ValueError):
            bootstrap_ci(buggy, d, B=10, seed=5)


def numeric_bread_system(stack):
    """The stack's equations with the central-difference Jacobian."""
    def evaluate(theta, jacobian=False):
        vals = stack.evaluate(theta)[0]
        return vals, numeric_jacobian(system, theta) if jacobian else None

    system = EquationSystem(evaluate, stack.dim)
    return system


def numeric_bread_se(stack, theta_hat):
    """The tau SE with the same equations but the central-difference bread."""
    system = numeric_bread_system(stack)
    return float(np.sqrt(sandwich_covariance(system, theta_hat)[-1, -1]))


def effect_stack(fitted, which):
    return WeeStack(fitted.design, "alpha" in fitted.blocks,
                    known_alpha_coef=fitted.alpha.coefficients, effect=which)


def cc_stack(d, which):
    """The complete-case stack of d (M forced to 1) and its fitted models."""
    gamma, _, beta, _ = cc_parameter_fit(d)
    dz = Design(d.complete_cases(), ModelSpec.default_for(d.schema))
    return WeeStack(dz, estimate_alpha=False, effect=which), gamma, beta


# the ids are those the cases had beside a sign-flipped DR variant
EFFECTS = pytest.mark.parametrize("which", ["or", "ipw", "dr"],
                                  ids=["or-1.0", "ipw-1.0", "dr-1.0"])


class TestEffectRowJacobian:
    """The tau row's closed-form Jacobian against numeric_jacobian, and the
    estimators' SEs against the numeric-bread sandwich of the same stack."""

    def fixtures(self):
        cont, _ = generate_table1("continuous", 600, seed=50)
        binary, _ = generate_table1("binary", 600, seed=51)
        table2, _ = generate_table2("ompm", 600, seed=52)
        known = LinearModelParams(np.array([1.0, -2.0, 1.0, 3.0]),
                                  ("c1", "c2", "y"))
        # the last fixture has M = 1 with the missing rows kept at weight 0
        return [fit_wee(cont, covariance=False),
                fit_wee(binary, covariance=False),
                fit_wee(table2, known_alpha=known, covariance=False),
                fit_wee(cont, known_alpha=UNIT_ALPHA, covariance=False)]

    @EFFECTS
    def test_jacobian_away_from_root(self, which):
        for fitted in self.fixtures():
            stack = effect_stack(fitted, which)
            theta = stack.pack(fitted.alpha, fitted.gamma, fitted.beta, tau=0.5)
            theta = theta + np.linspace(-0.05, 0.05, stack.dim)
            closed = stack.evaluate(theta, True)[1]
            numeric = numeric_jacobian(stack.system(), theta)
            scale = np.abs(numeric).max()
            np.testing.assert_allclose(closed, numeric, rtol=1e-6,
                                       atol=1e-6 * scale)

    @EFFECTS
    def test_se_matches_numeric_bread(self, which):
        fns = {"or": tau_wee_or, "ipw": tau_wee_ipw, "dr": tau_wee_dr}
        for fitted in self.fixtures():
            est = fns[which](fitted)
            stack = effect_stack(fitted, which)
            theta_hat = stack.pack(fitted.alpha, fitted.gamma, fitted.beta,
                                   tau=est.tau)
            assert est.se == pytest.approx(numeric_bread_se(stack, theta_hat),
                                           rel=1e-6)

    @pytest.mark.parametrize("method", ["or", "ipw", "aipw"])
    def test_cc_se_matches_numeric_bread(self, method):
        for kind, seed in (("continuous", 53), ("binary", 54)):
            d, _ = generate_table1(kind, 600, seed=seed)
            est = tau_cc(d, method)
            which = {"or": "or", "ipw": "ipw", "aipw": "dr"}[method]
            stack, gamma, beta = cc_stack(d, which)
            theta_hat = stack.pack(None, gamma, beta, tau=est.tau)
            closed = stack.evaluate(theta_hat, True)[1]
            numeric = numeric_jacobian(stack.system(), theta_hat)
            np.testing.assert_allclose(closed, numeric, rtol=1e-6,
                                       atol=1e-6 * np.abs(numeric).max())
            assert est.se == pytest.approx(numeric_bread_se(stack, theta_hat),
                                           rel=1e-6)

    def test_fit_covariance_matches_numeric_bread(self):
        for fitted in self.fixtures():
            stack = effect_stack(fitted, None)
            theta_hat = stack.pack(fitted.alpha, fitted.gamma, fitted.beta)
            closed = sandwich_covariance(stack.system(), theta_hat)
            numeric = sandwich_covariance(numeric_bread_system(stack), theta_hat)
            np.testing.assert_allclose(np.sqrt(np.diag(closed)),
                                       np.sqrt(np.diag(numeric)), rtol=1e-6)


def full_stack_oracle():
    path = Path(__file__).parent / "oracles" / "oracle_or_full_stack.py"
    spec = importlib.util.spec_from_file_location("oracle_or_full_stack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.or_tau_se


def separated_dataset():
    """c1 separates the treatment among complete cases (two of them within
    1e-3 of the boundary, so the logistic coefficients pass 1e4); the rows
    missing c1 are not separated."""
    rng = np.random.default_rng(5)
    c1 = rng.normal(0.0, 1.0, 60)
    c1[:2] = [1e-3, -1e-3]
    a = (c1 > 0).astype(float)
    y = 1.0 + 2.0 * a + 0.5 * c1 + rng.normal(0.0, 1.0, 60)
    c1[3::4] = np.nan
    a[3::8] = 1.0 - a[3::8]
    return Dataset(a=a, y=y, c=c1[:, None], schema=SCHEMA1)


class TestOrWithoutPropensity:
    """OR reads the outcome model only. Its stack has no gamma block and
    tau_cc("or") fits no propensity model; the SE still equals the one of
    the full alpha | gamma | beta | phi | tau stack."""

    def wee_fixtures(self):
        cont, cont_truth = generate_table1("continuous", 600, seed=50)
        binary, binary_truth = generate_table1("binary", 600, seed=51)
        table2, _ = generate_table2("ompm", 600, seed=52)

        def known(coef, covariates):
            return LinearModelParams(np.asarray(coef), covariates)

        return [
            (cont, fit_wee(cont, covariance=False), True),
            (binary, fit_wee(binary, covariance=False), True),
            (cont, fit_wee(cont, known_alpha=known(cont_truth.alpha, ("c1", "y")),
                           covariance=False), False),
            (binary, fit_wee(binary, known_alpha=known(binary_truth.alpha,
                                                       ("c1", "y")),
                             covariance=False), False),
            (table2, fit_wee(table2, known_alpha=known(TABLE2_ALPHA,
                                                       ("c1", "c2", "y")),
                             covariance=False), False),
        ]

    def test_wee_or_matches_full_stack_oracle(self):
        or_tau_se = full_stack_oracle()
        for d, fitted, estimate_alpha in self.wee_fixtures():
            est = tau_wee_or(fitted)
            tau, se = or_tau_se(d.a, d.y, d.c, d.schema.missing_index,
                                d.schema.outcome_family == "gaussian",
                                fitted.alpha.coefficients,
                                fitted.gamma.coefficients,
                                fitted.beta.coefficients, fitted.beta.phi,
                                estimate_alpha=estimate_alpha)
            assert est.tau == pytest.approx(tau, rel=1e-10)
            assert est.se == pytest.approx(se, rel=1e-8)

    @pytest.mark.parametrize("kind,seed", [("continuous", 53), ("binary", 54)])
    def test_cc_or_matches_full_stack_oracle(self, kind, seed):
        d, _ = generate_table1(kind, 600, seed=seed)
        est = tau_cc(d, "or")
        gamma, _, beta, _ = cc_parameter_fit(d)
        cc = d.complete_cases()
        tau, se = full_stack_oracle()(
            cc.a, cc.y, cc.c, cc.schema.missing_index, kind == "continuous",
            None, gamma.coefficients, beta.coefficients, beta.phi)
        assert est.tau == pytest.approx(tau, rel=1e-10)
        assert est.se == pytest.approx(se, rel=1e-8)

    def test_stack_has_no_gamma_block(self):
        dz = Design(complete_dataset(), ModelSpec.default_for(SCHEMA1))
        blocks = {which: WeeStack(dz, estimate_alpha=False, effect=which).blocks
                  for which in ("or", "ipw", "dr")}
        assert list(blocks["or"]) == ["beta", "tau"]
        assert list(blocks["ipw"]) == list(blocks["dr"]) == ["gamma", "beta", "tau"]
        assert WeeStack(dz, False, effect="or").dim == 5

    def test_cc_or_fits_the_outcome_model_only(self, monkeypatch):
        calls = []
        original = estimators.fit_model

        def counting(X, observed, weights, family, covariates):
            calls.append(covariates)
            return original(X, observed, weights, family, covariates)

        monkeypatch.setattr(estimators, "fit_model", counting)
        d, _ = generate_table1("continuous", 300, seed=55)
        propensity, outcome = ("c1",), ("a", "c1")
        tau_cc(d, "or")
        assert calls == [outcome]
        for method in ("ipw", "aipw"):
            calls.clear()
            tau_cc(d, method)
            assert calls == [propensity, outcome]

    def test_separation_fails_ipw_but_not_or(self):
        d = separated_dataset()
        for method in ("ipw", "aipw"):
            with pytest.raises(Separation):
                tau_cc(d, method)
        est = tau_cc(d, "or")
        cc = d.complete_cases()
        X = np.column_stack([np.ones(cc.n), cc.a, cc.confounder("c1")])
        ols = np.linalg.lstsq(X, cc.y, rcond=None)[0]
        assert est.tau == pytest.approx(ols[1], rel=1e-10)
        assert np.isfinite(est.se) and est.se > 0.0


class TestSandwichEvaluatesOnce:
    """A sandwich on a WeeStack takes the per-row values and the bread
    from one evaluation of the stack."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        original = WeeStack.evaluate

        def counting(self, theta, jacobian=False):
            calls.append(jacobian)
            return original(self, theta, jacobian=jacobian)

        monkeypatch.setattr(WeeStack, "evaluate", counting)
        return calls

    def test_estimators(self, evaluations):
        d, _ = generate_table1("continuous", 600, seed=50)
        fitted = fit_wee(d, covariance=False)
        for fn in (tau_wee_or, tau_wee_ipw, tau_wee_dr):
            evaluations.clear()
            fn(fitted)
            assert evaluations == [True], fn.__name__
        for method in ("or", "ipw", "aipw"):
            evaluations.clear()
            tau_cc(d, method)
            assert evaluations == [True], method

    def test_fit_with_covariance(self, evaluations):
        # the residual diagnostics come from the sandwich's own values
        d, truth = generate_table1("continuous", 2000, 1)
        known = LinearModelParams(np.asarray(truth.alpha), ("c1", "y"))
        fitted = fit_wee(d, known_alpha=known)
        assert evaluations == [True]
        assert max(fitted.diagnostics.residual_sup.values()) < 1e-8

    def test_every_stack(self, evaluations):
        d, truth = generate_table1("continuous", 600, seed=50)
        known = LinearModelParams(np.asarray(truth.alpha), ("c1", "y"))
        stacks = []
        for fitted in (fit_wee(d, covariance=False),
                       fit_wee(d, known_alpha=known, covariance=False)):
            stacks += [(effect_stack(fitted, which), fitted.alpha, fitted.gamma,
                        fitted.beta) for which in (None, "or", "ipw", "dr")]
        for which in (None, "or", "ipw", "dr"):
            stack, gamma, beta = cc_stack(d, which)
            stacks.append((stack, None, gamma, beta))
        for stack, alpha, gamma, beta in stacks:
            theta = stack.pack(alpha, gamma, beta,
                               tau=None if stack.effect is None else 0.5)
            evaluations.clear()
            sandwich_covariance(stack.system(), theta)
            assert evaluations == [True], stack.effect


class TestOneDesignPerFit:
    """One Design per dataset: a fit and the three WEE estimators with their
    SEs build each design matrix once, and a complete-case estimate builds
    its matrices once on the complete cases."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from mnarcause import glm, wee
        calls = []
        original = glm.design_matrix

        def counting(d, covariates):
            calls.append(covariates)
            return original(d, covariates)

        for module in (glm, wee, estimators):
            monkeypatch.setattr(module, "design_matrix", counting)
        return calls

    @staticmethod
    def fit_and_estimate(d, **kwargs):
        fitted = fit_wee(d, covariance=False, **kwargs)
        for fn in (tau_wee_or, tau_wee_ipw, tau_wee_dr):
            fn(fitted)

    def test_known_alpha(self, builds):
        d, _ = generate_table2("ocpc", 2000, 3)
        known = LinearModelParams(np.asarray(TABLE2_ALPHA), ("c1", "c2", "y"))
        self.fit_and_estimate(d, known_alpha=known)
        # missing, propensity and outcome models
        assert len(builds) == 3 and len(set(builds)) == 3

    def test_estimated_alpha(self, builds):
        d, _ = generate_table1("continuous", 2000, 1)
        self.fit_and_estimate(d)
        # the three models; the starting logit fit of r on (y) reads its
        # columns of the missing model's design
        assert sorted(builds) == sorted([("c1", "y"), ("c1",), ("a", "c1")])

    @pytest.mark.parametrize("method,count", [("or", 1), ("ipw", 2), ("aipw", 2)])
    def test_complete_case(self, builds, method, count):
        d, _ = generate_table1("continuous", 2000, 1)
        tau_cc(d, method)
        assert len(builds) == count

    @pytest.mark.parametrize("estimators", ["wee-or,wee-ipw,wee-dr",
                                            "wee-dr,cc-or,cc-aipw"])
    def test_bootstrap_builds_no_design(self, builds, tmp_path, estimators):
        """The resamples of fit --bootstrap are counts on the one Design of
        the data: B = 2 and B = 5 build the same matrices."""
        from mnarcause.cli import main
        path = tmp_path / "data.csv"
        path.write_text(emit_csv(generate_table1("continuous", 400, 7)[0]))
        made = []
        for B in (2, 5):
            builds.clear()
            assert main(["fit", "--data", str(path), "--treatment", "a",
                         "--outcome", "y", "--confounders", "c1", "--missing",
                         "c1", "--estimators", estimators, "--bootstrap",
                         str(B)]) == 0
            made.append(sorted(builds))
        assert made[0] == made[1]
