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
from mnarcause.wee import FitDiagnostics

SCHEMA1 = Schema("a", "y", ("c1",), "c1")


def make_fitted(alpha, gamma, beta, schema, spec=None):
    """Hand-assembled model container for point-estimate checks."""
    spec = spec or ModelSpec.default_for(schema)
    dim = gamma.dim + beta.dim
    return FittedModels(
        alpha=alpha, gamma=gamma, beta=beta,
        covariance=np.full((dim, dim), np.nan), blocks={},
        estimated_blocks=("gamma", "beta"),
        diagnostics=FitDiagnostics(0, 0, {}, 0.5, 0.5, 1.0),
        model_spec=spec, schema=schema, gspec=None, weight_cap=1e4)


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
    return make_fitted(alpha, gamma, beta, SCHEMA1, spec)


def complete_dataset(n=120, seed=2):
    rng = np.random.default_rng(seed)
    c1 = rng.normal(0, 1, n)
    a = (rng.random(n) < expit(0.2 + 0.6 * c1)).astype(float)
    y = 1.0 + 2.0 * a - 0.7 * c1 + rng.normal(0, 1, n)
    return Dataset(a=a, y=y, c=c1[:, None], schema=SCHEMA1)


class TestWeeOr:
    def test_two_row_hand_values(self):
        # tests/oracles/oracle_hand_ate.py: tau = 1
        est = tau_wee_or(two_row_dataset(), two_row_fitted(), with_se=False)
        assert est.tau == pytest.approx(1.0, abs=1e-12)
        assert est.y1 - est.y0 == pytest.approx(est.tau, abs=0)

    def test_unit_weights_reduce_to_regression_difference(self):
        d = complete_dataset()
        fitted = fit_wee(d, unit_missing_model=True, covariance=False)
        est = tau_wee_or(d, fitted, with_se=False)
        # linear outcome family: the summand difference is the treatment
        # coefficient for every row
        assert est.tau == pytest.approx(fitted.beta.coefficients[1], abs=1e-12)


class TestWeeIpw:
    def test_two_row_hand_values(self):
        # tests/oracles/oracle_hand_ate.py
        est = tau_wee_ipw(two_row_dataset(), two_row_fitted(), with_se=False)
        assert est.y1 == pytest.approx(2.7357588823428847, abs=1e-14)
        assert est.y0 == 0.0
        assert est.tau == est.y1 - est.y0

    def test_overlap_note_without_controls(self):
        est = tau_wee_ipw(two_row_dataset(), two_row_fitted(), with_se=False)
        assert any("no control" in note for note in est.notes)

    def test_extreme_propensity_weight(self):
        d = complete_dataset(n=30, seed=3)
        spec = ModelSpec.default_for(SCHEMA1)
        alpha = LinearModelParams(np.zeros(3), spec.missing_covariates)
        gamma = LinearModelParams(np.array([-30.0, 0.0]),
                                  spec.propensity_covariates)
        beta = LinearModelParams(np.array([0.0, 1.0, 0.0]),
                                 spec.outcome_covariates, phi=1.0)
        fitted = make_fitted(alpha, gamma, beta, SCHEMA1, spec)
        with pytest.raises(ExtremeWeight):
            tau_wee_ipw(d, fitted, with_se=False)


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
        return d, make_fitted(alpha, gamma, beta, SCHEMA1, spec)

    def test_one_row_hand_values(self):
        # tests/oracles/oracle_hand_ate.py
        d, fitted = self.one_row()
        est = tau_wee_dr(d, fitted, with_se=False)
        assert est.y1 == pytest.approx(2.5596775195676784, abs=1e-14)
        assert est.y0 == pytest.approx(1.1367067206737387, abs=1e-14)
        assert est.tau == pytest.approx(1.4229707988939397, abs=1e-14)

    def test_flipped_sign_matches_displayed_formula(self):
        # independent scalar evaluation of the subtracted-augmentation form
        d, fitted = self.one_row()
        est = tau_wee_dr(d, fitted, with_se=False, y0_sign=-1.0)
        M = expit(0.2 - 0.3 * 0.5 + 0.1 * 1.5)
        H = expit(0.1 + 0.4 * 0.5)
        O0 = 0.5 + 0.25 * 0.5
        a, y = 1.0, 1.5
        y0_minus = (1 / M) * ((1 - a) * y / (1 - H)
                              - ((a - H) / (1 - H)) * O0)
        assert est.y0 == pytest.approx(y0_minus, abs=1e-14)

    def test_zero_outcome_model_collapses_to_ipw(self):
        d = complete_dataset(n=80, seed=4)
        spec = ModelSpec.default_for(SCHEMA1)
        alpha = LinearModelParams(np.array([0.3, 0.2, -0.1]),
                                  spec.missing_covariates)
        gamma = LinearModelParams(np.array([0.1, 0.5]),
                                  spec.propensity_covariates)
        beta = LinearModelParams(np.zeros(3), spec.outcome_covariates, phi=1.0)
        fitted = make_fitted(alpha, gamma, beta, SCHEMA1, spec)
        dr = tau_wee_dr(d, fitted, with_se=False)
        ipw = tau_wee_ipw(d, fitted, with_se=False)
        assert dr.y1 == ipw.y1 and dr.y0 == ipw.y0

    def test_interval_contains_point(self):
        d, _ = None, None
        data = complete_dataset(n=150, seed=5)
        miss = np.random.default_rng(6).random(150) < 0.25
        c = data.c.copy()
        c[miss, 0] = np.nan
        d = Dataset(data.a, data.y, c, SCHEMA1)
        fitted = fit_wee(d, covariance=False)
        est = tau_wee_dr(d, fitted)
        assert est.se >= 0.0
        assert est.ci[0] <= est.tau <= est.ci[1]


class TestReductionIdentity:
    def test_single_complete_dataset(self):
        d = complete_dataset(n=90, seed=7)
        fitted = fit_wee(d, unit_missing_model=True, covariance=False)
        pairs = [(tau_wee_or, "or"), (tau_wee_ipw, "ipw"), (tau_wee_dr, "aipw")]
        for wee_fn, cc_method in pairs:
            wee = wee_fn(d, fitted, with_se=False)
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
        fitted = fit_wee(d, unit_missing_model=True, covariance=False)
        se = tau_wee_or(d, fitted).se
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
        means = [float(resample(d, np.random.SeedSequence((8, b))).y.mean())
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


def numeric_bread_se(stack, theta_hat, d):
    """The tau SE with the same equations but the central-difference bread."""
    system = EquationSystem(psi=stack.psi, dim=stack.dim)
    return float(np.sqrt(sandwich_covariance(system, theta_hat, d)[-1, -1]))


def effect_stack(fitted, which, y0_sign=1.0):
    return WeeStack(fitted.model_spec, fitted.schema, fitted.gspec,
                    estimate_alpha="alpha" in fitted.estimated_blocks,
                    known_alpha_coef=None if fitted.alpha is None
                    else fitted.alpha.coefficients,
                    effect=which, y0_sign=y0_sign)


EFFECTS = [("or", 1.0), ("ipw", 1.0), ("dr", 1.0), ("dr", -1.0)]


class TestEffectRowJacobian:
    """The tau row's closed-form Jacobian against numeric_jacobian, and the
    estimators' SEs against the numeric-bread sandwich of the same stack."""

    def fixtures(self):
        cont, _ = generate_table1("continuous", 600, seed=50)
        binary, _ = generate_table1("binary", 600, seed=51)
        table2, _ = generate_table2("ompm", 600, seed=52)
        known = LinearModelParams(np.array([1.0, -2.0, 1.0, 3.0]),
                                  ("c1", "c2", "y"))
        return [(cont, fit_wee(cont, covariance=False)),
                (binary, fit_wee(binary, covariance=False)),
                (table2, fit_wee(table2, known_alpha=known, covariance=False)),
                (cont, fit_wee(cont, unit_missing_model=True, covariance=False))]

    @pytest.mark.parametrize("which,sign", EFFECTS)
    def test_jacobian_away_from_root(self, which, sign):
        for d, fitted in self.fixtures():
            stack = effect_stack(fitted, which, sign)
            theta = stack.pack(fitted.alpha, fitted.gamma, fitted.beta, tau=0.5)
            theta = theta + np.linspace(-0.05, 0.05, stack.dim)
            closed = stack.jacobian(theta, d)
            numeric = numeric_jacobian(stack.system(), theta, d)
            scale = np.abs(numeric).max()
            np.testing.assert_allclose(closed, numeric, rtol=1e-6,
                                       atol=1e-6 * scale)

    @pytest.mark.parametrize("which,sign", EFFECTS)
    def test_se_matches_numeric_bread(self, which, sign):
        fns = {"or": tau_wee_or, "ipw": tau_wee_ipw, "dr": tau_wee_dr}
        for d, fitted in self.fixtures():
            kwargs = {"y0_sign": sign} if which == "dr" else {}
            est = fns[which](d, fitted, **kwargs)
            stack = effect_stack(fitted, which, sign)
            theta_hat = stack.pack(fitted.alpha, fitted.gamma, fitted.beta,
                                   tau=est.tau)
            assert est.se == pytest.approx(numeric_bread_se(stack, theta_hat, d),
                                           rel=1e-6)

    @pytest.mark.parametrize("method", ["or", "ipw", "aipw"])
    def test_cc_se_matches_numeric_bread(self, method):
        for kind, seed in (("continuous", 53), ("binary", 54)):
            d, _ = generate_table1(kind, 600, seed=seed)
            est = tau_cc(d, method)
            cc = d.complete_cases()
            fitted = fit_wee(cc, unit_missing_model=True, covariance=False)
            which = {"or": "or", "ipw": "ipw", "aipw": "dr"}[method]
            stack = effect_stack(fitted, which)
            theta_hat = stack.pack(None, fitted.gamma, fitted.beta, tau=est.tau)
            closed = stack.jacobian(theta_hat, cc)
            numeric = numeric_jacobian(stack.system(), theta_hat, cc)
            np.testing.assert_allclose(closed, numeric, rtol=1e-6,
                                       atol=1e-6 * np.abs(numeric).max())
            assert est.se == pytest.approx(numeric_bread_se(stack, theta_hat, cc),
                                           rel=1e-6)

    def test_fit_covariance_matches_numeric_bread(self):
        for d, fitted in self.fixtures():
            stack = effect_stack(fitted, None)
            theta_hat = stack.pack(fitted.alpha, fitted.gamma, fitted.beta)
            closed = sandwich_covariance(stack.system(), theta_hat, d)
            numeric = sandwich_covariance(
                EquationSystem(psi=stack.psi, dim=stack.dim), theta_hat, d)
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
            est = tau_wee_or(d, fitted)
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
        spec = ModelSpec.default_for(SCHEMA1)
        blocks = {which: WeeStack(spec, SCHEMA1, None, estimate_alpha=False,
                                  effect=which).blocks
                  for which in ("or", "ipw", "dr")}
        assert list(blocks["or"]) == ["beta", "tau"]
        assert list(blocks["ipw"]) == list(blocks["dr"]) == ["gamma", "beta", "tau"]
        assert WeeStack(spec, SCHEMA1, None, False, effect="or").dim == 5

    def test_cc_or_fits_the_outcome_model_only(self, monkeypatch):
        calls = []
        original = estimators.fit_model

        def counting(d, covariates, target, *args):
            calls.append(target)
            return original(d, covariates, target, *args)

        monkeypatch.setattr(estimators, "fit_model", counting)
        d, _ = generate_table1("continuous", 300, seed=55)
        tau_cc(d, "or")
        assert calls == ["y"]
        for method in ("ipw", "aipw"):
            calls.clear()
            tau_cc(d, method)
            assert calls == ["a", "y"]

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

        def counting(self, theta, d, jacobian=False):
            calls.append(jacobian)
            return original(self, theta, d, jacobian=jacobian)

        monkeypatch.setattr(WeeStack, "evaluate", counting)
        return calls

    def test_estimators(self, evaluations):
        d, _ = generate_table1("continuous", 600, seed=50)
        fitted = fit_wee(d, covariance=False)
        for fn in (tau_wee_or, tau_wee_ipw, tau_wee_dr):
            evaluations.clear()
            fn(d, fitted)
            assert evaluations == [True], fn.__name__
        for method in ("or", "ipw", "aipw"):
            evaluations.clear()
            tau_cc(d, method)
            assert evaluations == [True], method

    def test_every_stack(self, evaluations):
        d, truth = generate_table1("continuous", 600, seed=50)
        known = LinearModelParams(np.asarray(truth.alpha), ("c1", "y"))
        for fitted in (fit_wee(d, covariance=False),
                       fit_wee(d, known_alpha=known, covariance=False),
                       fit_wee(d, unit_missing_model=True, covariance=False)):
            for which in (None, "or", "ipw", "dr"):
                stack = effect_stack(fitted, which)
                theta = stack.pack(fitted.alpha, fitted.gamma, fitted.beta,
                                   tau=None if which is None else 0.5)
                evaluations.clear()
                sandwich_covariance(stack.system(), theta, d)
                assert evaluations == [True], which
