"""Two-stage weighted estimating equations: moment function construction,
stage-one and stage-two contracts, closed-form Jacobians, stacked sandwich
plumbing."""

import gc
import importlib.util
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnarcause import (
    BadConfig,
    Dataset,
    Design,
    DimensionMismatch,
    ExtremeWeight,
    GSpec,
    LinearModelParams,
    MissingnessDegenerate,
    MnarError,
    ModelSpec,
    NoConvergence,
    Schema,
    WeeStack,
    default_G,
    fit_model,
    fit_wee,
    generate_table1,
    generate_table2,
    numeric_jacobian,
    resample,
    sandwich_covariance,
    tau_wee_dr,
    tau_wee_ipw,
    tau_wee_or,
)
from mnarcause import wee
from mnarcause.glm import GAUSSIAN, expit
from mnarcause.wee import g_matrix


def _load_per_row_oracle():
    path = Path(__file__).parent / "oracles" / "oracle_per_row.py"
    spec = importlib.util.spec_from_file_location("oracle_per_row", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


per_row = _load_per_row_oracle()

SCHEMA2 = Schema("a", "y", ("c1", "c2"), "c1")


def two_confounder_dataset(n=400, missing_lp=None, seed=0):
    """c1 partially observed; optional custom missingness linear predictor
    as a function of (c1, c2, y)."""
    rng = np.random.default_rng(seed)
    c1 = rng.normal(0, 1, n)
    c2 = (rng.random(n) < 0.5).astype(float)
    a = (rng.random(n) < expit(0.3 + 0.5 * c1 - 0.4 * c2)).astype(float)
    y = 0.5 + 1.2 * a + 0.8 * c1 - 0.6 * c2 + rng.normal(0, 1, n)
    lp = missing_lp(c1, c2, y) if missing_lp else (1.0 - c1 + 0.5 * y)
    r = (rng.random(n) < expit(lp)).astype(float)
    c1_obs = np.where(r == 1, c1, np.nan)
    d = Dataset(a=a, y=y, c=np.column_stack([c1_obs, c2]), schema=SCHEMA2)
    truth = {"c1": c1}
    return d, truth


class TestGSpec:
    def test_default_for_single_confounder(self):
        schema = Schema("a", "y", ("c1",), "c1")
        spec = ModelSpec.default_for(schema)
        assert default_G(spec, schema).components == ("1", "a", "y")

    def test_default_with_observed_confounder(self):
        spec = ModelSpec.default_for(SCHEMA2)
        assert default_G(spec, SCHEMA2).components == ("1", "c2", "a", "y")

    def test_default_with_three_confounders(self):
        schema = Schema("a", "y", ("c1", "c2", "c3"), "c1")
        spec = ModelSpec.default_for(schema)
        g = default_G(spec, schema)
        assert g.components == ("1", "c2", "c3", "a", "y")
        assert g.dim == 5

    def test_rejects_partially_observed_confounder(self):
        spec = ModelSpec.default_for(SCHEMA2)
        with pytest.raises(DimensionMismatch):
            GSpec(("1", "c1", "a", "y")).validate(SCHEMA2, spec)

    def test_rejects_wrong_dimension(self):
        spec = ModelSpec.default_for(SCHEMA2)
        with pytest.raises(DimensionMismatch):
            GSpec(("1", "a", "y")).validate(SCHEMA2, spec)

    def test_rejects_unknown_component(self):
        spec = ModelSpec.default_for(SCHEMA2)
        with pytest.raises(DimensionMismatch):
            GSpec(("1", "zzz", "a", "y")).validate(SCHEMA2, spec)


class TestBuildG:
    def test_component_read_off(self):
        d = Dataset(a=np.array([1.0]), y=np.array([2.0]),
                    c=np.array([[0.3]]), schema=Schema("a", "y", ("c1",), "c1"))
        g = g_matrix(GSpec(("1", "a", "y")), d)[0]
        assert g.tolist() == [1.0, 1.0, 2.0]

    def test_with_observed_confounder(self):
        d = Dataset(a=np.array([0.0]), y=np.array([-1.0]),
                    c=np.array([[0.3, 1.0]]), schema=SCHEMA2)
        g = g_matrix(GSpec(("1", "a", "c2", "y")), d)[0]
        assert g.tolist() == [1.0, 0.0, 1.0, -1.0]

    def test_computable_when_missing(self):
        d = Dataset(a=np.array([1.0]), y=np.array([2.0]),
                    c=np.array([[np.nan, 0.5]]), schema=SCHEMA2)
        g = g_matrix(GSpec(("1", "c2", "a", "y")), d)[0]
        assert g.tolist() == [1.0, 0.5, 1.0, 2.0]


class TestPsiMissing:
    """Stage-one moment values: the first row of moment_system().psi on
    one-row datasets with G = (1, a, y), missing model on (c1, y)."""

    def first_row(self, c1, alpha_coef):
        schema = Schema("a", "y", ("c1",), "c1")
        d = Dataset(a=np.array([1.0]), y=np.array([2.0]),
                    c=np.array([[c1]]), schema=schema)
        dz = Design(d, ModelSpec.default_for(schema), GSpec(("1", "a", "y")))
        stack = WeeStack(dz, estimate_alpha=True)
        return stack.moment_system().psi(np.asarray(alpha_coef, dtype=float))[0]

    def test_missing_row_is_minus_g(self):
        psi = self.first_row(np.nan, np.zeros(3))
        assert psi.tolist() == [-1.0, -1.0, -2.0]

    def test_probability_one_gives_zero(self):
        psi = self.first_row(0.5, [800.0, 0.0, 0.0])
        assert psi.tolist() == [0.0, 0.0, 0.0]

    def test_quarter_probability(self):
        # M = 0.25 so 1/M - 1 = 3; G = (1, 1, 2)
        psi = self.first_row(0.5, [-np.log(3.0), 0.0, 0.0])
        assert np.allclose(psi, [3.0, 3.0, 6.0], rtol=1e-12)

    def test_matrix_matches_row_loop(self):
        d, _ = two_confounder_dataset(n=60, seed=3)
        spec = ModelSpec.default_for(SCHEMA2)
        gspec = default_G(spec, SCHEMA2)
        alpha_coef = np.array([0.4, -0.8, 0.3, 0.6])
        mat = WeeStack(Design(d, spec, gspec), True).moment_system().psi(alpha_coef)
        rows = np.vstack([
            per_row.stage_one_row(d, i, alpha_coef, spec.missing_covariates,
                                  gspec.components)
            for i in range(d.n)
        ])
        assert np.max(np.abs(mat - rows)) < 1e-12


class TestPsiWeightedScores:
    def test_zero_on_missing_rows(self):
        d, _ = two_confounder_dataset(n=50, seed=4)
        spec = ModelSpec.default_for(SCHEMA2)
        stack = WeeStack(Design(d, spec, default_G(spec, SCHEMA2)),
                         estimate_alpha=True)
        alpha = LinearModelParams(np.array([0.5, -0.5, 0.2, 0.3]),
                                  spec.missing_covariates)
        gamma = LinearModelParams(np.array([0.1, 0.2, -0.1]),
                                  spec.propensity_covariates)
        beta = LinearModelParams(np.array([0.5, 1.0, 0.7, -0.4]),
                                 spec.outcome_covariates, phi=1.3)
        psi = stack.psi(stack.pack(alpha, gamma, beta))
        missing = d.r == 0
        assert missing.any()
        assert not psi[missing, stack.blocks["gamma"]].any()
        assert not psi[missing, stack.blocks["beta"]].any()

    def test_stack_matches_row_functions(self):
        d, _ = two_confounder_dataset(n=40, seed=5)
        spec = ModelSpec.default_for(SCHEMA2)
        gspec = default_G(spec, SCHEMA2)
        stack = WeeStack(Design(d, spec, gspec), estimate_alpha=True)
        alpha = LinearModelParams(np.array([0.4, -0.6, 0.2, 0.5]),
                                  spec.missing_covariates)
        gamma = LinearModelParams(np.array([0.2, 0.3, -0.2]),
                                  spec.propensity_covariates)
        beta = LinearModelParams(np.array([0.5, 1.0, 0.7, -0.4]),
                                 spec.outcome_covariates, phi=1.3)
        theta = stack.pack(alpha, gamma, beta)
        batched = stack.psi(theta)
        models = (alpha.coefficients, alpha.covariates)
        for i in range(d.n):
            np.testing.assert_allclose(
                batched[i, stack.blocks["gamma"]],
                per_row.weighted_propensity_row(
                    d, i, gamma.coefficients, gamma.covariates, *models),
                atol=1e-12)
            bsl = stack.blocks["beta"]
            np.testing.assert_allclose(
                batched[i, bsl.start:bsl.stop - 1],
                per_row.weighted_outcome_row(
                    d, i, beta.coefficients, beta.covariates, *models,
                    logistic=False),
                atol=1e-12)


class TestMissingWeights:
    """r/M from Design.weights."""

    def test_none_coefficients_mean_unit_weights(self):
        d, _ = two_confounder_dataset(n=25, seed=7)
        spec = ModelSpec.default_for(SCHEMA2)
        w = Design(d, spec).weights(None)
        assert np.array_equal(w, d.r)

    def test_zero_on_missing_positive_on_complete(self):
        d, _ = two_confounder_dataset(n=25, seed=8)
        spec = ModelSpec.default_for(SCHEMA2)
        w = Design(d, spec).weights(np.array([0.5, -0.5, 0.2, 0.3]))
        assert np.all(w[d.r == 0] == 0.0)
        assert np.all(w[d.r == 1] > 1.0)  # 1/M > 1 whenever M < 1


class TestFitWee:
    def test_all_observed_is_degenerate(self):
        rng = np.random.default_rng(9)
        n = 80
        c1 = rng.normal(0, 1, n)
        a = (rng.random(n) < 0.5).astype(float)
        y = 1.0 + a + c1 + rng.normal(0, 1, n)
        d = Dataset(a=a, y=y, c=c1[:, None],
                    schema=Schema("a", "y", ("c1",), "c1"))
        with pytest.raises(MissingnessDegenerate):
            fit_wee(d)

    def test_stacked_residual_contract(self):
        d, _ = generate_table1("continuous", 600, seed=21)
        fitted = fit_wee(d, covariance=False)
        for name, res in fitted.diagnostics.residual_sup.items():
            assert res < 1e-8, name

    def test_parameter_recovery_within_three_se(self):
        # truth (0.5, 0.5) for the propensity and (0.5, 1.5, -0.5) for the
        # outcome model
        d, _ = generate_table1("continuous", 2000, seed=11)
        fitted = fit_wee(d)
        est = np.concatenate([fitted.gamma.coefficients,
                              fitted.beta.coefficients])
        se = np.concatenate([fitted.block_se("gamma"),
                             fitted.block_se("beta")[:3]])
        truth = np.array([0.5, 0.5, 0.5, 1.5, -0.5])
        assert np.all(np.abs(est - truth) <= 3.0 * se)

    def test_known_alpha_excludes_block(self):
        d, _ = two_confounder_dataset(n=300, seed=12)
        spec = ModelSpec.default_for(SCHEMA2)
        alpha = LinearModelParams(np.array([1.0, -1.0, 0.5, 0.5]),
                                  spec.missing_covariates)
        fitted = fit_wee(d, known_alpha=alpha, covariance=False)
        assert tuple(fitted.blocks) == ("gamma", "beta")
        assert fitted.alpha is alpha

    def test_stage_one_needs_g(self):
        d, _ = two_confounder_dataset(n=100, seed=13)
        with pytest.raises(BadConfig):
            fit_wee(Design(d, ModelSpec.default_for(SCHEMA2)))

    def test_known_alpha_covariates_checked(self):
        d, _ = two_confounder_dataset(n=100, seed=13)
        bad = LinearModelParams(np.array([1.0, -1.0]), ("c2",))
        with pytest.raises(DimensionMismatch):
            fit_wee(d, known_alpha=bad)

    def test_extreme_weight_during_fit(self):
        d, _ = two_confounder_dataset(n=100, seed=15)
        spec = ModelSpec.default_for(SCHEMA2)
        alpha = LinearModelParams(np.array([-20.0, 0.0, 0.0, 0.0]),
                                  spec.missing_covariates)
        with pytest.raises(ExtremeWeight):
            fit_wee(d, known_alpha=alpha, covariance=False)

    def test_diagnostics_populated(self):
        d, _ = generate_table1("continuous", 600, seed=22)
        fitted = fit_wee(d, covariance=False)
        di = fitted.diagnostics
        assert 0.0 < di.min_fitted_m <= di.max_fitted_m < 1.0
        assert di.max_weight >= 1.0
        assert di.stage1_iterations >= 1

    def test_outcome_scale_equivariance(self):
        # y -> 2y halves the outcome coefficient of the missing model,
        # leaves the propensity fit alone, doubles the outcome model, and
        # quadruples the dispersion; fitted missing probabilities at the
        # data points are invariant
        d, _ = generate_table1("continuous", 800, seed=23)
        doubled = Dataset(d.a, 2.0 * d.y, d.c, d.schema)
        f1 = fit_wee(d, covariance=False)
        f2 = fit_wee(doubled, covariance=False)
        a1, a2 = f1.alpha.coefficients, f2.alpha.coefficients
        assert a2[0] == pytest.approx(a1[0], abs=1e-6)   # intercept
        assert a2[1] == pytest.approx(a1[1], abs=1e-6)   # c1
        assert a2[2] == pytest.approx(a1[2] / 2.0, abs=1e-6)  # y
        assert np.allclose(f2.gamma.coefficients, f1.gamma.coefficients,
                           atol=1e-6)
        assert np.allclose(f2.beta.coefficients, 2.0 * f1.beta.coefficients,
                           atol=1e-6)
        assert f2.beta.phi == pytest.approx(4.0 * f1.beta.phi, rel=1e-6)
        w1 = f1.design.weights(f1.alpha.coefficients)
        w2 = f2.design.weights(f2.alpha.coefficients)
        mask = d.r == 1
        assert np.max(np.abs(w1[mask] - w2[mask]) / w1[mask]) < 1e-6

    def test_mar_subcase_matches_complete_data_fit(self):
        # missingness depending only on the outcome sits inside the fitted
        # family with a zero confounder coefficient; the weighted fit and an
        # all-rows oracle fit must then agree up to sampling noise
        rng = np.random.default_rng(31)
        n = 20000
        c1 = rng.normal(0, 1, n)
        a = (rng.random(n) < expit(0.3 + 0.5 * c1)).astype(float)
        y = 0.5 + 1.5 * a - 0.5 * c1 + rng.normal(0, 1, n)
        r = (rng.random(n) < expit(1.2 + 0.8 * y)).astype(float)
        c1_obs = np.where(r == 1, c1, np.nan)
        d = Dataset(a=a, y=y, c=c1_obs[:, None],
                    schema=Schema("a", "y", ("c1",), "c1"))
        fitted = fit_wee(d, covariance=False)
        X = np.column_stack([np.ones(n), a, c1])
        oracle = fit_model(X, y, np.ones(n), GAUSSIAN, ("a", "c1"))
        assert np.allclose(fitted.beta.coefficients, oracle.coefficients,
                           atol=0.05)
        # the confounder coefficient of the missing model is truly zero
        assert abs(fitted.alpha.coefficients[1]) < 0.2


class TestGMatrix:
    def test_matches_row_loop(self):
        d, _ = two_confounder_dataset(n=30, seed=16)
        gspec = GSpec(("1", "c2", "a", "y"))
        mat = g_matrix(gspec, d)
        rows = np.vstack([per_row.row_G(d, i, gspec.components)
                          for i in range(d.n)])
        assert np.array_equal(mat, rows)


def jacobian_oracle_check(system, theta):
    """The closed-form Jacobian equals the central-difference one to 1e-6
    relative, entries near zero judged against the largest entry."""
    closed = system.jacobian(theta)
    numeric = numeric_jacobian(system, theta)
    scale = np.abs(numeric).max()
    np.testing.assert_allclose(closed, numeric, rtol=1e-6, atol=1e-6 * scale)


def binary_two_confounder_dataset(n=400, seed=0):
    d, _ = two_confounder_dataset(n=n, seed=seed)
    y = (np.random.default_rng(seed + 100).random(n)
         < expit(-0.3 + 0.9 * d.a + 0.4 * d.confounder("c2"))).astype(float)
    schema = Schema("a", "y", ("c1", "c2"), "c1", outcome_family="binary")
    return Dataset(a=d.a, y=y, c=d.c, schema=schema)


class TestClosedFormJacobians:
    """Every production equation system against numeric_jacobian, at points
    away from the root so that every term of the derivative is exercised."""

    def test_stage_one(self):
        for d in (two_confounder_dataset(n=300, seed=40)[0],
                  generate_table1("continuous", 500, seed=41)[0],
                  generate_table1("binary", 500, seed=42)[0]):
            spec = ModelSpec.default_for(d.schema)
            gspec = default_G(spec, d.schema)
            system = WeeStack(Design(d, spec, gspec), True).moment_system()
            alpha = np.linspace(0.4, -0.3, gspec.dim)
            jacobian_oracle_check(system, alpha)

    @pytest.mark.parametrize("family", ["gaussian", "binary"])
    @pytest.mark.parametrize("mode", ["estimated", "known", "unit"])
    def test_stack(self, family, mode):
        if family == "gaussian":
            d, _ = two_confounder_dataset(n=300, seed=43)
        else:
            d = binary_two_confounder_dataset(n=300, seed=44)
        spec = ModelSpec.default_for(d.schema)
        gspec = default_G(spec, d.schema)
        alpha = LinearModelParams(np.array([0.6, -0.5, 0.3, 0.4]),
                                  spec.missing_covariates)
        gamma = LinearModelParams(np.array([0.2, 0.3, -0.2]),
                                  spec.propensity_covariates)
        phi = 1.3 if family == "gaussian" else None
        beta = LinearModelParams(np.array([0.5, 1.0, 0.7, -0.4]),
                                 spec.outcome_covariates, phi=phi)
        known = alpha.coefficients if mode == "known" else None
        stack = WeeStack(Design(d, spec, gspec), mode == "estimated",
                         known_alpha_coef=known)
        theta = stack.pack(alpha, gamma, beta)
        jacobian_oracle_check(stack.system(), theta)

    def test_alpha_block_is_stage_one(self):
        d, _ = two_confounder_dataset(n=200, seed=45)
        spec = ModelSpec.default_for(SCHEMA2)
        gspec = default_G(spec, SCHEMA2)
        stack = WeeStack(Design(d, spec, gspec), True)
        alpha = np.array([0.5, -0.4, 0.2, 0.3])
        theta = np.concatenate([alpha, [0.1, 0.2, -0.1],
                                [0.3, 1.1, 0.6, -0.5, 1.2]])
        a = stack.blocks["alpha"]
        np.testing.assert_array_equal(
            stack.jacobian(theta)[a, a],
            stack.moment_system().jacobian(alpha))
        np.testing.assert_array_equal(
            stack.psi(theta)[:, a], stack.moment_system().psi(alpha))


class TestStageOneWarnings:
    def test_no_runtime_warning_on_failed_resample(self):
        # a bootstrap resample whose stage-one Newton stalls: trial points
        # overflow exp(-lp), and those non-finite values are rejected by the
        # line search without a RuntimeWarning
        d, _ = generate_table1("continuous", 2000, 12)
        spec = ModelSpec.default_for(d.schema)
        boot = Design(d, spec, default_G(spec, d.schema)).resampled(
            resample(d.n, np.random.SeedSequence((0, 27))))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NoConvergence):
                fit_wee(boot)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


# a small Table-1 dataset whose resamples are drawn by count vectors
COUNTED, COUNTED_TRUTH = generate_table1("continuous", 40, 3)


class TestCountedDesign:
    """A Design of counts f on the rows is the Design of the copy that
    repeats each row f times: same averages, same sandwich."""

    @staticmethod
    def stacks(dz):
        alpha = LinearModelParams(np.asarray(COUNTED_TRUTH.alpha), ("c1", "y"))
        gamma = LinearModelParams(np.asarray(COUNTED_TRUTH.gamma), ("c1",))
        beta = LinearModelParams(np.asarray(COUNTED_TRUTH.beta), ("a", "c1"),
                                 phi=1.0)
        estimated = WeeStack(dz, True, effect="dr")
        known = WeeStack(dz, False, known_alpha_coef=alpha.coefficients,
                         effect="ipw")
        return [(estimated, estimated.pack(alpha, gamma, beta, tau=1.2)),
                (known, known.pack(alpha, gamma, beta, tau=0.8))]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=COUNTED.n, max_size=COUNTED.n))
    def test_sandwich_on_counts_equals_sandwich_on_copy(self, counts):
        # a row drawn f times enters the meat f times, not f**2 times
        idx = np.repeat(np.arange(COUNTED.n), counts)
        if idx.size == 0:
            return
        spec = ModelSpec.default_for(COUNTED.schema)
        gspec = default_G(spec, COUNTED.schema)
        counted = Design(COUNTED, spec, gspec).resampled(idx)
        copied = Design(COUNTED.subset(idx), spec, gspec)
        for (by_count, theta), (by_copy, _) in zip(self.stacks(counted),
                                                    self.stacks(copied)):
            try:
                expected = sandwich_covariance(by_copy.system(), theta)
            except MnarError as err:
                with pytest.raises(type(err)):
                    sandwich_covariance(by_count.system(), theta)
                continue
            got = sandwich_covariance(by_count.system(), theta)
            np.testing.assert_allclose(got, expected, rtol=0,
                                       atol=1e-9 * np.abs(expected).max())

    def test_full_design_is_freed_without_the_cycle_collector(self):
        # a Design that referred to itself would keep its matrices until a
        # gc pass; a Monte Carlo study makes one per replication
        spec = ModelSpec.default_for(COUNTED.schema)
        dz = Design(COUNTED, spec)
        dz.resampled(np.arange(COUNTED.n)).Xb
        ref = weakref.ref(dz)
        gc.disable()
        try:
            del dz
            assert ref() is None
        finally:
            gc.enable()

    def test_cap_judges_each_row_not_its_count(self):
        # the complete row of least outcome has r/M = 9999, just under the
        # 1e4 cap, and is drawn three times: its count times r/M is past
        # the cap, r/M is not, and its three copies pass as well
        d, _ = two_confounder_dataset(n=200, seed=31)
        spec = ModelSpec.default_for(SCHEMA2)
        complete = np.flatnonzero(d.r == 1)
        row = int(complete[np.argmin(d.y[complete])])
        coef = np.array([-np.log(9998.0) - d.y[row], 0.0, 0.0, 1.0])
        alpha = LinearModelParams(coef, spec.missing_covariates)
        idx = np.r_[np.arange(d.n), [row, row]]
        counted = Design(d, spec).resampled(idx)
        assert counted.counts[row] == 3.0
        fitted = fit_wee(counted, known_alpha=alpha, covariance=False)
        assert fitted.diagnostics.max_weight == pytest.approx(9999.0, rel=1e-9)
        assert 3.0 * fitted.diagnostics.max_weight > 1e4
        copied = fit_wee(d.subset(idx), known_alpha=alpha, covariance=False)
        np.testing.assert_allclose(fitted.beta.coefficients,
                                   copied.beta.coefficients, rtol=1e-12)


# datasets whose stage one converges: both Table-1 designs, a Table-2 design
# and two confounders of which one is fully observed
STAGE_ONE_DATA = {
    "table1-continuous": generate_table1("continuous", 2000, 11)[0],
    "table1-binary": generate_table1("binary", 2000, 3)[0],
    "table2-ompm": generate_table2("ompm", 4000, 5)[0],
    "two-confounders": two_confounder_dataset(n=2000, seed=6)[0],
}


def relative(got, want):
    return np.max(np.abs(np.asarray(got) - want) / np.abs(want))


class TestProfiledStageOne:
    """Stage one with the intercept profiled out and the root polished."""

    @pytest.mark.parametrize("name", sorted(STAGE_ONE_DATA))
    def test_root_does_not_depend_on_the_start(self, name, monkeypatch):
        d = STAGE_ONE_DATA[name]
        naive = fit_wee(d, covariance=False).alpha.coefficients
        start = wee._naive_alpha_init
        monkeypatch.setattr(wee, "_naive_alpha_init",
                            lambda dz: start(dz) + np.linspace(0.2, -0.2, len(naive)))
        moved = fit_wee(d, covariance=False).alpha.coefficients
        assert relative(moved, naive) < 1e-14

    @pytest.mark.parametrize("name", sorted(STAGE_ONE_DATA))
    def test_root_solves_the_full_moment_equations(self, name):
        # the intercept's closed form solves the constant's equation, and
        # the polish takes the others to rounding level
        d = STAGE_ONE_DATA[name]
        fitted = fit_wee(d, covariance=False)
        system = WeeStack(fitted.design, True).moment_system()
        residual = np.abs(system.psi(fitted.alpha.coefficients).mean(axis=0))
        assert residual.max() < 1e-14 * np.abs(fitted.design.G).max()
        assert fitted.diagnostics.residual_sup["alpha"] == pytest.approx(
            residual.max(), abs=1e-15)

    def test_profiled_jacobian_is_minus_the_tilted_covariance(self):
        d = STAGE_ONE_DATA["two-confounders"]
        spec = ModelSpec.default_for(d.schema)
        system, full = wee._profiled_system(Design(d, spec, default_G(spec, d.schema)))
        alpha_rest = np.array([-0.4, 0.2, 0.3])
        jacobian_oracle_check(system, alpha_rest)
        # the first equation of the full system holds at the profiled intercept
        full_system = WeeStack(Design(d, spec, default_G(spec, d.schema)),
                               True).moment_system()
        assert abs(full_system.psi(full(alpha_rest)).mean(axis=0)[0]) < 1e-15

    def test_the_constant_may_stand_anywhere_in_g(self):
        d = STAGE_ONE_DATA["table1-continuous"]
        first = fit_wee(d, gspec=GSpec(("1", "a", "y")), covariance=False)
        middle = fit_wee(d, gspec=GSpec(("y", "1", "a")), covariance=False)
        assert relative(middle.alpha.coefficients, first.alpha.coefficients) < 1e-14

    def test_without_the_constant_the_full_system_is_solved(self, monkeypatch):
        d = STAGE_ONE_DATA["table1-continuous"]
        spec = ModelSpec(missing_covariates=("y",), propensity_covariates=("c1",),
                         outcome_covariates=("a", "c1"))

        def refuse(dz):
            raise AssertionError("profiled without a constant in G")

        monkeypatch.setattr(wee, "_profiled_system", refuse)
        fitted = fit_wee(d, spec, GSpec(("a", "y")), covariance=False)
        assert fitted.diagnostics.residual_sup["alpha"] < 1e-8

    def test_a_solve_without_progress_stops(self, monkeypatch):
        # on this dataset the profiled iterates drift off along a valley; the
        # solve stops on the stall test, not after MAX_ITER iterations
        monkeypatch.setattr(wee, "RESTARTS", 0)
        calls = []
        original = wee.solve_root

        def solve(system, init, stats=None):
            calls.append(stats)
            return original(system, init, stats=stats)

        monkeypatch.setattr(wee, "solve_root", solve)
        with pytest.raises(NoConvergence, match="fell less than 10-fold in 30 iterations"):
            fit_wee(generate_table2("ocpc", 2000, 4)[0], covariance=False)
        assert len(calls) == 1


def wee_taus(d):
    """(tau, se) of the three WEE estimators with estimated alpha."""
    fitted = fit_wee(d)
    return np.array([[est.tau, est.se] for est in
                     (fn(fitted) for fn in (tau_wee_or, tau_wee_ipw, tau_wee_dr))])


class TestMetamorphicEstimatedAlpha:
    """Relations that hold whatever the data, now to rounding level because
    the stage-one root no longer depends on the path that found it."""

    @pytest.fixture(scope="class", params=sorted(STAGE_ONE_DATA))
    def case(self, request):
        d = STAGE_ONE_DATA[request.param]
        return d, wee_taus(d)

    def test_row_order_does_not_matter(self, case):
        d, taus = case
        permuted = d.subset(np.random.default_rng(0).permutation(d.n))
        np.testing.assert_allclose(wee_taus(permuted), taus, rtol=1e-12, atol=0)

    def test_counting_every_row_twice_divides_the_se_by_root_two(self, case):
        d, taus = case
        spec = ModelSpec.default_for(d.schema)
        twice = Design(d, spec, default_G(spec, d.schema)).resampled(
            np.repeat(np.arange(d.n), 2))
        doubled = wee_taus(twice)
        np.testing.assert_allclose(doubled[:, 0], taus[:, 0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(doubled[:, 1] * np.sqrt(2.0), taus[:, 1],
                                   rtol=1e-12, atol=0)

    def test_relabelling_the_treatment_negates_tau(self, case):
        d, taus = case
        relabelled = wee_taus(Dataset(1.0 - d.a, d.y, d.c, d.schema))
        np.testing.assert_allclose(relabelled[:, 0], -taus[:, 0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(relabelled[:, 1], taus[:, 1], rtol=1e-10, atol=0)
