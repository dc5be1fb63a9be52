"""Estimating-equation engine: averaging, numeric and closed-form
Jacobians, damped Newton, sandwich covariance."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mnarcause import (
    Dataset,
    EquationSystem,
    NoConvergence,
    NonFiniteEvaluation,
    Schema,
    SingularJacobian,
    SolveOptions,
    average_psi,
    numeric_jacobian,
    sandwich_covariance,
    solve_root,
)
from mnarcause.glm import BERNOULLI, expit, weighted_glm_fit


def _load_per_row_oracle():
    path = Path(__file__).parent / "oracles" / "oracle_per_row.py"
    spec = importlib.util.spec_from_file_location("oracle_per_row", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


per_row = _load_per_row_oracle()

SCHEMA = Schema("a", "y", ("c1",), "c1")


def dataset_from_y(y):
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    return Dataset(a=np.zeros(n), y=y, c=np.ones((n, 1)), schema=SCHEMA)


def mean_system():
    return EquationSystem(psi=lambda th, d: (d.y - th[0])[:, None], dim=1)


class TestAveragePsi:
    def test_mean_equation(self):
        d = dataset_from_y([1.0, 2.0, 6.0])
        sys = mean_system()
        assert average_psi(sys, np.array([0.0]), d)[0] == pytest.approx(3.0)
        assert average_psi(sys, np.array([3.0]), d)[0] == pytest.approx(0.0)

    def test_single_row(self):
        d = dataset_from_y([5.0])
        assert average_psi(mean_system(), np.array([1.5]), d)[0] == pytest.approx(3.5)

    def test_linearity(self):
        d = dataset_from_y([0.3, -1.2, 2.5, 0.9])
        psi1 = lambda th, dd: (dd.y - th[0])[:, None]
        psi2 = lambda th, dd: (dd.y * th[0])[:, None]
        both = EquationSystem(
            psi=lambda th, dd: psi1(th, dd) + psi2(th, dd), dim=1)
        th = np.array([0.7])
        lhs = average_psi(both, th, d)
        rhs = (average_psi(EquationSystem(psi1, 1), th, d)
               + average_psi(EquationSystem(psi2, 1), th, d))
        assert abs(lhs[0] - rhs[0]) < 1e-12

    def test_shape_mismatch_rejected(self):
        d = dataset_from_y([1.0, 2.0])
        bad = EquationSystem(psi=lambda th, dd: np.zeros((dd.n, 3)), dim=2)
        with pytest.raises(NonFiniteEvaluation):
            average_psi(bad, np.zeros(2), d)


class TestNumericJacobian:
    def test_affine_exact(self):
        A = np.array([[2.0, -1.0], [0.5, 3.0]])
        b = np.array([1.0, -2.0])
        d = dataset_from_y([0.0])
        sys = EquationSystem(psi=lambda th, dd: (A @ th - b)[None, :], dim=2)
        J = numeric_jacobian(sys, np.array([0.3, -0.8]), d)
        assert np.allclose(J, A, atol=1e-8)

    def test_square_derivative(self):
        d = dataset_from_y([0.0])
        sys = EquationSystem(psi=lambda th, dd: np.array([[th[0] ** 2 - 4.0]]),
                             dim=1)
        J = numeric_jacobian(sys, np.array([3.0]), d)
        assert J[0, 0] == pytest.approx(6.0, abs=1e-6)

    def test_logit_score_jacobian_is_negative_information(self):
        # 10-row fixture; MLE and analytic per-row-summed information from
        # tests/oracles/oracle_logit_fit.py
        x1 = np.array([-1.2, 0.3, 0.8, -0.5, 1.7, -2.1, 0.0, 0.9, -0.7, 1.1])
        x2 = np.array([0.5, -1.0, 0.2, 1.4, -0.3, 0.8, -1.7, 0.0, 0.9, -0.6])
        t = np.array([0, 1, 0, 1, 1, 0, 1, 1, 0, 0], dtype=float)
        theta = np.array([-0.04071251909911509, 0.613237191031991,
                          -0.5627074474414033])
        info = np.array([
            [1.9803377730905376, 0.2777536940309845, -0.062303141724852185],
            [0.2777536940309845, 2.092425548540349, -0.8275861483801452],
            [-0.06230314172485217, -0.8275861483801452, 1.5575255593101773],
        ])
        X = np.column_stack([np.ones(10), x1, x2])
        d = dataset_from_y(np.zeros(10))
        sys = EquationSystem(
            psi=lambda th, dd: per_row.score_matrix(th, X, t, logistic=True), dim=3)
        J = numeric_jacobian(sys, theta, d)
        assert np.allclose(J, -info / 10.0, atol=1e-6)


class TestSolveRoot:
    def test_shift_equation_one_step(self):
        d = dataset_from_y([0.0])
        sys = EquationSystem(psi=lambda th, dd: np.array([[th[0] - 2.5]]),
                             dim=1)
        stats = {}
        root = solve_root(sys, d, SolveOptions(init=np.array([0.0])), stats=stats)
        # the numeric Jacobian carries ~1e-10 rounding noise, so one step
        # lands within the residual tolerance rather than exactly on 2.5
        assert root[0] == pytest.approx(2.5, abs=1e-8)
        assert stats["iterations"] == 1
        assert stats["residual_sup"] < 1e-8

    def test_newton_on_square(self):
        d = dataset_from_y([0.0])
        sys = EquationSystem(psi=lambda th, dd: np.array([[th[0] ** 2 - 4.0]]),
                             dim=1)
        root = solve_root(sys, d, SolveOptions(init=np.array([1.0])))
        assert root[0] == pytest.approx(2.0, abs=1e-8)

    def test_logit_score_system_matches_glm_fit(self):
        rng = np.random.default_rng(17)
        n = 200
        x = rng.normal(0, 1, n)
        t = (rng.random(n) < expit(0.4 - 0.7 * x)).astype(float)
        X = np.column_stack([np.ones(n), x])
        d = dataset_from_y(np.zeros(n))
        sys = EquationSystem(
            psi=lambda th, dd: per_row.score_matrix(th, X, t, logistic=True), dim=2)
        root = solve_root(sys, d, SolveOptions(init=np.zeros(2), tol=1e-10))
        fit = weighted_glm_fit(X, t, np.ones(n), BERNOULLI)
        assert np.allclose(root, fit.coefficients, atol=1e-8)

    def test_requires_initial_point(self):
        d = dataset_from_y([1.0])
        with pytest.raises(NoConvergence):
            solve_root(mean_system(), d, SolveOptions())

    def test_no_root(self):
        d = dataset_from_y([0.0])
        sys = EquationSystem(psi=lambda th, dd: np.array([[th[0] ** 2 + 1.0]]),
                             dim=1)
        with pytest.raises(NoConvergence):
            solve_root(sys, d, SolveOptions(init=np.array([0.5])))

    def test_singular_jacobian(self):
        d = dataset_from_y([0.0])
        sys = EquationSystem(psi=lambda th, dd: np.array([[1.0]]), dim=1)
        with pytest.raises(SingularJacobian):
            solve_root(sys, d, SolveOptions(init=np.array([0.0])))

    def test_non_finite_at_start(self):
        d = dataset_from_y([0.0])
        sys = EquationSystem(psi=lambda th, dd: np.array([[np.nan]]), dim=1)
        with pytest.raises(NonFiniteEvaluation):
            solve_root(sys, d, SolveOptions(init=np.array([0.0])))

    def test_row_permutation_invariance(self):
        y = np.array([0.4, -1.1, 2.2, 0.0, 5.5])
        d1 = dataset_from_y(y)
        d2 = dataset_from_y(y[::-1])
        opts = SolveOptions(init=np.array([0.0]))
        r1 = solve_root(mean_system(), d1, opts)
        r2 = solve_root(mean_system(), d2, opts)
        assert r1[0] == r2[0]

    def test_residual_tolerance_met(self):
        d = dataset_from_y([1.0, 4.0, -2.0, 0.5])
        sys = mean_system()
        root = solve_root(sys, d, SolveOptions(init=np.array([10.0])))
        assert np.abs(average_psi(sys, root, d)).max() < 1e-8


class TestClosedFormJacobian:
    def test_solve_root_uses_it(self):
        # with the exact derivative the affine equation is solved exactly in
        # one step, and the finite differences are never taken
        d = dataset_from_y([0.0])
        calls = {"psi": 0}

        def psi(th, dd):
            calls["psi"] += 1
            return np.array([[th[0] - 2.5]])

        sys = EquationSystem(psi=psi, dim=1,
                             jacobian=lambda th, dd: np.array([[1.0]]))
        stats = {}
        root = solve_root(sys, d, SolveOptions(init=np.array([0.0])), stats=stats)
        assert root[0] == 2.5
        assert stats["iterations"] == 1
        assert calls["psi"] == 2  # the start and the accepted step

    def test_sandwich_uses_it(self):
        y = np.array([0.7, -0.3, 1.9, 2.4, -1.5, 0.2])
        d = dataset_from_y(y)
        sys = EquationSystem(psi=lambda th, dd: (dd.y - th[0])[:, None], dim=1,
                             jacobian=lambda th, dd: np.array([[-1.0]]))
        cov = sandwich_covariance(sys, np.array([y.mean()]), d)
        assert cov[0, 0] == pytest.approx(np.var(y) / y.size, rel=1e-14)

    def test_non_finite_jacobian(self):
        d = dataset_from_y([0.0])
        sys = EquationSystem(psi=lambda th, dd: np.array([[th[0] - 1.0]]), dim=1,
                             jacobian=lambda th, dd: np.array([[np.nan]]))
        with pytest.raises(NonFiniteEvaluation):
            solve_root(sys, d, SolveOptions(init=np.array([0.0])))
        with pytest.raises(NonFiniteEvaluation):
            sandwich_covariance(sys, np.array([1.0]), d)


class TestSandwichCovariance:
    def test_mean_equation_closed_form(self):
        y = np.array([0.7, -0.3, 1.9, 2.4, -1.5, 0.2])
        d = dataset_from_y(y)
        cov = sandwich_covariance(mean_system(), np.array([y.mean()]), d)
        # closed form: A = -1, B = biased variance, so cov = var(y)/n;
        # the central-difference bread limits agreement to ~1e-10
        assert cov[0, 0] == pytest.approx(np.var(y) / y.size, abs=1e-9)

    def test_ols_robust_closed_form(self):
        # gaussian score system vs the direct HC0 matrix formula
        rng = np.random.default_rng(123)
        n = 40
        c1 = rng.normal(0.0, 1.0, n)
        a = (rng.random(n) < 0.5).astype(float)
        y = 0.3 + 1.2 * a - 0.5 * c1 + rng.normal(0.0, 1.0, n)
        X = np.column_stack([np.ones(n), a, c1])
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        e = y - X @ beta
        xtx_inv = np.linalg.inv(X.T @ X)
        hc0 = xtx_inv @ ((X * (e ** 2)[:, None]).T @ X) @ xtx_inv
        d = dataset_from_y(np.zeros(n))
        sys = EquationSystem(
            psi=lambda th, dd: (y - X @ th)[:, None] * X, dim=3)
        cov = sandwich_covariance(sys, beta, d)
        assert np.allclose(cov, hc0, atol=1e-8)

    def test_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        n = 50
        x = rng.normal(0, 1, n)
        t = (rng.random(n) < expit(0.2 + x)).astype(float)
        X = np.column_stack([np.ones(n), x])
        fit = weighted_glm_fit(X, t, np.ones(n), BERNOULLI)
        d = dataset_from_y(np.zeros(n))
        sys = EquationSystem(
            psi=lambda th, dd: per_row.score_matrix(th, X, t, logistic=True), dim=2)
        cov = sandwich_covariance(sys, fit.coefficients, d)
        assert np.allclose(cov, cov.T, atol=1e-14)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_mle_sandwich_matches_inverse_information(self):
        # for a correctly specified logistic MLE the sandwich and the
        # inverse observed information agree within 5% at n=2000
        rng = np.random.default_rng(42)
        n = 2000
        x = rng.normal(0, 1, n)
        t = (rng.random(n) < expit(0.3 + 0.8 * x)).astype(float)
        X = np.column_stack([np.ones(n), x])
        fit = weighted_glm_fit(X, t, np.ones(n), BERNOULLI)
        p = expit(X @ fit.coefficients)
        info = (X * (p * (1 - p))[:, None]).T @ X
        inv_info = np.linalg.inv(info)
        d = dataset_from_y(np.zeros(n))
        sys = EquationSystem(
            psi=lambda th, dd: per_row.score_matrix(th, X, t, logistic=True), dim=2)
        cov = sandwich_covariance(sys, fit.coefficients, d)
        for j in range(2):
            assert cov[j, j] == pytest.approx(inv_info[j, j], rel=0.05)

    def test_singular_bread(self):
        d = dataset_from_y([1.0, 2.0])
        sys = EquationSystem(psi=lambda th, dd: np.ones((dd.n, 1)), dim=1)
        with pytest.raises(SingularJacobian):
            sandwich_covariance(sys, np.array([0.0]), d)
