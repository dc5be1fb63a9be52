"""Estimating-equation engine: averaging, numeric and closed-form
Jacobians, damped Newton, sandwich covariance."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mnarcause import (
    EquationSystem,
    NoConvergence,
    NonFiniteEvaluation,
    SingularJacobian,
    average_psi,
    fit_model,
    numeric_jacobian,
    sandwich_covariance,
    solve_root,
)
from mnarcause.glm import BERNOULLI, expit
from mnarcause.solver import MAX_ITER


def _load_per_row_oracle():
    path = Path(__file__).parent / "oracles" / "oracle_per_row.py"
    spec = importlib.util.spec_from_file_location("oracle_per_row", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


per_row = _load_per_row_oracle()



def numeric_system(psi, dim):
    """The system of the per-row values psi(theta), whose Jacobian is
    numeric_jacobian at its default step."""
    def evaluate(th, jacobian=False):
        return psi(th), numeric_jacobian(system, th) if jacobian else None

    system = EquationSystem(evaluate, dim)
    return system


def closed_form_system(psi, jac, dim):
    """The system of the per-row values psi(theta) and the Jacobian jac(theta)."""
    return EquationSystem(
        lambda th, jacobian=False: (psi(th), jac(th) if jacobian else None), dim)


def mean_system(y):
    """The equation y - theta on the rows of y."""
    y = np.asarray(y, dtype=float)
    return numeric_system(lambda th: (y - th[0])[:, None], 1)


def logit_score_system(X, t):
    return numeric_system(
        lambda th: per_row.score_matrix(th, X, t, logistic=True), X.shape[1])


class TestAveragePsi:
    def test_mean_equation(self):
        sys = mean_system([1.0, 2.0, 6.0])
        assert average_psi(sys, np.array([0.0]))[0] == pytest.approx(3.0)
        assert average_psi(sys, np.array([3.0]))[0] == pytest.approx(0.0)

    def test_single_row(self):
        assert average_psi(mean_system([5.0]), np.array([1.5]))[0] == pytest.approx(3.5)

    def test_linearity(self):
        y = np.array([0.3, -1.2, 2.5, 0.9])
        psi1 = lambda th: (y - th[0])[:, None]
        psi2 = lambda th: (y * th[0])[:, None]
        both = numeric_system(lambda th: psi1(th) + psi2(th), 1)
        th = np.array([0.7])
        lhs = average_psi(both, th)
        rhs = (average_psi(numeric_system(psi1, 1), th)
               + average_psi(numeric_system(psi2, 1), th))
        assert abs(lhs[0] - rhs[0]) < 1e-12

    def test_shape_mismatch_rejected(self):
        bad = numeric_system(lambda th: np.zeros((2, 3)), 2)
        with pytest.raises(NonFiniteEvaluation):
            average_psi(bad, np.zeros(2))


class TestNumericJacobian:
    def test_affine_exact(self):
        A = np.array([[2.0, -1.0], [0.5, 3.0]])
        b = np.array([1.0, -2.0])
        sys = numeric_system(lambda th: (A @ th - b)[None, :], 2)
        J = numeric_jacobian(sys, np.array([0.3, -0.8]))
        assert np.allclose(J, A, atol=1e-8)

    def test_square_derivative(self):
        sys = numeric_system(lambda th: np.array([[th[0] ** 2 - 4.0]]), 1)
        J = numeric_jacobian(sys, np.array([3.0]))
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
        J = numeric_jacobian(logit_score_system(X, t), theta)
        assert np.allclose(J, -info / 10.0, atol=1e-6)


class TestSolveRoot:
    def test_shift_equation_one_step(self):
        sys = numeric_system(lambda th: np.array([[th[0] - 2.5]]), 1)
        stats = {}
        root = solve_root(sys, np.array([0.0]), stats=stats)
        # the numeric Jacobian carries ~1e-10 rounding noise, so one step
        # lands within the residual tolerance rather than exactly on 2.5
        assert root[0] == pytest.approx(2.5, abs=1e-8)
        assert stats["iterations"] == 1
        assert stats["residual_sup"] < 1e-8

    def test_newton_on_square(self):
        sys = numeric_system(lambda th: np.array([[th[0] ** 2 - 4.0]]), 1)
        root = solve_root(sys, np.array([1.0]))
        assert root[0] == pytest.approx(2.0, abs=1e-8)

    def test_logit_score_system_matches_glm_fit(self):
        rng = np.random.default_rng(17)
        n = 200
        x = rng.normal(0, 1, n)
        t = (rng.random(n) < expit(0.4 - 0.7 * x)).astype(float)
        X = np.column_stack([np.ones(n), x])
        root = solve_root(logit_score_system(X, t), np.zeros(2))
        fit = fit_model(X, t, np.ones(n), BERNOULLI, ("x",))
        assert np.allclose(root, fit.coefficients, atol=1e-8)

    def test_no_root(self):
        sys = numeric_system(lambda th: np.array([[th[0] ** 2 + 1.0]]), 1)
        with pytest.raises(NoConvergence):
            solve_root(sys, np.array([0.5]))

    def test_a_root_at_infinity_stalls(self):
        # psi = 1/log(theta) has its root at infinity; each full Newton step
        # multiplies theta by 1 + log(theta), so the residual falls slower
        # than geometrically and the stall test stops the solve early
        def evaluate(th, jacobian=False):
            log = np.log(th[0])
            jac = np.array([[-1.0 / (th[0] * log * log)]]) if jacobian else None
            return np.array([[1.0 / log]]), jac

        stats = {}
        with pytest.raises(NoConvergence, match="fell less than 10-fold in 30 iterations"):
            solve_root(EquationSystem(evaluate, 1), np.array([3.0]), stats=stats)
        assert stats["iterations"] < MAX_ITER

    def test_singular_jacobian(self):
        sys = numeric_system(lambda th: np.array([[1.0]]), 1)
        with pytest.raises(SingularJacobian):
            solve_root(sys, np.array([0.0]))

    def test_non_finite_at_start(self):
        sys = numeric_system(lambda th: np.array([[np.nan]]), 1)
        with pytest.raises(NonFiniteEvaluation):
            solve_root(sys, np.array([0.0]))

    def test_row_permutation_invariance(self):
        y = np.array([0.4, -1.1, 2.2, 0.0, 5.5])
        r1 = solve_root(mean_system(y), np.array([0.0]))
        r2 = solve_root(mean_system(y[::-1]), np.array([0.0]))
        assert r1[0] == r2[0]

    def test_residual_tolerance_met(self):
        sys = mean_system([1.0, 4.0, -2.0, 0.5])
        root = solve_root(sys, np.array([10.0]))
        assert np.abs(average_psi(sys, root)).max() < 1e-8


class TestClosedFormJacobian:
    def test_solve_root_uses_it(self):
        # with the exact derivative the affine equation is solved exactly in
        # one step, and the Jacobian is asked for once, at the start
        calls = []

        def evaluate(th, jacobian=False):
            calls.append(jacobian)
            return np.array([[th[0] - 2.5]]), np.array([[1.0]]) if jacobian else None

        stats = {}
        root = solve_root(EquationSystem(evaluate, 1), np.array([0.0]), stats=stats)
        assert root[0] == 2.5
        assert stats["iterations"] == 1
        # the values at the start, its Jacobian, the values at the accepted step
        assert calls == [False, True, False]

    def test_sandwich_uses_it(self):
        y = np.array([0.7, -0.3, 1.9, 2.4, -1.5, 0.2])
        sys = closed_form_system(lambda th: (y - th[0])[:, None],
                                 lambda th: np.array([[-1.0]]), 1)
        cov = sandwich_covariance(sys, np.array([y.mean()]))
        assert cov[0, 0] == pytest.approx(np.var(y) / y.size, rel=1e-14)

    def test_non_finite_jacobian(self):
        sys = closed_form_system(lambda th: np.array([[th[0] - 1.0]]),
                                 lambda th: np.array([[np.nan]]), 1)
        with pytest.raises(NonFiniteEvaluation):
            solve_root(sys, np.array([0.0]))
        with pytest.raises(NonFiniteEvaluation):
            sandwich_covariance(sys, np.array([1.0]))


class TestSandwichCovariance:
    def test_mean_equation_closed_form(self):
        y = np.array([0.7, -0.3, 1.9, 2.4, -1.5, 0.2])
        cov = sandwich_covariance(mean_system(y), np.array([y.mean()]))
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
        sys = numeric_system(lambda th: (y - X @ th)[:, None] * X, 3)
        cov = sandwich_covariance(sys, beta)
        assert np.allclose(cov, hc0, atol=1e-8)

    def test_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        n = 50
        x = rng.normal(0, 1, n)
        t = (rng.random(n) < expit(0.2 + x)).astype(float)
        X = np.column_stack([np.ones(n), x])
        fit = fit_model(X, t, np.ones(n), BERNOULLI, ("x",))
        cov = sandwich_covariance(logit_score_system(X, t), fit.coefficients)
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
        fit = fit_model(X, t, np.ones(n), BERNOULLI, ("x",))
        p = expit(X @ fit.coefficients)
        info = (X * (p * (1 - p))[:, None]).T @ X
        inv_info = np.linalg.inv(info)
        cov = sandwich_covariance(logit_score_system(X, t), fit.coefficients)
        for j in range(2):
            assert cov[j, j] == pytest.approx(inv_info[j, j], rel=0.05)

    def test_singular_bread(self):
        sys = numeric_system(lambda th: np.ones((2, 1)), 1)
        with pytest.raises(SingularJacobian):
            sandwich_covariance(sys, np.array([0.0]))
