"""Generic engine for stacked sample-average estimating equations
E_hat[psi(theta; row)] = 0: averaging, damped Newton root finding, and the
A^{-1} B A^{-T} sandwich covariance (Stefanski & Boos 2002). Newton stops
with NoConvergence when it stops making progress, by the stall test of
MINPACK's hybrd (More, Garbow & Hillstrom 1980; see solve_root).

A system is bound to its data: evaluate maps theta alone to the per-row
values, one row per distinct data row, and, when asked, to the
closed-form Jacobian of their average from the same pass. Each row may
be counted several times, as in a bootstrap resample (Efron & Tibshirani
1993, the resampling vector P*; Chatterjee & Bose 2005): every average is
then the count-weighted sum f @ psi / n, one matrix-vector product, with
n the sum of the counts. Without counts each row counts once.
numeric_jacobian, the central-difference Jacobian of the averaged
values, is the oracle the closed forms are tested against; no system
here falls back to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFiniteEvaluation, SingularJacobian

COND_LIMIT = 1e12  # beyond this, Newton directions are numerically meaningless
MAX_ITER = 100
TOL = 1e-8         # on the sup-norm of the averaged equations
HALVINGS = 30
STALL_WINDOW = 30    # Newton iterations that must cut the residual norm
STALL_FACTOR = 10.0  # by this factor, or the solve stops (NoConvergence)


@dataclass(frozen=True)
class EquationSystem:
    """evaluate(theta, jacobian) returns the pair (values, J) at one point:
    values the (m, dim) matrix of per-row equation values, and J, when
    jacobian is set, the (dim, dim) Jacobian of the averaged equations,
    d mean(psi) / d theta, else None. The values must not depend on
    jacobian. counts, when given, is the (m,) number of times each row is
    counted."""

    evaluate: callable
    dim: int
    counts: np.ndarray = None


def _counts(sys: EquationSystem, vals: np.ndarray) -> np.ndarray:
    return np.ones(vals.shape[0]) if sys.counts is None else sys.counts


def average_psi(sys: EquationSystem, theta: np.ndarray) -> np.ndarray:
    """Count-weighted average of the per-row equation values."""
    vals = np.asarray(sys.evaluate(np.asarray(theta, dtype=float), False)[0])
    if vals.ndim != 2 or vals.shape[1] != sys.dim:
        raise NonFiniteEvaluation(
            f"psi returned shape {vals.shape}, expected (n, {sys.dim})"
        )
    f = _counts(sys, vals)
    return f @ vals / f.sum()


def numeric_jacobian(sys: EquationSystem, theta: np.ndarray,
                     step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of average_psi, column per parameter:
    the tests' oracle for every closed-form Jacobian. The benchmark's
    tracer (perfbench/tracing.py) looks it up here, so it stays in the
    package until that lookup goes; then it moves to tests/oracles."""
    theta = np.asarray(theta, dtype=float)
    p = sys.dim
    J = np.empty((p, p))
    for j in range(p):
        h = step * (1.0 + abs(theta[j]))
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        fu = average_psi(sys, up)
        fd = average_psi(sys, dn)
        if not (np.isfinite(fu).all() and np.isfinite(fd).all()):
            raise NonFiniteEvaluation(f"non-finite equation values near coordinate {j}")
        J[:, j] = (fu - fd) / (2.0 * h)
    return J


def _finite_jacobian(J) -> np.ndarray:
    J = np.asarray(J, dtype=float)
    if not np.isfinite(J).all():
        raise NonFiniteEvaluation("Jacobian non-finite")
    return J


def solve_root(sys: EquationSystem, init: np.ndarray, stats: dict = None) -> np.ndarray:
    """Damped Newton on the averaged equations from init.

    A step is accepted only if it reduces the Euclidean norm; a trial point
    with non-finite values counts as worse and triggers further halving, so
    overflow there is expected and not reported as a warning. When a dict
    is passed as stats it receives iterations and the final residual
    sup-norm.

    A solve whose residual norm has not fallen STALL_FACTOR-fold over the
    last STALL_WINDOW iterations stops with NoConvergence: the test of
    MINPACK's hybrd for a solve making no good progress (More, Garbow &
    Hillstrom 1980). Where a system has no finite root, the iterates drift
    towards infinity along a valley of slowly falling residual. Over 347
    profiled stage-one solves that converged on Table-1 and Table-2 data at
    n = 2,000 and on bootstrap resamples, all took at most 13 iterations
    but one, which crept for 56 towards alpha = (194, -191, -57, 114); the
    test stops that one.
    """
    theta = np.asarray(init, dtype=float).copy()
    if theta.shape != (sys.dim,):
        raise NonFiniteEvaluation(f"initial point has shape {theta.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        r = average_psi(sys, theta)
    if not np.isfinite(r).all():
        raise NonFiniteEvaluation("equations non-finite at the initial point")
    with np.errstate(over="ignore"):
        rnorm2 = np.linalg.norm(r)

    def record(iterations):
        if stats is not None:
            stats["iterations"] = iterations
            stats["residual_sup"] = float(np.abs(r).max())

    norms = []  # the residual norm at the start of each iteration
    for it in range(MAX_ITER):
        if np.abs(r).max() < TOL:
            record(it)
            return theta
        norms.append(rnorm2)
        if it >= STALL_WINDOW and rnorm2 * STALL_FACTOR > norms[it - STALL_WINDOW]:
            record(it)
            raise NoConvergence(
                f"Newton stalled: residual sup-norm {np.abs(r).max():.3e} fell "
                f"less than {STALL_FACTOR:g}-fold in {STALL_WINDOW} iterations")
        J = _finite_jacobian(sys.evaluate(theta, True)[1])
        if np.linalg.cond(J) > COND_LIMIT:
            raise SingularJacobian("Jacobian condition number beyond 1e12")
        step = np.linalg.solve(J, -r)
        lam = 1.0
        accepted = False
        for _ in range(HALVINGS + 1):
            cand = theta + lam * step
            with np.errstate(over="ignore", invalid="ignore"):
                rc = average_psi(sys, cand)
                nc = np.linalg.norm(rc)
            if np.isfinite(nc) and np.isfinite(rc).all() and nc < rnorm2:
                theta, r, rnorm2 = cand, rc, nc
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            record(it)
            raise NoConvergence(
                f"Newton stalled with residual sup-norm {np.abs(r).max():.3e}"
            )
    record(MAX_ITER)
    if np.abs(r).max() < TOL:
        return theta
    raise NoConvergence(
        f"no root after {MAX_ITER} iterations, residual {np.abs(r).max():.3e}"
    )


def sandwich_covariance(sys: EquationSystem, theta_hat: np.ndarray,
                        stats: dict = None) -> np.ndarray:
    """Vhat/n with A the Jacobian of the averaged equations at theta_hat
    and B the count-weighted average outer product of per-row equation
    values: a row counted f times enters B f times, as its f copies would.
    When a dict is passed as stats it receives the averaged equations at
    theta_hat as "average", from the same per-row values."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    vals, A = sys.evaluate(theta_hat, True)
    A = _finite_jacobian(A)
    if np.linalg.cond(A) > COND_LIMIT:
        raise SingularJacobian("sandwich bread is numerically singular")
    vals = np.asarray(vals)
    f = _counts(sys, vals)
    n = f.sum()
    if stats is not None:
        stats["average"] = f @ vals / n
    B = (vals * f[:, None]).T @ vals / n
    Ainv = np.linalg.inv(A)
    return Ainv @ B @ Ainv.T / n
