"""Generic engine for stacked sample-average estimating equations
E_hat[psi(theta; row)] = 0: averaging, damped Newton root finding, and the
A^{-1} B A^{-T} sandwich covariance (Stefanski & Boos 2002).

A system may carry the closed-form Jacobian of its averaged equations;
the solver and the sandwich use it when present. Systems without one fall
back to numeric_jacobian at its default central-difference step; that
function is also the oracle the closed forms are tested against. A system
that builds its values and its Jacobian from shared pieces may also give
both from one call, which the sandwich then makes once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NoConvergence, NonFiniteEvaluation, SingularJacobian

COND_LIMIT = 1e12  # beyond this, Newton directions are numerically meaningless


@dataclass(frozen=True)
class EquationSystem:
    """psi maps (theta, dataset) to an (n, dim) matrix of per-row equation
    values. jacobian, when given, maps (theta, dataset) to the (dim, dim)
    Jacobian of the averaged equations, d mean(psi) / d theta.
    psi_and_jacobian, when given, maps (theta, dataset) to the pair (psi,
    jacobian) at one point."""

    psi: callable
    dim: int
    jacobian: callable = None
    psi_and_jacobian: callable = None


@dataclass(frozen=True)
class SolveOptions:
    max_iter: int = 100
    tol: float = 1e-8            # on the sup-norm of the averaged equations
    halvings: int = 30
    init: np.ndarray | None = None


def average_psi(sys: EquationSystem, theta: np.ndarray, d: Dataset) -> np.ndarray:
    """(1/n) sum of per-row equation values."""
    vals = np.asarray(sys.psi(np.asarray(theta, dtype=float), d))
    if vals.shape != (d.n, sys.dim):
        raise NonFiniteEvaluation(
            f"psi returned shape {vals.shape}, expected {(d.n, sys.dim)}"
        )
    return vals.mean(axis=0)


def numeric_jacobian(sys: EquationSystem, theta: np.ndarray, d: Dataset,
                     step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of average_psi, column per parameter."""
    theta = np.asarray(theta, dtype=float)
    p = sys.dim
    J = np.empty((p, p))
    for j in range(p):
        h = step * (1.0 + abs(theta[j]))
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        fu = average_psi(sys, up, d)
        fd = average_psi(sys, dn, d)
        if not (np.isfinite(fu).all() and np.isfinite(fd).all()):
            raise NonFiniteEvaluation(f"non-finite equation values near coordinate {j}")
        J[:, j] = (fu - fd) / (2.0 * h)
    return J


def jacobian(sys: EquationSystem, theta: np.ndarray, d: Dataset) -> np.ndarray:
    """The system's closed-form Jacobian, or the numeric one without it."""
    if sys.jacobian is None:
        return numeric_jacobian(sys, theta, d)
    return _finite_jacobian(sys.jacobian(np.asarray(theta, dtype=float), d))


def _finite_jacobian(J) -> np.ndarray:
    J = np.asarray(J, dtype=float)
    if not np.isfinite(J).all():
        raise NonFiniteEvaluation("Jacobian non-finite")
    return J


def solve_root(sys: EquationSystem, d: Dataset, opts: SolveOptions = None,
               stats: dict = None) -> np.ndarray:
    """Damped Newton on the averaged equations.

    A step is accepted only if it reduces the Euclidean norm; a trial point
    with non-finite values counts as worse and triggers further halving, so
    overflow there is expected and not reported as a warning. When a dict
    is passed as stats it receives iterations and the final residual
    sup-norm.
    """
    opts = opts or SolveOptions()
    if opts.init is None:
        raise NoConvergence("solve_root requires an initial point")
    theta = np.asarray(opts.init, dtype=float).copy()
    if theta.shape != (sys.dim,):
        raise NonFiniteEvaluation(f"initial point has shape {theta.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        r = average_psi(sys, theta, d)
    if not np.isfinite(r).all():
        raise NonFiniteEvaluation("equations non-finite at the initial point")
    with np.errstate(over="ignore"):
        rnorm2 = np.linalg.norm(r)

    def record(iterations):
        if stats is not None:
            stats["iterations"] = iterations
            stats["residual_sup"] = float(np.abs(r).max())

    for it in range(opts.max_iter):
        if np.abs(r).max() < opts.tol:
            record(it)
            return theta
        J = jacobian(sys, theta, d)
        if np.linalg.cond(J) > COND_LIMIT:
            raise SingularJacobian("Jacobian condition number beyond 1e12")
        step = np.linalg.solve(J, -r)
        lam = 1.0
        accepted = False
        for _ in range(opts.halvings + 1):
            cand = theta + lam * step
            with np.errstate(over="ignore", invalid="ignore"):
                rc = average_psi(sys, cand, d)
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
    record(opts.max_iter)
    if np.abs(r).max() < opts.tol:
        return theta
    raise NoConvergence(
        f"no root after {opts.max_iter} iterations, residual {np.abs(r).max():.3e}"
    )


def sandwich_covariance(sys: EquationSystem, theta_hat: np.ndarray,
                        d: Dataset) -> np.ndarray:
    """Vhat/n with A the Jacobian of the averaged equations at theta_hat
    and B the average outer product of per-row equation values."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    if sys.psi_and_jacobian is None:
        A = jacobian(sys, theta_hat, d)
        vals = sys.psi(theta_hat, d)
    else:
        vals, A = sys.psi_and_jacobian(theta_hat, d)
        A = _finite_jacobian(A)
    if np.linalg.cond(A) > COND_LIMIT:
        raise SingularJacobian("sandwich bread is numerically singular")
    vals = np.asarray(vals)
    B = vals.T @ vals / d.n
    Ainv = np.linalg.inv(A)
    return Ainv @ B @ Ainv.T / d.n
