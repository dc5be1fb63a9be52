"""Reference for the outcome-regression (OR) standard error: the full
stacked system alpha | gamma | beta | phi | tau, propensity block
included, with a central-difference bread.

OR reads no propensity coefficient, so the library's OR stack leaves the
gamma block out; its tau variance must equal the one of this full stack.
Everything here is written from the estimating equations in plain numpy,
for the default model specification: the missing model on (confounders,
y), the propensity model on the confounders, the outcome model on (a,
confounders) and G = (1, fully observed confounders, a, y).

    (r/M - 1) G                    stage one (when alpha is estimated)
    w (a - expit(x_g gamma)) x_g   propensity
    w (y - mean(x_b beta)) x_b     outcome
    w ((y - x_b beta)^2 - phi)     dispersion (Gaussian outcome only)
    w (O1 - O0) - tau              effect

with w = r/M(alpha), or w = r when alpha is None (M forced to 1), and O1,
O0 the fitted outcome means with the treatment set to 1 and to 0.

Run: python3 tests/oracles/oracle_or_full_stack.py
It prints tau and its SE on a small Table-1 dataset, alpha estimated.
tests/test_estimators.py compares the library against or_tau_se.
"""
import numpy as np


def _expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def or_tau_se(a, y, c, missing_index, gaussian, alpha, gamma, beta, phi=None,
              estimate_alpha=False, step=1e-6):
    """(tau, se) of the OR estimator at the fitted coefficients. alpha None
    means M is forced to 1 (a complete-case analysis); with estimate_alpha
    the alpha block is part of the stack."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    c = np.asarray(c, dtype=float)
    n = len(a)
    r = (~np.isnan(c[:, missing_index])).astype(float)
    cz = np.where(np.isnan(c), 0.0, c)
    ones = np.ones(n)
    Xm = np.column_stack([ones, cz, y])
    G = np.column_stack([ones, np.delete(cz, missing_index, axis=1), a, y])
    Xg = np.column_stack([ones, cz])
    Xb = np.column_stack([ones, a, cz])
    Xb1 = np.column_stack([ones, ones, cz])
    Xb0 = np.column_stack([ones, 0.0 * ones, cz])
    pm, pg, pb = Xm.shape[1], Xg.shape[1], Xb.shape[1]

    def unpack(theta):
        at = 0
        al = alpha
        if estimate_alpha:
            al, at = theta[:pm], pm
        ga = theta[at:at + pg]
        be = theta[at + pg:at + pg + pb]
        return al, ga, be, theta[at + pg + pb:]

    def mean_fn(lp):
        return lp if gaussian else _expit(lp)

    def weights(al):
        if al is None:
            return r
        return np.where(r == 1, 1.0 / _expit(Xm @ al), 0.0)

    def psi(theta):
        al, ga, be, rest = unpack(theta)
        w = weights(al)
        cols = []
        if estimate_alpha:
            cols.append((w - 1.0)[:, None] * G)
        cols.append((w * (a - _expit(Xg @ ga)))[:, None] * Xg)
        lp = Xb @ be
        cols.append((w * (y - mean_fn(lp)))[:, None] * Xb)
        if gaussian:
            cols.append((w * ((y - lp) ** 2 - rest[0]))[:, None])
        effect = w * (mean_fn(Xb1 @ be) - mean_fn(Xb0 @ be))
        cols.append((effect - rest[-1])[:, None])
        return np.hstack(cols)

    w = weights(alpha)
    tau = float(np.mean(w * (mean_fn(Xb1 @ beta) - mean_fn(Xb0 @ beta))))
    parts = ([alpha] if estimate_alpha else []) + [gamma, beta]
    parts += [[phi]] if gaussian else []
    theta = np.concatenate(parts + [[tau]]).astype(float)
    p = len(theta)
    A = np.empty((p, p))
    for j in range(p):
        h = step * (1.0 + abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        A[:, j] = (psi(up).mean(axis=0) - psi(dn).mean(axis=0)) / (2.0 * h)
    vals = psi(theta)
    B = vals.T @ vals / n
    Ainv = np.linalg.inv(A)
    cov = Ainv @ B @ Ainv.T / n
    return tau, float(np.sqrt(cov[-1, -1]))


if __name__ == "__main__":
    from mnarcause import fit_wee, generate_table1

    d, _ = generate_table1("continuous", 600, 50)
    fitted = fit_wee(d, covariance=False)
    tau, se = or_tau_se(d.a, d.y, d.c, 0, True, fitted.alpha.coefficients,
                        fitted.gamma.coefficients, fitted.beta.coefficients,
                        fitted.beta.phi, estimate_alpha=True)
    print(f"tau {tau:.17g}  se {se:.17g}")
