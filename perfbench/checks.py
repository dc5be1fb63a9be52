"""Checks of mnarcause outputs against computations made apart from it.

Nothing here calls an estimator of the package: each check recomputes a
reported number from its defining formula with plain numpy, from the input
CSV (or the regenerated Monte Carlo data) and the other reported values.
No check compares against a frozen copy of earlier output, so a later
change that corrects the method does not trip a check that merely
remembers old numbers.

A check takes a Values mapping and returns (error, tolerance); it passes
when the error is finite and at most the tolerance. Values records which
keys a check read, and `teeth` perturbs each value the check verifies by
1e-6 relative and requires the check to fail.
"""

from __future__ import annotations

import json
import math

import numpy as np

Z95 = 1.959963984540054
STAGE1_TOL = 1e-8       # solver.SolveOptions.tol, sup-norm of the averaged moments
SCORE_TOL = 1e-8        # glm contract: sup-norm of the summed weighted score
REL_TOL = 1e-10         # recomputed closed forms; rounding alone stays near 1e-14
BOOT_SE_FACTOR = 2.5    # bootstrap SE within this factor of the sandwich SE
PERTURB = 1e-6


class Values:
    """Reported numbers by key; remembers which keys were read."""

    def __init__(self, values: dict):
        self.values = dict(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return self.values[key]

    def keys(self):
        return self.values.keys()


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


# ---- the fit report of `mnarcause fit` on a Table-1 continuous CSV ----

def load_fit_inputs(csv_path: str, report_path: str):
    """(data, values): CSV columns a, y, c1 (NaN where absent) and the JSON
    report keyed by (name, quantity, field)."""
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) if x else math.nan for x in line.rstrip("\n").split(",")]
                for line in fh]
    arr = np.array(rows)
    data = {name: arr[:, j] for j, name in enumerate(header)}
    with open(report_path) as fh:
        report = json.load(fh)
    values = {}
    for row in report:
        for field in ("estimate", "se", "ci_lo", "ci_hi", "boot_se", "boot_lo",
                      "boot_hi"):
            if row[field] is not None:
                values[(row["name"], row["quantity"], field)] = row[field]
    return data, values


def _coef(v, name, labels):
    return np.array([v[(name, lbl, "estimate")] for lbl in labels])


def _weights(data, v):
    """r/M under the reported alpha, with 1/M = 1 + exp(-lp) on r=1 rows."""
    alpha = _coef(v, "missing", ("intercept", "c1", "y"))
    r = ~np.isnan(data["c1"])
    c = np.where(r, data["c1"], 0.0)
    lp = alpha[0] + alpha[1] * c + alpha[2] * data["y"]
    return r, c, np.where(r, 1.0 + np.exp(-np.where(r, lp, 0.0)), 0.0)


def _expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def _propensity(data, v, c):
    gamma = _coef(v, "propensity", ("intercept", "c1"))
    return _expit(gamma[0] + gamma[1] * c)


def _outcome_means(data, v, c):
    beta = _coef(v, "outcome", ("intercept", "a", "c1"))
    O0 = beta[0] + beta[2] * c
    return O0, O0 + beta[1]


def stage1_residual(v, data):
    """mean((r(1 + e^{-lp}) - 1) G) with G = (1, a, y) vanishes at alpha."""
    _, _, w = _weights(data, v)
    G = np.column_stack([np.ones_like(data["a"]), data["a"], data["y"]])
    return float(np.abs(((w - 1.0)[:, None] * G).mean(axis=0)).max()), STAGE1_TOL


def propensity_score(v, data):
    """The r/M-weighted logistic score of a on (1, c1) vanishes at gamma."""
    r, c, w = _weights(data, v)
    H = _propensity(data, v, c)
    X = np.column_stack([np.ones_like(c), c])
    score = (w * (data["a"] - H)) @ X
    return float(np.abs(score).max()), SCORE_TOL


def _wls(data, v):
    r, c, w = _weights(data, v)
    X = np.column_stack([np.ones_like(c), data["a"], c])[r]
    sw = np.sqrt(w[r])
    beta = np.linalg.lstsq(X * sw[:, None], data["y"][r] * sw, rcond=None)[0]
    return beta, X, w[r]


def outcome_wls(v, data):
    """beta is the r/M-weighted least-squares fit of y on (1, a, c1)."""
    beta, _, _ = _wls(data, v)
    rep = _coef(v, "outcome", ("intercept", "a", "c1"))
    return max(_rel(x, y) for x, y in zip(rep, beta)), REL_TOL


def outcome_dispersion(v, data):
    """phi = sum(w resid^2) / sum(w), the estimating-equation divisor."""
    beta, X, w = _wls(data, v)
    r = ~np.isnan(data["c1"])
    resid = data["y"][r] - X @ beta
    phi = float((w * resid**2).sum() / w.sum())
    return _rel(v[("outcome", "dispersion", "estimate")], phi), REL_TOL


def wee_or_wls(v, data):
    """WEE-OR = mean(r/M (O1 - O0)) = beta_a mean(r/M), beta from the WLS fit."""
    beta, _, _ = _wls(data, v)
    _, _, w = _weights(data, v)
    return _rel(v[("wee-or", "tau", "estimate")], beta[1] * w.mean()), REL_TOL


def wee_or_beta_a(v, data):
    """G holds the constant, so mean(r/M) = 1 to the stage-one tolerance and
    WEE-OR equals the outcome coefficient of a."""
    return (_rel(v[("wee-or", "tau", "estimate")], v[("outcome", "a", "estimate")]),
            2 * STAGE1_TOL)


def wee_ipw(v, data):
    """mean(r/M a y / H) - mean(r/M (1-a) y / (1-H))."""
    r, c, w = _weights(data, v)
    H = _propensity(data, v, c)
    a, y = data["a"], data["y"]
    t1 = np.where(r & (a == 1), w * y / H, 0.0).mean()
    t0 = np.where(r & (a == 0), w * y / (1.0 - H), 0.0).mean()
    return _rel(v[("wee-ipw", "tau", "estimate")], t1 - t0), REL_TOL


def wee_dr(v, data):
    """mean(r/M (O1 + a (y-O1)/H)) - mean(r/M (O0 + (1-a)(y-O0)/(1-H)))."""
    r, c, w = _weights(data, v)
    H = _propensity(data, v, c)
    O0, O1 = _outcome_means(data, v, c)
    a, y = data["a"], data["y"]
    t1 = np.where(r, w * (O1 + np.where(a == 1, (y - O1) / H, 0.0)), 0.0).mean()
    t0 = np.where(r, w * (O0 + np.where(a == 0, (y - O0) / (1.0 - H), 0.0)), 0.0).mean()
    return _rel(v[("wee-dr", "tau", "estimate")], t1 - t0), REL_TOL


def intervals(v, data):
    """Every Wald interval is estimate -/+ 1.959963984540054 se."""
    worst = 0.0
    for (name, qty, field) in list(v.keys()):
        if field != "se":
            continue
        est, se = v[(name, qty, "estimate")], v[(name, qty, "se")]
        scale = abs(est) + Z95 * abs(se)
        worst = max(worst,
                    abs(v[(name, qty, "ci_lo")] - (est - Z95 * se)) / scale,
                    abs(v[(name, qty, "ci_hi")] - (est + Z95 * se)) / scale)
    return worst, 1e-13


def se_positive(v, data):
    """Every standard error is finite and positive (0 when so, else 1)."""
    bad = [k for k in list(v.keys()) if k[2] == "se"
           and not (math.isfinite(v[k]) and v[k] > 0)]
    return float(bool(bad)), 0.0


def boot_order(v, data):
    """Every bootstrap percentile interval has boot_lo < boot_hi."""
    bad = [k for k in list(v.keys()) if k[2] == "boot_lo"
           and not v[k] < v[(k[0], k[1], "boot_hi")]]
    return float(bool(bad)), 0.0


def boot_se_ratio(v, data):
    """|log(bootstrap SE / sandwich SE)| at most log(BOOT_SE_FACTOR)."""
    worst = 0.0
    for k in list(v.keys()):
        if k[2] == "boot_se":
            worst = max(worst, abs(math.log(v[k] / v[(k[0], k[1], "se")])))
    return worst, math.log(BOOT_SE_FACTOR)


def _swap_boot(values):
    out = dict(values)
    for k in values:
        if k[2] == "boot_lo":
            hi = (k[0], k[1], "boot_hi")
            out[k], out[hi] = values[hi], values[k]
            return out
    return out


def _scale_first(field, factor):
    def brk(values):
        out = dict(values)
        key = next(k for k in values if k[2] == field)
        out[key] = values[key] * factor
        return out
    return brk


# (name, check, breaker, subjects). The subjects are key prefixes of the
# reported values the check verifies, as against the values it only reads as
# inputs. A breaker None means: perturb each subject by 1e-6 relative, in
# turn. Inequality checks cannot see 1e-6, so they get a gross violation
# instead. Inputs are not perturbed: a check can be first-order blind to
# an input by the mathematics (WEE-DR to the outcome coefficients, which is
# its double robustness), and then whether 1e-6 shows depends on the seed.
ALL = ((),)
BOOT_CHECKS = (
    ("stage1_residual", stage1_residual, None, (("missing",),)),
    ("propensity_score", propensity_score, None, (("propensity",),)),
    ("outcome_wls", outcome_wls, None, (("outcome",),)),
    ("outcome_dispersion", outcome_dispersion, None, (("outcome", "dispersion"),)),
    ("wee_or_wls", wee_or_wls, None, (("wee-or",),)),
    ("wee_or_beta_a", wee_or_beta_a, None, (("wee-or",), ("outcome", "a"))),
    ("wee_ipw", wee_ipw, None, (("wee-ipw",),)),
    ("wee_dr", wee_dr, None, (("wee-dr",),)),
    ("intervals", intervals, None, ALL),
    ("se_positive", se_positive, _scale_first("se", -1.0), ALL),
    ("boot_order", boot_order, _swap_boot, ALL),
    ("boot_se_ratio", boot_se_ratio, _scale_first("boot_se", 10.0), ALL),
)


# ---- Monte Carlo reports of run_monte_carlo on the Table-2 scenarios ----

TABLE2_ALPHA = (1.0, -2.0, 1.0, 3.0)  # logit pr(R=1 | c1, c2, y), Table 2


def mc_values(report) -> dict:
    values = {("raw", m, i): e for m, i, e in report.raw}
    for tm in report.metrics:
        values[("bias", tm.method)] = tm.bias
    return values


def mc_checks(datasets: dict, truth: float = 3.0) -> tuple:
    """Checks for one run_monte_carlo report; datasets maps replication i to
    the regenerated (a, y, c1, c2, r) arrays."""

    def wee_or(i):
        def check(v, _):
            a, y, c1, c2, r = datasets[i]
            al = TABLE2_ALPHA
            lp = al[0] + al[1] * np.where(r, c1, 0.0) + al[2] * c2 + al[3] * y
            w = np.where(r, 1.0 + np.exp(-np.where(r, lp, 0.0)), 0.0)
            X = np.column_stack([np.ones(r.sum()), a[r], c1[r], c2[r]])
            sw = np.sqrt(w[r])
            beta = np.linalg.lstsq(X * sw[:, None], y[r] * sw, rcond=None)[0]
            return _rel(v[("raw", "wee-or", i)], beta[1] * w.mean()), REL_TOL
        return check

    def cc_or(i):
        def check(v, _):
            a, y, c1, c2, r = datasets[i]
            X = np.column_stack([np.ones(r.sum()), a[r], c1[r], c2[r]])
            beta = np.linalg.lstsq(X, y[r], rcond=None)[0]
            return _rel(v[("raw", "cc-or", i)], beta[1]), REL_TOL
        return check

    def bias(v, _):
        worst = 0.0
        for method in ("wee-or", "wee-ipw", "wee-dr", "cc-or", "mi-or"):
            ests = [v[("raw", method, i)] for i in sorted(datasets)]
            worst = max(worst, _rel(v[("bias", method)], float(np.mean(ests)) - truth))
        return worst, REL_TOL

    out = []
    for i in sorted(datasets):
        out.append((f"wee_or_rep{i}", wee_or(i), None, ALL))
        out.append((f"cc_or_rep{i}", cc_or(i), None, ALL))
    out.append(("bias", bias, None, ALL))
    return tuple(out)


# ---- running checks ----

def run(checks, values: dict, data) -> list:
    """Names of the checks that fail on these values."""
    failed = []
    for name, check, _, _ in checks:
        try:
            err, tol = check(Values(values), data)
        except (KeyError, ValueError, ZeroDivisionError, np.linalg.LinAlgError):
            failed.append(name)
            continue
        if not (math.isfinite(err) and err <= tol):
            failed.append(name)
    return failed


def teeth(checks, values: dict, data) -> list:
    """Each check must fail on a report with one value it verifies perturbed
    by 1e-6 relative (or, for inequality checks, broken outright). Returns
    the (check, key) pairs that still passed."""
    blunt = []
    for name, check, breaker, subjects in checks:
        one = ((name, check, None, ALL),)
        if breaker is not None:
            if not run(one, breaker(values), data):
                blunt.append((name, "broken"))
            continue
        probe = Values(values)
        check(probe, data)
        for key in sorted(probe.read, key=repr):
            if not any(key[:len(s)] == s for s in subjects):
                continue
            bumped = dict(values)
            x = values[key]
            bumped[key] = x * (1.0 + PERTURB) if x != 0 else PERTURB
            if not run(one, bumped, data):
                blunt.append((name, key))
    return blunt
