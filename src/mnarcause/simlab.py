"""Synthetic-data studies.

Two families of designs: single-confounder designs where the estimand is
the parameter vector of the propensity and outcome models, and four
two-confounder scenarios crossing correct and incorrect specification of
those models, where the estimand is the average treatment effect (3 by
construction). A separate closed-form density pair demonstrates that two
different parameter sets can induce identical observed-data distributions
when the missingness model is unrestricted.

Normal variates are drawn by inverse CDF, one uniform each, through a
numpy port of Cephes ndtri. The tail logarithms go through libm's
math.log, as in the compiled Cephes code, because numpy's vectorized log
differs from it in the last bit on some inputs; the port is then
bit-identical to scipy.special.ndtri (scipy 1.17.1), so every data set
is the one drawn when scipy did the transform. The Example-1 integral
uses composite Gauss-Legendre. The module needs numpy alone.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import Dataset, Schema
from .errors import (
    AllReplicationsFailed,
    BadConfig,
    MnarError,
    QuadratureFailure,
)
from .estimators import (
    MiOptions,
    cc_parameter_fit,
    impute_pmm,
    mi_parameter_fit,
    tau_cc,
    tau_mi,
    tau_wee_dr,
    tau_wee_ipw,
    tau_wee_or,
)
from .glm import LinearModelParams, ModelSpec, expit
from .wee import Design, fit_wee

TABLE1_SCENARIOS = ("table1-binary", "table1-continuous")
TABLE2_SCENARIOS = ("ocpc", "ocpm", "ompc", "ompm")

TABLE1_METHODS = ("wee", "cc", "mi")
TABLE2_METHODS = ("wee-or", "wee-ipw", "wee-dr", "cc-or", "mi-or")
TABLE2_ALL_METHODS = TABLE2_METHODS + ("cc-ipw", "cc-aipw", "mi-ipw", "mi-aipw")

# missing-probability coefficients shared by all four two-confounder
# scenarios: logit pr(R=1 | c1, c2, y) = 1 - 2 c1 + c2 + 3 y
TABLE2_ALPHA = (1.0, -2.0, 1.0, 3.0)


@dataclass(frozen=True)
class TruthRecord:
    """Pre-erasure quantities kept for oracle checks, never shown to
    estimators: the full confounder matrix, the true treatment probability
    and missing probability per row, and the generating coefficients."""

    confounders: np.ndarray
    propensity: np.ndarray
    missing_prob: np.ndarray
    alpha: tuple
    gamma: tuple | None
    beta: tuple | None
    ate: float | None


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    n: int = 2000
    replications: int = 1000
    seed: int = 0
    estimators: tuple = None
    mi_m: int = 10
    mi_k: int = 5

    def __post_init__(self):
        if self.scenario not in TABLE1_SCENARIOS + TABLE2_SCENARIOS:
            raise BadConfig(f"unknown scenario {self.scenario!r}")
        if self.n < 50:
            raise BadConfig("scenario sample size below 50")
        if self.replications < 1:
            raise BadConfig("at least one replication required")
        allowed = TABLE1_METHODS if self.table1 else TABLE2_ALL_METHODS
        methods = self.estimators
        if methods is None:
            methods = TABLE1_METHODS if self.table1 else TABLE2_METHODS
            object.__setattr__(self, "estimators", methods)
        for m in methods:
            if m not in allowed:
                raise BadConfig(f"estimator {m!r} not available for {self.scenario}")

    @property
    def table1(self) -> bool:
        return self.scenario in TABLE1_SCENARIOS


@dataclass(frozen=True)
class TargetMetrics:
    """bias, std, mean_se and coverage are NaN when the method failed in
    every replication."""

    method: str
    target: str
    truth: float
    bias: float
    std: float
    mean_se: float
    coverage: float
    successes: int
    failures: int


@dataclass(frozen=True)
class MonteCarloReport:
    scenario: str
    n: int
    replications: int
    seed: int
    metrics: tuple
    raw: tuple  # (method, replication, estimate) long form


# Cephes ndtri (Moshier 1989, Methods and Programs for Mathematical
# Functions): Phi^-1(y) is a rational function of y - 1/2 in the middle;
# in either tail it is x - log(x)/x less a rational function of 1/x, where
# x = sqrt(-2 log y), with one set of coefficients below x = 8 and another
# above. The leading 1 of each Q is the implicit one of Cephes's p1evl.
_S2PI = 2.50662827463100050242
_EXP_M2 = 0.13533528323661269189  # exp(-2), where the tails begin
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x, coef):
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _libm_log(x: np.ndarray) -> np.ndarray:
    # the log that compiled Cephes calls; np.log can differ in the last bit
    return np.fromiter(map(math.log, x.tolist()), float, x.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Standard normal quantile of each u in [0, 1], operation for
    operation Cephes ndtri, so bit-identical to scipy.special.ndtri (1.17.1)."""
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    ym = y - 0.5
    y2 = ym * ym
    out = (ym + ym * (y2 * _horner(y2, _P0) / _horner(y2, _Q0))) * _S2PI
    t = np.flatnonzero((y <= _EXP_M2) & (y > 0.0))
    x = np.sqrt(-2.0 * _libm_log(y[t]))
    z = 1.0 / x
    x1 = z * _horner(z, _P1) / _horner(z, _Q1)
    far = x >= 8.0  # y below exp(-32)
    x1[far] = z[far] * _horner(z[far], _P2) / _horner(z[far], _Q2)
    x = x - _libm_log(x) / x - x1
    out[t] = np.where(upper[t], x, -x)
    out[u == 0.0] = -np.inf  # math.log(0) raises
    out[u == 1.0] = np.inf
    return out


def _draw_normal(rng, n: int) -> np.ndarray:
    # an inverse CDF takes exactly one uniform per variate, so a stream
    # depends on the generator state alone; with libm's log in the tails,
    # the port is bit-identical to scipy.special.ndtri (scipy 1.17.1), so
    # every data set is the one drawn when scipy did the transform
    return _ndtri(rng.random(n))


def generate_table1(kind: str, n: int, seed) -> tuple:
    """Single-confounder design with the confounder erased where the
    missingness draw comes up zero. Draw order: c1, a, y, r."""
    if kind not in ("binary", "continuous"):
        raise BadConfig(f"unknown outcome kind {kind!r}")
    rng = np.random.default_rng(seed)
    c1 = -0.5 + _draw_normal(rng, n)
    prop = expit(0.5 + 0.5 * c1)
    a = (rng.random(n) < prop).astype(float)
    if kind == "binary":
        y = (rng.random(n) < expit(0.5 + 1.5 * a - 0.5 * c1)).astype(float)
        m_prob = expit(0.5 - c1 + 2.0 * y)
        alpha = (0.5, -1.0, 2.0)
        family = "binary"
    else:
        y = 0.5 + 1.5 * a - 0.5 * c1 + _draw_normal(rng, n)
        m_prob = expit(-1.0 + c1 + y)
        alpha = (-1.0, 1.0, 1.0)
        family = "gaussian"
    r = (rng.random(n) < m_prob).astype(float)
    c = c1.copy()
    c[r == 0] = np.nan
    schema = Schema(treatment="a", outcome="y", confounders=("c1",),
                    missing="c1", outcome_family=family)
    d = Dataset(a, y, c[:, None], schema)
    truth = TruthRecord(confounders=c1[:, None], propensity=prop,
                        missing_prob=m_prob, alpha=alpha,
                        gamma=(0.5, 0.5), beta=(0.5, 1.5, -0.5), ate=None)
    return d, truth


def generate_table2(scenario: str, n: int, seed) -> tuple:
    """Two-confounder scenarios. The treatment effect is additive with
    coefficient 3 in every scenario, so the true ATE is always 3. Draw
    order: c1, c2, a, y, r."""
    if scenario not in TABLE2_SCENARIOS:
        raise BadConfig(f"unknown scenario {scenario!r}")
    rng = np.random.default_rng(seed)
    c1 = _draw_normal(rng, n)
    c2 = (rng.random(n) < 0.5).astype(float)
    if scenario in ("ocpc", "ompc"):
        prop = expit(-0.5 + c1 + c2)
    else:
        t = c1 * c2
        prop = expit(-3.0 + 3.0 * t + 3.0 * np.exp(t))
    a = (rng.random(n) < prop).astype(float)
    if scenario in ("ocpc", "ocpm"):
        mean = 1.0 + 3.0 * a + c1 - c2
        beta = (1.0, 3.0, 1.0, -1.0)
    else:
        mean = -1.0 + 3.0 * a + 0.5 * np.exp(c1 + c2)
        beta = None
    y = mean + _draw_normal(rng, n)
    m_prob = expit(1.0 - 2.0 * c1 + c2 + 3.0 * y)
    r = (rng.random(n) < m_prob).astype(float)
    c = np.column_stack([c1, c2])
    c_erased = c.copy()
    c_erased[r == 0, 0] = np.nan
    schema = Schema(treatment="a", outcome="y", confounders=("c1", "c2"),
                    missing="c1", outcome_family="gaussian")
    d = Dataset(a, y, c_erased, schema)
    gamma = (-0.5, 1.0, 1.0) if scenario in ("ocpc", "ompc") else None
    truth = TruthRecord(confounders=c, propensity=prop, missing_prob=m_prob,
                        alpha=TABLE2_ALPHA, gamma=gamma, beta=beta, ate=3.0)
    return d, truth


# Monte Carlo driver

TABLE1_TARGETS = ("gamma0", "gamma1", "beta0", "beta1", "beta2")


def _table1_truth() -> dict:
    return dict(zip(TABLE1_TARGETS, (0.5, 0.5, 0.5, 1.5, -0.5)))


def _rep_table1(d: Dataset, method: str, est_seeds, mi_opts: MiOptions):
    """(estimates, ses) for the five reported coefficients, or raises."""
    if method == "wee":
        fitted = fit_wee(d, restart_seed=est_seeds[0])
        est = np.concatenate([fitted.gamma.coefficients, fitted.beta.coefficients])
        se = np.concatenate([fitted.block_se("gamma"),
                             fitted.block_se("beta")[:fitted.beta.dim]])
        return est[:5], se[:5]
    if method == "cc":
        gamma, se_g, beta, se_b = cc_parameter_fit(d)
        return (np.concatenate([gamma.coefficients, beta.coefficients])[:5],
                np.concatenate([se_g, se_b])[:5])
    if method == "mi":
        opts = MiOptions(m=mi_opts.m, k=mi_opts.k, seed=est_seeds[1])
        gamma, se_g, beta, se_b = mi_parameter_fit(d, opts)
        return (np.concatenate([gamma.coefficients, beta.coefficients])[:5],
                np.concatenate([se_g, se_b])[:5])
    raise BadConfig(f"unknown method {method!r}")


def _rep_table2(d: Dataset, methods, est_seeds, mi_opts: MiOptions) -> dict:
    """method -> (estimate, se) for one replication; per-method failures
    recorded as exceptions in the returned dict. The WEE estimators share
    one fit under the true alpha and the MI estimators one imputation; a
    failure of that shared step is recorded for each of them. The WEE and
    CC estimators read one Design of the data."""
    out = {}
    dz = Design(d, ModelSpec.default_for(d.schema))

    def each(members, shared, estimate):
        if not members:
            return
        try:
            value = shared()
        except MnarError as err:
            out.update((m, err) for m in members)
            return
        for m in members:
            try:
                est = estimate(m, value)
                out[m] = (est.tau, est.se)
            except MnarError as err:
                out[m] = err

    def wee_fit():
        known = LinearModelParams(np.asarray(TABLE2_ALPHA), ("c1", "c2", "y"))
        return fit_wee(dz, known_alpha=known, covariance=False)

    def wee_estimate(m, fitted):
        if m == "wee-or":
            return tau_wee_or(fitted)
        if m == "wee-ipw":
            return tau_wee_ipw(fitted)
        return tau_wee_dr(fitted)

    opts = replace(mi_opts, seed=est_seeds[1])
    each([m for m in methods if m.startswith("wee-")], wee_fit, wee_estimate)
    each([m for m in methods if m.startswith("cc-")], lambda: None,
         lambda m, _: tau_cc(dz, m[3:]))
    each([m for m in methods if m.startswith("mi-")],
         lambda: impute_pmm(d, opts),
         lambda m, completed: tau_mi(d, m[3:], opts, completed=completed))
    return out


def _metrics(method: str, target: str, truth: float, ests: list, ses: list,
             failures: int) -> TargetMetrics:
    if not ests:
        nan = float("nan")
        return TargetMetrics(method=method, target=target, truth=truth, bias=nan,
                             std=nan, mean_se=nan, coverage=nan, successes=0,
                             failures=failures)
    ests = np.asarray(ests, dtype=float)
    ses = np.asarray(ses, dtype=float)
    bias = float(ests.mean() - truth)
    std = float(ests.std(ddof=1)) if len(ests) > 1 else 0.0
    mean_se = float(ses.mean())
    covered = np.abs(ests - truth) <= 1.959963984540054 * ses
    return TargetMetrics(method=method, target=target, truth=truth, bias=bias,
                         std=std, mean_se=mean_se,
                         coverage=float(covered.mean()),
                         successes=len(ests), failures=failures)


def run_monte_carlo(config: ScenarioConfig) -> MonteCarloReport:
    """Replicated study. Replication i draws its data and estimation seeds
    from the pair (config.seed, i), so any subset of replications can be
    reproduced in isolation. Per-method failures are recorded and excluded
    from the metrics; a method that fails in every replication still gets
    its rows, and only a study where every method fails in every
    replication is an error."""
    mi_opts = MiOptions(m=config.mi_m, k=config.mi_k)
    methods = config.estimators
    succ: dict = {}
    fails: dict = {m: 0 for m in methods}
    raw = []
    for i in range(config.replications):
        ss = np.random.SeedSequence((config.seed, i))
        data_seed, est_seed = ss.spawn(2)
        est_seeds = est_seed.spawn(2)
        if config.table1:
            d, _ = generate_table1(config.scenario.split("-")[1], config.n,
                                   data_seed)
            for m in methods:
                try:
                    est, se = _rep_table1(d, m, est_seeds, mi_opts)
                except MnarError:
                    fails[m] += 1
                    continue
                for t, e, s in zip(TABLE1_TARGETS, est, se):
                    succ.setdefault((m, t), ([], []))
                    succ[(m, t)][0].append(float(e))
                    succ[(m, t)][1].append(float(s))
                    raw.append((f"{m}:{t}", i, float(e)))
        else:
            d, _ = generate_table2(config.scenario, config.n, data_seed)
            results = _rep_table2(d, methods, est_seeds, mi_opts)
            for m in methods:
                res = results.get(m)
                if res is None or isinstance(res, MnarError):
                    fails[m] += 1
                    continue
                succ.setdefault((m, "ate"), ([], []))
                succ[(m, "ate")][0].append(res[0])
                succ[(m, "ate")][1].append(res[1])
                raw.append((m, i, res[0]))
    if methods and not succ:
        raise AllReplicationsFailed(
            f"all {config.replications} replications failed for every method")
    truth_map = _table1_truth() if config.table1 else {"ate": 3.0}
    metrics = []
    for m in methods:
        targets = TABLE1_TARGETS if config.table1 else ("ate",)
        for t in targets:
            ests, ses = succ.get((m, t), ([], []))
            metrics.append(_metrics(m, t, truth_map[t], ests, ses, fails[m]))
    return MonteCarloReport(scenario=config.scenario, n=config.n,
                            replications=config.replications,
                            seed=config.seed, metrics=tuple(metrics),
                            raw=tuple(raw))


def _fmt(x: float) -> str:
    """17 significant digits; NaN, a metric without successes, is empty."""
    return "" if math.isnan(x) else format(float(x), ".17g")


def emit_report(report: MonteCarloReport, format: str = "csv") -> bytes:
    """Metrics table, one row per (method, target, metric)."""
    if format == "csv":
        lines = ["scenario,method,target,metric,value"]
        for tm in report.metrics:
            base = f"{report.scenario},{tm.method},{tm.target}"
            for metric in ("bias", "std", "mean_se", "coverage",
                           "successes", "failures"):
                lines.append(f"{base},{metric},{_fmt(getattr(tm, metric))}")
        return ("\n".join(lines) + "\n").encode()
    if format == "json":
        payload = {
            "scenario": report.scenario,
            "n": report.n,
            "replications": report.replications,
            "seed": report.seed,
            # NaN, a metric without successes, becomes null
            "metrics": [{k: None if v != v else v for k, v in asdict(tm).items()}
                        for tm in report.metrics],
            "raw": [[m, i, e] for m, i, e in report.raw],
        }
        return (json.dumps(payload, indent=1) + "\n").encode()
    raise BadConfig(f"unknown report format {format!r}")


def emit_raw(report: MonteCarloReport) -> bytes:
    """Per-replication estimates in long form, for external box plotting."""
    lines = ["scenario,method,replication,estimate"]
    for m, i, e in report.raw:
        lines.append(f"{report.scenario},{m},{i},{_fmt(e)}")
    return ("\n".join(lines) + "\n").encode()


# closed-form non-identifiability demonstration

@dataclass(frozen=True)
class Example1Params:
    """Five scalars of the single-confounder density pair: the confounder
    mean, two outcome coefficients, the outcome variance, and the slope of
    the missingness model."""

    eta: float
    beta0: float
    beta1: float
    phi: float
    alpha1: float

    def __post_init__(self):
        if not self.phi > 0:
            raise BadConfig("outcome variance must be positive")


def _normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)


def _example1_joint(p: Example1Params, a: float, c1, y: float):
    """Joint density of (c1, a, y) before the missingness factor, at each
    c1."""
    dc = _normal_pdf(c1, p.eta, 1.0)
    pa = expit(c1 * c1 - 1.0)
    da = pa if a == 1 else 1.0 - pa
    dy = _normal_pdf(y, p.beta0 + p.beta1 * a * abs(c1), p.phi)
    return dc * da * dy


_GL_NODES = 40  # the coarse rule of each panel; the fine rule has twice as many


@functools.cache
def _legendre_rules():
    from numpy.polynomial.legendre import leggauss
    return leggauss(_GL_NODES), leggauss(2 * _GL_NODES)


def _integrate(f, breaks: np.ndarray) -> float:
    """Integral of the vectorized f over [breaks[0], breaks[-1]] by
    composite Gauss-Legendre on the panels between the breaks. The
    difference between the n- and 2n-node rules estimates each panel's
    error; while their sum exceeds the tolerance, every panel above its
    even share is halved. The 2n-node sum is returned."""
    (xc, wc), (xf, wf) = _legendre_rules()

    def panels(lo, hi):
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        fine = half * (f(mid[:, None] + half[:, None] * xf) @ wf)
        coarse = half * (f(mid[:, None] + half[:, None] * xc) @ wc)
        return fine, np.abs(fine - coarse)

    lo, hi = breaks[:-1], breaks[1:]
    fine, err = panels(lo, hi)
    while lo.size <= 1000:
        tol = 1e-13 * abs(fine.sum()) + 1e-17
        if err.sum() <= tol:
            return float(fine.sum())
        split = err > tol / err.size
        if not split.any():  # a NaN
            break
        mid = (lo[split] + hi[split]) / 2
        fine2, err2 = panels(np.concatenate([lo[split], mid]),
                             np.concatenate([mid, hi[split]]))
        lo = np.concatenate([lo[~split], lo[split], mid])
        hi = np.concatenate([hi[~split], mid, hi[split]])
        fine = np.concatenate([fine[~split], fine2])
        err = np.concatenate([err[~split], err2])
    raise QuadratureFailure(f"integration error estimate {err.sum():.2e}")


def example1_observed_density(p: Example1Params, a: float, c1, y: float,
                              r: int) -> float:
    """Observed-data density at one point. With the confounder observed the
    value is the closed-form product; with it missing, the confounder is
    integrated out together with the probability of being missing, over
    eta +- 10. The integrand has a kink at c1 = 0 and, for a = 1, the
    outcome density peaks at c1 = +-(y - beta0)/beta1 with width
    sqrt(phi)/|beta1|; the panels break there and eight widths to either
    side, so a small phi cannot hide a peak between the nodes."""
    if a not in (0, 1) or r not in (0, 1):
        raise BadConfig("a and r must be 0 or 1")
    if r == 1:
        if c1 is None:
            raise BadConfig("observed branch requires the confounder value")
        return float(_example1_joint(p, a, c1, y) * expit(p.alpha1 * c1))
    if c1 is not None:
        raise BadConfig("missing branch must not receive a confounder value")
    lo, hi = p.eta - 10.0, p.eta + 10.0
    breaks = [lo, 0.0, hi]
    if a == 1 and p.beta1 != 0:
        peak = (y - p.beta0) / p.beta1
        width = 8.0 * math.sqrt(p.phi) / abs(p.beta1)
        # nodes land on floats; across a peak only a few floats wide both
        # rules would agree on the same wrong sum
        if peak >= 0 and width < 2.0 ** 20 * np.spacing(peak):
            raise QuadratureFailure(
                f"outcome peak at {peak:.3g} too narrow to integrate")
        breaks += [s * peak + d for s in (-1.0, 1.0) for d in (-width, 0.0, width)]
    return _integrate(
        lambda c: _example1_joint(p, a, c, y) * (1.0 - expit(p.alpha1 * c)),
        np.unique(np.clip(breaks, lo, hi)))


EXAMPLE1_GRID_POINTS = 10  # per axis of the (c1, y) grid on [-3, 3]


def example1_grid_compare(p1: Example1Params, p2: Example1Params) -> dict:
    """Compare two parameter sets over a grid of observed-data points.
    Returns the largest absolute difference on each branch and the largest
    relative difference overall."""
    c_grid = np.linspace(-3.0, 3.0, EXAMPLE1_GRID_POINTS)
    y_grid = np.linspace(-3.0, 3.0, EXAMPLE1_GRID_POINTS)
    max_abs_r1 = 0.0
    max_abs_r0 = 0.0
    max_rel = 0.0
    for a in (0, 1):
        for y in y_grid:
            for c1 in c_grid:
                d1 = example1_observed_density(p1, a, float(c1), float(y), 1)
                d2 = example1_observed_density(p2, a, float(c1), float(y), 1)
                max_abs_r1 = max(max_abs_r1, abs(d1 - d2))
                denom = max(abs(d1), abs(d2), 1e-300)
                max_rel = max(max_rel, abs(d1 - d2) / denom)
            d1 = example1_observed_density(p1, a, None, float(y), 0)
            d2 = example1_observed_density(p2, a, None, float(y), 0)
            max_abs_r0 = max(max_abs_r0, abs(d1 - d2))
            denom = max(abs(d1), abs(d2), 1e-300)
            max_rel = max(max_rel, abs(d1 - d2) / denom)
    return {"max_abs_r1": max_abs_r1, "max_abs_r0": max_abs_r0,
            "max_rel": max_rel}
