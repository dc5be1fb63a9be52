"""Batch command-line interface.

Three subcommands: `fit` runs the weighted and baseline treatment-effect
estimators on a CSV file, `simulate` runs a replicated synthetic study,
and `example1-check` runs the observed-data equivalence check. Errors
exit nonzero with a single diagnostic line `code=<symbol> message=<text>`
on standard error: 1 usage, 2 data, 3 convergence, 4 extreme weights,
5 equivalence violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .data import Schema, load_csv
from .errors import BadConfig, BadValue, EquivalenceViolated, MnarError
from .estimators import (
    MiOptions,
    bootstrap_ci,
    impute_pmm,
    tau_cc,
    tau_mi,
    tau_wee_dr,
    tau_wee_ipw,
    tau_wee_or,
)
from .glm import ModelSpec
from .simlab import (
    Example1Params,
    ScenarioConfig,
    emit_raw,
    emit_report,
    example1_grid_compare,
    run_monte_carlo,
)
from .wee import Design, GSpec, default_G, fit_wee

FIT_METHODS = ("wee-or", "wee-ipw", "wee-dr", "cc-or", "cc-ipw", "cc-aipw",
               "mi-or", "mi-ipw", "mi-aipw")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        raise BadConfig(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="mnarcause", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command")

    fit = sub.add_parser("fit", help="estimate treatment effects from a CSV file")
    fit.add_argument("--config", help="flat key=value file; flags override it")
    fit.add_argument("--data", help="CSV path")
    fit.add_argument("--treatment", help="treatment column (0/1)")
    fit.add_argument("--outcome", help="outcome column")
    fit.add_argument("--confounders", help="comma list of confounder columns")
    fit.add_argument("--missing", help="the partially observed confounder")
    fit.add_argument("--outcome-family", choices=("gaussian", "binary"))
    fit.add_argument("--estimators", help="comma list, default all nine")
    fit.add_argument("--g", help="comma list of moment components overriding "
                                 "the default (1, observed confounders, a, y)")
    fit.add_argument("--bootstrap", type=int, help="bootstrap resample count")
    fit.add_argument("--mi-m", type=int, help="imputation count (default 10)")
    fit.add_argument("--mi-k", type=int, help="donor pool size (default 5)")
    fit.add_argument("--seed", type=int)
    fit.add_argument("--out", help="report file path")
    fit.add_argument("--format", choices=("csv", "json"))

    sim = sub.add_parser("simulate", help="run a replicated synthetic study")
    sim.add_argument("--config", help="flat key=value file; flags override it")
    sim.add_argument("--scenario", help="table1-binary | table1-continuous | "
                                        "ocpc | ocpm | ompc | ompm")
    sim.add_argument("--n", type=int)
    sim.add_argument("--reps", type=int)
    sim.add_argument("--estimators", help="comma list")
    sim.add_argument("--mi-m", type=int)
    sim.add_argument("--mi-k", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", help="metrics file; raw estimates go next to it")
    sim.add_argument("--format", choices=("csv", "json"))

    chk = sub.add_parser("example1-check",
                         help="observed-data equivalence of two parameter sets")
    chk.add_argument("--alpha1-prime", type=float,
                     help="missingness slope of the second set (default 2)")
    chk.add_argument("--phi", type=float, help="outcome variance (default 1)")
    return p


def _read_config(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise BadConfig(f"{path}:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as err:
        raise BadConfig(f"cannot read config file: {err}") from None
    return values


_CONFIG_TYPES = {
    "bootstrap": int, "mi_m": int, "mi_k": int, "seed": int, "n": int,
    "reps": int, "alpha1_prime": float, "phi": float,
}


def _merge_config(args: argparse.Namespace):
    """Fill unset flags from the config file, then apply the seed fallback
    chain: flag, config file, MNAR_SEED, 0."""
    if getattr(args, "config", None):
        stored = _read_config(args.config)
        for key, raw in stored.items():
            if not hasattr(args, key):
                raise BadConfig(f"unknown config key {key!r}")
            if getattr(args, key) is None:
                caster = _CONFIG_TYPES.get(key, str)
                try:
                    setattr(args, key, caster(raw))
                except ValueError:
                    raise BadConfig(f"config key {key!r}: bad value {raw!r}") from None
    if hasattr(args, "seed") and args.seed is None:
        env = os.environ.get("MNAR_SEED")
        if env is not None:
            try:
                args.seed = int(env)
            except ValueError:
                raise BadConfig(f"MNAR_SEED is not an integer: {env!r}") from None
        else:
            args.seed = 0


def _split_list(raw: str) -> tuple:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _model_rows(fitted) -> list:
    """The report's model coefficient rows, which come first. Columns:
    section, name, quantity, estimate, se, ci_lo, ci_hi, boot_se, boot_lo,
    boot_hi, boot_failures (the resamples on which the estimator failed and
    which the bootstrap left out)."""
    rows = []
    model_blocks = [("missing", fitted.alpha, "alpha"),
                    ("propensity", fitted.gamma, "gamma"),
                    ("outcome", fitted.beta, "beta")]
    for name, params, block in model_blocks:
        if block in fitted.blocks:
            ses = fitted.block_se(block)
        else:
            ses = [None] * params.dim
        labels = ("intercept",) + tuple(params.covariates)
        for lbl, est, se in zip(labels, params.coefficients, ses):
            lo = hi = None
            if se is not None:
                lo, hi = est - 1.959963984540054 * se, est + 1.959963984540054 * se
            rows.append(("model", name, lbl, est, se, lo, hi,
                         None, None, None, None))
        if params.phi is not None:
            rows.append(("model", name, "dispersion", params.phi,
                         None, None, None, None, None, None, None))
    return rows


def _ate_row(method, est, boot) -> tuple:
    lo, hi = est.ci if est.ci else (None, None)
    brow = (None,) * 4 if boot is None else (boot.se, *boot.ci, boot.failures)
    return ("ate", method, "tau", est.tau, est.se, lo, hi, *brow)


def _emit_fit_report(rows, fmt: str) -> bytes:
    header = ("section", "name", "quantity", "estimate", "se",
              "ci_lo", "ci_hi", "boot_se", "boot_lo", "boot_hi", "boot_failures")
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            failures = "" if row[10] is None else str(row[10])
            lines.append(",".join([row[0], row[1], row[2]]
                                  + [_fmt(v) for v in row[3:10]] + [failures]))
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return (json.dumps(payload, indent=1) + "\n").encode()
    raise BadConfig(f"unknown report format {fmt!r}")


def _print_fit_table(rows):
    print(f"{'section':<10}{'name':<12}{'quantity':<12}"
          f"{'estimate':>12}{'se':>12}{'95% CI':>26}")
    for sec, name, qty, est, se, lo, hi, bse, blo, bhi, bfail in rows:
        ci = f"[{lo:10.4f},{hi:10.4f}]" if lo is not None else ""
        se_s = f"{se:12.4f}" if se is not None else " " * 12
        print(f"{sec:<10}{name:<12}{qty:<12}{est:12.4f}{se_s}{ci:>26}")
        if bse is not None:
            print(f"{'':<10}{'':<12}{'bootstrap':<12}{'':>12}{bse:12.4f}"
                  f"[{blo:10.4f},{bhi:10.4f}]".rjust(26)
                  + f"  failed resamples {bfail}")


def cmd_fit(args) -> int:
    required = ("data", "treatment", "outcome", "confounders", "missing")
    for name in required:
        if getattr(args, name) in (None, ""):
            raise BadConfig(f"--{name} is required for fit")
    schema = Schema(treatment=args.treatment, outcome=args.outcome,
                    confounders=_split_list(args.confounders),
                    missing=args.missing,
                    outcome_family=args.outcome_family or "gaussian")
    try:
        with open(args.data, "rb") as fh:
            d = load_csv(fh, schema)
    except OSError as err:
        raise BadValue(f"cannot read data file: {err}") from None
    model_spec = ModelSpec.default_for(schema)
    gspec = GSpec(_split_list(args.g)) if args.g else default_G(model_spec, schema)
    gspec.validate(schema, model_spec)

    methods = _split_list(args.estimators) if args.estimators else FIT_METHODS
    for m in methods:
        if m not in FIT_METHODS:
            raise BadConfig(f"unknown estimator {m!r}")
    mi_opts = MiOptions(m=10 if args.mi_m is None else args.mi_m,
                        k=5 if args.mi_k is None else args.mi_k, seed=args.seed)

    # one Design of the data, which every WEE and CC estimate reads, on the
    # data and, as counts, on each bootstrap resample
    dz = Design(d, model_spec, gspec)
    rows, estimates = _point_estimates(d, dz, methods, mi_opts)
    boots = {}
    if args.bootstrap:
        for members, data, estimator in _boot_groups(d, dz, methods, mi_opts):
            res = bootstrap_ci(estimator, data, args.bootstrap, args.seed)
            boots.update((m, res.component(k)) for k, m in enumerate(members))
    rows += [_ate_row(m, estimates[m], boots.get(m)) for m in methods]
    if args.out:
        payload = _emit_fit_report(rows, args.format or "csv")
        with open(args.out, "wb") as fh:
            fh.write(payload)
    _print_fit_table(rows)
    return 0


def _point_estimates(d, dz, methods, mi_opts) -> tuple:
    """The model rows of the full-data fit and each method's estimate with
    its standard error. The fit and the imputations are freed on return,
    before any bootstrap resample is drawn; the Design dz of the data is
    kept for the resamples."""
    fitted = fit_wee(dz)
    shared = {"wee": fitted}
    estimates = {}
    for m in methods:
        kind = m.split("-")[0]
        data = d if kind == "mi" else dz
        if kind not in shared:
            shared[kind] = _shared_step(kind, data, mi_opts)
        estimates[m] = _estimate(m, data, shared[kind], mi_opts, with_se=True)
    return _model_rows(fitted), estimates


def _shared_step(kind, data, mi_opts):
    """The costly step that the estimators of one kind share on a dataset:
    the stage-one and stage-two fit of the WEE estimators (without its
    covariance) on a Design and the imputations of the MI ones on a
    Dataset; CC estimators share none."""
    if kind == "wee":
        return fit_wee(data, covariance=False)
    if kind == "mi":
        return impute_pmm(data, mi_opts)
    return None


def _estimate(method, data, shared, mi_opts, with_se: bool):
    """One estimator, given the step shared by its kind; data is the
    Design a CC estimator reads, or the Dataset an MI one imputes."""
    if method == "wee-or":
        return tau_wee_or(shared, with_se=with_se)
    if method == "wee-ipw":
        return tau_wee_ipw(shared, with_se=with_se)
    if method == "wee-dr":
        return tau_wee_dr(shared, with_se=with_se)
    if method.startswith("cc-"):
        return tau_cc(data, method[3:], with_se=with_se)
    return tau_mi(data, method[3:], mi_opts, with_se=with_se, completed=shared)


def _boot_groups(d, dz, methods, mi_opts) -> list:
    """(members, data, estimator) triples for bootstrap_ci, one per group
    of estimators that share their costly step on a resample: all WEE
    estimators, all MI estimators, and each CC estimator on its own. WEE
    and CC resample the Design dz, as counts; MI resamples the Dataset d,
    as a copy in draw order, on which its donor matching depends. The
    estimator returns one tau per member; bootstrap_ci leaves a resample on
    which any member fails out of the whole group."""
    groups = {}
    for m in methods:
        kind = m.split("-")[0]
        groups.setdefault(m if kind == "cc" else kind, []).append(m)

    def estimator(kind, members):
        def run(boot):
            shared = _shared_step(kind, boot, mi_opts)
            return [_estimate(m, boot, shared, mi_opts, with_se=False).tau
                    for m in members]
        return run

    triples = []
    for members in groups.values():
        kind = members[0].split("-")[0]
        triples.append((members, d if kind == "mi" else dz,
                        estimator(kind, members)))
    return triples


def _raw_path(out: str) -> str:
    """The per-replication file next to the report; emit_raw writes CSV
    whatever the report's format."""
    return f"{os.path.splitext(out)[0]}_raw.csv"


def cmd_simulate(args) -> int:
    if not args.scenario:
        raise BadConfig("--scenario is required for simulate")
    config = ScenarioConfig(
        scenario=args.scenario,
        n=args.n if args.n is not None else 2000,
        replications=args.reps if args.reps is not None else 1000,
        seed=args.seed,
        estimators=_split_list(args.estimators) if args.estimators else None,
        mi_m=args.mi_m if args.mi_m is not None else 10,
        mi_k=args.mi_k if args.mi_k is not None else 5,
    )
    report = run_monte_carlo(config)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(emit_report(report, args.format or "csv"))
        with open(_raw_path(args.out), "wb") as fh:
            fh.write(emit_raw(report))
    print(f"scenario {report.scenario}  n={report.n}  "
          f"replications={report.replications}  seed={report.seed}")
    print(f"{'method':<10}{'target':<8}{'bias':>10}{'std':>10}"
          f"{'mean_se':>10}{'coverage':>10}{'fail':>6}")
    for tm in report.metrics:
        # a method that failed in every replication has no metrics
        cells = "".join(" " * 10 if math.isnan(x) else f"{x:10.3f}"
                        for x in (tm.bias, tm.std, tm.mean_se, tm.coverage))
        print(f"{tm.method:<10}{tm.target:<8}{cells}{tm.failures:6d}")
    return 0


def cmd_example1_check(args) -> int:
    phi = args.phi if args.phi is not None else 1.0
    a1p = args.alpha1_prime if args.alpha1_prime is not None else 2.0
    base = Example1Params(eta=1.0, beta0=0.0, beta1=1.0, phi=phi, alpha1=-2.0)
    other = Example1Params(eta=-1.0, beta0=0.0, beta1=1.0, phi=phi, alpha1=a1p)
    res = example1_grid_compare(base, other)
    worst = max(res["max_abs_r1"], res["max_abs_r0"])
    print(f"max abs discrepancy: observed branch {res['max_abs_r1']:.3e}, "
          f"integrated branch {res['max_abs_r0']:.3e}, "
          f"max relative {res['max_rel']:.3e}")
    if worst >= 1e-8:
        raise EquivalenceViolated(
            f"observed-data densities differ (max abs {worst:.3e})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise BadConfig("a command is required: fit, simulate, example1-check")
        _merge_config(args)
        if args.command == "fit":
            return cmd_fit(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_example1_check(args)
    except MnarError as err:
        print(err.diagnostic(), file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
