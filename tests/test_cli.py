"""Command-line interface: the fit report's columns and its bootstrap
failure counts, the work a bootstrap shares between estimators, exit codes
and their diagnostic line, the seed fallback chain, the simulate reports,
and the cost of importing the package."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

import mnarcause
from mnarcause import (
    Dataset,
    Design,
    MiOptions,
    MnarError,
    ModelSpec,
    Schema,
    ScenarioConfig,
    bootstrap_ci,
    default_G,
    emit_csv,
    generate_table1,
    generate_table2,
    load_csv,
    run_monte_carlo,
    tau_cc,
    tau_mi,
    tau_wee_dr,
    tau_wee_ipw,
    tau_wee_or,
)
from mnarcause import cli, estimators
from mnarcause.cli import main
from mnarcause.glm import expit
from mnarcause.wee import fit_wee

HEADER = ["section", "name", "quantity", "estimate", "se", "ci_lo", "ci_hi",
          "boot_se", "boot_lo", "boot_hi", "boot_failures"]


COLUMNS = ["--treatment", "a", "--outcome", "y", "--confounders", "c1",
           "--missing", "c1"]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A 400-row Table-1 CSV. Stage one fails on resamples 11 and 14 of
    bootstrap seed 0 (NoConvergence)."""
    path = tmp_path_factory.mktemp("data") / "data.csv"
    path.write_text(emit_csv(generate_table1("continuous", 400, 7)[0]))
    return path


def load(path):
    with open(path, "rb") as fh:
        return load_csv(fh, Schema("a", "y", ("c1",), "c1"))


def counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture(scope="module")
def reports(data, tmp_path_factory):
    """fit --bootstrap 20 --seed 0 on the 400-row CSV: WEE-OR leaves out
    the two resamples on which stage one fails; the complete-case fit never
    fails."""
    root = tmp_path_factory.mktemp("fit")
    out = {}
    for fmt in ("csv", "json"):
        path = root / f"report.{fmt}"
        code = main(["fit", "--data", str(data), "--treatment", "a",
                     "--outcome", "y", "--confounders", "c1", "--missing", "c1",
                     "--estimators", "wee-or,cc-or", "--bootstrap", "20",
                     "--seed", "0", "--out", str(path), "--format", fmt])
        assert code == 0
        out[fmt] = path.read_text()
    return out


def test_csv_report_columns_and_failures(reports):
    rows = list(csv.reader(io.StringIO(reports["csv"])))
    assert rows[0] == HEADER
    by_name = {(r[0], r[1], r[2]): dict(zip(HEADER, r)) for r in rows[1:]}
    assert by_name[("ate", "wee-or", "tau")]["boot_failures"] == "2"
    assert by_name[("ate", "cc-or", "tau")]["boot_failures"] == "0"
    model_rows = [r for key, r in by_name.items() if key[0] == "model"]
    assert model_rows and all(r["boot_failures"] == "" for r in model_rows)


def test_json_report_columns_and_failures(reports):
    payload = json.loads(reports["json"])
    assert all(list(row) == HEADER for row in payload)
    ate = {row["name"]: row for row in payload if row["section"] == "ate"}
    assert ate["wee-or"]["boot_failures"] == 2
    assert ate["cc-or"]["boot_failures"] == 0
    assert all(row["boot_failures"] is None
               for row in payload if row["section"] == "model")


def test_formats_agree(reports):
    rows = list(csv.reader(io.StringIO(reports["csv"])))[1:]
    payload = json.loads(reports["json"])
    assert len(rows) == len(payload)
    for row, obj in zip(rows, payload):
        assert row[:3] == [obj["section"], obj["name"], obj["quantity"]]
        assert float(row[3]) == obj["estimate"]


class TestSharedBootstrap:
    """The WEE estimators share one stage-one fit per resample, the MI
    estimators one imputation; every figure equals a bootstrap of that
    estimator alone."""

    def fit_json(self, data, tmp_path, estimators, *extra):
        out = tmp_path / "report.json"
        code = main(["fit", "--data", str(data), *COLUMNS, "--estimators",
                     estimators, "--seed", "0", "--out", str(out),
                     "--format", "json", *extra])
        assert code == 0
        return {row["name"]: row for row in json.loads(out.read_text())
                if row["section"] == "ate"}

    def test_wee_group_fits_once_per_resample(self, data, tmp_path, monkeypatch):
        fits = counted(monkeypatch, cli, "fit_wee")
        draws = counted(monkeypatch, estimators, "resample")
        ate = self.fit_json(data, tmp_path, "wee-or,wee-ipw,wee-dr",
                            "--bootstrap", "20")
        # one fit of the data and one per resample, failed ones included
        assert len(fits) == 21
        assert len(draws) == 20
        d = load(data)
        spec = ModelSpec.default_for(d.schema)
        dz = Design(d, spec, default_G(spec, d.schema))
        for name, fn in (("wee-or", tau_wee_or), ("wee-ipw", tau_wee_ipw),
                         ("wee-dr", tau_wee_dr)):
            alone = bootstrap_ci(
                lambda b: fn(fit_wee(b, covariance=False), with_se=False).tau,
                dz, 20, 0)
            row = ate[name]
            assert row["boot_failures"] == alone.failures == 2
            assert (row["boot_se"], row["boot_lo"], row["boot_hi"]) == \
                (alone.se, *alone.ci)

    def test_mi_group_imputes_once_per_dataset(self, data, tmp_path, monkeypatch):
        imputations = counted(monkeypatch, cli, "impute_pmm")
        ate = self.fit_json(data, tmp_path, "mi-or,mi-ipw,mi-aipw",
                            "--mi-m", "3", "--bootstrap", "5")
        # one imputation of the data and one per resample, where each MI
        # estimator used to impute on its own (3 + 15)
        assert len(imputations) == 6
        d = load(data)
        opts = MiOptions(m=3, k=5, seed=0)
        for method in ("or", "ipw", "aipw"):
            row = ate[f"mi-{method}"]
            est = tau_mi(d, method, opts)
            assert (row["estimate"], row["se"], row["ci_lo"], row["ci_hi"]) == \
                (est.tau, est.se, *est.ci)
            alone = bootstrap_ci(
                lambda b: tau_mi(b, method, opts, with_se=False).tau, d, 5, 0)
            assert (row["boot_se"], row["boot_lo"], row["boot_hi"],
                    row["boot_failures"]) == (alone.se, *alone.ci, alone.failures)

    def test_point_estimates_impute_once(self, data, tmp_path, monkeypatch):
        imputations = counted(monkeypatch, cli, "impute_pmm")
        self.fit_json(data, tmp_path, "mi-or,cc-or,mi-ipw,mi-aipw", "--mi-m", "3")
        assert len(imputations) == 1

    def test_full_data_fit_is_freed_before_the_bootstrap(self, data, tmp_path,
                                                         monkeypatch):
        """The full-data fit holds the Design of the whole dataset; the
        bootstrap's resamples must not have to fit beside it."""
        fits = []
        original_fit = cli.fit_wee

        def fit_and_watch(*args, **kwargs):
            fitted = original_fit(*args, **kwargs)
            fits.append(weakref.ref(fitted))
            return fitted

        alive = []
        original_boot = cli.bootstrap_ci

        def boot(*args, **kwargs):
            if not alive:
                alive.append(fits[0]() is not None)
            return original_boot(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_wee", fit_and_watch)
        monkeypatch.setattr(cli, "bootstrap_ci", boot)
        self.fit_json(data, tmp_path, "wee-or,wee-dr", "--bootstrap", "2")
        assert alive == [False]


def assert_close(count, copy, what):
    np.testing.assert_allclose(count, copy, rtol=1e-12, atol=0, err_msg=what)


class TestCountsEqualCopies:
    """A bootstrap resample read as counts on the full-data Design gives
    what the same code gives on the copy d.subset(idx): each of the 20
    resamples of the 400-row fixture, bootstrap seed 0."""

    def test_fit_and_every_estimator(self, data):
        d = load(data)
        spec = ModelSpec.default_for(d.schema)
        dz = Design(d, spec, default_G(spec, d.schema))
        failed = set()
        for b in range(20):
            idx = mnarcause.resample(d.n, np.random.SeedSequence((0, b)))
            count, copy = dz.resampled(idx), d.subset(idx)
            assert count.n == copy.n and len(count.counts) < copy.n
            try:
                by_copy = fit_wee(copy)
            except MnarError as err:
                with pytest.raises(type(err)):
                    fit_wee(count)
                failed.add(b)
                continue
            by_count = fit_wee(count)
            for name in ("alpha", "gamma", "beta"):
                assert_close(getattr(by_count, name).coefficients,
                             getattr(by_copy, name).coefficients, f"{b} {name}")
            assert_close(by_count.beta.phi, by_copy.beta.phi, f"{b} phi")
            cov = by_copy.covariance
            assert_close(np.diag(by_count.covariance), np.diag(cov), f"{b} var")
            # off the diagonal, to 1e-12 of the largest entry: some covariances
            # cancel to near zero
            np.testing.assert_allclose(by_count.covariance, cov, rtol=0,
                                       atol=1e-12 * np.abs(cov).max())
            dc, dp = by_count.diagnostics, by_copy.diagnostics
            assert dc.stage1_iterations == dp.stage1_iterations
            assert dc.stage1_restarts == dp.stage1_restarts
            assert_close([dc.min_fitted_m, dc.max_fitted_m, dc.max_weight],
                         [dp.min_fitted_m, dp.max_fitted_m, dp.max_weight],
                         f"{b} diagnostics")
            for fn in (tau_wee_or, tau_wee_ipw, tau_wee_dr):
                ec, ep = fn(by_count), fn(by_copy)
                assert_close([ec.tau, ec.se], [ep.tau, ep.se], f"{b} {fn.__name__}")
            for method in ("or", "ipw", "aipw"):
                ec, ep = tau_cc(count, method), tau_cc(copy, method)
                assert_close([ec.tau, ec.se], [ep.tau, ep.se], f"{b} cc-{method}")
        assert failed == {11, 14}


def failing_run(capsys, argv):
    """(exit code, error symbol, message) of a run that fails; its standard
    error must be exactly one code=<symbol> message=<text> line."""
    code = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    match = re.fullmatch(r"code=(\w+) message=(.+)", lines[0])
    assert match, lines[0]
    return code, match[1], match[2]


def steep_propensity_csv(path):
    """Treatment nearly determined by c1, plus one treated complete row far
    on the control side: the weighted propensity of that row is below 1e-4,
    so WEE-IPW passes the 1e4 cap while WEE-OR does not divide by it."""
    rng = np.random.default_rng(0)
    n = 300
    c1 = rng.normal(-0.5, 1.0, n)
    a = (rng.random(n) < expit(12.0 * c1)).astype(float)
    y = 0.5 + 1.5 * a - 0.5 * c1 + rng.normal(size=n)
    r = rng.random(n) < expit(0.5 + c1 + y)
    c1[0], a[0], y[0], r[0] = -2.0, 1.0, 3.0, True
    d = Dataset(a, y, np.where(r, c1, np.nan)[:, None], Schema("a", "y", ("c1",), "c1"))
    path.write_text(emit_csv(d))
    return path


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert failing_run(capsys, [])[:2] == (1, "BadConfig")

    def test_unknown_estimator_is_1(self, capsys, data):
        code, symbol, message = failing_run(
            capsys, ["fit", "--data", str(data), *COLUMNS, "--estimators", "wee-xx"])
        assert (code, symbol) == (1, "BadConfig") and "wee-xx" in message

    @pytest.mark.parametrize("command", [
        ["fit", "--data", "x.csv", *COLUMNS],
        ["simulate", "--scenario", "ocpc"],
    ])
    def test_threads_flag_is_gone(self, capsys, command):
        code, symbol, message = failing_run(capsys, [*command, "--threads", "2"])
        assert (code, symbol) == (1, "BadConfig")
        assert "--threads" in message

    def test_threads_config_key_is_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("scenario=ocpc\nthreads=2\n")
        code, symbol, message = failing_run(
            capsys, ["simulate", "--config", str(config)])
        assert (code, symbol) == (1, "BadConfig") and "threads" in message

    @pytest.mark.parametrize("flag, message", [
        ("--mi-m", "two imputations"),
        ("--mi-k", "donor pool"),
    ])
    def test_zero_imputation_settings_are_rejected(self, capsys, tmp_path, data,
                                                   flag, message):
        # zero is a value, not an unset flag: it must not fall back to the
        # default, from the command line or from a config file
        base = ["fit", "--data", str(data), *COLUMNS, "--estimators", "mi-or"]
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag[2:].replace('-', '_')}=0\n")
        for extra in ([flag, "0"], ["--config", str(config)]):
            code, symbol, text = failing_run(capsys, [*base, *extra])
            assert (code, symbol) == (1, "BadConfig") and message in text

    def test_unreadable_data_is_2(self, capsys, tmp_path):
        code, symbol, _ = failing_run(
            capsys, ["fit", "--data", str(tmp_path / "absent.csv"), *COLUMNS])
        assert (code, symbol) == (2, "BadValue")

    @pytest.mark.parametrize("content, message", [
        (b"a,y,c1\r1,2.5,0.5\r0,-1,\r",
         "malformed CSV: new-line character seen in unquoted field"),
        (b"a,y,c1\n1,2.5,0.5\n0,-1,\xff\n", "not UTF-8: byte 0xff at offset 22"),
    ], ids=["bare CR line breaks", "byte 0xff"])
    def test_unsplittable_data_is_2(self, capsys, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        assert failing_run(capsys, ["fit", "--data", str(path), *COLUMNS]) == (
            2, "BadValue", message)

    def test_repeated_role_column_is_2(self, capsys, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("a,y,c1,c1\n1,2.0,0.5,0.7\n0,1.0,,0.2\n")
        code, symbol, message = failing_run(
            capsys, ["fit", "--data", str(path), *COLUMNS])
        assert (code, symbol) == (2, "SchemaMismatch") and "'c1'" in message

    def test_no_missing_rows_is_3(self, capsys, tmp_path):
        d, truth = generate_table1("continuous", 200, 7)
        full = Dataset(d.a, d.y, truth.confounders, d.schema)
        path = tmp_path / "full.csv"
        path.write_text(emit_csv(full))
        code, symbol, _ = failing_run(capsys, ["fit", "--data", str(path), *COLUMNS])
        assert (code, symbol) == (3, "MissingnessDegenerate")

    def test_extreme_propensity_weight_is_4(self, capsys, tmp_path):
        path = steep_propensity_csv(tmp_path / "steep.csv")
        base = ["fit", "--data", str(path), *COLUMNS, "--estimators"]
        assert main([*base, "wee-or"]) == 0
        capsys.readouterr()
        code, symbol, message = failing_run(capsys, [*base, "wee-ipw"])
        assert (code, symbol) == (4, "ExtremeWeight") and "1/H" in message

    def test_equivalence_violation_is_5(self, capsys):
        code, symbol, _ = failing_run(
            capsys, ["example1-check", "--alpha1-prime", "1"])
        assert (code, symbol) == (5, "EquivalenceViolated")

    def test_success_writes_nothing_to_stderr(self, capsys):
        assert main(["example1-check"]) == 0
        assert capsys.readouterr().err == ""


SIMULATE = ["simulate", "--scenario", "ocpc", "--n", "60", "--reps", "1",
            "--estimators", "cc-or"]


def simulate_seed(capsys, argv) -> int:
    assert main(argv) == 0
    return int(re.search(r"seed=(\d+)", capsys.readouterr().out)[1])


class TestSeedPrecedence:
    """Flag, then config file, then MNAR_SEED, then 0."""

    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# study seed\nseed=7\n")
        return str(path)

    def test_flag_wins(self, capsys, monkeypatch, config):
        monkeypatch.setenv("MNAR_SEED", "9")
        argv = [*SIMULATE, "--config", config, "--seed", "3"]
        assert simulate_seed(capsys, argv) == 3

    def test_config_before_environment(self, capsys, monkeypatch, config):
        monkeypatch.setenv("MNAR_SEED", "9")
        assert simulate_seed(capsys, [*SIMULATE, "--config", config]) == 7

    def test_environment_before_default(self, capsys, monkeypatch):
        monkeypatch.setenv("MNAR_SEED", "9")
        assert simulate_seed(capsys, SIMULATE) == 9

    def test_default_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("MNAR_SEED", raising=False)
        assert simulate_seed(capsys, SIMULATE) == 0

    def test_bad_environment_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MNAR_SEED", "seven")
        assert failing_run(capsys, SIMULATE)[:2] == (1, "BadConfig")


class TestSimulateReports:
    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sim") / "study.csv"
        code = main(["simulate", "--scenario", "ocpc", "--n", "200", "--reps",
                     "3", "--estimators", "wee-or,cc-or", "--seed", "4",
                     "--mi-m", "2", "--out", str(out)])
        assert code == 0
        return out

    def test_metrics_report(self, written):
        rows = list(csv.reader(io.StringIO(written.read_text())))
        assert rows[0] == ["scenario", "method", "target", "metric", "value"]
        metrics = ["bias", "std", "mean_se", "coverage", "successes", "failures"]
        assert [r[:4] for r in rows[1:]] == [
            ["ocpc", m, "ate", k] for m in ("wee-or", "cc-or") for k in metrics]
        report = run_monte_carlo(ScenarioConfig(
            scenario="ocpc", n=200, replications=3, seed=4,
            estimators=("wee-or", "cc-or"), mi_m=2))
        want = [float(getattr(tm, k)) for tm in report.metrics for k in metrics]
        assert [float(r[4]) for r in rows[1:]] == want

    def test_raw_report_sits_next_to_it(self, written):
        raw = written.with_name("study_raw.csv")
        rows = list(csv.reader(io.StringIO(raw.read_text())))
        assert rows[0] == ["scenario", "method", "replication", "estimate"]
        assert [r[:3] for r in rows[1:]] == [
            ["ocpc", m, str(i)] for i in range(3) for m in ("wee-or", "cc-or")]
        metrics = {r[1]: r for r in csv.reader(io.StringIO(written.read_text()))
                   if r[3] == "bias"}
        for method in ("wee-or", "cc-or"):
            ests = [float(r[3]) for r in rows[1:] if r[1] == method]
            assert np.mean(ests) - 3.0 == pytest.approx(
                float(metrics[method][4]), abs=1e-12)

    def test_json_report_keeps_a_csv_raw_file(self, tmp_path):
        """The raw file is CSV whatever the report's format, and its name
        says so."""
        out = tmp_path / "study.json"
        code = main(["simulate", "--scenario", "ocpc", "--n", "60", "--reps",
                     "1", "--estimators", "cc-or", "--seed", "4",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["scenario"] == "ocpc"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "study.json", "study_raw.csv"]
        rows = list(csv.reader(io.StringIO(
            (tmp_path / "study_raw.csv").read_text())))
        assert rows[0] == ["scenario", "method", "replication", "estimate"]
        assert [r[:3] for r in rows[1:]] == [["ocpc", "cc-or", "0"]]


class TestMethodFailingEveryReplication:
    """mi-k 400 exceeds the complete cases of every 200-row replication, so
    mi-or fails (TooFewDonors) in all three; its row must still be
    reported, with its failures and without metrics."""

    ARGV = ["simulate", "--scenario", "ocpc", "--n", "200", "--reps", "3",
            "--mi-k", "400", "--seed", "1"]

    def test_report_keeps_the_method(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main([*self.ARGV, "--out", str(out)]) == 0
        rows = {(r[1], r[3]): r[4] for r in csv.reader(io.StringIO(out.read_text()))}
        assert [rows[("mi-or", k)] for k in
                ("bias", "std", "mean_se", "coverage", "successes", "failures")] == \
            ["", "", "", "", "0", "3"]
        assert rows[("wee-or", "successes")] == "3"
        table = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
        assert table["mi-or"] == f"{'mi-or':<10}{'ate':<8}{'':40}{3:6d}"

    def test_json_report_has_nulls(self, tmp_path):
        out = tmp_path / "r.json"
        assert main([*self.ARGV, "--format", "json", "--out", str(out)]) == 0
        metrics = {m["method"]: m for m in json.loads(out.read_text())["metrics"]}
        assert metrics["mi-or"] == {
            "method": "mi-or", "target": "ate", "truth": 3.0, "bias": None,
            "std": None, "mean_se": None, "coverage": None, "successes": 0,
            "failures": 3}

    def test_metrics_are_nan_floats(self):
        report = run_monte_carlo(ScenarioConfig(
            scenario="ocpc", n=200, replications=3, seed=1, mi_k=400))
        tm = {tm.method: tm for tm in report.metrics}["mi-or"]
        assert all(isinstance(x, float) and np.isnan(x)
                   for x in (tm.bias, tm.std, tm.mean_se, tm.coverage))
        assert (tm.successes, tm.failures) == (0, 3)
        assert [tm.method for tm in report.metrics] == list(ScenarioConfig(
            scenario="ocpc").estimators)


def test_import_loads_no_scipy():
    """The package needs numpy alone; scipy serves only the tests as an
    oracle. Importing the package and its command line must not load it."""
    src = os.path.dirname(os.path.dirname(mnarcause.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, mnarcause, mnarcause.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("case", ["table1", "failing-ocpc"])
def test_fit_without_bootstrap_loads_no_random_module(data, tmp_path, case):
    """numpy.random, and OpenSSL's _hashlib which it pulls in through
    secrets, cost a cold fit about 6 MB of memory; only the bootstrap and
    MI draw random numbers. Stage one draws none, also where it fails, as
    on generate_table2("ocpc", 2000, 1), where the fit exits 3."""
    columns, code = COLUMNS, 0
    estimators = "wee-or,wee-ipw,wee-dr,cc-or,cc-ipw,cc-aipw"
    if case == "failing-ocpc":
        data = tmp_path / "ocpc.csv"
        data.write_text(emit_csv(generate_table2("ocpc", 2000, 1)[0]))
        columns = ["--treatment", "a", "--outcome", "y", "--confounders", "c1,c2",
                   "--missing", "c1"]
        estimators, code = "wee-or,wee-ipw,wee-dr", 3
    src = os.path.dirname(os.path.dirname(mnarcause.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["fit", "--data", str(data), *columns, "--estimators", estimators,
            "--out", str(tmp_path / "report.csv")]
    probe = ("import sys; from mnarcause.cli import main; "
             f"code = main({argv!r}); "
             "print(code, [m for m in ('numpy.random', '_hashlib') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == f"{code} []"
