"""Per-layer spans and counts for the traced run.

The tracer wraps public functions of mnarcause where the calling modules
look them up (for example `estimators.sandwich_covariance` as well as
`solver.sandwich_covariance`), so nothing inside the package changes.
Spans nest: each span's self time is its duration minus the time of the
spans it encloses. A layer's inclusive time counts only its outermost
span, so a layer that calls itself is not counted twice.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._open = Counter()
        self._stack = []  # one [child seconds] cell per open span
        self._undo = []

    def wrap(self, span: str, fn, on_result=None, on_error=None):
        def traced(*args, **kwargs):
            self.calls[span] += 1
            self._open[span] += 1
            cell = [0.0]
            self._stack.append(cell)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(self, err)
                raise
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self._open[span] -= 1
                if self._open[span] == 0:
                    self.inclusive[span] += dt
                self.self_time[span] += dt - cell[0]
                if self._stack:
                    self._stack[-1][0] += dt
            if on_result is not None:
                on_result(self, out)
            return out
        return traced

    def install(self, span: str, owner, attr: str, lookups, on_result=None,
                on_error=None):
        """Replace owner.attr by a traced wrapper in owner and in every module
        of lookups that imported it by name."""
        wrapped = self.wrap(span, getattr(owner, attr), on_result, on_error)
        for module in (owner, *lookups):
            self._undo.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


def install_layers(tracer: Tracer):
    """Spans at each layer boundary of mnarcause, named <module>.<layer>."""
    from mnarcause import cli, data, estimators, glm, simlab, solver, wee
    from mnarcause.errors import MnarError

    def fit_done(t, fitted):
        t.counts["wee.stage1_iters"] += fitted.diagnostics.stage1_iterations
        t.counts["wee.stage1_restarts"] += fitted.diagnostics.stage1_restarts

    def fit_failed(t, err):
        if isinstance(err, MnarError):
            t.counts["wee.fit_failures"] += 1

    def boot_done(t, result):
        t.counts["estimators.boot_failures"] += result.failures

    def mc_done(t, report):
        # the benchmark runs the Table-2 scenarios with their default methods
        expected = report.replications * len(simlab.TABLE2_METHODS)
        t.counts["simlab.rep_failures"] += expected - len(report.raw)

    tracer.install("cli", cli, "main", [])
    tracer.install("data.load_csv", data, "load_csv", [cli])
    tracer.install("data.resample", data, "resample", [estimators])
    tracer.install("glm.fit_model", glm, "fit_model", [wee, estimators])
    tracer.install("glm.design_matrix", glm, "design_matrix", [wee, estimators])
    tracer.install("solver.solve_root", solver, "solve_root", [wee])
    tracer.install("solver.numeric_jacobian", solver, "numeric_jacobian", [])
    tracer.install("solver.average_psi", solver, "average_psi", [])
    tracer.install("solver.sandwich", solver, "sandwich_covariance", [estimators])
    tracer.install("wee.fit_wee", wee, "fit_wee", [cli, simlab],
                   on_result=fit_done, on_error=fit_failed)
    for name in ("tau_wee_or", "tau_wee_ipw", "tau_wee_dr"):
        tracer.install("estimators.tau_wee", estimators, name, [cli, simlab])
    tracer.install("estimators.tau_cc", estimators, "tau_cc", [cli, simlab])
    tracer.install("estimators.impute_pmm", estimators, "impute_pmm", [])
    tracer.install("estimators.tau_mi", estimators, "tau_mi", [cli, simlab])
    tracer.install("estimators.bootstrap_ci", estimators, "bootstrap_ci", [cli],
                   on_result=boot_done)
    tracer.install("simlab.generate", simlab, "generate_table1", [])
    tracer.install("simlab.generate", simlab, "generate_table2", [])
    tracer.install("simlab.run_monte_carlo", simlab, "run_monte_carlo", [cli],
                   on_result=mc_done)


# (metric name, span) pairs; a time is the span's inclusive time
TIMES = (
    ("data.load_csv_s", "data.load_csv"),
    ("data.resample_s", "data.resample"),
    ("glm.fit_model_s", "glm.fit_model"),
    ("glm.design_matrix_s", "glm.design_matrix"),
    ("solver.solve_root_s", "solver.solve_root"),
    ("solver.numeric_jacobian_s", "solver.numeric_jacobian"),
    ("solver.sandwich_s", "solver.sandwich"),
    ("wee.fit_wee_s", "wee.fit_wee"),
    ("estimators.tau_wee_s", "estimators.tau_wee"),
    ("estimators.tau_cc_s", "estimators.tau_cc"),
    ("estimators.impute_pmm_s", "estimators.impute_pmm"),
    ("estimators.tau_mi_s", "estimators.tau_mi"),
    ("estimators.bootstrap_ci_s", "estimators.bootstrap_ci"),
    ("simlab.generate_s", "simlab.generate"),
    ("simlab.run_monte_carlo_s", "simlab.run_monte_carlo"),
)
CALLS = (
    ("data.resample_calls", "data.resample"),
    ("glm.fit_model_calls", "glm.fit_model"),
    ("glm.design_matrix_calls", "glm.design_matrix"),
    ("solver.solve_root_calls", "solver.solve_root"),
    ("solver.numeric_jacobian_calls", "solver.numeric_jacobian"),
    ("solver.psi_evals", "solver.average_psi"),
    ("solver.sandwich_calls", "solver.sandwich"),
    ("wee.fit_wee_calls", "wee.fit_wee"),
    ("estimators.tau_cc_calls", "estimators.tau_cc"),
    ("estimators.impute_pmm_calls", "estimators.impute_pmm"),
)
COUNTS = ("wee.stage1_iters", "wee.stage1_restarts", "wee.fit_failures",
          "estimators.boot_failures", "simlab.rep_failures")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced operation, as (value, unit) pairs."""
    out = {"cli.self_s": (tracer.self_time["cli"], "s")}
    for metric, span in TIMES:
        out[metric] = (tracer.inclusive[span], "s")
    for metric, span in CALLS:
        out[metric] = (tracer.calls[span], "count")
    for metric in COUNTS:
        out[metric] = (tracer.counts[metric], "count")
    return out


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)")


def import_times(env: dict, probes: int = 3) -> dict:
    """Median over fresh interpreters of `python -X importtime`: the
    cumulative time of `import mnarcause`, and the self time of every numpy
    and every scipy module it loads."""
    samples = defaultdict(list)
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mnarcause"],
            env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import mnarcause failed: {proc.stderr[-500:]}")
        total = None
        numpy_s = scipy_s = 0.0
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if not m:
                continue
            self_us, cum_us, module = int(m[1]), int(m[2]), m[3]
            if module == "mnarcause":
                total = cum_us * 1e-6
            if module == "numpy" or module.startswith("numpy."):
                numpy_s += self_us * 1e-6
            if module == "scipy" or module.startswith("scipy."):
                scipy_s += self_us * 1e-6
        if total is None:
            raise RuntimeError("no import time recorded for mnarcause")
        samples["import.total_s"].append(total)
        samples["import.numpy_s"].append(numpy_s)
        samples["import.scipy_s"].append(scipy_s)
    return {k: (statistics.median(v), "s") for k, v in samples.items()}
