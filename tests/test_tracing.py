"""The benchmark's tracer patches package functions where the calling
modules look them up. A lookup that a change renames or removes would
fail only inside a traced benchmark run; this test installs every layer
and takes it out again, reading perfbench/tracing.py in place."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_layers_then_uninstall_restores_every_attribute(monkeypatch):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        patched = list(tracer._undo)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original, (module.__name__, attr)
    finally:
        tracer.uninstall()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, (module.__name__, attr)


def test_result_hooks_read_the_fit_and_the_study(monkeypatch):
    # the hooks read FitDiagnostics and MonteCarloReport fields by name; a
    # rename would raise inside the traced call
    from mnarcause import generate_table1, simlab, wee

    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        fitted = wee.fit_wee(generate_table1("continuous", 400, 7)[0])
        report = simlab.run_monte_carlo(simlab.ScenarioConfig(
            scenario="ocpc", n=2000, replications=1, seed=3))
    finally:
        tracer.uninstall()
    diagnostics = fitted.diagnostics
    assert diagnostics.stage1_iterations > 0
    # the study's fits have alpha known, so stage one is the first fit's alone
    assert tracer.counts["wee.stage1_iters"] == diagnostics.stage1_iterations
    assert tracer.counts["wee.stage1_restarts"] == diagnostics.stage1_restarts
    assert tracer.calls["wee.fit_wee"] == 2
    assert tracer.counts["simlab.rep_failures"] == (
        report.replications * len(simlab.TABLE2_METHODS) - len(report.raw))
    metrics = tracing.layer_metrics(tracer)
    assert metrics["wee.stage1_iters"] == (diagnostics.stage1_iterations, "count")
