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
