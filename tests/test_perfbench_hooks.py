"""The benchmark in perfbench/ reaches into the switch by name: its tracer
wraps public functions of every layer, and its self-test edits decoded
messages in place.  These tests keep a refactor from breaking either while
the rest of the suite stays green."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_hooked_name():
    from ofswitch import wire

    tracing = _load_tracer()
    original = wire.unpack
    tr = tracing.Tracer()
    tracing.install(tr)  # raises AttributeError if a wrapped name is gone
    try:
        assert wire.unpack.__wrapped__ is original
    finally:
        tr.uninstall()
    assert wire.unpack is original


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
