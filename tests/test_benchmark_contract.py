"""The benchmark calls into lidkit: its tracer wraps functions by name and
its own tests call back-end and network functions directly. A rename,
deletion or signature change here would make benchmark runs fail, so
check both from the test suite."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
TRACING = BENCHMARK / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [
        f"lidkit.{module}.{func}"
        for module, func, _ in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"lidkit.{module}"), func, None))
    ]
    assert missing == []


def test_benchmark_checks_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "test_checks.py", "-q", "-p", "no:cacheprovider"],
        cwd=BENCHMARK, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
