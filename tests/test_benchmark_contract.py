"""The benchmark's tracer wraps lidkit functions by name; a rename or
deletion here would make its ``--trace 1`` runs fail, so check that every
function it names still exists."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


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
