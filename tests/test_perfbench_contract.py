"""The names and signatures the benchmark in ``perfbench/`` relies on.

``perfbench/tracing.py`` wraps every ``TRACE_POINTS`` entry by
``getattr`` on the named module, so a renamed or no longer imported name
would crash every traced run; ``perfbench/workloads.py`` calls
``lcdsc_clean`` and ``run_benchmark`` with ``workers=1``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from lcdsc import lcdsc_clean, run_benchmark

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, _, _ in module.TRACE_POINTS]


@pytest.mark.parametrize("module_name, attr", _trace_points())
def test_trace_point_resolves_to_a_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_workload_calls_bind():
    # the argument shapes of the clean-short-k100 and bench-grid-k12 calls
    inspect.signature(lcdsc_clean).bind("noisy", "config", workers=1)
    inspect.signature(run_benchmark).bind(
        "methods", "grid", 1, "seed", "config", workers=1
    )
