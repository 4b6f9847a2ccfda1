"""The names and signatures the benchmark in ``perfbench/`` relies on.

``perfbench/tracing.py`` wraps every ``TRACE_POINTS`` entry by
``getattr`` on the named module, so a renamed or no longer imported name
would crash every traced run.  Every ``perfbench/*.py`` file imports
names from ``lcdsc`` and reads attributes off the ``lcdsc`` modules it
imports; a deleted one would crash every benchmark run.
``perfbench/workloads.py`` calls ``lcdsc_clean`` and ``run_benchmark``
with ``workers=1``.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from lcdsc import lcdsc_clean, run_benchmark

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, _, _ in module.TRACE_POINTS]


@pytest.mark.parametrize("module_name, attr", _trace_points())
def test_trace_point_resolves_to_a_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def _from_import(module_name, name):
    """What ``from module_name import name`` binds, or None if it would fail."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module_name}.{name}")  # a submodule
    except ModuleNotFoundError:
        return None


def _perfbench_names():
    """(file, statement) for each lcdsc name a perfbench file imports or reads.

    A statement is ``from m import name``, or ``m.name`` where ``m`` is
    bound to an ``lcdsc`` module by ``import`` or ``from ... import``.
    """
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> the lcdsc module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "lcdsc":
                        modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lcdsc":
                for alias in node.names:
                    found.add((path.name, f"from {node.module} import {alias.name}"))
                    value = _from_import(node.module, alias.name)
                    if inspect.ismodule(value):
                        modules[alias.asname or alias.name] = value.__name__
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found.add((path.name, f"{modules[node.value.id]}.{node.attr}"))
    return sorted(found)


PERFBENCH_NAMES = _perfbench_names()


def test_perfbench_imports_are_found():
    # an empty scan would make the check below vacuous
    assert {"run.py", "workloads.py"} <= {path for path, _ in PERFBENCH_NAMES}


@pytest.mark.parametrize("path, statement", PERFBENCH_NAMES)
def test_perfbench_name_exists(path, statement):
    if statement.startswith("from "):
        _, module_name, _, name = statement.split()
        assert _from_import(module_name, name) is not None, f"{path}: {statement}"
    else:
        module_name, name = statement.rsplit(".", 1)
        assert hasattr(importlib.import_module(module_name), name), f"{path}: {statement}"


def test_workload_calls_bind():
    # the argument shapes of the clean-short-k100 and bench-grid-k12 calls
    inspect.signature(lcdsc_clean).bind("noisy", "config", workers=1)
    inspect.signature(run_benchmark).bind(
        "methods", "grid", 1, "seed", "config", workers=1
    )
