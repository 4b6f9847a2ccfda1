"""The names and signatures the benchmark in ``perfbench/`` relies on.

``perfbench/tracing.py`` wraps every ``TRACE_POINTS`` entry by
``getattr`` on the named module, so a renamed or no longer imported name
would crash every traced run.  Every ``perfbench/*.py`` file imports
names from ``lcdsc`` and reads attributes off the ``lcdsc`` modules it
imports; a deleted one would crash every benchmark run.
``perfbench/workloads.py`` calls ``lcdsc_clean`` and ``run_benchmark``
with ``workers=1``.  ``perfbench/run.py`` fails a traced op unless its
``emd.trial`` count equals the op's ensemble trials, so ``eemd`` calls
``emd`` once per trial and ``emd`` calls ``sift`` once per IMF, both
through the ``lcdsc.emd`` module globals.  ``cli-long-k12`` runs
``lcdsc simulate`` and ``lcdsc clean``, which accept only full flag names, and
``ingest`` reads its simulated CSV with NumPy's C reader.  That workload's
``peak_rss_mb`` is set by the benchmark's own CSV check (op 75-77 MB, check
82-84 MB), not by the op; a per-row read would still raise the op's memory.
The ``check`` of ``clean-short-k100`` and ``bench-grid-k12`` reads
attributes off ``CleaningReport`` and ``BenchResult`` records, so both
checks run here on small results.
"""

import argparse
import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from lcdsc import EmdConfig, LcdscConfig, LocalSignalSpec, lcdsc_clean, local_doppler, run_benchmark
from lcdsc import cli
from lcdsc.cli import build_parser
from lcdsc.simulation import METHOD_NAMES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    """The module ``perfbench/<name>.py``, loaded without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _trace_points():
    tracing = _perfbench_module("tracing")
    return [(module_name, attr) for module_name, attr, _, _ in tracing.TRACE_POINTS]


@pytest.mark.parametrize("module_name, attr", _trace_points())
def test_trace_point_resolves_to_a_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_traced_trials_and_sifts_are_counted():
    tracing = _perfbench_module("tracing")
    t = np.arange(300)
    noisy = np.sin(2 * np.pi * t / 25) + np.random.default_rng(0).normal(0, 0.3, t.size)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        lcdsc_clean(noisy, LcdscConfig(emd=EmdConfig(ensemble_size=3)))
    finally:
        tracer.uninstall()
    (counts,) = tracing.op_counts(tracer.spans).values()
    assert counts["emd.trial.calls"] == 3
    assert counts["emd.sift.iterations"] > 0
    # a trial's note is its IMF count; a sift that returned an IMF has a
    # note, one that stopped on a monotonic remainder has none
    widths = [s.note for s in tracer.spans if s.name == "emd.trial"]
    assert None not in widths
    assert sum(1 for s in tracer.spans if s.name == "emd.sift" and s.note is not None) == sum(widths)


def test_traced_benchmark_calls_the_wrapped_methods():
    # run_benchmark imports these per call, so the wrappers installed on
    # lcdsc.baselines and lcdsc.cleaning are what it calls
    tracing = _perfbench_module("tracing")
    config = LcdscConfig(emd=EmdConfig(ensemble_size=2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_benchmark(METHOD_NAMES, [(400, 0.3, 0.25)], 1, 5, config)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"baselines.oracle", "baselines.wht", "baselines.wit", "cleaning.clean"} <= names


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


def test_clean_short_check_reads_a_report(tmp_path):
    workloads = _perfbench_module("workloads")
    seed = 3
    noisy, truth, _ = local_doppler(LocalSignalSpec(400, 150, 250, 0.2, seed))
    workload = workloads.CleanShort()
    workload.inputs = [(seed, noisy, truth)]
    report = lcdsc_clean(noisy, LcdscConfig(emd=EmdConfig(ensemble_size=2, seed=seed)))
    assert report.decisions  # without one, the check reads no test attribute
    outcome = workload.check(0, report, str(tmp_path))
    assert isinstance(outcome, workloads.Outcome)
    assert outcome.summary and outcome.problems == []


def test_bench_grid_check_reads_results(tmp_path):
    workloads = _perfbench_module("workloads")
    workload = workloads.BenchGrid()
    workload.seeds = [5]
    config = LcdscConfig(emd=EmdConfig(ensemble_size=2))
    results = run_benchmark(METHOD_NAMES, [(400, 0.3, 0.25)], 1, 5, config)
    outcome = workload.check(0, results, str(tmp_path))
    assert isinstance(outcome, workloads.Outcome)
    assert outcome.summary and outcome.problems == []


def test_cli_long_input_takes_the_c_reader(tmp_path, monkeypatch):
    # a change to the CSV writer that sent this input to the per-row reader
    # would lose the workload's memory figures without failing an op
    workloads = _perfbench_module("workloads")
    monkeypatch.setenv("LCDSC_THREADS", "")  # restored after setup overwrites it
    workload = workloads.CliLong()
    workload.setup(str(tmp_path))

    def per_row_reader(*args):
        raise AssertionError("ingest ran its per-row reader")

    monkeypatch.setattr(cli, "_row_series", per_row_reader)
    for _, path, noisy, _ in workload.inputs:
        series = cli.ingest(path)
        assert series.samples.tobytes() == noisy.samples.tobytes()
        assert series.dt == noisy.dt


def test_workload_calls_bind():
    # the argument shapes of the clean-short-k100 and bench-grid-k12 calls
    inspect.signature(lcdsc_clean).bind("noisy", "config", workers=1)
    inspect.signature(run_benchmark).bind(
        "methods", "grid", 1, "seed", "config", workers=1
    )


def test_workload_flags_are_full_option_strings():
    (commands,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = set(commands["simulate"]._option_string_actions)
    options |= set(commands["clean"]._option_string_actions)
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    flags = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and isinstance(node.value, str) and node.value.startswith("--")}
    assert flags  # an empty scan would make the check vacuous
    assert flags <= options, sorted(flags - options)
