"""Slot 0 of every benchmark workload still matches its recorded reference.

Each case runs ``perfbench/workloads.py``'s own ``setup``, ``run`` and
``check`` on slot 0 and compares the summary with ``compare`` against
``perfbench/reference/``, as ``perfbench/run.py`` does for every op.  So
a change to the outputs that would fail the benchmark's check fails here
first.  The ``perfbench`` modules are loaded from their files, without
putting ``perfbench`` on the path.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def _reference(name, slot):
    """The recorded summary of ``slot`` and its cleaned signal, if one was recorded."""
    with open(PERFBENCH / "reference" / f"{name}.json") as fh:
        summary = json.load(fh)["slots"][slot]
    npz = PERFBENCH / "reference" / f"{name}.npz"
    if not npz.exists():
        return summary, None
    with np.load(npz) as arrays:
        return summary, arrays[f"cleaned-{slot}"]


@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_slot_zero_matches_the_reference(name, tmp_path, monkeypatch):
    monkeypatch.setenv("LCDSC_THREADS", "")  # restored after setup overwrites it
    workload = WORKLOADS.make(name)
    workload.setup(str(tmp_path))
    outcome = workload.check(0, workload.run(0, str(tmp_path)), str(tmp_path))
    assert outcome.summary is not None and outcome.problems == []
    ref, ref_cleaned = _reference(name, 0)
    assert WORKLOADS.compare(outcome.summary, ref, outcome.cleaned, ref_cleaned) == []
