"""Record the reference outputs that every benchmark op is checked against.

Usage, from the root of a source checkout:

    python3 perfbench/record.py [workload ...]

Runs each instance slot of each named workload (all by default) once and
writes ``perfbench/reference/<workload>.json`` (change points, segment
verdicts, eta, rss, the bench table and an output digest per slot) and,
where the op yields a cleaned signal, ``<workload>.npz``.  Re-record only
when a change to the outputs is intended and explained.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from run import BENCH_DIR, ROOT, import_library, set_up


def record(name: str) -> None:
    import workloads

    workload = workloads.make(name)
    (BENCH_DIR / "work").mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"record-{name}-", dir=BENCH_DIR / "work")
    slots, arrays = [], {}
    try:
        set_up(workload, work_dir)
        for slot in range(workload.slots):
            outcome = workload.check(slot, workload.run(slot, work_dir), work_dir)
            workload.cleanup(slot, work_dir)
            if outcome.summary is None or outcome.problems:
                raise SystemExit(f"{name} slot {slot}: {outcome.problems}")
            slots.append(outcome.summary)
            if outcome.cleaned is not None:
                arrays[f"cleaned-{slot}"] = outcome.cleaned
            print(f"{name} slot {slot}: seed {outcome.summary['seed']} rss {outcome.summary['rss']}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    out = BENCH_DIR / "reference"
    out.mkdir(exist_ok=True)
    doc = {"workload": name, "commit": commit, "rel_tol": workloads.REL_TOL, "slots": slots}
    with open(out / f"{name}.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    if arrays:
        np.savez_compressed(out / f"{name}.npz", **arrays)


def main(argv) -> int:
    import_library()
    import workloads

    for name in argv or workloads.NAMES:
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
