"""Closed-loop benchmark of the lcdsc package, one workload per process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload clean-short-k100 --seed 1 --seconds 36 --trace 0

One caller runs ops back to back; each op starts after the previous one
returned.  Ops run in whole passes over the workload's instance slots
(see ``workloads.py``): the first pass always runs, and another starts
only while a pass as long as the last still fits in ``--seconds``.  Every op's output is checked against the references
in ``perfbench/reference`` and against the decomposition's invariants; a
raised exception or a failed check counts the op as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` installs the
span wrappers of ``tracing.py``, reports the per-layer metrics and writes
the spans to ``perfbench/out``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print each metric with its unit and
sample count.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SETUP_REPEATS = 3


def import_library():
    """Import lcdsc from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lcdsc
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import lcdsc from {src}: {exc}")
    if src not in Path(lcdsc.__file__).resolve().parents:
        raise SystemExit(f"perfbench: lcdsc was imported from {lcdsc.__file__}, not {src}")


def _warm_up() -> None:
    """One tiny pipeline run, so the first timed op pays no first-call costs."""
    from lcdsc import EmdConfig, LcdscConfig, LocalSignalSpec, lcdsc_clean, local_doppler

    noisy, _, _ = local_doppler(LocalSignalSpec(512, 200, 300, 0.2, 0))
    lcdsc_clean(noisy, LcdscConfig(emd=EmdConfig(ensemble_size=2)))


def set_up(workload, work_dir: str) -> None:
    workload.setup(work_dir)
    _warm_up()


def _setup_seconds(args) -> list[float]:
    """Wall time of fresh interpreters that import, build the inputs and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", "--cli-threads", str(args.cli_threads)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def _load_reference(name: str):
    with open(BENCH_DIR / "reference" / f"{name}.json") as fh:
        doc = json.load(fh)
    arrays = {}
    npz = BENCH_DIR / "reference" / f"{name}.npz"
    if npz.exists():
        with np.load(npz) as data:
            arrays = {int(key.split("-")[1]): data[key] for key in data.files}
    return doc["slots"], arrays


def _slot_order(seed: int, slots: int) -> list[int]:
    return [int(k) for k in np.random.default_rng(seed).permutation(slots)]


def _run_op(workload, slot, i, work_dir, ref, ref_cleaned, tracer) -> dict:
    """Run, time and check op ``i`` on ``slot``; return its record."""
    from workloads import Outcome, compare

    run = workload.run
    if tracer is not None:
        tracer.op = i
        run = tracer.wrap(run, "op", None)
    error = output = None
    start = time.perf_counter()
    try:
        output = run(slot, work_dir)
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    record = {"op": i, "slot": slot, "seconds": elapsed, "problems": [], "counts": {}}
    if error is not None:
        record["problems"].append(error)
    else:
        try:
            outcome = workload.check(slot, output, work_dir)
        except Exception as exc:  # e.g. an output file the op should have written
            outcome = Outcome(None, [f"check raised {type(exc).__name__}: {exc}"])
        record["problems"] += outcome.problems
        record["counts"] = outcome.counts
        if outcome.summary is not None:
            record["problems"] += compare(outcome.summary, ref, outcome.cleaned, ref_cleaned)
            record["rss"] = outcome.summary["rss"]
            record["bit_identical"] = outcome.summary["digest"] == ref["digest"]
    workload.cleanup(slot, work_dir)
    for problem in record["problems"]:
        print(f"op {i} (slot {slot}): {problem}", file=sys.stderr)
    return record


def _run_ops(workload, order, seconds, work_dir, refs, ref_cleaned, tracer) -> list[dict]:
    """The closed loop, in whole passes over the slots.  One record per op.

    The first pass always runs; another starts only if a pass as long as
    the last one still fits in ``seconds`` of op time.  Whole passes keep
    every slot equally often in the medians, whatever the seed.
    """
    records = []
    spent = last_pass = 0.0
    while not records or spent + last_pass <= seconds:
        pass_start = spent
        for slot in order:
            record = _run_op(workload, slot, len(records), work_dir, refs[slot],
                             ref_cleaned.get(slot), tracer)
            records.append(record)
            spent += record["seconds"]
        last_pass = spent - pass_start
    return records


def _end_to_end(workload, records, setup_times) -> dict[str, tuple[float, int]]:
    """Each end-to-end metric as (value, sample count)."""
    times = [r["seconds"] for r in records]
    rss_by_slot = {r["slot"]: statistics.fmean(r["rss"]) for r in records if "rss" in r}
    failed = sum(1 for r in records if r["problems"])
    n = len(records)
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "op_p50_s": (statistics.median(times), n),
        "throughput_samples_per_s": (workload.samples_per_op * n / sum(times), n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "fail_ratio": (failed / n, n),
        "rss_mean": (
            statistics.fmean(rss_by_slot.values()) if rss_by_slot else float("nan"),
            len(rss_by_slot),
        ),
    }


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name to unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _write_trace(workload, seed, tracer, records, per_op, layers) -> Path:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{seed}.json.gz"
    doc = {
        "workload": workload.name,
        "seed": seed,
        "layers": layers,
        "ops": [
            {"op": r["op"], "slot": r["slot"], "seconds": r["seconds"], "counts": per_op[r["op"]]}
            for r in records
        ],
        "span_fields": list(tracing.Span._fields),
        "spans": [list(s) for s in tracer.spans],
    }
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cli-threads", type=int, default=2,
                        help="LCDSC_THREADS for cli-long-k12 (the workload uses 2)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.NAMES}")
    workload = workloads.make(args.workload, args.cli_threads)

    (BENCH_DIR / "work").mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / "work")
    try:
        if args.setup_only:
            set_up(workload, work_dir)
            return 0
        setup_times = [] if args.trace else _setup_seconds(args)
        set_up(workload, work_dir)
        refs, ref_cleaned = _load_reference(workload.name)
        order = _slot_order(args.seed, workload.slots)

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            records = _run_ops(workload, order, args.seconds, work_dir, refs, ref_cleaned, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        per_op = tracing.op_counts(tracer.spans)
        for r in records:
            counts = per_op.setdefault(r["op"], {})
            counts.update(r["counts"])
            # the ensemble trials an op must run: a check on the wrappers themselves
            if counts.get("emd.trial.calls", 0) != workload.trials_per_op:
                r["problems"].append(f"traced {counts.get('emd.trial.calls', 0)} ensemble "
                                     f"trials, expected {workload.trials_per_op}")
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  ops {attempted}")
    print("  op seconds (slot): " + "  ".join(f"{r['seconds']:.3f} ({r['slot']})" for r in records))
    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, per_op)
        units = _declared_units("per_layer")
        for name, value in layers.items():
            print(f"  {name:34s} {value:14.6g} {units.get(name, '?'):9s} per op, n={attempted}")
        tested = sum(c.get("inference.tested", 0) for c in per_op.values())
        significant = sum(c.get("inference.significant", 0) for c in per_op.values())
        print(f"  inference.significant_ratio base: {significant} of {tested} tested segments")
        path = _write_trace(workload, args.seed, tracer, records, per_op, layers)
        print(f"  spans written to {path.relative_to(ROOT)}")
        values = layers
    else:
        e2e = _end_to_end(workload, records, setup_times)
        units = _declared_units("end_to_end")
        for name, (value, n) in e2e.items():
            print(f"  {name:26s} {value:14.6g} {units.get(name, 'ratio'):9s} n={n}")
        identical = sum(1 for r in records if r.get("bit_identical"))
        print(f"  bit-identical to the reference: {identical} of {attempted} ops (information only)")
        # fail_ratio travels as failed/attempted: it is 0 when all is well
        values = {name: value for name, (value, _) in e2e.items() if name != "fail_ratio"}
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not "
                         "match BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
