"""Write the traced layer breakdown of every workload to ``perfbench/results``.

Usage, from the root of a source checkout:

    python3 perfbench/breakdown.py

For each workload it runs the benchmark untraced and traced with seed
``SEED``, and reports each layer's busy time as a share of the traced op
time, with that base.  The tracing overhead is the traced ``op_p50_s``
minus the untraced one.  It also compares ``cli-long-k12`` on the
workload's 2 EEMD threads against 1 thread, over ``PAIRS`` alternating
pairs of one-pass runs; it calls either side faster only if it wins
``WINS_NEEDED`` pairs by more than the other side's interquartile range.
"""

from __future__ import annotations

import gzip
import json
import statistics
import subprocess
import sys

from run import BENCH_DIR, ROOT, import_library

SEED = 1
PAIRS = 10
WINS_NEEDED = 9

SHARES = (
    "emd.eemd.busy_s",
    "emd.sift.self_s",
    "emd.find_extrema.busy_s",
    "changepoint.detect.busy_s",
    "spectral.amplitude.busy_s",
    "inference.f_test.busy_s",
    "inference.holm.busy_s",
    "cleaning.self_s",
    "cleaning.clean_imf.busy_s",
    "baselines.oracle.busy_s",
    "baselines.wht.busy_s",
    "baselines.wit.busy_s",
    "simulation.instance.busy_s",
    "simulation.run_benchmark.self_s",
    "cli.ingest.busy_s",
    "cli.main.self_s",
)


def bench(workload: str, seed: int, trace: int, seconds: float = 36, threads: int = 2) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--cli-threads", str(threads)],
        check=True, capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def _iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _thread_verdict(threads: dict[int, list[float]]) -> str:
    """Which thread count is faster, if one wins ``WINS_NEEDED`` pairs by a clear margin."""
    pairs = list(zip(threads[2], threads[1]))
    two_wins = sum(one - two > _iqr(threads[1]) for two, one in pairs)
    one_wins = sum(two - one > _iqr(threads[2]) for two, one in pairs)
    margin = "by more than the other side's interquartile range"
    if two_wins >= WINS_NEEDED:
        return f"2 threads are faster: they win {two_wins} of {len(pairs)} pairs {margin}."
    if one_wins >= WINS_NEEDED:
        return f"1 thread is faster: it wins {one_wins} of {len(pairs)} pairs {margin}."
    return (f"unresolved on this host: 2 threads win {two_wins} and 1 thread wins {one_wins} "
            f"of {len(pairs)} pairs {margin}, and {WINS_NEEDED} are needed.")


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip() or "unknown"

    doc = {"commit": commit, "seed": SEED, "workloads": {}}
    lines = [
        f"# Traced layer breakdown at {commit}",
        "",
        f"Seed {SEED}, one untraced and one traced run per workload "
        "(`perfbench/breakdown.py`). A share is the layer's busy (or self) seconds per op "
        "over the traced run's mean op seconds; pool threads make the EEMD trial and sift "
        "times on `cli-long-k12` sum over 2 threads, so only `emd.eemd.busy_s` is a share "
        "of wall time there.",
        "",
    ]
    import_library()
    from workloads import NAMES

    for workload in NAMES:
        plain = bench(workload, SEED, 0)
        traced = bench(workload, SEED, 1)
        with gzip.open(BENCH_DIR / "out" / f"trace-{workload}-seed{SEED}.json.gz", "rt") as fh:
            ops = json.load(fh)["ops"]
        op_mean = statistics.fmean(op["seconds"] for op in ops)
        overhead = _value(traced, "trace.op_p50_s") - _value(plain, "op_p50_s")
        doc["workloads"][workload] = {
            "untraced": plain, "traced": traced, "traced_op_mean_s": op_mean,
            "tracing_overhead_s": overhead,
        }
        lines += [
            f"## {workload}",
            "",
            f"Untraced op_p50_s {_value(plain, 'op_p50_s'):.3f} s over {plain['attempted']} ops; "
            f"traced op_p50_s {_value(traced, 'trace.op_p50_s'):.3f} s, so tracing overhead "
            f"{overhead:+.3f} s per op. Base for shares: traced mean op {op_mean:.3f} s over "
            f"{len(ops)} ops.",
            "",
            "| layer metric | s per op | share of op |",
            "|---|---|---|",
        ]
        for name in SHARES:
            value = _value(traced, name)
            if value:
                lines.append(f"| `{name}` | {value:.4f} | {value / op_mean:.1%} |")
        lines.append("")

    threads = {2: [], 1: []}
    for i in range(PAIRS):
        for n in ((2, 1) if i % 2 == 0 else (1, 2)):
            threads[n].append(_value(bench("cli-long-k12", SEED, 0, 1, n), "op_p50_s"))
    doc["cli_long_threads_op_p50_s"] = {str(k): v for k, v in threads.items()}
    verdict = _thread_verdict(threads)
    doc["cli_long_threads_verdict"] = verdict
    two, one = (statistics.median(threads[n]) for n in (2, 1))
    short = doc["workloads"]["clean-short-k100"]
    eemd_shares = ", ".join(
        f"{_value(w['traced'], 'emd.eemd.busy_s') / w['traced_op_mean_s']:.1%} on `{name}` "
        f"(base {w['traced_op_mean_s']:.3f} s per op)"
        for name, w in doc["workloads"].items()
    )
    lines += [
        "## ROADMAP figures",
        "",
        f"- EEMD share of op wall time: {eemd_shares}.",
        f"- Change point detection on `clean-short-k100`: "
        f"{_value(short['traced'], 'changepoint.detect.busy_s'):.3f} s per op "
        "(ROADMAP: 0.08 s).",
        f"- `cli-long-k12`, op_p50_s of {PAIRS} alternating pairs of one-pass runs: "
        f"2 threads {', '.join(f'{v:.3f}' for v in threads[2])} s "
        f"(median {two:.3f}, interquartile range {_iqr(threads[2]):.3f}); "
        f"1 thread {', '.join(f'{v:.3f}' for v in threads[1])} s "
        f"(median {one:.3f}, interquartile range {_iqr(threads[1]):.3f}); "
        f"2 threads over 1: {two / one:.3f}. Verdict: {verdict}",
        "",
        "Each tracing overhead comes from one traced and one untraced run, so an overhead "
        "smaller than the run-to-run spread of op_p50_s is not resolved.",
        "",
    ]

    out = BENCH_DIR / "results"
    out.mkdir(exist_ok=True)
    with open(out / "breakdown.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    with open(out / "breakdown.md", "w") as fh:
        fh.write("\n".join(lines))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
