"""Check that the traced run's work counts repeat exactly.

Usage, from the root of a source checkout:

    python3 perfbench/check_counts.py

Runs the traced benchmark twice per workload with seed ``SEED`` and
compares every per-op count (each span's ``calls``, sift iterations,
truncated sifts, short trials, detection samples and change points,
tested and significant segments, ``keep_subset`` calls, CLI bytes
written), and the number of ops.  Exits 1 if any of them differs, so a
claim resting on a count can rely on it.
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys

from run import BENCH_DIR, ROOT, import_library

SEED = 1


def traced_counts(workload: str, seed: int) -> list[dict]:
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        check=True, stdout=subprocess.DEVNULL, cwd=ROOT, timeout=600,
    )
    with gzip.open(BENCH_DIR / "out" / f"trace-{workload}-seed{seed}.json.gz", "rt") as fh:
        return [(op["slot"], op["counts"]) for op in json.load(fh)["ops"]]


def main() -> int:
    import_library()
    from workloads import NAMES
    ok = True
    for workload in NAMES:
        first = traced_counts(workload, SEED)
        second = traced_counts(workload, SEED)
        common = min(len(first), len(second))
        diffs = [
            (i, key, a[1].get(key), b[1].get(key))
            for i, (a, b) in enumerate(zip(first, second))
            for key in sorted(set(a[1]) | set(b[1]))
            if a[0] != b[0] or a[1].get(key) != b[1].get(key)
        ]
        if len(first) != len(second):
            diffs.append(("-", "ops", len(first), len(second)))
        keys = len(set().union(*(c for _, c in first[:common])))
        verdict = "identical" if common and not diffs else "DIFFERENT"
        print(f"{workload}: {common} ops x {keys} counts, {verdict}")
        for i, key, a, b in diffs[:20]:
            print(f"  op {i} {key}: {a} vs {b}")
        ok = ok and common > 0 and not diffs
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
