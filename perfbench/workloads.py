"""The benchmark's workloads: inputs, the timed op, and the output check.

Each workload owns a fixed set of instance slots.  Slot ``k`` has its own
seed, derived from the workload name and ``k``, which seeds both the
recording's noise and the decomposition's ensemble.  A run with workload
seed ``s`` visits the slots in the order of a permutation drawn from
``s``: op ``i`` runs slot ``order[i % slots]``.  So every run of a seed
repeats the same op sequence, a run of whole passes weighs every slot
equally, and the outputs can be checked against references recorded for
the slots.  The slot counts make one pass about 30 s on a 2-core host.

Why these three: EEMD dominates short recordings with a large ensemble
(``clean-short-k100``); long recordings with a small ensemble shift the
weight to change point detection and report writing, and are the only
path through ingest, CLI output and the EEMD thread pool
(``cli-long-k12``); the method-comparison loop is the only path through
the baselines and the simulation grid (``bench-grid-k12``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zlib
from dataclasses import dataclass, field

import numpy as np

from lcdsc import cleaning, cli, simulation
from lcdsc.cleaning import LcdscConfig
from lcdsc.emd import EmdConfig
from lcdsc.simulation import METHOD_NAMES, LocalSignalSpec, bench_table, local_doppler, rss

# Relative tolerance for the cleaned signal (as a vector norm) and for rss.
REL_TOL = 1e-9


def slot_seed(workload: str, slot: int) -> int:
    ss = np.random.SeedSequence([zlib.crc32(workload.encode()), slot])
    return int(ss.generate_state(1, np.uint32)[0])


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _rel_diff(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / scale


def _segments(taus, n):
    starts = [0] + [t + 1 for t in taus]
    ends = list(taus) + [n - 1]
    return list(zip(starts, ends))


def invariant_problems(x, imfs, residual, changepoints, cleaned_imfs) -> list[str]:
    """The decomposition's additive identity and whole-segment zeroing.

    ``imfs`` and ``cleaned_imfs`` are ``(n_imfs, n)`` arrays and
    ``changepoints`` holds each IMF's change points in raw sample indices.
    """
    problems = []
    x = np.asarray(x, dtype=float)
    total = np.sum(imfs, axis=0) + residual if len(imfs) else np.asarray(residual)
    if not np.allclose(total, x, rtol=0.0, atol=1e-9 * max(1.0, float(np.max(np.abs(x))))):
        problems.append("imfs plus residual do not reproduce the input")
    for j, (imf, kept, taus) in enumerate(zip(imfs, cleaned_imfs, changepoints), start=1):
        if not np.all((kept == imf) | (kept == 0.0)):
            problems.append(f"imf {j}: a cleaned sample is neither the imf sample nor 0")
            continue
        # without change points the whole component is zeroed
        segments = _segments(taus, imf.size) if taus else [(0, imf.size - 1)]
        for a, b in segments:
            seg = kept[a : b + 1]
            wholly_kept = bool(taus) and np.array_equal(seg, imf[a : b + 1])
            if not wholly_kept and np.any(seg != 0.0):
                problems.append(f"imf {j}: segment {a}..{b} is neither wholly kept nor zeroed")
    return problems


def compare(summary: dict, ref: dict, cleaned=None, ref_cleaned=None) -> list[str]:
    """Problems found comparing an op's summary to the recorded reference."""
    problems = []
    for key in ("seed", "changepoints", "verdicts", "eta", "table"):
        if key in ref and summary.get(key) != ref[key]:
            problems.append(f"{key} differ from the reference")
    for got, want in zip(summary["rss"], ref["rss"]):
        if abs(got - want) > REL_TOL * abs(want):
            problems.append(f"rss {got!r} differs from the reference {want!r}")
    if len(summary["rss"]) != len(ref["rss"]):
        problems.append("rss count differs from the reference")
    if ref_cleaned is not None:
        if cleaned is None or cleaned.shape != ref_cleaned.shape:
            problems.append("cleaned signal shape differs from the reference")
        elif _rel_diff(cleaned, ref_cleaned) > REL_TOL:
            problems.append("cleaned signal differs from the reference")
    return problems


@dataclass
class Outcome:
    """What checking one op found: its summary, problems and measured counts."""

    summary: dict | None
    problems: list[str]
    cleaned: np.ndarray | None = None
    counts: dict[str, int] = field(default_factory=dict)


def _report_summary(seed, changepoints, verdicts, eta, rss_value, digest):
    return {
        "seed": seed,
        "changepoints": changepoints,
        "verdicts": verdicts,
        "eta": eta,
        "rss": [rss_value],
        "digest": digest,
    }


class Workload:
    """A set of instance slots, the op that runs one, and its output check."""

    name: str
    slots: int
    samples_per_op: int
    trials_per_op: int  # EMD trials over all of an op's decompositions

    def cleanup(self, slot: int, work_dir: str) -> None:
        """Remove what the op wrote, once it has been checked."""


class CleanShort(Workload):
    """Library ``lcdsc_clean`` on the Sim-1 recording, 100 ensemble trials."""

    name = "clean-short-k100"
    slots = 9
    samples_per_op = 2500
    trials_per_op = 100

    def setup(self, work_dir: str) -> None:
        self.inputs = []
        for k in range(self.slots):
            seed = slot_seed(self.name, k)
            noisy, truth, _ = local_doppler(LocalSignalSpec(2500, 1000, 1500, 0.2, seed))
            self.inputs.append((seed, noisy, truth))

    def run(self, slot: int, work_dir: str):
        seed, noisy, _ = self.inputs[slot]
        config = LcdscConfig(emd=EmdConfig(ensemble_size=100, seed=seed))
        return cleaning.lcdsc_clean(noisy, config, workers=1)

    def check(self, slot: int, report, work_dir: str) -> Outcome:
        seed, noisy, truth = self.inputs[slot]
        d = report.decomposition
        imfs = d.imf_matrix()
        changepoints = [list(cps.taus) for cps in report.changepoints]
        verdicts = [
            [dec.test.imf_index, dec.test.seg_start, dec.test.seg_end, dec.significant]
            for dec in report.decisions
        ]
        eta = sorted(report.significant_imfs)
        cleaned = np.array(report.cleaned_signal)
        digest = _sha256(
            cleaned.tobytes(),
            imfs.tobytes(),
            d.residual.tobytes(),
            _canonical([changepoints, verdicts, eta, [dec.test.p_value for dec in report.decisions]]),
        )
        summary = _report_summary(
            seed, changepoints, verdicts, eta, rss(cleaned, truth), digest
        )
        cleaned_imfs = np.array(report.cleaned_imfs).reshape(imfs.shape)
        problems = invariant_problems(noisy.samples, imfs, d.residual, changepoints, cleaned_imfs)
        return Outcome(summary, problems, cleaned)


class CliLong(Workload):
    """In-process ``lcdsc clean`` on a 20000-sample CSV, 12 trials, 2 threads."""

    name = "cli-long-k12"
    slots = 4
    samples_per_op = 20000
    trials_per_op = 12

    def __init__(self, threads: int = 2):
        self.threads = threads

    def setup(self, work_dir: str) -> None:
        os.environ["LCDSC_THREADS"] = str(self.threads)
        self.inputs = []
        for k in range(self.slots):
            seed = slot_seed(self.name, k)
            out = os.path.join(work_dir, f"input-{k}")
            rc = cli.main(
                ["simulate", "doppler", "--T", "20000", "--a-start", "8000", "--a-end", "12000",
                 "--sigma", "0.2", "--seed", str(seed), "--out", out]
            )
            if rc != 0:
                raise RuntimeError(f"lcdsc simulate exited with {rc}")
            noisy, truth, _ = local_doppler(LocalSignalSpec(20000, 8000, 12000, 0.2, seed))
            self.inputs.append((seed, os.path.join(out, "noisy.csv"), noisy, truth))

    def _out_dir(self, slot: int, work_dir: str) -> str:
        return os.path.join(work_dir, f"run-{slot}")

    def run(self, slot: int, work_dir: str):
        seed, csv_path, _, _ = self.inputs[slot]
        return cli.main(
            ["clean", csv_path, "--out-dir", self._out_dir(slot, work_dir),
             "--ensemble-size", "12", "--seed", str(seed)]
        )

    def check(self, slot: int, rc, work_dir: str) -> Outcome:
        seed, _, noisy, truth = self.inputs[slot]
        out = self._out_dir(slot, work_dir)
        if rc != 0:
            return Outcome(None, [f"lcdsc clean exited with {rc}"])
        problems = []
        with open(os.path.join(out, "report.json")) as fh:
            doc = json.load(fh)
        names = sorted(set(doc["files"].values()) | {"report.json"})
        missing = [n for n in names if not os.path.isfile(os.path.join(out, n))]
        if missing:
            return Outcome(None, [f"report.json lists missing files {missing}"])
        blobs = []
        for n in names:
            with open(os.path.join(out, n), "rb") as fh:
                blobs.append(fh.read())
        changepoints = [entry["taus"] for entry in doc["changepoints"]]
        verdicts = [[s["imf"], s["start"], s["end"], s["significant"]] for s in doc["segments"]]

        def load(name):
            return np.loadtxt(os.path.join(out, name), delimiter=",", skiprows=1, ndmin=2).T

        cleaned = load(doc["files"]["cleaned"])[0]
        decomposition = load(doc["files"]["imfs"])
        cleaned_imfs = load(doc["files"]["cleaned_imfs"])
        summary = _report_summary(
            seed, changepoints, verdicts, doc["eta"], rss(cleaned, truth), _sha256(*blobs)
        )
        problems += invariant_problems(
            noisy.samples, decomposition[:-1], decomposition[-1], changepoints, cleaned_imfs
        )
        return Outcome(summary, problems, cleaned, {"cli.bytes_written": sum(map(len, blobs))})

    def cleanup(self, slot: int, work_dir: str) -> None:
        shutil.rmtree(self._out_dir(slot, work_dir), ignore_errors=True)


class BenchGrid(Workload):
    """``run_benchmark`` of all methods on three noise levels, 12 trials."""

    name = "bench-grid-k12"
    slots = 20
    samples_per_op = 3 * 2500
    trials_per_op = 3 * 12

    def setup(self, work_dir: str) -> None:
        self.grid = simulation.doppler_grid([2500], [0.2, 0.35, 0.5], [0.25])
        self.config = LcdscConfig(emd=EmdConfig(ensemble_size=12))
        self.seeds = [slot_seed(self.name, k) for k in range(self.slots)]

    def run(self, slot: int, work_dir: str):
        return simulation.run_benchmark(
            METHOD_NAMES, self.grid, 1, self.seeds[slot], self.config, workers=1
        )

    def check(self, slot: int, results, work_dir: str) -> Outcome:
        lcdsc_rss = [r.rss for r in results if r.method == "lcdsc"]
        summary = {
            "seed": self.seeds[slot],
            "table": bench_table(results),
            "rss": lcdsc_rss,
            "digest": _sha256(_canonical([[r.method, r.seed, r.rss] for r in results])),
        }
        return Outcome(summary, [])


NAMES = (CleanShort.name, CliLong.name, BenchGrid.name)


def make(name: str, cli_threads: int = 2) -> Workload:
    if name == CliLong.name:
        return CliLong(cli_threads)
    return {CleanShort.name: CleanShort, BenchGrid.name: BenchGrid}[name]()
