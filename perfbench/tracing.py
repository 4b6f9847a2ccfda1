"""In-memory spans around the library's public functions, for the traced run.

A ``Tracer`` replaces each traced function at the binding its caller
uses.  The library's modules import names directly, so detection is
wrapped as ``lcdsc.cleaning.detect_changepoints`` rather than in
``lcdsc.changepoint``; wrapping the defining module would miss every
call.  Inside ``lcdsc.emd`` the functions call each other through module
globals, so ``emd.emd`` (one ensemble trial), ``emd.sift`` and
``emd.find_extrema`` are wrapped there.

A span is ``(id, name, op, parent, start, end, note)``.  Each thread keeps
its own stack of open spans.  A thread whose stack is empty (an EEMD pool
thread) takes the innermost open span of the tracing thread as its
parent, which is the ``eemd`` call that is waiting on the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict, namedtuple

Span = namedtuple("Span", "id name op parent start end note")


def _len_taus(args, result):
    return (len(args[0]), len(result.taus))


def _holm_note(args, result):
    return (sum(result), len(result))


# (module, attribute, span name, note taken from (args, result) or None)
TRACE_POINTS = (
    ("lcdsc.cleaning", "eemd", "emd.eemd", None),
    ("lcdsc.simulation", "eemd", "emd.eemd", None),
    ("lcdsc.emd", "emd", "emd.trial", lambda args, d: d.n_imfs),
    ("lcdsc.emd", "sift", "emd.sift", lambda args, imf: imf.truncated),
    ("lcdsc.emd", "find_extrema", "emd.find_extrema", None),
    ("lcdsc.cleaning", "detect_changepoints", "changepoint.detect", _len_taus),
    ("lcdsc.cleaning", "instantaneous_amplitude", "spectral.amplitude", None),
    ("lcdsc.cleaning", "f_test_segment", "inference.f_test", None),
    ("lcdsc.cleaning", "holm_bonferroni", "inference.holm", _holm_note),
    ("lcdsc.cleaning", "holm_thresholds", "inference.holm", None),
    ("lcdsc.cleaning", "lcdsc_clean", "cleaning.lcdsc_clean", None),
    ("lcdsc.cli", "lcdsc_clean", "cleaning.lcdsc_clean", None),
    ("lcdsc.cleaning", "clean_decomposition", "cleaning.clean", None),
    ("lcdsc.cleaning", "clean_imf", "cleaning.clean_imf", None),
    ("lcdsc.baselines", "oracle_select", "baselines.oracle", None),
    ("lcdsc.baselines", "keep_subset", "baselines.keep_subset", None),
    ("lcdsc.baselines", "wavelet_hard_threshold", "baselines.wht", None),
    ("lcdsc.baselines", "wavelet_interval_threshold", "baselines.wit", None),
    ("lcdsc.simulation", "grid_instance", "simulation.instance", None),
    ("lcdsc.simulation", "run_benchmark", "simulation.run_benchmark", None),
    ("lcdsc.cli", "ingest", "cli.ingest", None),
    ("lcdsc.cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans while installed; the creating thread is the tracing thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = self._stack()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else (self._root[-1] if self._root else None)
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def wrap(self, fn, name, note):
        """``fn`` recording one span ``name`` per call; ``note`` maps (args, result) to its note."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = tracer._open()
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = note(args, result) if note is not None and result is not None else None
                tracer.spans.append(Span(sid, name, tracer.op, parent, start, end, extra))

        return traced

    def install(self) -> None:
        """Wrap every trace point."""
        for module_name, attr, name, note in TRACE_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, note))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def op_counts(spans) -> dict[int, dict[str, int]]:
    """Per-op work counts; these repeat exactly for the same op sequence."""
    by_id = {s.id: s for s in spans}
    counts: dict[int, Counter] = defaultdict(Counter)
    trials_by_eemd: dict[int, list[int]] = defaultdict(list)
    for s in spans:
        c = counts[s.op]
        c[s.name + ".calls"] += 1
        if s.name == "emd.find_extrema":
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == "emd.sift":
                c["emd.sift.extrema_searches"] += 1
        elif s.name == "emd.sift" and s.note:
            c["emd.sift.truncated"] += 1
        elif s.name == "emd.trial" and s.note is not None:
            trials_by_eemd[s.parent].append(s.note)
        elif s.name == "changepoint.detect" and s.note is not None:
            c["changepoint.detect.samples"] += s.note[0]
            c["changepoint.detect.changepoints"] += s.note[1]
        elif s.name == "inference.holm" and s.note is not None:
            c["inference.significant"] += s.note[0]
            c["inference.tested"] += s.note[1]
    for eemd_id, widths in trials_by_eemd.items():
        width = max(widths)
        counts[by_id[eemd_id].op]["emd.ensemble.short_trials"] += sum(w < width for w in widths)
    for c in counts.values():
        # one extrema search before the loop, then one per sift iteration
        c["emd.sift.iterations"] = c.pop("emd.sift.extrema_searches", 0) - c["emd.sift.calls"]
    return {op: dict(c) for op, c in counts.items()}


SELF_TIMED = ("emd.eemd", "emd.sift", "cleaning.clean", "simulation.run_benchmark", "cli.main")


def busy_seconds(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Total seconds inside each span name, and self seconds for ``SELF_TIMED``.

    Self time is a span's duration minus the union of its children's
    intervals, so concurrent pool-thread children are not counted twice.
    """
    busy: dict[str, float] = defaultdict(float)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        busy[s.name] += s.end - s.start
        children[s.parent].append((s.start, s.end))
    own: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.name in SELF_TIMED:
            own[s.name] += (s.end - s.start) - _covered(children.get(s.id, ()), s.start, s.end)
    return dict(busy), dict(own)


def layer_metrics(spans, per_op_counts: dict[int, dict[str, int]]) -> dict[str, float]:
    """Per-layer metrics as means per op over the ops in ``spans``.

    ``per_op_counts`` is ``op_counts(spans)`` plus any per-op counts
    measured outside the spans, such as the bytes a CLI run wrote.
    """
    ops = [s for s in spans if s.name == "op"]
    n_ops = len(ops)
    if not n_ops:
        raise ValueError("no op spans recorded")
    counts: Counter = Counter()
    for c in per_op_counts.values():
        counts.update(c)
    busy, own = busy_seconds(spans)

    def per_op(value: float) -> float:
        return value / n_ops

    tested = counts["inference.tested"]
    return {
        "emd.eemd.busy_s": per_op(busy.get("emd.eemd", 0.0)),
        "emd.eemd.self_s": per_op(own.get("emd.eemd", 0.0)),
        "emd.trial.calls": per_op(counts["emd.trial.calls"]),
        "emd.trial.busy_s": per_op(busy.get("emd.trial", 0.0)),
        "emd.sift.calls": per_op(counts["emd.sift.calls"]),
        "emd.sift.iterations": per_op(counts["emd.sift.iterations"]),
        "emd.sift.busy_s": per_op(busy.get("emd.sift", 0.0)),
        "emd.sift.self_s": per_op(own.get("emd.sift", 0.0)),
        "emd.find_extrema.calls": per_op(counts["emd.find_extrema.calls"]),
        "emd.find_extrema.busy_s": per_op(busy.get("emd.find_extrema", 0.0)),
        "emd.sift.truncated": per_op(counts["emd.sift.truncated"]),
        "emd.ensemble.short_trials": per_op(counts["emd.ensemble.short_trials"]),
        "changepoint.detect.calls": per_op(counts["changepoint.detect.calls"]),
        "changepoint.detect.busy_s": per_op(busy.get("changepoint.detect", 0.0)),
        "changepoint.detect.samples": per_op(counts["changepoint.detect.samples"]),
        "changepoint.detect.changepoints": per_op(counts["changepoint.detect.changepoints"]),
        "spectral.amplitude.calls": per_op(counts["spectral.amplitude.calls"]),
        "spectral.amplitude.busy_s": per_op(busy.get("spectral.amplitude", 0.0)),
        "inference.f_test.calls": per_op(counts["inference.f_test.calls"]),
        "inference.f_test.busy_s": per_op(busy.get("inference.f_test", 0.0)),
        "inference.holm.busy_s": per_op(busy.get("inference.holm", 0.0)),
        "inference.significant_ratio": counts["inference.significant"] / tested if tested else 0.0,
        "cleaning.clean.busy_s": per_op(busy.get("cleaning.clean", 0.0)),
        "cleaning.self_s": per_op(own.get("cleaning.clean", 0.0)),
        "cleaning.clean_imf.busy_s": per_op(busy.get("cleaning.clean_imf", 0.0)),
        "baselines.oracle.busy_s": per_op(busy.get("baselines.oracle", 0.0)),
        "baselines.oracle.rules": per_op(counts["baselines.keep_subset.calls"]),
        "baselines.wht.busy_s": per_op(busy.get("baselines.wht", 0.0)),
        "baselines.wit.busy_s": per_op(busy.get("baselines.wit", 0.0)),
        "simulation.instance.busy_s": per_op(busy.get("simulation.instance", 0.0)),
        "simulation.run_benchmark.self_s": per_op(own.get("simulation.run_benchmark", 0.0)),
        "cli.ingest.busy_s": per_op(busy.get("cli.ingest", 0.0)),
        "cli.main.self_s": per_op(own.get("cli.main", 0.0)),
        "cli.bytes_written": per_op(counts["cli.bytes_written"]),
        "trace.op_p50_s": statistics.median(s.end - s.start for s in ops),
        "trace.spans": per_op(len(spans)),
    }
