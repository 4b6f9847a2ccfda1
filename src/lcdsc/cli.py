"""Command-line frontend: decompose, clean, sweep gammas, simulate, benchmark.

Each command reads its settings from one table of keys, each with its
parser and help.  A flag is its key with dashes, spelled out in full (no
abbreviations); a ``--config`` file of ``key = value`` lines sets the same
keys, and a flag takes precedence over the file.  A command rejects a
flag or key it does not read, and it checks its settings before it reads
the input.

Exit codes, picked by ``main`` alone from the exception's type: 0 success;
1 usage error, a ``ValueError`` (a bad flag, key or value, a key set twice,
or any argument the library rejects) or a ``MemoryError`` (a size the host
cannot hold, reported as ``out of memory``); 2 data error, an input file that
cannot be read, is malformed or is too short to decompose, or an output
that cannot be written; 3 numerical failure, an ``ArithmeticError`` (an
overflow or a failed spline solve).  Every command is deterministic given
its flags; all randomness flows from ``--seed``.  Each output file is
streamed in chunks into a temp file that is then renamed over it.  CSV
cells carry 17 significant digits, and JSON numbers are Python's shortest
round-trip decimals.  ``simulate`` rejects a flag that its kind does not
read.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import json
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict, replace
from itertools import chain

import numpy as np

from .changepoint import _PENALTY_KINDS
from .cleaning import CleaningReport, LcdscConfig, gamma_sweep, lcdsc_clean
from .emd import _MIN_SAMPLES, Decomposition, EmdConfig, TimeSeries, eemd
from .simulation import (
    LocalSignalSpec,
    bench_table,
    chirp,
    double_doppler,
    doppler_grid,
    grid_spec,
    local_doppler,
    run_benchmark,
)
from .spectral import instantaneous_amplitude

USAGE_ERROR = 1
DATA_ERROR = 2
NUMERICAL_ERROR = 3


class UsageError(ValueError):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)  # a flag is only its full name

    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


# what the C reader may parse: a csv header of printable ASCII without quotes,
# then lines of number characters (and commas in csv)
_NEWLINES = re.compile(rb"\n*")
_HEADER_TEXT = re.compile(r"[ !#-~]*")
_PLAIN_BODY = re.compile(rb"[0-9+\-.eE\n]*")
_CSV_BODY = re.compile(rb"[0-9+\-.eE,\n]*")
_ROW_TEXT = re.compile(rb"[^\n]")


def _row_no(lines: Iterable, k: int) -> int:
    """The file line number of the ``k``-th non-blank line of ``lines``, blank lines counted."""
    return [i for i, ln in enumerate(lines, start=1) if ln.strip()][k]


def _series(path: str, data: np.ndarray, row_of) -> TimeSeries:
    """The series of ``data``, one row per sample: ``value``, or ``t, value`` in csv.

    Checks finite samples, a positive first step that does not overflow,
    uniform spacing and ``_MIN_SAMPLES`` samples, in that order, naming the
    first row that breaks a rule; ``row_of(i)`` is the line of sample ``i``.
    """
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}: row {row_of(finite.argmin())}: non-finite value")
    dt = 1.0
    if data.shape[1] == 2 and len(data) > 1:  # fewer samples fail the length check
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing step fails a check
            steps = np.diff(data[:, 0])
            dt = float(steps[0])
            steps -= dt
            bad = np.abs(steps, out=steps) > 1e-6 * abs(dt)
        if dt <= 0:
            raise DataError(f"{path}: row {row_of(1)}: time column must be increasing")
        if dt == math.inf:
            raise DataError(f"{path}: row {row_of(1)}: time step overflows")
        if bad.any():
            raise DataError(f"{path}: row {row_of(bad.argmax() + 1)}: non-uniform sample spacing")
    if len(data) < _MIN_SAMPLES:
        raise DataError(f"{path}: the decomposition needs at least {_MIN_SAMPLES} samples, "
                        f"got {len(data)}")
    return TimeSeries(data[:, -1], dt)


def _numeric_series(path: str, fmt: str, raw: bytes) -> TimeSeries | None:
    """The series ``np.loadtxt`` reads from ``ingest``'s bytes, or None for the per-row reader.

    Only plain numeric text that ``loadtxt`` parses into the format's
    columns qualifies (see ``ingest``); ``_series`` checks the values.
    The csv field limit is screened by line length: a field over it lies
    on a line over it, and any csv with such a line returns None.
    """
    start = _NEWLINES.match(raw).end()
    body = _PLAIN_BODY if fmt == "plain" else _CSV_BODY
    if fmt == "csv":
        end = raw.find(b"\n", start)
        # any byte decodes; a non-ASCII one then fails the header or the body pattern
        first = (raw[start:end] if end >= 0 else raw[start:]).decode("latin-1")
        try:
            float(first.split(",", 1)[0])
        except ValueError:  # the per-row reader's header rule: skip the line
            if end < 0 or not first.strip() or not _HEADER_TEXT.fullmatch(first):
                return None
            start = end + 1
    if not body.fullmatch(raw, start) or not _ROW_TEXT.search(raw, start):
        return None  # loadtxt warns on text without a row
    if fmt == "csv":  # the field limit, screened by line length; the header's line counts
        ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
        if np.diff(ends, prepend=-1, append=len(raw)).max() > csv.field_size_limit() + 1:
            return None
    skip = raw.count(b"\n", 0, start)  # loadtxt counts blank lines too
    lines = io.BytesIO(raw)  # shares the bytes; a StringIO would hold 4 bytes a character
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, skiprows=skip)
    except ValueError:
        return None
    if data.shape[1] != (1 if fmt == "plain" else 2):
        return None
    lines.seek(start)  # the data lines, for the one row an error names
    return _series(path, data, lambda i: skip + _row_no(lines, i))


def ingest(path: str, fmt: str = "auto") -> TimeSeries:
    """Read a series from disk.

    ``csv`` expects ``t,value`` columns (header optional) with uniformly
    spaced ``t`` (1e-6 relative tolerance); ``plain`` expects one float
    per line with an implied unit sample interval.  The file is UTF-8,
    read once, so a pipe or FIFO path works.  A leading byte-order mark is
    dropped and ``\\r\\n`` and ``\\r`` line ends become ``\\n`` before
    either reader sees it.  Blank lines are skipped, every row is one
    line, and an error names the row by its line number in the file.

    Plain numeric text goes to NumPy's C reader (``np.loadtxt``), which
    reads it without a Python object per row: ASCII text with no ``"``
    and no other line boundary (``\\f``, say), whose lines after an
    optional csv header hold only digits, ``+-.eE`` and, in csv, commas.
    Other text, a csv with a line over the ``csv`` module's field limit,
    and text ``loadtxt`` cannot parse go to the per-row reader, which
    reports a parse fault before a value fault.  Both hand their columns
    to one set of value checks, so the series, ``dt`` and messages match.
    """
    if fmt == "auto":
        fmt = "csv" if path.lower().endswith(".csv") else "plain"
    if fmt not in ("csv", "plain"):
        raise UsageError(f"unknown input format {fmt!r}")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    raw = raw.removeprefix(codecs.BOM_UTF8)  # one copy a statement, so at most two are held
    raw = raw.replace(b"\r\n", b"\n")  # each call returns the same object if nothing matches
    raw = raw.replace(b"\r", b"\n")
    series = _numeric_series(path, fmt, raw)
    if series is not None:
        return series
    try:
        content = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    del raw  # freed before the per-row reader builds its rows
    return _row_series(path, fmt, content)


def _row_series(path: str, fmt: str, content: str) -> TimeSeries:
    """The per-row reader of ``ingest``: one Python float per field, parse faults named first."""
    lines = [ln for ln in content.splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")

    def row_no(k: int) -> int:
        return _row_no(content.splitlines(), k)

    numbers, rows, start = [], [], 0
    if fmt == "plain":
        for k, line in enumerate(lines):
            text = line.strip()
            try:
                numbers.append(float(text))
            except ValueError:
                raise DataError(f"{path}: row {row_no(k)}: not a number: {text!r}") from None
    else:
        reader = csv.reader(lines)
        try:
            for row in reader:
                if reader.line_num != len(rows) + 1:  # the row took more than its own line
                    raise DataError(f"{path}: row {row_no(len(rows))}: "
                                    "quoted field runs past the end of the line")
                rows.append(row)
        except csv.Error as exc:  # a field over csv.field_size_limit(), say
            raise DataError(f"{path}: row {row_no(reader.line_num - 1)}: {exc}") from None
        try:
            float(rows[0][0])
        except (ValueError, IndexError):
            start = 1  # header row
        for k, row in enumerate(rows[start:], start=start):
            if len(row) != 2:
                raise DataError(f"{path}: row {row_no(k)}: expected 2 columns, got {len(row)}")
            try:
                numbers += float(row[0]), float(row[1])
            except ValueError:
                raise DataError(f"{path}: row {row_no(k)}: not a number") from None
    data = np.array(numbers, dtype=float).reshape(-1, 1 if fmt == "plain" else 2)
    del numbers, rows  # freed before the value checks
    return _series(path, data, lambda i: row_no(start + i))


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Stream text chunks into a temp file beside ``path``, then rename it over ``path``.

    The file gets the mode ``open()`` would give it (0o666 less the umask).
    Any failure removes the temp file; an ``OSError`` becomes a ``DataError``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        # the kernel takes the umask off 0o666, as for open(); O_EXCL never opens another
        # file, and O_BINARY (Windows only) leaves newlines to fdopen's text layer
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
        fd = os.open(tmp, flags, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


# report.json and meta.json: json.dumps(doc, indent=2) in pieces; NaN and inf raise
_JSON = json.JSONEncoder(indent=2, allow_nan=False)
_CSV_BLOCK_ROWS = 1024


def _matrix_csv(columns: list[tuple[str, np.ndarray]]) -> Iterator[str]:
    """CSV of equal-length float columns: the header, then one chunk per block of rows.

    Every cell is ``'%.17g' % v``, with +-inf written as ``1e999`` and
    ``-1e999``.  Each block is stacked and formatted with one ``%``, so
    memory holds one block, never the whole matrix or text.
    """
    yield ",".join(name for name, _ in columns) + "\n"
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for i in range(0, len(columns[0][1]) if columns else 0, _CSV_BLOCK_ROWS):
        block = np.column_stack([col[i : i + _CSV_BLOCK_ROWS] for _, col in columns])
        text = (row * block.shape[0]) % tuple(block.ravel().tolist())
        yield text.replace("inf", "1e999") if np.isinf(block).any() else text


def _decomposition_columns(d: Decomposition) -> list[tuple[str, np.ndarray]]:
    cols = [(f"imf{j}", imf) for j, imf in enumerate(d.imfs, start=1)]
    cols.append(("residual", d.residual))
    return cols


# report.json's names for the SegmentTest fields it renames
_SEGMENT_KEYS = {"imf_index": "imf", "seg_start": "start", "seg_end": "end", "p_value": "p"}


def _report_doc(report: CleaningReport, files: dict[str, str]) -> dict:
    changepoints = [{"imf": i + 1, "taus": list(cps.taus)}
                    for i, cps in enumerate(report.changepoints)]
    # SegmentTest's fields in order, four renamed, then the Holm verdict
    segments = [{**{_SEGMENT_KEYS.get(k, k): v for k, v in asdict(dec.test).items()},
                 "holm_threshold": dec.holm_threshold, "significant": dec.significant}
                for dec in report.decisions]
    return {
        "config": asdict(report.config),
        "changepoints": changepoints,
        "segments": segments,
        "eta": sorted(report.significant_imfs),
        "diagnostics": list(report.diagnostics),
        "files": files,
    }


def _parse_config_file(path: str, allowed: set[str]) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}: line {i}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in allowed:
            raise UsageError(f"{path}: line {i}: unknown key {key!r}")
        key = key.lower()  # a grid file's T and t are one key
        if key in line_of:
            raise UsageError(f"{path}: lines {line_of[key]} and {i} both set {key!r}")
        out[key], line_of[key] = value, i
    return out


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(lowered)


def _parse_max_imfs(text: str):
    if text.strip().lower() in ("auto", "none", ""):
        return None
    return int(text)


def _setting(parse, help: str, **flag) -> tuple:
    """A settings-table entry: the key's parser and its flag's ``add_argument`` keywords."""
    return parse, {"help": help, **flag}


_EMD, _LCDSC = EmdConfig(), LcdscConfig()  # the defaults each help text names
# each command's settings: key -> (parser, flag keywords); the flag is the key
# with dashes, and the key is what a --config file sets
_EMD_KEYS = {
    "s_number": _setting(int, f"S-stoppage count (default {_EMD.s_number})"),
    "max_sift_iters": _setting(int, f"sifting iteration cap (default {_EMD.max_sift_iters})"),
    "max_imfs": _setting(_parse_max_imfs, "IMF cap, integer or 'auto' (default auto)"),
    "ensemble_size": _setting(int, f"ensemble trials (default {_EMD.ensemble_size})"),
    "noise_amplitude": _setting(float, "trial noise sd as a fraction of the signal sd "
                                f"(default {_EMD.noise_amplitude})"),
    "seed": _setting(int, f"random seed (default {_EMD.seed})"),
}
_CLEAN_KEYS = {
    "gamma": _setting(float, f"variance-ratio gate, >= 1 (default {_LCDSC.gamma:g})"),
    "alpha": _setting(float, f"family-wise error rate (default {_LCDSC.alpha})"),
    "penalty": _setting(str, f"change-point penalty (default {_LCDSC.penalty})",
                        choices=_PENALTY_KINDS),
    "beta": _setting(float, "penalty per change point; only with --penalty aic"),
    "minseg": _setting(int, "minimum segment length in amplitude cycles "
                       f"(default {_LCDSC.min_seg_len})"),
    "include_residual": _setting(_parse_bool, "add the decomposition residual to the cleaned "
                                 "output", action="store_const", const="true"),
    "penalty_scale": _setting(float, "penalty multiplier for correlated amplitudes "
                              f"(default {_LCDSC.penalty_scale})"),
    **_EMD_KEYS,
}
_SWEEP_KEYS = {key: entry for key, entry in _CLEAN_KEYS.items() if key != "gamma"}  # from --gammas


def _add_settings(parser: argparse.ArgumentParser, keys: dict) -> None:
    for key, (_, flag) in keys.items():
        parser.add_argument("--" + key.replace("_", "-"), **flag)
    parser.add_argument("--config", help="key = value config file; flags take precedence")


def _user_values(args, keys: dict) -> dict:
    """Parse the settings of ``keys`` the user gave, a flag before the ``--config`` file.

    Keys set in neither are left out, so the config dataclasses supply
    every default.
    """
    file_cfg = _parse_config_file(args.config, set(keys)) if args.config else {}
    values = {}
    for key, (parse, _) in keys.items():
        text = getattr(args, key)
        if text is None:
            text = file_cfg.get(key)
        if text is None:
            continue
        try:
            values[key] = parse(text)
        except ValueError:
            raise UsageError(f"setting {key!r}: cannot parse {text!r}") from None
    return values


def _clean_config(args, keys: dict) -> LcdscConfig:
    values = _user_values(args, keys)
    emd = {key: values.pop(key) for key in _EMD_KEYS if key in values}
    if "minseg" in values:
        values["min_seg_len"] = values.pop("minseg")
    return LcdscConfig(emd=EmdConfig(**emd), **values)


def _write_report_bundle(report: CleaningReport, out_dir: str) -> None:
    taus = np.array(
        [(i + 1, tau) for i, cps in enumerate(report.changepoints) for tau in cps.taus], float
    ).reshape(-1, 2)
    # keyed like report.json's "files" map; each table is written to <key>.csv
    tables = {
        "cleaned": [("cleaned", report.cleaned_signal)],
        "cleaned_imfs": [(f"imf{i+1}", c) for i, c in enumerate(report.cleaned_imfs)],
        "changepoints": [("imf", taus[:, 0]), ("tau", taus[:, 1])],
        "imfs": _decomposition_columns(report.decomposition),
        "amplitudes": [(f"amp{i+1}", a) for i, a in enumerate(report.amplitudes)],
    }
    files = {key: f"{key}.csv" for key in tables}
    for key, columns in tables.items():
        _atomic_write(os.path.join(out_dir, files[key]), _matrix_csv(columns))
    doc = _report_doc(report, files)
    _atomic_write(os.path.join(out_dir, "report.json"), chain(_JSON.iterencode(doc), ["\n"]))


def _cmd_decompose(args) -> int:
    config = EmdConfig(**_user_values(args, _EMD_KEYS))
    d = eemd(ingest(args.input, args.format), config)
    _atomic_write(os.path.join(args.out_dir, "imfs.csv"), _matrix_csv(_decomposition_columns(d)))
    if args.amplitudes:
        cols = [(f"amp{j}", instantaneous_amplitude(imf))
                for j, imf in enumerate(d.imfs, start=1)]
        _atomic_write(os.path.join(args.out_dir, "amplitudes.csv"), _matrix_csv(cols))
    return 0


def _cmd_clean(args) -> int:
    config = _clean_config(args, _CLEAN_KEYS)
    report = lcdsc_clean(ingest(args.input, args.format), config)
    _write_report_bundle(report, args.out_dir)
    return 0


def _cmd_sweep_gamma(args) -> int:
    config = _clean_config(args, _SWEEP_KEYS)
    try:
        gammas = [float(g) for g in args.gammas.split(",") if g.strip()]
    except ValueError:
        raise UsageError(f"cannot parse --gammas {args.gammas!r}") from None
    if not gammas:
        raise UsageError("--gammas must list at least one value")
    out_dirs = [os.path.join(args.out_dir, f"gamma-{g:g}") for g in gammas]
    for i, g in enumerate(gammas):
        first = out_dirs.index(out_dirs[i])
        if first < i:
            raise UsageError(f"gammas {gammas[first]!r} and {g!r} would both write {out_dirs[i]}")
    for g in gammas:
        replace(config, gamma=g)  # LcdscConfig checks each gamma before the input is read
    reports = gamma_sweep(ingest(args.input, args.format), gammas, config)
    for out_dir, report in zip(out_dirs, reports):
        _write_report_bundle(report, out_dir)
    return 0


# simulate's per-kind flags: dest -> (type, the kinds that read it)
_SIMULATE_FLAGS = {
    "T": (int, ("doppler", "chirp")),
    "a_start": (int, ("doppler",)),
    "a_end": (int, ("doppler",)),
    "f0": (float, ("chirp",)),
    "f1": (float, ("chirp",)),
    "delta": (int, ("double",)),
}


def _cmd_simulate(args) -> int:
    stray = [f"--{dest.replace('_', '-')}" for dest, (_, kinds) in _SIMULATE_FLAGS.items()
             if args.kind not in kinds and getattr(args, dest) is not None]
    if stray:
        raise UsageError(f"simulate {args.kind} does not take {', '.join(stray)}")
    sigma, seed = args.sigma, args.seed
    meta: dict = {"kind": args.kind, "sigma": sigma, "seed": seed}
    if args.kind == "doppler":
        t_len = args.T if args.T is not None else 2500
        a_start = args.a_start if args.a_start is not None else (2 * t_len) // 5
        a_end = args.a_end if args.a_end is not None else (3 * t_len) // 5
        noisy, truth, active = local_doppler(LocalSignalSpec(t_len, a_start, a_end, sigma, seed))
        meta["active"] = list(active)
    elif args.kind == "chirp":
        t_len = args.T if args.T is not None else 2500
        f0 = args.f0 if args.f0 is not None else 0.01
        f1 = args.f1 if args.f1 is not None else 0.1
        noisy = chirp(t_len, f0, f1, sigma, seed)
        truth = chirp(t_len, f0, f1, 0.0, seed).samples
        meta.update(f0=f0, f1=f1)
    else:
        delta = args.delta if args.delta is not None else 500
        noisy, truth, a1, a2 = double_doppler(delta, sigma, seed)
        meta.update(delta=delta, active1=list(a1), active2=list(a2))
    t = np.arange(len(noisy)) * noisy.dt
    for name, values in (("noisy.csv", noisy.samples), ("truth.csv", truth)):
        _atomic_write(os.path.join(args.out, name), _matrix_csv([("t", t), ("value", values)]))
    _atomic_write(os.path.join(args.out, "meta.json"), chain(_JSON.iterencode(meta), ["\n"]))
    return 0


_GRID_KEYS = ("T", "sigma", "locality")


def _parse_grid_file(path: str) -> list[tuple[int, float, float]]:
    raw = _parse_config_file(path, set(k.lower() for k in _GRID_KEYS) | set(_GRID_KEYS))

    def values(key: str, parse, default):
        if key not in raw:
            return default
        try:
            return [parse(v) for v in raw[key].split(",") if v.strip()]
        except ValueError:
            raise UsageError(f"grid key {key!r}: cannot parse {raw[key]!r}") from None

    grid = doppler_grid(
        values("t", int, [2500]), values("sigma", float, [0.2]), values("locality", float, [0.25])
    )
    for cell in grid:
        try:
            grid_spec(cell)  # the simulation's and the decomposition's rules for one cell
        except ValueError as exc:
            raise UsageError(f"{path}: {exc}") from None
    return grid


def _cmd_bench(args) -> int:
    config = _clean_config(args, _CLEAN_KEYS)
    grid = _parse_grid_file(args.grid)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    results = run_benchmark(methods, grid, args.replicates, config.emd.seed, config=config)
    _atomic_write(args.out, [bench_table(results, timing=args.timing)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lcdsc", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)
    recording = _Parser(add_help=False)  # the input file and the output directory
    recording.add_argument("input")
    recording.add_argument("--out-dir", required=True)
    recording.add_argument("--format", choices=("auto", "csv", "plain"), default="auto")

    p = sub.add_parser("decompose", parents=[recording], help="decompose a recording into IMFs")
    p.add_argument("--amplitudes", action="store_true", help="also write instantaneous amplitudes")
    _add_settings(p, _EMD_KEYS)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("clean", parents=[recording], help="run the full cleaning pipeline")
    _add_settings(p, _CLEAN_KEYS)
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("sweep-gamma", parents=[recording],
                       help="clean at several gamma gates, reusing one decomposition")
    p.add_argument("--gammas", required=True, help="comma-separated gamma values, each >= 1")
    _add_settings(p, _SWEEP_KEYS)
    p.set_defaults(func=_cmd_sweep_gamma)

    p = sub.add_parser("simulate", help="generate a synthetic test recording")
    p.add_argument("kind", choices=("doppler", "chirp", "double"))
    p.add_argument("--out", required=True, help="output directory (noisy.csv, truth.csv, meta.json)")
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    for dest, (parse, kinds) in _SIMULATE_FLAGS.items():
        p.add_argument(f"--{dest.replace('_', '-')}", type=parse, help="/".join(kinds) + " only")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="score cleaning methods on simulated grids")
    p.add_argument("--grid", required=True, help="key = value grid file (T, sigma, locality)")
    p.add_argument("--methods", required=True, help="comma-separated method names")
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--out", required=True)
    p.add_argument("--timing", action="store_true",
                   help="record wall seconds (breaks byte-reproducibility)")
    _add_settings(p, _CLEAN_KEYS)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DataError as exc:
        print(f"lcdsc: data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:  # UsageError, or an argument the library rejects
        print(f"lcdsc: usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:  # a size the host cannot hold
        print(f"lcdsc: usage error: out of memory: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        print(f"lcdsc: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
