"""Command-line frontend: decompose, clean, sweep gammas, simulate, benchmark.

Exit codes, picked by ``main`` alone from the exception's type: 0 success;
1 usage error, a ``ValueError`` (a bad flag, key or value, a key set twice,
or any argument the library rejects); 2 data error, an input file that
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
import csv
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import asdict
from itertools import chain

import numpy as np

from .changepoint import Penalty
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
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def ingest(path: str, fmt: str = "auto") -> TimeSeries:
    """Read a series from disk.

    ``csv`` expects ``t,value`` columns (header optional) with uniformly
    spaced ``t`` (1e-6 relative tolerance); ``plain`` expects one float
    per line with an implied unit sample interval.  Blank lines are
    skipped, every row is one line, and an error names the row by its
    line number in the file.
    """
    if fmt == "auto":
        fmt = "csv" if path.lower().endswith(".csv") else "plain"
    if fmt not in ("csv", "plain"):
        raise UsageError(f"unknown input format {fmt!r}")
    try:
        with open(path, "r", newline="") as fh:
            content = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    lines = [ln for ln in content.splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")

    def row_no(k: int) -> int:
        """The file line number of ``lines[k]``, blank lines counted; only errors need it."""
        return [i for i, ln in enumerate(content.splitlines(), start=1) if ln.strip()][k]

    values = []
    if fmt == "plain":
        dt = 1.0
        for k, line in enumerate(lines):
            text = line.strip()
            try:
                value = float(text)
            except ValueError:
                raise DataError(f"{path}: row {row_no(k)}: not a number: {text!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}: row {row_no(k)}: non-finite value")
            values.append(value)
    else:
        reader = csv.reader(lines)
        rows = []
        try:
            for row in reader:
                if reader.line_num != len(rows) + 1:  # the row took more than its own line
                    raise DataError(f"{path}: row {row_no(len(rows))}: "
                                    "quoted field runs past the end of the line")
                rows.append(row)
        except csv.Error as exc:  # a field over csv.field_size_limit(), say
            raise DataError(f"{path}: row {row_no(reader.line_num - 1)}: {exc}") from None
        start = 0
        try:
            float(rows[0][0])
        except (ValueError, IndexError):
            start = 1  # header row
        ts = []
        for k, row in enumerate(rows[start:], start=start):
            if len(row) != 2:
                raise DataError(f"{path}: row {row_no(k)}: expected 2 columns, got {len(row)}")
            try:
                t, v = float(row[0]), float(row[1])
            except ValueError:
                raise DataError(f"{path}: row {row_no(k)}: not a number") from None
            if not (math.isfinite(t) and math.isfinite(v)):
                raise DataError(f"{path}: row {row_no(k)}: non-finite value")
            ts.append(t)
            values.append(v)
        dt = ts[1] - ts[0] if len(ts) > 1 else 1.0  # fewer samples fail the length check
        if dt <= 0:
            raise DataError(f"{path}: row {row_no(start + 1)}: time column must be increasing")
        for i in range(1, len(ts)):
            if abs((ts[i] - ts[i - 1]) - dt) > 1e-6 * abs(dt):
                raise DataError(f"{path}: row {row_no(start + i)}: non-uniform sample spacing")
    if len(values) < _MIN_SAMPLES:
        raise DataError(f"{path}: the decomposition needs at least {_MIN_SAMPLES} samples, "
                        f"got {len(values)}")
    return TimeSeries(values, dt)


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Stream text chunks into a temp file beside ``path``, then rename it over ``path``.

    The file gets the mode ``open()`` would give it (0o666 less the umask).
    Any failure removes the temp file; an ``OSError`` becomes a ``DataError``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)  # the only way to read it is to set it
    os.umask(umask)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fd, 0o666 & ~umask)
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
    cols = [(f"imf{imf.index}", imf.samples) for imf in d.imfs]
    cols.append(("residual", d.residual))
    return cols


def _report_doc(report: CleaningReport, files: dict[str, str]) -> dict:
    cfg = report.config
    config = {
        "emd": asdict(cfg.emd),
        "penalty": cfg.penalty.kind,
        "beta": float(cfg.penalty.beta),
        "min_seg_len": cfg.min_seg_len,
        "gamma": float(cfg.gamma),
        "alpha": float(cfg.alpha),
        "include_residual": cfg.include_residual,
        "penalty_scale": float(cfg.penalty_scale),
    }
    changepoints = [
        {"imf": i + 1, "taus": [int(t) for t in cps.taus]}
        for i, cps in enumerate(report.changepoints)
    ]
    segments = []
    for dec in report.decisions:
        t = dec.test
        segments.append({
            "imf": t.imf_index,
            "start": t.seg_start,
            "end": t.seg_end,
            "s2_before": None if t.s2_before is None else float(t.s2_before),
            "s2_during": float(t.s2_during),
            "s2_after": None if t.s2_after is None else float(t.s2_after),
            "n_before": t.n_before,
            "n_during": t.n_during,
            "n_after": t.n_after,
            "f_stat": float(t.f_stat),
            "p": float(t.p_value),
            "holm_threshold": float(dec.holm_threshold),
            "significant": dec.significant,
        })
    return {
        "config": config,
        "changepoints": changepoints,
        "segments": segments,
        "eta": sorted(report.significant_imfs),
        "diagnostics": list(report.diagnostics),
        "files": files,
    }


def _parse_config_file(path: str, allowed: set[str]) -> dict[str, str]:
    try:
        with open(path) as fh:
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


# config keys and their parsers; each flag is its key with dashes
_EMD_KEYS = {
    "s_number": int,
    "max_sift_iters": int,
    "max_imfs": _parse_max_imfs,
    "ensemble_size": int,
    "noise_amplitude": float,
    "seed": int,
}
_LCDSC_KEYS = {
    "gamma": float,
    "alpha": float,
    "penalty": str,
    "beta": float,
    "minseg": int,
    "include_residual": _parse_bool,
    "penalty_scale": float,
}
_CLEAN_KEYS = {**_EMD_KEYS, **_LCDSC_KEYS}


def _add_emd_flags(parser: argparse.ArgumentParser) -> None:
    d = EmdConfig()
    parser.add_argument("--s-number", help=f"S-stoppage count (default {d.s_number})")
    parser.add_argument("--max-sift-iters",
                        help=f"sifting iteration cap (default {d.max_sift_iters})")
    parser.add_argument("--max-imfs", help="IMF cap, integer or 'auto' (default auto)")
    parser.add_argument("--ensemble-size", help=f"ensemble trials (default {d.ensemble_size})")
    parser.add_argument("--noise-amplitude", help="trial noise sd as a fraction of the signal sd "
                        f"(default {d.noise_amplitude})")
    parser.add_argument("--seed", help=f"random seed (default {d.seed})")


def _add_clean_flags(parser: argparse.ArgumentParser) -> None:
    _add_emd_flags(parser)
    d = LcdscConfig()
    parser.add_argument("--gamma", help=f"variance-ratio gate, >= 1 (default {d.gamma:g})")
    parser.add_argument("--alpha", help=f"family-wise error rate (default {d.alpha})")
    parser.add_argument("--penalty", choices=("aic", "bic", "mbic"),
                        help=f"change-point penalty (default {d.penalty.kind})")
    parser.add_argument("--beta", help="penalty per change point; only with --penalty aic")
    parser.add_argument("--minseg", help="minimum segment length in amplitude cycles "
                        f"(default {d.min_seg_len})")
    parser.add_argument("--penalty-scale", help="penalty multiplier for correlated amplitudes "
                        f"(default {d.penalty_scale})")
    parser.add_argument("--include-residual", action="store_const", const="true",
                        help="add the decomposition residual to the cleaned output")
    parser.add_argument("--config", help="key = value config file; flags take precedence")


def _user_values(args, file_cfg: dict[str, str], keys: dict) -> dict:
    """Parse the settings the user gave, a flag before the config file.

    Keys set in neither are left out, so the config dataclasses supply
    every default.
    """
    values = {}
    for key, parse in keys.items():
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


def _emd_config(args, file_cfg: dict[str, str]) -> EmdConfig:
    return EmdConfig(**_user_values(args, file_cfg, _EMD_KEYS))


def _clean_config(args, file_cfg: dict[str, str]) -> LcdscConfig:
    values = _user_values(args, file_cfg, _LCDSC_KEYS)
    kind, beta = values.pop("penalty", None), values.pop("beta", None)
    if "minseg" in values:
        values["min_seg_len"] = values.pop("minseg")
    if beta is not None and kind != "aic":
        raise UsageError("beta applies only to the aic penalty")
    if kind is not None:
        # aic without a beta is rejected by Penalty
        values["penalty"] = Penalty(kind, beta) if beta is not None else Penalty(kind)
    return LcdscConfig(emd=_emd_config(args, file_cfg), **values)


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
    file_cfg = _parse_config_file(args.config, set(_EMD_KEYS)) if args.config else {}
    series = ingest(args.input, args.format)
    config = _emd_config(args, file_cfg)
    d = eemd(series, config)
    _atomic_write(os.path.join(args.out_dir, "imfs.csv"), _matrix_csv(_decomposition_columns(d)))
    if args.amplitudes:
        cols = [(f"amp{imf.index}", instantaneous_amplitude(imf.samples)) for imf in d.imfs]
        _atomic_write(os.path.join(args.out_dir, "amplitudes.csv"), _matrix_csv(cols))
    return 0


def _cmd_clean(args) -> int:
    file_cfg = _parse_config_file(args.config, set(_CLEAN_KEYS)) if args.config else {}
    series = ingest(args.input, args.format)
    config = _clean_config(args, file_cfg)
    report = lcdsc_clean(series, config)
    _write_report_bundle(report, args.out_dir)
    return 0


def _cmd_sweep_gamma(args) -> int:
    file_cfg = _parse_config_file(args.config, set(_CLEAN_KEYS)) if args.config else {}
    series = ingest(args.input, args.format)
    config = _clean_config(args, file_cfg)
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
    reports = gamma_sweep(series, gammas, config)
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
    seed = args.seed if args.seed is not None else 0
    sigma = args.sigma if args.sigma is not None else 0.2
    meta: dict = {"kind": args.kind, "sigma": float(sigma), "seed": seed}
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
    grid = _parse_grid_file(args.grid)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    file_cfg = _parse_config_file(args.config, set(_CLEAN_KEYS)) if args.config else {}
    config = _clean_config(args, file_cfg)
    results = run_benchmark(methods, grid, args.replicates, config.emd.seed, config=config)
    _atomic_write(args.out, [bench_table(results, timing=args.timing)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lcdsc", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a recording into IMFs")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--amplitudes", action="store_true", help="also write instantaneous amplitudes")
    p.add_argument("--format", choices=("auto", "csv", "plain"), default="auto")
    p.add_argument("--config", default=None)
    _add_emd_flags(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("clean", help="run the full cleaning pipeline")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--format", choices=("auto", "csv", "plain"), default="auto")
    _add_clean_flags(p)
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("sweep-gamma", help="clean at several gamma gates, reusing one decomposition")
    p.add_argument("input")
    p.add_argument("--gammas", required=True, help="comma-separated gamma values, each >= 1")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--format", choices=("auto", "csv", "plain"), default="auto")
    _add_clean_flags(p)
    p.set_defaults(func=_cmd_sweep_gamma)

    p = sub.add_parser("simulate", help="generate a synthetic test recording")
    p.add_argument("kind", choices=("doppler", "chirp", "double"))
    p.add_argument("--out", required=True, help="output directory (noisy.csv, truth.csv, meta.json)")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
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
    _add_clean_flags(p)
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
    except ArithmeticError as exc:
        print(f"lcdsc: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
