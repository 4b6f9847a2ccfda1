"""Command-line frontend: decompose, clean, sweep gammas, simulate, benchmark.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every command is deterministic given its flags; all randomness flows from
``--seed``.  Output files are written atomically (temp file + rename).
The ``LCDSC_THREADS`` environment variable caps the worker count for the
decomposition ensemble (0 or unset picks the CPU count); it never changes
results.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile

import numpy as np

from .changepoint import Penalty
from .cleaning import CleaningReport, LcdscConfig, gamma_sweep, lcdsc_clean
from .emd import Decomposition, EmdConfig, TimeSeries, eemd
from .simulation import (
    LocalSignalSpec,
    METHOD_NAMES,
    bench_table,
    chirp,
    double_doppler,
    local_doppler,
    run_benchmark,
)
from .spectral import instantaneous_amplitude

USAGE_ERROR = 1
DATA_ERROR = 2
NUMERICAL_ERROR = 3


class UsageError(Exception):
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
    per line with an implied unit sample interval.
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
    lines = [ln for ln in content.splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")
    if fmt == "plain":
        samples = []
        for i, line in enumerate(lines, start=1):
            try:
                value = float(line.strip())
            except ValueError:
                raise DataError(f"{path}: row {i}: not a number: {line.strip()!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}: row {i}: non-finite value")
            samples.append(value)
        return TimeSeries(samples, 1.0)

    rows = list(csv.reader(lines))
    start = 0
    try:
        float(rows[0][0])
    except (ValueError, IndexError):
        start = 1  # header row
    if len(rows) - start < 2:
        raise DataError(f"{path}: need at least 2 data rows")
    ts, values = [], []
    for i, row in enumerate(rows[start:], start=start + 1):
        if len(row) != 2:
            raise DataError(f"{path}: row {i}: expected 2 columns, got {len(row)}")
        try:
            t, v = float(row[0]), float(row[1])
        except ValueError:
            raise DataError(f"{path}: row {i}: not a number") from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise DataError(f"{path}: row {i}: non-finite value")
        ts.append(t)
        values.append(v)
    dt = ts[1] - ts[0]
    if dt <= 0:
        raise DataError(f"{path}: row 2: time column must be increasing")
    for i in range(1, len(ts)):
        if abs((ts[i] - ts[i - 1]) - dt) > 1e-6 * abs(dt):
            raise DataError(f"{path}: row {start + i + 1}: non-uniform sample spacing")
    return TimeSeries(values, dt)


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt_float(value: float) -> str:
    if value != value:
        return "nan"
    if value in (float("inf"), float("-inf")):
        return "1e999" if value > 0 else "-1e999"
    return format(value, ".17g")


def _json_dumps(obj, indent: int = 0) -> str:
    """Canonical JSON with floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {_json_dumps(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_json_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _matrix_csv(columns: list[tuple[str, np.ndarray]]) -> str:
    header = ",".join(name for name, _ in columns)
    n = len(columns[0][1]) if columns else 0
    lines = [header]
    for i in range(n):
        lines.append(",".join(_fmt_float(float(col[i])) for _, col in columns))
    return "\n".join(lines) + "\n"


def _decomposition_columns(d: Decomposition) -> list[tuple[str, np.ndarray]]:
    cols = [(f"imf{imf.index}", imf.samples) for imf in d.imfs]
    cols.append(("residual", d.residual))
    return cols


def _report_json(report: CleaningReport, files: dict[str, str]) -> str:
    cfg = report.config
    config = {
        "emd": {
            "s_number": cfg.emd.s_number,
            "max_sift_iters": cfg.emd.max_sift_iters,
            "max_imfs": cfg.emd.max_imfs,
            "ensemble_size": cfg.emd.ensemble_size,
            "noise_amplitude": float(cfg.emd.noise_amplitude),
            "seed": cfg.emd.seed,
        },
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
        segments.append(
            {
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
            }
        )
    doc = {
        "config": config,
        "changepoints": changepoints,
        "segments": segments,
        "eta": sorted(report.significant_imfs),
        "diagnostics": list(report.diagnostics),
        "files": files,
    }
    return _json_dumps(doc) + "\n"


def _parse_config_file(path: str, allowed: set[str]) -> dict[str, str]:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    out: dict[str, str] = {}
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
        out[key] = value
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
    parser.add_argument("--beta", help="aic penalty per change point")
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
    try:
        return EmdConfig(**_user_values(args, file_cfg, _EMD_KEYS))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _clean_config(args, file_cfg: dict[str, str]) -> LcdscConfig:
    values = _user_values(args, file_cfg, _LCDSC_KEYS)
    kind, beta = values.pop("penalty", None), values.pop("beta", None)
    if "minseg" in values:
        values["min_seg_len"] = values.pop("minseg")
    try:
        if kind is not None:
            # beta belongs to the aic penalty only; aic without one is rejected
            aic = kind == "aic" and beta is not None
            values["penalty"] = Penalty(kind, beta) if aic else Penalty(kind)
        return LcdscConfig(emd=_emd_config(args, file_cfg), **values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _workers() -> int:
    raw = os.environ.get("LCDSC_THREADS", "0")
    try:
        count = int(raw)
    except ValueError:
        raise UsageError(f"LCDSC_THREADS must be an integer, got {raw!r}") from None
    if count < 0:
        raise UsageError("LCDSC_THREADS must be nonnegative")
    return count if count > 0 else (os.cpu_count() or 1)


def _write_report_bundle(report: CleaningReport, out_dir: str) -> None:
    d = report.decomposition
    files = {
        "cleaned": "cleaned.csv",
        "cleaned_imfs": "cleaned_imfs.csv",
        "changepoints": "changepoints.csv",
        "imfs": "imfs.csv",
        "amplitudes": "amplitudes.csv",
    }
    _atomic_write(os.path.join(out_dir, "imfs.csv"), _matrix_csv(_decomposition_columns(d)))
    _atomic_write(
        os.path.join(out_dir, "amplitudes.csv"),
        _matrix_csv([(f"amp{i+1}", a) for i, a in enumerate(report.amplitudes)]),
    )
    _atomic_write(
        os.path.join(out_dir, "cleaned_imfs.csv"),
        _matrix_csv([(f"imf{i+1}", c) for i, c in enumerate(report.cleaned_imfs)]),
    )
    _atomic_write(
        os.path.join(out_dir, "cleaned.csv"), _matrix_csv([("cleaned", report.cleaned_signal)])
    )
    cp_lines = ["imf,tau"]
    for i, cps in enumerate(report.changepoints):
        cp_lines.extend(f"{i+1},{tau}" for tau in cps.taus)
    _atomic_write(os.path.join(out_dir, "changepoints.csv"), "\n".join(cp_lines) + "\n")
    _atomic_write(os.path.join(out_dir, "report.json"), _report_json(report, files))


def _cmd_decompose(args) -> int:
    file_cfg = _parse_config_file(args.config, set(_EMD_KEYS)) if args.config else {}
    series = ingest(args.input, args.format)
    config = _emd_config(args, file_cfg)
    d = eemd(series, config, workers=_workers())
    _atomic_write(os.path.join(args.out_dir, "imfs.csv"), _matrix_csv(_decomposition_columns(d)))
    if args.amplitudes:
        cols = [(f"amp{imf.index}", instantaneous_amplitude(imf.samples)) for imf in d.imfs]
        _atomic_write(os.path.join(args.out_dir, "amplitudes.csv"), _matrix_csv(cols))
    return 0


def _cmd_clean(args) -> int:
    file_cfg = _parse_config_file(args.config, set(_CLEAN_KEYS)) if args.config else {}
    series = ingest(args.input, args.format)
    config = _clean_config(args, file_cfg)
    report = lcdsc_clean(series, config, workers=_workers())
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
    if any(g < 1 for g in gammas):
        raise UsageError("every gamma must be at least 1")
    reports = gamma_sweep(series, gammas, config, workers=_workers())
    for gamma, report in zip(gammas, reports):
        _write_report_bundle(report, os.path.join(args.out_dir, f"gamma-{gamma:g}"))
    return 0


def _cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else 0
    sigma = args.sigma if args.sigma is not None else 0.2
    meta: dict = {"kind": args.kind, "sigma": float(sigma), "seed": seed}
    try:
        if args.kind == "doppler":
            t_len = args.T if args.T is not None else 2500
            a_start = args.a_start if args.a_start is not None else (2 * t_len) // 5
            a_end = args.a_end if args.a_end is not None else (3 * t_len) // 5
            noisy, truth, active = local_doppler(
                LocalSignalSpec(t_len, a_start, a_end, sigma, seed)
            )
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
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    t = np.arange(len(noisy)) * noisy.dt
    _atomic_write(
        os.path.join(args.out, "noisy.csv"), _matrix_csv([("t", t), ("value", noisy.samples)])
    )
    _atomic_write(
        os.path.join(args.out, "truth.csv"), _matrix_csv([("t", t), ("value", truth)])
    )
    _atomic_write(os.path.join(args.out, "meta.json"), _json_dumps(meta) + "\n")
    return 0


_GRID_KEYS = ("T", "sigma", "locality")


def _parse_grid_file(path: str) -> list[tuple[int, float, float]]:
    raw = _parse_config_file(path, set(k.lower() for k in _GRID_KEYS) | set(_GRID_KEYS))
    lowered = {k.lower(): v for k, v in raw.items()}

    def values(key: str, parse, default):
        if key not in lowered:
            return default
        try:
            return [parse(v) for v in lowered[key].split(",") if v.strip()]
        except ValueError:
            raise UsageError(f"grid key {key!r}: cannot parse {lowered[key]!r}") from None

    t_lens = values("t", int, [2500])
    sigmas = values("sigma", float, [0.2])
    localities = values("locality", float, [0.25])
    return [(t, s, r) for t in t_lens for s in sigmas for r in localities]


def _cmd_bench(args) -> int:
    grid = _parse_grid_file(args.grid)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods must list at least one method")
    unknown = [m for m in methods if m not in METHOD_NAMES]
    if unknown:
        raise UsageError(f"unknown method name(s): {', '.join(unknown)}")
    if args.replicates < 1:
        raise UsageError("--replicates must be at least 1")
    file_cfg = _parse_config_file(args.config, set(_CLEAN_KEYS)) if args.config else {}
    config = _clean_config(args, file_cfg)
    results = run_benchmark(
        methods, grid, args.replicates, config.emd.seed, config=config, workers=_workers(),
    )
    _atomic_write(args.out, bench_table(results, timing=args.timing))
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
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--a-start", type=int, default=None)
    p.add_argument("--a-end", type=int, default=None)
    p.add_argument("--f0", type=float, default=None)
    p.add_argument("--f1", type=float, default=None)
    p.add_argument("--delta", type=int, default=None)
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
    except UsageError as exc:
        print(f"lcdsc: usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except DataError as exc:
        print(f"lcdsc: data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (ValueError, ArithmeticError, FloatingPointError) as exc:
        print(f"lcdsc: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
