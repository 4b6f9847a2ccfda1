"""Outputs keep their bytes: SHA-256 digests of a few small runs.

Each case hashes every part of one run separately, floats by their exact
bits, and compares with ``tests/data/output_digests.json``, so a failure
names the parts that moved.  The cases cover ``lcdsc_clean`` on
``local_doppler`` (T = 2500, 4 trials, two seeds), a plain ``emd`` of an
integer-quantized recording (flat runs and exact zeros take the tie
paths), and every file that ``simulate`` and ``clean`` write at T = 1200
with 3 trials.

Bytes are promised only on the NumPy and SciPy versions they were
recorded with, so the test skips on others.  After a deliberate change of
results, re-record with::

    PYTHONPATH=src python tests/test_output_digests.py --record
"""

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from lcdsc import EmdConfig, LcdscConfig, LocalSignalSpec, lcdsc_clean, local_doppler
from lcdsc.cli import main
from lcdsc.emd import emd

DIGESTS = Path(__file__).resolve().parent / "data" / "output_digests.json"


def _canon(value):
    """``value`` as JSON-ready data with every float spelled by its exact bits."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if value is None or isinstance(value, str):
        return value
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [_canon(getattr(value, f.name))
                                         for f in dataclasses.fields(value)]
    if isinstance(value, frozenset):
        return sorted(_canon(v) for v in value)
    return [_canon(v) for v in value]


def _sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = repr(data.shape).encode() + np.ascontiguousarray(data, dtype=float).tobytes()
    elif not isinstance(data, bytes):
        data = json.dumps(_canon(data)).encode()
    return hashlib.sha256(data).hexdigest()


def _decomposition_parts(d) -> dict:
    return {"imfs": _sha(d.imfs), "residual": _sha(d.residual),
            "truncated": _sha(d.truncated), "emd_diagnostics": _sha(d.diagnostics)}


def _clean_case(seed: int) -> dict:
    noisy, _, _ = local_doppler(LocalSignalSpec(2500, 1000, 1500, 0.2, seed=seed))
    report = lcdsc_clean(noisy, LcdscConfig(emd=EmdConfig(ensemble_size=4, seed=seed)))
    return {
        **_decomposition_parts(report.decomposition),
        "amplitudes": _sha(report.amplitudes),
        "cleaned_imfs": _sha(report.cleaned_imfs),
        "cleaned_signal": _sha(report.cleaned_signal),
        "changepoints": _sha([(cps.taus, cps.total_cost) for cps in report.changepoints]),
        "decisions": _sha(report.decisions),
        "significant_imfs": _sha(report.significant_imfs),
        "diagnostics": _sha(report.diagnostics),
    }


def _quantized_emd_case() -> dict:
    noisy, _, _ = local_doppler(LocalSignalSpec(1000, 400, 600, 0.3, seed=3))
    x = np.round(4 * noisy.samples)
    assert not np.all(x) and not np.all(np.diff(x))  # exact zeros and flat runs
    return _decomposition_parts(emd(x))


def _cli_case(tmp_path) -> dict:
    sim, out = tmp_path / "sim", tmp_path / "clean"
    assert main(["simulate", "doppler", "--T", "1200", "--a-start", "480", "--a-end", "720",
                 "--sigma", "0.2", "--seed", "7", "--out", str(sim)]) == 0
    assert main(["clean", str(sim / "noisy.csv"), "--out-dir", str(out),
                 "--ensemble-size", "3", "--seed", "7"]) == 0
    return {f"{directory.name}/{path.name}": _sha(path.read_bytes())
            for directory in (sim, out) for path in sorted(directory.iterdir())}


CASES = {
    "lcdsc_clean-seed-1": lambda tmp_path: _clean_case(1),
    "lcdsc_clean-seed-2": lambda tmp_path: _clean_case(2),
    "emd-quantized": lambda tmp_path: _quantized_emd_case(),
    "cli-simulate-clean": _cli_case,
}


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _recorded() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_their_recorded_digests(name, tmp_path):
    recorded = _recorded()
    if recorded["versions"] != _versions():
        pytest.skip(f"digests were recorded on {recorded['versions']}, not {_versions()}")
    assert CASES[name](tmp_path) == recorded["digests"][name]


def _record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for name, case in CASES.items():
            (Path(tmp) / name).mkdir()
            digests[name] = case(Path(tmp) / name)
    DIGESTS.parent.mkdir(exist_ok=True)
    with open(DIGESTS, "w") as fh:
        json.dump({"versions": _versions(), "digests": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_output_digests.py --record")
    _record()
