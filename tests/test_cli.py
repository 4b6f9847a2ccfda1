import codecs
import json
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcdsc
from lcdsc import EmdConfig, LcdscConfig, keep_subset, lcdsc_clean
from lcdsc import cli
from lcdsc.cli import _atomic_write, _matrix_csv, ingest, main


def run_cli(*args):
    return main(list(args))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run_cli(
        "simulate", "doppler", "--T", "600", "--a-start", "240", "--a-end", "360",
        "--sigma", "0.2", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    return out


def _restyled(text: str, style: int) -> str:
    """A float's text in another spelling of the same value: signs, ``.5``, ``5.``."""
    sign = text[:1] if text[:1] in "+-" else ""
    body = text[len(sign):]
    if style == 1 and not sign:
        return "+" + text
    if style == 2 and body.startswith("0.") and body[2:3].isdigit():
        return sign + body[1:]
    if style == 3 and body.isdigit():
        return text + "."
    if style == 4:
        return text.replace("e", "E")
    return text


_float_texts = st.tuples(
    st.sampled_from(["", "+", "-"]),
    st.text("0123456789", max_size=25),
    st.sampled_from(["", "."]),
    st.text("0123456789", max_size=25),
    st.sampled_from(["", "e", "E", "e+", "e-", "E-"]),
    st.text("0123456789", min_size=1, max_size=2),
).filter(lambda p: (p[1] + p[3]) and (p[2] or not p[3])).map(
    lambda p: "".join(p[:4]) + (p[4] + p[5] if p[4] else ""))


@st.composite
def numeric_texts(draw, fmt: str) -> str:
    """Plain numeric text for ``ingest``: optional csv header, blank lines, varied spellings."""
    n = draw(st.integers(4, 40))
    values = draw(st.lists(
        st.one_of(_float_texts,
                  st.floats(allow_nan=False, allow_infinity=False).map(repr),
                  st.integers(-10**6, 10**6).map(str)),
        min_size=n, max_size=n))
    styles = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    rows = [_restyled(v, k) for v, k in zip(values, styles)]
    if fmt == "csv":
        step = draw(st.sampled_from([1.0, 0.5, 0.01, 2e-3, 125.0]))
        start = draw(st.sampled_from([0.0, -3.0, 1e4]))
        spell = draw(st.sampled_from(["{!r}", "{:.17g}", "{:.9e}"]))
        rows = [_restyled(spell.format(start + i * step), k) + "," + v
                for i, (v, k) in enumerate(zip(rows, styles))]
        if draw(st.booleans()):
            rows.insert(0, draw(st.sampled_from(["t,value", "time (s),amp", "x", "t,v,w"])))
    for _ in range(draw(st.integers(0, 4))):
        rows.insert(draw(st.integers(0, len(rows))), "")
    text = "\n".join(rows)
    return text + "\n" if draw(st.booleans()) else text


def _per_row_reader(*args):
    raise AssertionError("ingest ran its per-row reader")


def _under_line_ends(cases, ids):
    """Each ``(name, text, message)`` case with LF, CRLF and CR line ends; LF keeps its id."""
    return [pytest.param(name, text.replace("\n", end), message, id=case_id + suffix)
            for (name, text, message), case_id in zip(cases, ids)
            for suffix, end in [("", "\n"), ("-crlf", "\r\n"), ("-cr", "\r")]]


class TestIngest:
    def test_plain(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1\n2\n3\n4\n")
        series = ingest(str(path), "plain")
        assert series.samples.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert series.dt == 1.0

    def test_csv_dt(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("t,value\n0.00,1\n0.01,2\n0.02,3\n0.03,4\n")
        series = ingest(str(path))
        assert series.dt == pytest.approx(0.01)
        assert series.samples.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("0,5\n1,6\n2,7\n3,8\n")
        assert ingest(str(path)).samples.tolist() == [5.0, 6.0, 7.0, 8.0]

    @pytest.mark.parametrize("name, text", [
        ("x.csv", "0,1\n1,2\n2,3\n3,4\n4,5\n"),
        ("x.txt", "1\n2\n3\n4\n5\n"),
    ], ids=["csv", "plain"])
    def test_utf8_byte_order_mark_is_skipped(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert ingest(str(path)).samples.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_gap_names_offending_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("t,value\n0,1\n1,2\n3,4\n")
        code = run_cli("decompose", str(path), "--out-dir", str(tmp_path / "o"))
        assert code == 2

    @pytest.mark.parametrize(
        "text, row", [("t,value\n1,1\n0,2\n2,3\n", 3), ("1,1\n0,2\n2,3\n", 2)],
        ids=["header", "no-header"],
    )
    def test_decreasing_time_names_offending_row(self, tmp_path, capsys, text, row):
        path = tmp_path / "x.csv"
        path.write_text(text)
        assert run_cli("decompose", str(path), "--out-dir", str(tmp_path / "o")) == 2
        assert f"row {row}: time column must be increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, message", [
        ("x.csv", "t,value\n\n0,1\n1,2\n\n2,x\n", "row 6: not a number"),
        ("x.txt", "1\n\n2\nfoo\n", "row 4: not a number"),
        ("x.csv", 't,value\n\n0,"1\n2"\n1,3\n2,4\n', "row 3: quoted field runs past the end"),
        ("x.csv", "t,value\n0,1_0\n1,2\n2,3\n3,x\n", "row 5: not a number"),
        ("x.csv", "t,value\n0,1\x0c1,2\n2,3\n3,x\n", "row 5: not a number"),
        ("x.csv", "t,value\n0,1\n \t\n1,2\n2,3\n3,x\n", "row 6: not a number"),
        ("x.csv", 't,value\n0,"1"\n1,"2"\n2,"3"\n3,"x"\n', "row 5: not a number"),
        ("x.csv", "t,value\n0,1\n1,2\n2,1e999\n3,4\n", "row 4: non-finite value"),
        ("x.csv", "t,value\n0,1\n1,2\n2,inf\n3,4\n", "row 4: non-finite value"),
        ("x.csv", "t,value\n0,1\n1,2,3\n2,3\n3,4\n", "row 3: expected 2 columns, got 3"),
        ("x.csv", "t,value\n", "the decomposition needs at least 4 samples, got 0"),
        ("x.csv", "t,value\n\n0,1\n1,2\n2,3\n", "the decomposition needs at least 4 samples, got 3"),
        ("x.txt", "1\n2\n1e999\n4\n", "row 3: non-finite value"),
        ("x.csv", "t,value\n0,1\n1,2\n3,3\n4,4\n", "row 4: non-uniform sample spacing"),
        ("x.csv", "t,value\n0,1\n1,0." + "0" * 140_000 + "1\n2,3\n3,4\n",
         "row 3: field larger than field limit"),
        ("x.csv", "t" * 140_000 + ",value\n0,1\n1,2\n2,3\n3,4\n",
         "row 1: field larger than field limit"),
        ("x.csv", "t,value\n-1.5e308,1\n1.5e308,2\n1.6e308,3\n1.7e308,4\n",
         "row 3: time step overflows"),
    ], ids=["csv", "plain", "csv-quoted-newline", "underscore", "form-feed", "whitespace-line",
            "quoted-numbers", "overflow-inf", "inf", "three-columns", "header-only",
            "three-rows", "plain-overflow-inf", "gap", "long-finite-field", "long-header-field",
            "overflowing-step"])
    def test_errors_name_file_lines(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on text without a row
            assert run_cli("decompose", str(path), "--out-dir", str(tmp_path / "o")) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name, text", [
        ("x.csv", "t,value\n0,1_0\n1,2\n2,3\n3,4\n"),
        ("x.csv", "t,value\n0,1\x0c1,2\n2,3\n3,4\n"),
        ("x.csv", "t,value\n0,1\n \t\n1,2\n2,3\n3,4\n"),
        ("x.csv", "  \n0,1\n1,2\n2,3\n3,4\n"),
        ("x.csv", 't,value\n0,"1"\n1,"2"\n2,3\n3,4\n'),
        ("x.csv", "t,value\n0, 1\n1,2\n2,3\n3,4\n"),
        ("x.csv", "\u00b5s,value\n0,1\n1,2\n2,3\n3,4\n"),
        ("x.csv", "t,value\n0,1\n1,2\n2,3\n3,4\u2028"),
        ("x.txt", "1\n2\n3\n4\x1e"),
        ("x.txt", "1\n2\n 3\n4\n"),
        # two fields within csv's field limit on one line longer than it
        ("x.csv", "t,value\n0,1\n1,2\n2." + "0" * 70_000 + ",3." + "0" * 70_000 + "\n3,4\n"),
    ], ids=["underscore", "form-feed", "whitespace-line", "leading-spaces-line",
            "quoted-numbers", "space",
            "non-ascii-header", "line-separator", "record-separator", "plain-space",
            "line-over-field-limit"])
    def test_text_beyond_plain_numbers_takes_the_per_row_reader(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(text.encode())
        fmt = "csv" if name.endswith(".csv") else "plain"
        assert cli._numeric_series(str(path), fmt, text.encode()) is None
        series = ingest(str(path))
        assert series.samples.tobytes() == cli._row_series(str(path), fmt, text).samples.tobytes()
        assert len(series) == 4

    @pytest.mark.parametrize("bom, line_end", [
        (b"", b"\n"), (b"", b"\r\n"), (b"", b"\r"), (codecs.BOM_UTF8, b"\r\n"),
    ], ids=["lf", "crlf", "cr", "bom-crlf"])
    def test_c_reader_memory_is_bounded_by_the_file_size(self, tmp_path, monkeypatch, bom,
                                                          line_end):
        assert run_cli("simulate", "doppler", "--T", "20000", "--a-start", "8000",
                       "--a-end", "12000", "--seed", "1", "--out", str(tmp_path)) == 0
        path = tmp_path / "noisy.csv"
        lf = ingest(str(path))  # first-call imports and caches stay out of the peak
        path.write_bytes(bom + path.read_bytes().replace(b"\n", line_end))
        monkeypatch.setattr(cli, "_row_series", _per_row_reader)
        tracemalloc.start()
        try:
            series = ingest(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert len(series) == 20000 and size > 400_000
        assert peak <= 3 * size, (peak, size)
        assert series.samples.tobytes() == lf.samples.tobytes() and series.dt.hex() == lf.dt.hex()

    @pytest.mark.parametrize("name, text, message", _under_line_ends([
        ("x.csv", "t,value\n0,1\n1,2\n2,1e999\n3,4\n", "row 4: non-finite value"),
        ("x.csv", "t,value\n\n0,1\n1,2\n2,3\n", "the decomposition needs at least 4 samples, got 3"),
        ("x.txt", "1\n2\n1e999\n4\n", "row 3: non-finite value"),
        ("x.csv", "t,value\n0,1\n1,2\n3,3\n4,4\n", "row 4: non-uniform sample spacing"),
        ("x.csv", "t,value\n-1.5e308,1\n1.5e308,2\n1.6e308,3\n1.7e308,4\n",
         "row 3: time step overflows"),
        ("x.csv", "t,value\n1,1\n0,2\n2,3\n", "row 3: time column must be increasing"),
        ("x.csv", "1,1\n0,2\n2,3\n", "row 2: time column must be increasing"),
    ], ["overflow-inf", "three-rows", "plain-overflow-inf", "gap", "overflowing-step",
        "decreasing-header", "decreasing-no-header"]))
    def test_c_reader_names_value_faults(self, tmp_path, capsys, monkeypatch, name, text,
                                         message):
        # plain numeric text with a bad value is read once, by the C reader
        monkeypatch.setattr(cli, "_row_series", _per_row_reader)
        path = tmp_path / name
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("decompose", str(path), "--out-dir", str(tmp_path / "o")) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, message", _under_line_ends([
        ("x.csv", "t,value\n0,1\n1,inf\n2,x\n3,4\n", "row 4: not a number"),
        ("x.txt", "1\n1e999\nx\n4\n", "row 3: not a number: 'x'"),
    ], ["csv", "plain"]))
    def test_per_row_reader_names_parse_faults_before_value_faults(self, tmp_path, name, text,
                                                                    message):
        path = tmp_path / name
        path.write_bytes(text.encode())
        with pytest.raises(cli.DataError, match=message):
            ingest(str(path))

    @pytest.mark.parametrize("text, message", [
        ("1\n2\n3\n4\n", "row 1: expected 2 columns, got 1"),
        ("t,value\n0,1,2\n1,2,3\n2,3,4\n3,4,5\n", "row 2: expected 2 columns, got 3"),
    ], ids=["one-column", "three-columns"])
    def test_csv_of_another_column_count_takes_the_per_row_reader(self, tmp_path, text,
                                                                  message):
        # loadtxt parses these, into a column count the C reader then turns down
        path = tmp_path / "x.csv"
        path.write_text(text)
        assert cli._numeric_series(str(path), "csv", text.encode()) is None
        with pytest.raises(cli.DataError, match=message):
            cli._row_series(str(path), "csv", text)
        with pytest.raises(cli.DataError, match=message):
            ingest(str(path))

    def test_value_fault_memory_is_bounded_by_the_file_size(self, tmp_path):
        assert run_cli("simulate", "doppler", "--T", "20000", "--a-start", "8000",
                       "--a-end", "12000", "--seed", "1", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "noisy.csv").read_text().splitlines()
        dt = float(lines[2].split(",")[0]) - float(lines[1].split(",")[0])
        for k in range(101, len(lines)):  # the time column jumps by half a step at row 102
            t, v = lines[k].split(",")
            lines[k] = f"{float(t) + dt / 2!r},{v}"
        path = tmp_path / "jump.csv"
        path.write_text("\n".join(lines) + "\n")
        message = "row 102: non-uniform sample spacing"
        with pytest.raises(cli.DataError, match=message):  # imports and caches stay out
            ingest(str(path))
        tracemalloc.start()
        try:
            with pytest.raises(cli.DataError, match=message):
                ingest(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 400_000
        assert peak <= 10 * size, (peak, size)

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_c_reader_matches_per_row_reader(self, tmp_path_factory, data):
        fmt = data.draw(st.sampled_from(["csv", "plain"]))
        text = data.draw(numeric_texts(fmt))
        line_end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        bom = data.draw(st.sampled_from(["", "\ufeff"]))
        path = tmp_path_factory.mktemp("ingest") / f"x.{'csv' if fmt == 'csv' else 'txt'}"
        path.write_bytes((bom + text.replace("\n", line_end)).encode())
        fast = cli._numeric_series(str(path), fmt, text.encode())  # ingest's normalised bytes
        assert fast is not None
        reference = cli._row_series(str(path), fmt, text)  # the reader of every other text
        assert fast.samples.tobytes() == reference.samples.tobytes()
        assert type(fast.dt) is float and fast.dt.hex() == reference.dt.hex()
        with mock.patch.object(cli, "_row_series", _per_row_reader):
            series = ingest(str(path), fmt)
        assert series.samples.tobytes() == reference.samples.tobytes()
        assert series.dt.hex() == reference.dt.hex()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_path_is_read_once(self, monkeypatch):
        # a pipe gives its bytes once: a second open of the path would read nothing
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(b"t,value\n0,1\n1,2\n2,3\n3,5\n")
        monkeypatch.setattr(cli, "_row_series", _per_row_reader)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns on a stream without data
                series = ingest(f"/dev/fd/{read_fd}", "csv")
        finally:
            os.close(read_fd)
        assert series.samples.tolist() == [1.0, 2.0, 3.0, 5.0] and series.dt == 1.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        code = run_cli("decompose", str(path), "--out-dir", str(tmp_path / "o"))
        assert code == 2

    def test_missing_file(self, tmp_path):
        code = run_cli("decompose", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "o"))
        assert code == 2


def _csv_bytes(values, newline="\n") -> bytes:
    rows = ["t,value"] + [f"{i},{float(v)!r}" for i, v in enumerate(values)]
    return "".join(row + newline for row in rows).encode()


_SINE = np.sin(np.arange(200) / 3.0) + 0.1 * (np.arange(200) * 7 % 5)
_HOSTILE_INPUTS = {
    "nan": (b"t,value\n0,1\n1,nan\n2,3\n3,1\n", 2),
    "inf": (b"t,value\n0,1\n1,-inf\n2,3\n3,1\n", 2),
    "one-row": (b"t,value\n0,1\n", 2),
    "header-only": (b"t,value\n", 2),
    "three-rows": (b"t,value\n0,1\n1,-1\n2,2\n", 2),
    "huge-field": (b"t,value\n0,1\n1," + b"2" * 200_000 + b"\n2,3\n3,1\n", 2),
    "not-utf8": (b"t,value\n0,1\n1,\xff\xfe\n", 2),
    "crlf": (_csv_bytes(_SINE, "\r\n"), 0),
    "constant": (_csv_bytes(np.full(200, 2.5)), 0),
    "n4": (b"t,value\n0,1\n1,-1\n2,2\n3,0\n", 0),
    "1e300": (_csv_bytes(np.random.default_rng(0).normal(0, 1, 100) * 1e300), 3),
    # the per-row reader's ground: each exits as it did before the C reader existed
    "underscore": (b"t,value\n0,1_0\n1,-1\n2,2\n3,0\n", 0),
    "form-feed": (b"t,value\n0,1\x0c1,-1\n2,2\n3,0\n", 0),
    "whitespace-line": (b"t,value\n0,1\n \t \n1,-1\n2,2\n3,0\n", 0),
    "quoted-numbers": (b't,value\n"0","1"\n1,"-1"\n2,2\n3,0\n', 0),
    "overflow-inf": (b"t,value\n0,1\n1,1e999\n2,3\n3,1\n", 2),
    "three-columns": (b"t,value\n0,1\n1,-1,5\n2,2\n3,0\n", 2),
    "blank-after-header": (b"t,value\n\n\n", 2),
    # an infinite first step, and a later one whose difference overflows
    "overflowing-first-step": (b"t,value\n-1.5e308,1\n1.5e308,2\n1.6e308,3\n1.7e308,4\n", 2),
    "overflowing-later-step": (b"t,value\n0,1\n1,2\n-1.5e308,3\n1.5e308,4\n", 2),
}
_HOSTILE_CONFIGS = {
    "nan-gamma": (b"gamma = nan\n", 1),
    "no-equals": (b"gamma 2\n", 1),
    "unknown-key": (b"min_seg_len = 3\n", 1),
    "unparsable": (b"ensemble_size = 2.5\n", 1),
    "repeated-key": (b"gamma = 2\ngamma = 3\n", 1),
    "repeated-key-spelling": (b"ensemble-size = 2\nensemble_size = 3\n", 1),
    "not-utf8": (b"\xff\xfe = 3\n", 2),
    "crlf": (b"gamma = 2\r\nensemble_size = 2\r\n", 0),
    "utf8-bom": (b"\xef\xbb\xbfgamma = 2\nensemble_size = 2\n", 0),
    "comments-and-blank-lines": (b"# run settings\n\nensemble_size = 2  # fast\n \t\n"
                                 b"include_residual = off\n\n", 0),
    "huge-noise": (b"noise_amplitude = 1e308\n", 3),
    # passes eemd's noise-scale check, then overflows the change point prefix sums
    "noise-1e154": (b"noise_amplitude = 1e154\nensemble_size = 2\n", 3),
    # change point penalties whose total over the most changes overflows
    "aic-beta-1e308": (b"penalty = aic\nbeta = 1e308\nensemble_size = 2\n", 3),
    "bic-scale-1e308": (b"penalty = bic\npenalty_scale = 1e308\nensemble_size = 2\n", 3),
    "mbic-scale-1e307": (b"penalty_scale = 1e307\nensemble_size = 2\n", 3),
}


class TestExitCodeContract:
    """Hostile input and config files end with their documented exit code, one
    ``lcdsc:`` line for a failure, and no traceback or warning."""

    @staticmethod
    def run_clean(tmp_path, capsys, data: bytes, config: bytes | None = None):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        args = ["clean", str(path), "--out-dir", str(tmp_path / "o")]
        if config is None:
            args += ["--ensemble-size", "2"]
        else:
            (tmp_path / "run.cfg").write_bytes(config)
            args += ["--config", str(tmp_path / "run.cfg")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(*args)
        return code, capsys.readouterr().err.splitlines()

    @staticmethod
    def check(code, err, want):
        assert code == want, err
        if code:
            assert len(err) == 1 and err[0].startswith("lcdsc: "), err
        else:
            assert err == []

    @pytest.mark.parametrize("name", list(_HOSTILE_INPUTS))
    def test_input(self, tmp_path, capsys, name):
        data, want = _HOSTILE_INPUTS[name]
        self.check(*self.run_clean(tmp_path, capsys, data), want)

    @pytest.mark.parametrize("name", list(_HOSTILE_CONFIGS))
    def test_config_file(self, tmp_path, capsys, name):
        config, want = _HOSTILE_CONFIGS[name]
        self.check(*self.run_clean(tmp_path, capsys, _csv_bytes(_SINE), config), want)

    @pytest.mark.parametrize("flags, want", [
        ("--max-imfs 1000000000", 0),
        ("--noise-amplitude 1e300", 3),
        ("--penalty-scale 1e308", 3),
        ("--penalty aic --beta 1e308", 3),
        ("--minseg 1000000000", 0),
        ("--s-number 1000000000", 0),
        ("--alpha 1e-320", 0),
        ("--gamma 1e308", 0),
        ("--ensemble-size 0", 1),
    ])
    def test_extreme_setting(self, sim_dir, tmp_path, capsys, flags, want):
        args = ("clean", str(sim_dir / "noisy.csv"), "--ensemble-size", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(*args, *flags.split(), "--out-dir", str(tmp_path / "o"))
        self.check(code, capsys.readouterr().err.splitlines(), want)
        if flags.startswith("--max-imfs"):
            # a cap above every trial's width decomposes as the automatic one does
            assert run_cli(*args, "--max-imfs", "40", "--out-dir", str(tmp_path / "ref")) == 0
            assert read(tmp_path / "o" / "imfs.csv") == read(tmp_path / "ref" / "imfs.csv")

    # each asks for about 7 PiB, more than a process can map, so numpy fails at once
    @pytest.mark.parametrize("args", [
        ("simulate", "doppler", "--T", "1000000000000000"),
        ("simulate", "chirp", "--T", "1000000000000000"),
        ("simulate", "double", "--delta", "1000000000000000"),
        ("bench", "--methods", "none"),
    ], ids=["doppler", "chirp", "double", "bench"])
    def test_size_the_host_cannot_hold_is_a_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        if args[0] == "bench":
            (tmp_path / "grid.cfg").write_text("T = 1000000000000000\n")
            args += ("--grid", str(tmp_path / "grid.cfg"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(*args, "--out", str(out))
        err = capsys.readouterr().err.splitlines()
        assert code == 1, err
        assert len(err) == 1 and err[0].startswith("lcdsc: usage error: out of memory: "), err
        assert not out.exists()

    def test_overflowing_penalty_flag_is_a_numerical_failure(self, tmp_path, capsys):
        path = tmp_path / "sine.csv"
        path.write_bytes(_csv_bytes(_SINE))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("clean", str(path), "--out-dir", str(tmp_path / "o"),
                           "--ensemble-size", "2", "--penalty", "aic", "--beta", "1e308")
        err = capsys.readouterr().err.splitlines()
        assert code == 3 and len(err) == 1, err
        assert err[0].startswith("lcdsc: numerical failure: aic penalty overflows"), err


def _fmt_float(value: float) -> str:
    if value != value:
        return "nan"
    if value in (float("inf"), float("-inf")):
        return "1e999" if value > 0 else "-1e999"
    return format(value, ".17g")


def per_cell_csv(columns):
    """Reference for ``_matrix_csv``: one ``_fmt_float`` call per cell."""
    lines = [",".join(name for name, _ in columns)]
    n = len(columns[0][1]) if columns else 0
    for i in range(n):
        lines.append(",".join(_fmt_float(float(col[i])) for _, col in columns))
    return "\n".join(lines) + "\n"


class TestMatrixCsv:
    def test_matches_per_cell_formatting(self):
        special = np.array([
            np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308,
            1e-300, 1e300, 0.1, -1.0,
        ])
        rng = np.random.default_rng(3)
        n = 9001  # more rows than one formatting block
        columns = [
            ("special", np.resize(special, n)),
            ("wide", rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)),
            ("unit", rng.normal(size=n)),
        ]
        assert "".join(_matrix_csv(columns)) == per_cell_csv(columns)

    def test_zero_rows_and_zero_columns(self):
        columns = [("a", np.zeros(0)), ("b", np.zeros(0))]
        assert "".join(_matrix_csv(columns)) == per_cell_csv(columns) == "a,b\n"
        assert "".join(_matrix_csv([])) == per_cell_csv([]) == "\n"


class TestAtomicWrite:
    def test_matrix_streams_in_bounded_memory(self, tmp_path):
        rng = np.random.default_rng(0)
        columns = [(f"c{j}", rng.normal(size=20000)) for j in range(15)]
        path = tmp_path / "m.csv"
        tracemalloc.start()
        try:
            _atomic_write(str(path), _matrix_csv(columns))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 5_000_000
        assert peak < size / 2, (peak, size)

    def test_umask_is_left_alone(self, tmp_path, monkeypatch):
        # the kernel applies the umask; setting it would change it for every thread
        def no_umask(mask):
            raise AssertionError("os.umask was called")

        monkeypatch.setattr(os, "umask", no_umask)
        _atomic_write(str(tmp_path / "x.csv"), ["a,b\n"])
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
        assert (tmp_path / "x.csv").read_text() == "a,b\n"

    def test_failing_chunk_source_leaves_nothing(self, tmp_path):
        def chunks():
            yield "a,b\n"
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            _atomic_write(str(tmp_path / "x.csv"), chunks())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["clean", "decompose"])
    def test_out_dir_naming_a_file_is_data_error(self, sim_dir, tmp_path, capsys, command):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        assert run_cli(command, str(sim_dir / "noisy.csv"), "--out-dir", str(blocker),
                       "--ensemble-size", "2") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("lcdsc: data error: "), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
    def test_output_files_take_the_umask_mode(self, sim_dir, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            assert run_cli("simulate", "doppler", "--T", "300", "--out", str(tmp_path / "s")) == 0
            assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(tmp_path / "c"),
                           "--ensemble-size", "2") == 0
        finally:
            os.umask(previous)
        written = sorted((tmp_path / "s").iterdir()) + sorted((tmp_path / "c").iterdir())
        assert len(written) == 3 + 6
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in written}
        assert modes == dict.fromkeys(modes, mode)


class TestSimulate:
    def test_outputs_exist_and_parse(self, sim_dir):
        noisy = ingest(str(sim_dir / "noisy.csv"))
        truth = ingest(str(sim_dir / "truth.csv"))
        assert len(noisy) == 600
        assert len(truth) == 600
        meta = json.loads((sim_dir / "meta.json").read_text())
        assert meta["active"] == [240, 360]

    def test_chirp_and_double(self, tmp_path):
        assert run_cli("simulate", "chirp", "--T", "300", "--f0", "0.01", "--f1", "0.1",
                       "--sigma", "0.1", "--seed", "1", "--out", str(tmp_path / "c")) == 0
        assert run_cli("simulate", "double", "--delta", "100", "--sigma", "0.2",
                       "--seed", "2", "--out", str(tmp_path / "d")) == 0
        meta = json.loads((tmp_path / "d" / "meta.json").read_text())
        assert meta["active1"] == [500, 1000]
        assert meta["active2"] == [1100, 1600]

    def test_invalid_parameters(self, tmp_path):
        assert run_cli("simulate", "chirp", "--T", "300", "--f0", "0.9",
                       "--out", str(tmp_path / "c")) == 1

    @pytest.mark.parametrize("args", [
        ("doppler", "--sigma", "nan"),
        ("doppler", "--sigma", "inf"),
        ("chirp", "--f0", "nan"),
        ("chirp", "--f1", "nan"),
        ("double", "--sigma", "nan"),
        ("doppler", "--sigma", "1e308"),
        ("chirp", "--sigma", "1e308"),
        ("double", "--sigma", "1e308"),
    ], ids=lambda args: " ".join(args))
    def test_parameter_without_finite_recording_is_usage_error(self, tmp_path, args):
        assert run_cli("simulate", *args, "--out", str(tmp_path / "s")) == 1
        assert not (tmp_path / "s").exists()

    def test_empty_active_interval_is_usage_error(self, tmp_path, capsys):
        args = ("doppler", "--T", "600", "--a-start", "300", "--a-end", "300")
        assert run_cli("simulate", *args, "--out", str(tmp_path / "s")) == 1
        assert "a_start < a_end" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("args", [
        ("doppler", "--delta", "5"),
        ("chirp", "--a-start", "3"),
        ("double", "--T", "900"),
    ], ids=lambda args: " ".join(args))
    def test_flag_of_another_kind_is_usage_error(self, tmp_path, capsys, args):
        assert run_cli("simulate", *args, "--out", str(tmp_path / "s")) == 1
        assert args[1] in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("args", [
        ("doppler", "--T", "300", "--sigma"),
        ("chirp", "--T", "300", "--sigma"),
        ("double", "--delta", "10", "--sigma"),
        ("chirp", "--T", "300", "--f0"),
    ], ids=lambda args: " ".join(args))
    def test_negative_zero_writes_the_bytes_of_zero(self, tmp_path, args):
        for zero in ("-0", "0"):
            assert run_cli("simulate", *args, zero, "--out", str(tmp_path / zero)) == 0
        for name in ("noisy.csv", "truth.csv", "meta.json"):
            assert read(tmp_path / "-0" / name) == read(tmp_path / "0" / name), name

    def test_options_before_the_kind(self, tmp_path):
        assert run_cli("simulate", "--out", str(tmp_path / "s"), "--T", "300", "chirp") == 0
        assert len(ingest(str(tmp_path / "s" / "noisy.csv"))) == 300


class TestDecompose:
    def test_writes_imfs_and_amplitudes(self, sim_dir, tmp_path):
        out = tmp_path / "dec"
        code = run_cli("decompose", str(sim_dir / "noisy.csv"), "--out-dir", str(out),
                       "--amplitudes", "--ensemble-size", "4", "--seed", "5")
        assert code == 0
        header = (out / "imfs.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "imf1"
        assert header[-1] == "residual"
        amp_header = (out / "amplitudes.csv").read_text().splitlines()[0].split(",")
        assert len(amp_header) == len(header) - 1
        # columns reconstruct the input
        rows = (out / "imfs.csv").read_text().splitlines()[1:]
        matrix = np.array([[float(v) for v in row.split(",")] for row in rows])
        noisy = ingest(str(sim_dir / "noisy.csv"))
        assert np.max(np.abs(matrix.sum(axis=1) - noisy.samples)) < 1e-9


class TestClean:
    def test_outputs_and_reruns_byte_identical(self, sim_dir, tmp_path):
        args = ("clean", str(sim_dir / "noisy.csv"), "--ensemble-size", "6", "--seed", "5")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(*args, "--out-dir", str(out1)) == 0
        assert run_cli(*args, "--out-dir", str(out2)) == 0
        for name in ("report.json", "cleaned.csv", "cleaned_imfs.csv",
                     "changepoints.csv", "imfs.csv", "amplitudes.csv"):
            assert read(out1 / name) == read(out2 / name), name

    def test_numpy_settings_write_the_plain_report(self, sim_dir, tmp_path):
        # a NumPy scalar in the config once made the report's JSON encoder raise TypeError
        noisy = ingest(str(sim_dir / "noisy.csv"))
        for name, emd in (
            ("numpy", EmdConfig(max_sift_iters=np.int32(50), ensemble_size=np.int32(3), seed=5)),
            ("plain", EmdConfig(max_sift_iters=50, ensemble_size=3, seed=5)),
        ):
            report = lcdsc_clean(noisy, LcdscConfig(emd=emd))
            cli._write_report_bundle(report, str(tmp_path / name))
        names = sorted(os.listdir(tmp_path / "plain"))
        assert names == sorted(os.listdir(tmp_path / "numpy")) and "report.json" in names
        for name in names:
            assert read(tmp_path / "numpy" / name) == read(tmp_path / "plain" / name), name

    def test_negative_zero_noise_amplitude_writes_the_bundle_of_zero(self, sim_dir, tmp_path):
        for zero in ("-0", "0"):
            assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(tmp_path / zero),
                           "--ensemble-size", "2", "--seed", "5", "--noise-amplitude", zero) == 0
        names = sorted(os.listdir(tmp_path / "0"))
        assert names == sorted(os.listdir(tmp_path / "-0")) and "report.json" in names
        for name in names:
            assert read(tmp_path / "-0" / name) == read(tmp_path / "0" / name), name

    def test_imfs_are_numbered_by_position(self, sim_dir, tmp_path):
        """keep_subset, imfs.csv and report.json all read IMF j as d.imfs[j - 1]."""
        out = tmp_path / "o"
        assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(out),
                       "--ensemble-size", "3", "--seed", "5") == 0
        report = lcdsc_clean(ingest(str(sim_dir / "noisy.csv")),
                             LcdscConfig(emd=EmdConfig(ensemble_size=3, seed=5)))
        d = report.decomposition
        numbers = list(range(1, d.n_imfs + 1))

        def load(name):
            return np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2).T

        header = (out / "imfs.csv").read_text().splitlines()[0].split(",")
        assert header == [f"imf{j}" for j in numbers] + ["residual"]
        imfs, cleaned_imfs = load("imfs.csv"), load("cleaned_imfs.csv")
        for j in numbers:
            assert np.array_equal(imfs[j - 1], d.imfs[j - 1])
            assert np.array_equal(keep_subset(d, (j,)), d.imfs[j - 1])
        doc = json.loads((out / "report.json").read_text())
        assert [entry["imf"] for entry in doc["changepoints"]] == numbers
        assert [entry["taus"] for entry in doc["changepoints"]] == [
            list(cps.taus) for cps in report.changepoints
        ]
        assert doc["segments"]
        for seg in doc["segments"]:
            j, lo, hi = seg["imf"], seg["start"], seg["end"]
            assert (lo, hi) in report.changepoints[j - 1].segments(d.residual.size)
            kept = d.imfs[j - 1][lo : hi + 1] if seg["significant"] else np.zeros(hi + 1 - lo)
            assert np.array_equal(cleaned_imfs[j - 1][lo : hi + 1], kept)

    def test_runs_ensemble_on_calling_thread(self, sim_dir, tmp_path, monkeypatch):
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(tmp_path / "o"),
                       "--ensemble-size", "3", "--seed", "5") == 0
        config = LcdscConfig(emd=EmdConfig(ensemble_size=3, seed=5))
        lcdsc_clean(ingest(str(sim_dir / "noisy.csv")), config)

    def test_report_schema_and_round_trip(self, sim_dir, tmp_path):
        out = tmp_path / "rep"
        assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(out),
                       "--ensemble-size", "6", "--seed", "5") == 0
        raw = (out / "report.json").read_text()
        doc = json.loads(raw)
        assert set(doc) == {"config", "changepoints", "segments", "eta", "diagnostics", "files"}
        assert json.dumps(doc, indent=2) + "\n" == raw
        for seg in doc["segments"]:
            assert list(seg) == [
                "imf", "start", "end", "s2_before", "s2_during", "s2_after",
                "n_before", "n_during", "n_after", "f_stat", "p",
                "holm_threshold", "significant",
            ]
            assert 0.0 <= seg["p"] <= 1.0
        assert doc["config"]["gamma"] == 1.0
        assert all(isinstance(i, int) for i in doc["eta"])

    def test_include_residual_adds_the_residual(self, sim_dir, tmp_path):
        args = ("clean", str(sim_dir / "noisy.csv"), "--ensemble-size", "3", "--seed", "5")
        plain, with_residual = tmp_path / "plain", tmp_path / "residual"
        assert run_cli(*args, "--out-dir", str(plain)) == 0
        assert run_cli(*args, "--include-residual", "--out-dir", str(with_residual)) == 0

        def load(path):
            return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

        assert (with_residual / "imfs.csv").read_text().split("\n", 1)[0].endswith(",residual")
        residual = load(with_residual / "imfs.csv")[:, -1]
        assert np.array_equal(load(with_residual / "cleaned.csv")[:, 0],
                              load(plain / "cleaned.csv")[:, 0] + residual)
        assert np.any(residual != 0)
        doc = json.loads((with_residual / "report.json").read_text())
        assert doc["config"]["include_residual"] is True

    def test_config_file_with_flag_precedence(self, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 2.0\nensemble_size = 6\nseed = 5\n")
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(out1),
                       "--config", str(cfg)) == 0
        doc = json.loads((out1 / "report.json").read_text())
        assert doc["config"]["gamma"] == 2.0
        # explicit flag beats the file
        assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(out2),
                       "--config", str(cfg), "--gamma", "3.0") == 0
        doc2 = json.loads((out2 / "report.json").read_text())
        assert doc2["config"]["gamma"] == 3.0

    def test_unknown_config_key_rejected(self, sim_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamme = 2.0\n")
        assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(tmp_path / "x"),
                       "--config", str(cfg)) == 1

    def test_usage_errors(self, sim_dir, tmp_path):
        assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(tmp_path / "x"),
                       "--penalty", "nope") == 1
        assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(tmp_path / "x"),
                       "--gamma", "0.2") == 1


class TestSettings:
    @pytest.mark.parametrize("command, table", [
        ("decompose", "_EMD_KEYS"), ("clean", "_CLEAN_KEYS"), ("sweep-gamma", "_SWEEP_KEYS"),
        ("bench", "_CLEAN_KEYS"),
    ])
    def test_help_names_each_key_of_its_table_once(self, capsys, command, table):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        options = capsys.readouterr().out.split("options:")[1]
        flags = re.findall(r"^ +(--[a-z-]+)", options, re.MULTILINE)
        for key in getattr(cli, table):
            assert flags.count("--" + key.replace("_", "-")) == 1, (key, flags)

    @pytest.mark.parametrize("config, code, message", [
        ("include_residual = maybe\n", 1, "setting 'include_residual': cannot parse 'maybe'"),
        (None, 2, "data error: cannot read "),
    ], ids=["unparsable-bool", "missing-file"])
    def test_config_file_fault_is_named(self, sim_dir, tmp_path, capsys, config, code, message):
        cfg = tmp_path / "nope.cfg"
        if config is not None:
            cfg.write_text(config)
        assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(tmp_path / "x"),
                       "--config", str(cfg)) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_abbreviated_flag_is_usage_error(self, sim_dir, tmp_path, capsys):
        assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(tmp_path / "x"),
                       "--ensemble", "2") == 1
        assert "unrecognized arguments: --ensemble 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("args", [("clean", "--gamma", "0.2"),
                                      ("sweep-gamma", "--gammas", "2,0.2"),
                                      ("bench", "--gamma", "0.2")])
    def test_settings_are_checked_before_the_input_is_read(self, tmp_path, capsys, args):
        command, *flags = args
        if command == "bench":
            files = ("--grid", str(tmp_path / "missing.cfg"), "--methods", "none",
                     "--out", str(tmp_path / "x.csv"))
        else:
            files = (str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path / "x"))
        assert run_cli(command, *files, *flags) == 1
        assert "gamma must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "clean"])
    def test_unparsable_flag_is_usage_error(self, sim_dir, tmp_path, command):
        assert run_cli(command, str(sim_dir / "noisy.csv"), "--out-dir", str(tmp_path / "x"),
                       "--max-imfs", "banana") == 1

    def test_max_imfs_auto_flag_beats_config_file(self, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_imfs = 2\nensemble_size = 2\n")
        out = tmp_path / "dec"
        assert run_cli("decompose", str(sim_dir / "noisy.csv"), "--out-dir", str(out),
                       "--config", str(cfg), "--max-imfs", "auto") == 0
        header = (out / "imfs.csv").read_text().splitlines()[0].split(",")
        assert len([name for name in header if name.startswith("imf")]) > 2

    def test_defaults_come_from_the_config_dataclasses(self, sim_dir, tmp_path):
        out = tmp_path / "rep"
        assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(out)) == 0
        d = LcdscConfig()
        assert json.loads((out / "report.json").read_text())["config"] == {
            "emd": asdict(d.emd),
            "penalty": d.penalty,
            "beta": d.beta,
            "min_seg_len": d.min_seg_len,
            "gamma": d.gamma,
            "alpha": d.alpha,
            "include_residual": d.include_residual,
            "penalty_scale": d.penalty_scale,
        }


    @pytest.mark.parametrize("flags", [
        ("--gamma", "nan"),
        ("--gamma", "inf"),
        ("--noise-amplitude", "nan"),
        ("--noise-amplitude", "inf"),
        ("--beta", "5"),
        ("--penalty", "mbic", "--beta", "5"),
        ("--penalty", "aic", "--beta", "inf"),
        ("--penalty-scale", "inf"),
    ], ids=lambda flags: " ".join(flags))
    def test_setting_that_cannot_apply_is_usage_error(self, sim_dir, tmp_path, flags):
        assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(tmp_path / "x"),
                       "--ensemble-size", "2", *flags) == 1
        assert not (tmp_path / "x").exists()

    def test_beta_in_config_file_needs_aic(self, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ensemble_size = 2\nbeta = 5\n")
        common = ("clean", str(sim_dir / "noisy.csv"), "--config", str(cfg))
        assert run_cli(*common, "--out-dir", str(tmp_path / "x")) == 1
        assert run_cli(*common, "--out-dir", str(tmp_path / "aic"), "--penalty", "aic") == 0
        doc = json.loads((tmp_path / "aic" / "report.json").read_text())
        assert (doc["config"]["penalty"], doc["config"]["beta"]) == ("aic", 5.0)

    def test_library_penalty_settings_reach_report_json(self, sim_dir, tmp_path):
        config = LcdscConfig(emd=EmdConfig(ensemble_size=2), penalty="aic", beta=2.5)
        cli._write_report_bundle(lcdsc_clean(ingest(str(sim_dir / "noisy.csv")), config),
                                 str(tmp_path))
        text = (tmp_path / "report.json").read_text()
        assert '\n    "penalty": "aic",\n    "beta": 2.5,\n    "min_seg_len": 5,' in text
        assert json.loads(text)["config"] == asdict(config)


class TestSweepGamma:
    def test_per_gamma_directories_and_sparsity(self, sim_dir, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("sweep-gamma", str(sim_dir / "noisy.csv"), "--gammas", "1,2,4",
                       "--out-dir", str(out), "--ensemble-size", "6", "--seed", "5") == 0
        counts = []
        for g in ("1", "2", "4"):
            path = out / f"gamma-{g}" / "cleaned.csv"
            values = [float(v) for v in path.read_text().splitlines()[1:]]
            counts.append(sum(1 for v in values if v != 0.0))
        assert counts[0] >= counts[1] >= counts[2]

    def test_gamma_setting_is_usage_error(self, sim_dir, tmp_path, capsys):
        # the sweep reads gamma only from --gammas
        common = ("sweep-gamma", str(sim_dir / "noisy.csv"), "--gammas", "1",
                  "--out-dir", str(tmp_path / "x"), "--ensemble-size", "2")
        assert run_cli(*common, "--gamma", "7") == 1
        assert "unrecognized arguments: --gamma 7" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 9\n")
        assert run_cli(*common, "--config", str(cfg)) == 1
        assert "unknown key 'gamma'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bad_gammas(self, sim_dir, tmp_path):
        assert run_cli("sweep-gamma", str(sim_dir / "noisy.csv"), "--gammas", "0.5,2",
                       "--out-dir", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("gammas, message", [
        ("a,b", "cannot parse --gammas 'a,b'"),
        (" , ", "--gammas must list at least one value"),
    ], ids=["not-numbers", "no-values"])
    def test_gammas_without_numbers_are_usage_error(self, sim_dir, tmp_path, capsys, gammas,
                                                     message):
        assert run_cli("sweep-gamma", str(sim_dir / "noisy.csv"), "--gammas", gammas,
                       "--out-dir", str(tmp_path / "x")) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_nan_gamma_is_usage_error(self, sim_dir, tmp_path):
        for gammas in ("1,nan", "1,inf"):
            assert run_cli("sweep-gamma", str(sim_dir / "noisy.csv"), "--gammas", gammas,
                           "--out-dir", str(tmp_path / "x")) == 1
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("gammas, named", [
        ("1.0000001,1.0000002", ("1.0000001", "1.0000002")),
        ("1,2,1", ("1.0", "1.0")),
    ])
    def test_gammas_sharing_a_directory_are_usage_error(self, sim_dir, tmp_path, capsys,
                                                         gammas, named):
        assert run_cli("sweep-gamma", str(sim_dir / "noisy.csv"), "--gammas", gammas,
                       "--out-dir", str(tmp_path / "x"), "--ensemble-size", "2") == 1
        err = capsys.readouterr().err
        assert f"gammas {named[0]} and {named[1]} " in err, err
        assert not (tmp_path / "x").exists()


class TestBench:
    def test_grid_run_and_determinism(self, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("T = 400\nsigma = 0.3\nlocality = 0.25\n")
        args = ("bench", "--grid", str(grid), "--methods", "lcdsc,none,wht",
                "--replicates", "2", "--seed", "7", "--ensemble-size", "4")
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert read(out1) == read(out2)
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "T,sigma,param,method,replicate,rss,seconds"
        assert len(lines) == 1 + 3 * 2

    def test_unknown_method(self, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("T = 400\nsigma = 0.3\n")
        assert run_cli("bench", "--grid", str(grid), "--methods", "lcdsc,bogus",
                       "--out", str(tmp_path / "c.csv")) == 1

    def test_repeated_method_is_usage_error(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("T = 400\nsigma = 0.3\n")
        assert run_cli("bench", "--grid", str(grid), "--methods", "none,none,wht",
                       "--out", str(tmp_path / "c.csv")) == 1
        assert "repeated method name(s): none" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("command", ["bench"])
    @pytest.mark.parametrize("config", ["gamma = banana\n", "wavelength = 3\n"],
                             ids=["bad_value", "unknown_key"])
    def test_config_error_is_usage_error(self, tmp_path, command, config):
        grid = tmp_path / "grid.cfg"
        grid.write_text("T = 400\nsigma = 0.3\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert run_cli(command, "--grid", str(grid), "--methods", "none",
                       "--config", str(cfg), "--out", str(tmp_path / "c.csv")) == 1

    def test_config_values_match_flags(self, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("T = 400\nsigma = 0.3\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ensemble_size = 2\nseed = 5\ngamma = 2\n")
        common = ("bench", "--grid", str(grid), "--methods", "lcdsc,khigh", "--replicates", "1")
        by_file, by_flags = tmp_path / "f.csv", tmp_path / "g.csv"
        assert run_cli(*common, "--config", str(cfg), "--out", str(by_file)) == 0
        assert run_cli(*common, "--ensemble-size", "2", "--seed", "5", "--gamma", "2",
                       "--out", str(by_flags)) == 0
        assert read(by_file) == read(by_flags)

    @pytest.mark.parametrize("methods, grid_text, message", [
        (",", "T = 400\n", "at least one method"),
        ("none", "T = 400, 400\nsigma = 0.3\n", "repeated grid cell(s): (400, 0.3, 0.25)"),
    ], ids=["no-method", "repeated-cell"])
    def test_argument_run_benchmark_rejects_is_usage_error(self, tmp_path, capsys, methods,
                                                           grid_text, message):
        grid = tmp_path / "grid.cfg"
        grid.write_text(grid_text)
        assert run_cli("bench", "--grid", str(grid), "--methods", methods,
                       "--out", str(tmp_path / "c.csv")) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("text", ["T = 400\nT = 500\n", "T = 400\nt = 400\n"],
                             ids=["same-spelling", "case"])
    def test_repeated_grid_key_is_usage_error(self, tmp_path, capsys, text):
        grid = tmp_path / "grid.cfg"
        grid.write_text(text)
        assert run_cli("bench", "--grid", str(grid), "--methods", "none",
                       "--out", str(tmp_path / "c.csv")) == 1
        assert "lines 1 and 2 both set 't'" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_zero_replicates_is_usage_error(self, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("T = 400\nsigma = 0.3\n")
        assert run_cli("bench", "--grid", str(grid), "--methods", "none",
                       "--replicates", "0", "--out", str(tmp_path / "c.csv")) == 1

    @pytest.mark.parametrize("line, key", [
        ("T = 3", "T"),
        ("sigma = -1", "sigma"),
        ("sigma = nan", "sigma"),
        ("locality = 0", "locality"),
        ("locality = inf", "locality"),
        ("locality = 1e308", "locality"),
        ("locality = -1", "locality"),
    ])
    def test_grid_value_that_cannot_run_is_usage_error(self, tmp_path, capsys, line, key):
        grid = tmp_path / "grid.cfg"
        grid.write_text(line + "\n")
        assert run_cli("bench", "--grid", str(grid), "--methods", "none",
                       "--out", str(tmp_path / "c.csv")) == 1
        err = capsys.readouterr().err
        assert key in err.split(str(grid), 1)[1], err
        assert not (tmp_path / "c.csv").exists()

    def test_negative_zero_sigma_runs_as_zero(self, tmp_path):
        for zero in ("-0", "0"):
            grid = tmp_path / f"grid{zero}.cfg"
            grid.write_text(f"T = 400\nsigma = {zero}\n")
            assert run_cli("bench", "--grid", str(grid), "--methods", "none,lcdsc",
                           "--replicates", "1", "--ensemble-size", "2",
                           "--out", str(tmp_path / f"b{zero}.csv")) == 0
        assert read(tmp_path / "b-0.csv") == read(tmp_path / "b0.csv")

    def test_unparsable_grid_value_is_usage_error(self, tmp_path, capsys):
        grid = tmp_path / "grid.cfg"
        grid.write_text("T = 400\nsigma = x\n")
        assert run_cli("bench", "--grid", str(grid), "--methods", "none",
                       "--out", str(tmp_path / "c.csv")) == 1
        assert "grid key 'sigma': cannot parse 'x'" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_unknown_grid_key(self, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("T = 400\nwavelength = 3\n")
        assert run_cli("bench", "--grid", str(grid), "--methods", "none",
                       "--out", str(tmp_path / "c.csv")) == 1


_DISPATCH_CHILD = """
import json, sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from lcdsc.cli import main

print(json.dumps({name: __cpu_features__[name] for name in __cpu_dispatch__}))
out = sys.argv[1]
grid = out + "/grid.cfg"
with open(grid, "w") as fh:
    fh.write("T = 400\\nsigma = 0.3\\n")
for argv in (
    ["simulate", "doppler", "--T", "3000", "--sigma", "0.3", "--seed", "5", "--out", out + "/sim"],
    ["clean", out + "/sim/noisy.csv", "--out-dir", out + "/clean", "--ensemble-size", "20",
     "--seed", "3"],
    ["bench", "--grid", grid, "--methods", "lcdsc,khigh,llow,band,powerset,wht,wit,none",
     "--replicates", "1", "--ensemble-size", "4", "--seed", "7", "--out", out + "/bench.csv"],
):
    assert main(argv) == 0, argv
"""


def _child_env() -> dict[str, str]:
    """This environment, with the tested package first on a child's import path."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(lcdsc.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_exits_with_the_documented_codes(tmp_path):
    # `python -m lcdsc.cli` reaches run() through the __main__ guard, as the lcdsc script does
    sine = tmp_path / "sine.csv"
    sine.write_bytes(_csv_bytes(_SINE))
    out = ["--out-dir", str(tmp_path / "o")]
    for args, want, err in [
        (["--help"], 0, ""),
        (["clean", str(tmp_path / "missing.csv"), *out], 2, "lcdsc: data error: cannot read "),
        (["clean", str(sine), "--gamma", "0.5", *out], 1,
         "lcdsc: usage error: gamma must be at least 1"),
    ]:
        done = subprocess.run([sys.executable, "-m", "lcdsc.cli", *args], env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == want, (args, done.stderr)
        assert done.stderr.startswith(err) and done.stderr.count("\n") == (1 if err else 0)
    assert done.stdout == "" and not (tmp_path / "o").exists()


def test_import_loads_only_the_scipy_subpackages_it_uses():
    # importing dominates the command's start-up time; a new SciPy subpackage adds to it
    code = ("import sys, lcdsc, lcdsc.cli\n"
            "print(sorted(m for m, mod in sys.modules.items() if m.startswith('scipy.')\n"
            "             and m.count('.') == 1 and not m.startswith('scipy._')\n"
            "             and hasattr(mod, '__path__')))")
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["['scipy.linalg',", "'scipy.special']"]


def _dispatch_names() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:
        return []
    return list(__cpu_dispatch__)


class TestDispatchLevel:
    """Output bytes do not depend on which SIMD kernels NumPy dispatches to."""

    @staticmethod
    def run_child(out, disabled: list[str]) -> dict[str, bool]:
        out.mkdir()
        env = _child_env()
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
        done = subprocess.run([sys.executable, "-c", _DISPATCH_CHILD, str(out)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[0])

    @pytest.mark.skipif(not _dispatch_names(), reason="NumPy reports no dispatchable features")
    def test_outputs_match_with_every_dispatch_feature_disabled(self, tmp_path):
        names = _dispatch_names()
        self.run_child(tmp_path / "default", [])
        features = self.run_child(tmp_path / "baseline", names)
        print("disabled:", ", ".join(names))
        assert features == {name: False for name in names}
        files = [sorted(p.relative_to(tmp_path / run) for p in (tmp_path / run).rglob("*")
                        if p.is_file()) for run in ("default", "baseline")]
        assert files[0] == files[1] and len(files[0]) == 1 + 3 + 6 + 1
        for rel in files[0]:
            assert read(tmp_path / "default" / rel) == read(tmp_path / "baseline" / rel), rel


@pytest.mark.parametrize("fmt", ["xml", "CSV", ""])
def test_each_rejection_is_reached(tmp_path, fmt):
    path = tmp_path / "x.csv"
    path.write_text("0,1\n1,2\n2,3\n3,4\n")
    with pytest.raises(cli.UsageError, match="unknown input format"):
        ingest(str(path), fmt)
