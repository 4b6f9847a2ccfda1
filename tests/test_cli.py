import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from lcdsc import LcdscConfig
from lcdsc.cli import _json_dumps, ingest, main


def run_cli(*args, env=None):
    saved = {}
    env = env or {}
    for key, value in env.items():
        saved[key] = os.environ.get(key)
        os.environ[key] = value
    try:
        return main(list(args))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


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


class TestIngest:
    def test_plain(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1\n2\n3\n")
        series = ingest(str(path), "plain")
        assert series.samples.tolist() == [1.0, 2.0, 3.0]
        assert series.dt == 1.0

    def test_csv_dt(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("t,value\n0.00,1\n0.01,2\n0.02,3\n")
        series = ingest(str(path))
        assert series.dt == pytest.approx(0.01)
        assert series.samples.tolist() == [1.0, 2.0, 3.0]

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("0,5\n1,6\n2,7\n")
        assert ingest(str(path)).samples.tolist() == [5.0, 6.0, 7.0]

    def test_gap_names_offending_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("t,value\n0,1\n1,2\n3,4\n")
        code = run_cli("decompose", str(path), "--out-dir", str(tmp_path / "o"))
        assert code == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        code = run_cli("decompose", str(path), "--out-dir", str(tmp_path / "o"))
        assert code == 2

    def test_missing_file(self, tmp_path):
        code = run_cli("decompose", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "o"))
        assert code == 2


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
        assert run_cli(*args, "--out-dir", str(out1), env={"LCDSC_THREADS": "1"}) == 0
        assert run_cli(*args, "--out-dir", str(out2), env={"LCDSC_THREADS": "4"}) == 0
        for name in ("report.json", "cleaned.csv", "cleaned_imfs.csv",
                     "changepoints.csv", "imfs.csv", "amplitudes.csv"):
            assert read(out1 / name) == read(out2 / name), name

    def test_report_schema_and_round_trip(self, sim_dir, tmp_path):
        out = tmp_path / "rep"
        assert run_cli("clean", str(sim_dir / "noisy.csv"), "--out-dir", str(out),
                       "--ensemble-size", "6", "--seed", "5") == 0
        raw = (out / "report.json").read_text()
        doc = json.loads(raw)
        assert set(doc) == {"config", "changepoints", "segments", "eta", "diagnostics", "files"}
        assert _json_dumps(doc) + "\n" == raw
        for seg in doc["segments"]:
            assert set(seg) == {
                "imf", "start", "end", "s2_before", "s2_during", "s2_after",
                "n_before", "n_during", "n_after", "f_stat", "p",
                "holm_threshold", "significant",
            }
            assert 0.0 <= seg["p"] <= 1.0
        assert doc["config"]["gamma"] == 1.0
        assert all(isinstance(i, int) for i in doc["eta"])

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
            "penalty": d.penalty.kind,
            "beta": d.penalty.beta,
            "min_seg_len": d.min_seg_len,
            "gamma": d.gamma,
            "alpha": d.alpha,
            "include_residual": d.include_residual,
            "penalty_scale": d.penalty_scale,
        }


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

    def test_bad_gammas(self, sim_dir, tmp_path):
        assert run_cli("sweep-gamma", str(sim_dir / "noisy.csv"), "--gammas", "0.5,2",
                       "--out-dir", str(tmp_path / "x")) == 1


class TestBench:
    def test_grid_run_and_determinism(self, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("T = 400\nsigma = 0.3\nlocality = 0.25\n")
        args = ("bench", "--grid", str(grid), "--methods", "lcdsc,none,wht",
                "--replicates", "2", "--seed", "7", "--ensemble-size", "4")
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        assert run_cli(*args, "--out", str(out1), env={"LCDSC_THREADS": "1"}) == 0
        assert run_cli(*args, "--out", str(out2), env={"LCDSC_THREADS": "3"}) == 0
        assert read(out1) == read(out2)
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "T,sigma,param,method,replicate,rss,seconds"
        assert len(lines) == 1 + 3 * 2

    def test_unknown_method(self, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("T = 400\nsigma = 0.3\n")
        assert run_cli("bench", "--grid", str(grid), "--methods", "lcdsc,bogus",
                       "--out", str(tmp_path / "c.csv")) == 1

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

    def test_zero_replicates_is_usage_error(self, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("T = 400\nsigma = 0.3\n")
        assert run_cli("bench", "--grid", str(grid), "--methods", "none",
                       "--replicates", "0", "--out", str(tmp_path / "c.csv")) == 1

    def test_unknown_grid_key(self, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("T = 400\nwavelength = 3\n")
        assert run_cli("bench", "--grid", str(grid), "--methods", "none",
                       "--out", str(tmp_path / "c.csv")) == 1
