import math

import numpy as np
import pytest

from lcdsc import (
    LcdscConfig,
    EmdConfig,
    LocalSignalSpec,
    bench_table,
    chirp,
    doppler,
    double_doppler,
    instantaneous_frequency,
    local_doppler,
    rss,
    run_benchmark,
    separability_check,
    simulation,
)


class TestDoppler:
    def test_endpoints_vanish(self):
        assert doppler(0.0) == 0.0
        assert doppler(1.0) == 0.0

    def test_midpoint_regression_value(self):
        # direct evaluation: 7*sqrt(0.25)*sin(2*pi*1.05/0.55)
        assert doppler(0.5) == pytest.approx(-1.892242861095, abs=1e-12)

    def test_envelope_bound(self):
        grid = np.linspace(0, 1, 20001)
        assert np.max(np.abs(doppler(grid))) <= 3.5

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            doppler(1.2)

    @pytest.mark.parametrize("u", [float("nan"), np.array([0.5, np.nan]), np.array([np.nan])])
    def test_rejects_nan(self, u):
        with pytest.raises(ValueError, match="u must lie in"):
            doppler(u)


class TestLocalDoppler:
    def test_noiseless_equals_truth(self):
        noisy, truth, active = local_doppler(LocalSignalSpec(500, 100, 300, 0.0, seed=1))
        assert np.array_equal(noisy.samples, truth)
        assert active == (100, 300)

    def test_matches_reference_dimensions(self):
        noisy, truth, _ = local_doppler(LocalSignalSpec(2500, 1000, 1500, 0.2, seed=2))
        assert len(noisy) == 2500
        assert np.all(truth[:1000] == 0)
        assert np.all(truth[1501:] == 0)

    def test_noise_variance(self):
        spec = LocalSignalSpec(2500, 1000, 1500, 0.3, seed=3)
        noisy, truth, _ = local_doppler(spec)
        noise = noisy.samples - truth
        assert abs(np.var(noise) - 0.09) < 0.009

    def test_noise_is_white(self):
        spec = LocalSignalSpec(2500, 1000, 1500, 0.5, seed=4)
        noisy, truth, _ = local_doppler(spec)
        noise = noisy.samples - truth
        lag1 = np.corrcoef(noise[:-1], noise[1:])[0, 1]
        assert abs(lag1) < 0.1

    def test_degenerate_interval(self):
        with pytest.raises(ValueError):
            local_doppler(LocalSignalSpec(100, 50, 50, 0.1, seed=0))

    @pytest.mark.parametrize("args", [(100, 50, 50), (100, 60, 50), (100, -1, 50), (100, 20, 100)])
    def test_spec_requires_a_positive_width_interval_inside_the_record(self, args):
        with pytest.raises(ValueError, match="0 <= a_start < a_end < total_len"):
            LocalSignalSpec(*args, 0.1)

    @pytest.mark.parametrize("name, args", [
        ("total_len", (100.5, 20, 40)), ("a_start", (100, 20.0, 40)), ("a_end", (100, 20, 40.5)),
        ("a_start", (100, True, 40)), ("a_end", (100, 20, np.True_)),
    ])
    def test_positions_must_be_integers(self, name, args):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            LocalSignalSpec(*args, 0.1)

    def test_numpy_integer_seed_is_its_value(self):
        a, _, _ = local_doppler(LocalSignalSpec(100, 20, 40, 0.1, seed=np.int64(4)))
        b, _, _ = local_doppler(LocalSignalSpec(100, 20, 40, 0.1, seed=4))
        assert np.array_equal(a.samples, b.samples)
        with pytest.raises(ValueError, match="seed must be an integer"):
            LocalSignalSpec(100, 20, 40, 0.1, seed=1.5)
        with pytest.raises(ValueError, match="seed must be an integer"):
            LocalSignalSpec(100, 20, 40, 0.1, seed=True)

    def test_numpy_scalars_are_stored_as_plain_numbers(self):
        spec = LocalSignalSpec(np.int16(100), np.int64(20), np.int32(40), np.float32(0.5),
                               np.uint8(4))
        assert spec == LocalSignalSpec(100, 20, 40, 0.5, 4)
        assert [type(v) for v in vars(spec).values()] == [int, int, int, float, int]
        with pytest.raises(ValueError, match="noise_sigma must be a real number"):
            LocalSignalSpec(100, 20, 40, True)


class TestChirp:
    def test_constant_tone_when_flat(self):
        out = chirp(200, 0.05, 0.05, 0.0, seed=0)
        t = np.arange(200)
        assert np.allclose(out.samples, np.sin(2 * np.pi * 0.05 * t))

    def test_instantaneous_frequency_is_linear(self):
        out = chirp(4000, 0.01, 0.1, 0.0, seed=0)
        freq = instantaneous_frequency(out.samples, 1.0)
        t = np.arange(4000)
        interior = slice(200, -200)
        coeffs = np.polyfit(t[interior], freq[interior], 1)
        fitted = np.polyval(coeffs, t[interior])
        resid = freq[interior] - fitted
        r2 = 1 - np.sum(resid**2) / np.sum((freq[interior] - freq[interior].mean()) ** 2)
        assert r2 > 0.99

    def test_seed_reproducible(self):
        a = chirp(300, 0.02, 0.2, 0.5, seed=9)
        b = chirp(300, 0.02, 0.2, 0.5, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_nyquist_guard(self):
        with pytest.raises(ValueError, match="Nyquist"):
            chirp(100, 0.1, 0.7, 0.0, seed=0)

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
    def test_sample_interval_must_be_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            chirp(100, 0.01, 0.1, dt=dt)

    def test_length_must_be_an_integer(self):
        with pytest.raises(ValueError, match="t_len must be an integer"):
            chirp(100.5, 0.01, 0.1)
        with pytest.raises(ValueError, match="t_len must be an integer"):
            chirp(np.True_, 0.01, 0.1)

    @pytest.mark.parametrize("name", ["f0", "f1", "sigma", "dt"])
    def test_a_bool_is_no_real_number(self, name):
        kwargs = dict(t_len=100, f0=0.01, f1=0.1, sigma=0.1, dt=0.5)
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            chirp(**{**kwargs, name: True})

    def test_numpy_scalars_are_their_values(self):
        a = chirp(np.int16(300), np.float32(0.25), 0.5, np.float64(0.2), np.int8(3),
                  np.float32(0.5))
        b = chirp(300, float(np.float32(0.25)), 0.5, 0.2, 3, 0.5)
        assert np.array_equal(a.samples, b.samples) and type(a.dt) is float


class TestDoubleDoppler:
    def test_reference_layout(self):
        noisy, truth, a1, a2 = double_doppler(500, 0.25, seed=1)
        assert len(noisy) == 2500
        assert a1 == (500, 1000)
        assert a2 == (1500, 2000)

    def test_noiseless(self):
        noisy, truth, _, _ = double_doppler(100, 0.0, seed=2)
        assert np.array_equal(noisy.samples, truth)

    def test_truth_support(self):
        _, truth, a1, a2 = double_doppler(300, 0.4, seed=3)
        mask = np.zeros(2300, dtype=bool)
        mask[a1[0] : a1[1]] = True
        mask[a2[0] : a2[1]] = True
        assert np.all(truth[~mask] == 0)

    def test_negative_delta(self):
        with pytest.raises(ValueError):
            double_doppler(-1, 0.2)

    def test_delta_must_be_an_integer(self):
        with pytest.raises(ValueError, match="delta must be an integer"):
            double_doppler(200.0, 0.2)
        with pytest.raises(ValueError, match="delta must be an integer"):
            double_doppler(True, 0.2)
        with pytest.raises(ValueError, match="sigma must be a real number"):
            double_doppler(200, True)

    def test_numpy_integer_delta_is_its_value(self):
        # 2000 + np.int16(31000) once overflowed to a negative length
        a, truth_a, *windows_a = double_doppler(np.int16(31000), 0.2)
        b, truth_b, *windows_b = double_doppler(31000, 0.2)
        assert np.array_equal(a.samples, b.samples) and np.array_equal(truth_a, truth_b)
        assert windows_a == windows_b


class TestRss:
    def test_perfect_estimate(self):
        x = np.random.default_rng(0).normal(0, 1, 50)
        assert rss(x, x) == 0.0

    def test_hand_arithmetic(self):
        assert rss([0.0, 0.0], [3.0, 4.0]) == pytest.approx(25.0)

    def test_zero_estimate_accumulates_truth_energy(self):
        _, truth, _ = local_doppler(LocalSignalSpec(800, 200, 500, 0.0, seed=5))
        want = float(sum(v * v for v in truth))  # independent accumulation
        assert rss(np.zeros(800), truth) == pytest.approx(want)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(0, 1, 30), rng.normal(0, 1, 30)
        assert rss(a, b) == rss(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rss([1.0], [1.0, 2.0])


class TestSeparability:
    def test_all_zero_fails(self):
        assert not separability_check(np.zeros(2500), (500, 1000), (1500, 2000))

    def test_truth_passes(self):
        _, truth, a1, a2 = double_doppler(500, 0.0, seed=0)
        assert separability_check(truth, a1, a2)

    def test_dense_signal_fails(self):
        assert not separability_check(np.ones(2500), (500, 1000), (1500, 2000))

    def test_empty_gap(self):
        with pytest.raises(ValueError, match="gap"):
            separability_check(np.zeros(2000), (500, 1000), (1000, 1500))


class TestDopplerGrid:
    def test_cells(self):
        grid = simulation.doppler_grid([np.int64(400), 2500], [0.2], [0.25, 4])
        assert grid == [(400, 0.2, 0.25), (400, 0.2, 4.0), (2500, 0.2, 0.25), (2500, 0.2, 4.0)]
        assert type(grid[0][0]) is int

    @pytest.mark.parametrize("t_len", [2500.7, math.nan, math.inf], ids=["fractional", "nan", "inf"])
    def test_T_must_be_an_integer(self, t_len):
        with pytest.raises(ValueError, match="T must be an integer"):
            simulation.doppler_grid([t_len], [0.2])


class TestRunBenchmark:
    def test_none_method_matches_noise_energy(self):
        results = run_benchmark(
            ["none"], [(2500, 0.3, 0.25)], replicates=1, base_seed=3,
            config=LcdscConfig(emd=EmdConfig(ensemble_size=1, noise_amplitude=0.0)),
        )
        assert len(results) == 1
        want = 0.09 * 2500
        assert abs(results[0].rss - want) < 0.1 * want

    def test_reproducible_tables(self):
        config = LcdscConfig(emd=EmdConfig(ensemble_size=4))
        kwargs = dict(methods=["none", "khigh", "wht"], grid=[(400, 0.3, 0.25)],
                      replicates=2, base_seed=11, config=config)
        a = bench_table(run_benchmark(**kwargs))
        b = bench_table(run_benchmark(**kwargs))
        assert a == b

    def test_unknown_method_rejected_before_running(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_benchmark(["lcdsc", "magic"], [(400, 0.3, 0.25)], 1, 0)

    def test_repeated_method_rejected_before_running(self):
        with pytest.raises(ValueError, match=r"repeated method name\(s\): none"):
            run_benchmark(["none", "none", "wht"], [(400, 0.3, 0.25)], 1, 0)

    @pytest.mark.parametrize("methods, grid, match", [
        ([], [(400, 0.3, 0.25)], "at least one method"),
        (["none"], [(400, 0.3, 0.25)] * 2, r"repeated grid cell\(s\): \(400, 0.3, 0.25\)"),
        (["none"], [(100.5, 0.2, 0.25)], "T must be an integer"),
        (["none"], [(100, -1.0, 0.25)], "sigma = -1 must be finite and nonnegative"),
        (["none"], [(100, float("nan"), 0.25)], "sigma = nan must be finite and nonnegative"),
    ], ids=["no-method", "repeated-cell", "fractional-T", "negative-sigma", "nan-sigma"])
    def test_bad_arguments_rejected(self, methods, grid, match):
        with pytest.raises(ValueError, match=match):
            run_benchmark(methods, grid, 1, 0)

    def test_base_seed_must_be_an_integer(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simulation, "eemd", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="base_seed must be an integer"):
            run_benchmark(["lcdsc"], [(100, 0.2, 0.25)], 1, 1.5)
        assert calls == []

    def test_replicates_must_be_an_integer(self):
        with pytest.raises(ValueError, match="replicates must be an integer"):
            run_benchmark(["none"], [(100, 0.2, 0.25)], 2.5)
        with pytest.raises(ValueError, match="replicates must be an integer"):
            run_benchmark(["none"], [(100, 0.2, 0.25)], True)

    def test_numpy_integer_base_seed_is_its_value(self):
        config = LcdscConfig(emd=EmdConfig(ensemble_size=2))
        a, b = (run_benchmark(["none"], [(100, 0.2, 0.25)], 2, seed, config)
                for seed in (np.int64(4), 4))
        assert bench_table(a) == bench_table(b)

    def test_bad_cell_rejected_before_any_decomposition(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simulation, "eemd", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="T = 3"):
            run_benchmark(["lcdsc"], [(400, 0.3, 0.25), (3, 0.3, 0.25)], 1, 0)
        assert calls == []

    def test_table_schema(self):
        config = LcdscConfig(emd=EmdConfig(ensemble_size=2))
        table = bench_table(
            run_benchmark(["none"], [(400, 0.3, 0.25)], replicates=1, base_seed=0, config=config)
        )
        lines = table.strip().split("\n")
        assert lines[0] == "T,sigma,param,method,replicate,rss,seconds"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "400" and fields[3] == "none"
        assert fields[6] == "0"  # timing disabled by default

    def test_seconds_include_the_shared_decomposition(self, monkeypatch):
        import time

        import lcdsc.simulation as simulation

        real_eemd = simulation.eemd

        def slow_eemd(*args, **kwargs):
            time.sleep(0.05)
            return real_eemd(*args, **kwargs)

        monkeypatch.setattr(simulation, "eemd", slow_eemd)
        results = run_benchmark(
            ["none", "lcdsc", "khigh", "wht"], [(400, 0.3, 0.25)], replicates=1,
            base_seed=2, config=LcdscConfig(emd=EmdConfig(ensemble_size=2)),
        )
        seconds = {r.method: r.seconds for r in results}
        assert seconds["none"] < 0.05
        assert all(seconds[m] >= 0.05 for m in ("lcdsc", "khigh", "wht"))

    def test_canonical_ordering(self):
        config = LcdscConfig(emd=EmdConfig(ensemble_size=2))
        results = run_benchmark(
            ["wht", "none"], [(400, 0.3, 0.25), (400, 0.5, 0.25)], replicates=2,
            base_seed=1, config=config,
        )
        keys = [(r.t_len, r.sigma, r.param, r.method, r.replicate) for r in results]
        assert keys == sorted(keys)


@pytest.mark.parametrize("call, match", [
    (lambda: chirp(3, 0.01, 0.1), "chirp needs at least 4 samples"),
    (lambda: chirp(100, 0.01, 0.1, sigma=-1.0), "sigma must be finite and nonnegative"),
    (lambda: chirp(100, 0.01, 0.1, sigma=math.nan), "sigma must be finite and nonnegative"),
    (lambda: double_doppler(10, math.inf), "sigma must be finite and nonnegative"),
    (lambda: separability_check(np.zeros(100), (50, 40), (60, 80)), "windows must be ordered"),
    (lambda: separability_check(np.zeros(100), (10, 40), (60, 101)), "windows must be ordered"),
], ids=["short-chirp", "negative-sigma", "nan-sigma", "infinite-sigma", "reversed-window",
        "window-past-the-series"])
def test_each_rejection_is_reached(call, match):
    with pytest.raises(ValueError, match=match):
        call()
