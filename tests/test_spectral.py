import numpy as np
import pytest

from lcdsc import analytic_signal, instantaneous_amplitude, instantaneous_frequency


class TestAnalyticSignal:
    def test_cosine_quadrature(self):
        t = np.arange(1000)
        x = np.cos(2 * np.pi * 0.05 * t)
        z = analytic_signal(x)
        want = np.sin(2 * np.pi * 0.05 * t)
        interior = slice(50, -50)
        assert np.max(np.abs(z.imag[interior] - want[interior])) < 0.05

    def test_zero_input(self):
        z = analytic_signal(np.zeros(64))
        assert z.dtype == complex and not z.flags.writeable
        assert np.all(z.real == 0)
        assert np.all(z.imag == 0)

    def test_real_part_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 513)
        z = analytic_signal(x)
        assert np.max(np.abs(z.real - x)) < 1e-9 * (x.max() - x.min())

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="too short"):
            analytic_signal([1.0, 2.0, 3.0])
        bad = np.ones(16)
        bad[5] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            analytic_signal(bad)


class TestInstantaneousAmplitude:
    def test_cosine_amplitude(self):
        t = np.arange(1000)
        amp = instantaneous_amplitude(2.5 * np.cos(2 * np.pi * 0.04 * t))
        interior = slice(100, 900)
        assert np.max(np.abs(amp[interior] / 2.5 - 1)) < 0.05

    def test_zero_signal(self):
        assert np.all(instantaneous_amplitude(np.zeros(32)) == 0)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, 256)
        a1 = instantaneous_amplitude(x)
        a3 = instantaneous_amplitude(3.0 * x)
        assert np.max(np.abs(a3 - 3.0 * a1)) <= 1e-9 * a3.max()

    def test_nonnegative_and_dominates_real_part(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 300)
        amp = instantaneous_amplitude(x)
        assert np.all(amp >= 0)
        assert np.all(amp >= np.abs(x) - 1e-9 * (x.max() - x.min()))


class TestInstantaneousFrequency:
    def test_constant_tone(self):
        t = np.arange(1000)
        freq = instantaneous_frequency(np.cos(2 * np.pi * 0.05 * t), dt=1.0)
        interior = slice(100, 900)
        assert np.max(np.abs(freq[interior] - 0.05)) < 0.005

    def test_invariant_to_amplitude_scaling(self):
        t = np.arange(500)
        x = np.cos(2 * np.pi * 0.03 * t)
        f1 = instantaneous_frequency(x, 1.0)
        f3 = instantaneous_frequency(3.0 * x, 1.0)
        assert np.max(np.abs(f3 - f1)) < 1e-12

    def test_chirp_frequency_increases(self):
        t = np.arange(2000, dtype=float)
        # frequency sweeps 0.01 -> 0.1 linearly
        phase = 2 * np.pi * (0.01 * t + (0.09) * t * t / (2 * 2000))
        freq = instantaneous_frequency(np.sin(phase), dt=1.0)
        interior = freq[200:-200]
        # smooth out estimator ripple before checking monotonicity
        coarse = interior.reshape(-1, 80).mean(axis=1)
        assert np.all(np.diff(coarse) > 0)

    def test_requires_positive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            instantaneous_frequency(np.ones(16), dt=0.0)
