"""Analytic-signal amplitude of oscillatory components.

The analytic signal is built in the frequency domain: zero the negative
frequency bins, double the strictly positive ones, and keep DC (and the
Nyquist bin for even lengths) unscaled.  Its modulus is the instantaneous
amplitude.  No boundary extension is applied, so the estimate carries the
usual edge effects and downstream checks should look at interior windows.
"""

from __future__ import annotations

import numpy as np

from .emd import _as_1d_float, _finite_1d


def analytic_signal(imf) -> np.ndarray:
    """Analytic signal of a real series via the one-sided spectrum.

    Returns a read-only complex array whose real part is the series.
    """
    x = _as_1d_float(imf, "imf")
    if x.size < 4:
        raise ValueError("series too short: analytic signal needs at least 4 samples")
    x = _finite_1d(x)
    n = x.size
    weights = np.zeros(n)
    weights[0] = 1.0
    weights[1 : (n + 1) // 2] = 2.0
    if n % 2 == 0:
        weights[n // 2] = 1.0
    z = np.fft.ifft(np.fft.fft(x) * weights)
    z.setflags(write=False)
    return z


def instantaneous_amplitude(imf) -> np.ndarray:
    """Elementwise modulus of the analytic signal; always nonnegative."""
    z = analytic_signal(imf)
    # not np.abs(z): that rounds about a third of the samples differently
    return np.hypot(z.real, z.imag)
