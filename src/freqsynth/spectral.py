"""Discrete Fourier analysis for real series.

The transform here is the statistician's DFT

    d(w_j) = n**-0.5 * sum_{t=1..n} x_t * exp(-2*pi*i*t*j/n)

with the sum starting at t = 1, so Parseval reads sum(x**2) == sum(|d|**2)
with no extra factor.  The scaled periodogram P(w_j) = (4/n) * |d(w_j)|**2
recovers the squared amplitude of a sinusoid sitting exactly on bin j.

Bins: the periodogram covers j = 1 .. floor((n-1)/2), so frequencies lie
strictly inside (0, 0.5) cycles/step.  DC is dropped; for even n the
Nyquist bin is dropped too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _freeze, _whole_number
from .errors import (
    DegenerateSpectrum,
    InvalidSeries,
    NoDominantFrequency,
    WindowTooLong,
)

# Size of the fixed comparison grid used when correlating periodograms
# that live on different frequency grids.
COMMON_GRID_SIZE = 512

# Cap on the aggregation window used for dataset-level periodograms.
DEFAULT_WINDOW_CAP = 1024

# A peak's least power, as a fraction of the periodogram's maximum.
PEAK_THRESHOLD = 0.1


def _as_series(x) -> np.ndarray:
    """Validate and return ``x`` as a finite 1-d float64 copy, n >= 2."""
    arr = _freeze(x, "series", 1)
    if arr.size < 2:
        raise InvalidSeries(f"series needs at least 2 samples, got {arr.size}")
    return arr


@dataclass(frozen=True)
class Periodogram:
    """Ordered (frequency, power) pairs on (0, 0.5) cycles/step."""

    freqs: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        f = _freeze(self.freqs, "freqs", 1)
        p = _freeze(self.powers, "powers", 1)
        if f.size != p.size:
            raise ValueError(
                f"freqs and powers must be equal-length, got {f.size} vs {p.size}"
            )
        if not (np.all(f > 0.0) and np.all(f < 0.5)):
            raise ValueError("frequencies must lie strictly inside (0, 0.5)")
        if not np.all(np.diff(f) > 0.0):
            raise ValueError("frequencies must be strictly increasing")
        if np.any(p < 0.0):
            raise ValueError("powers must be nonnegative")
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "powers", p)

    def __len__(self) -> int:
        return self.freqs.size

    @property
    def total_power(self) -> float:
        return float(self.powers.sum())


def dft(x) -> np.ndarray:
    """Read-only complex128 coefficients d(w_j), j = 0 .. n-1, of a series.

    A fast O(n log n) transform under the t = 1..n convention: numpy's
    FFT sums from t = 0, so each coefficient picks up the unit twist
    exp(-2*pi*i*j/n) to shift the origin to t = 1.
    """
    arr = _as_series(x)
    n = arr.size
    j = np.arange(n)
    twist = np.exp((-2j * np.pi / n) * j)
    return _freeze(twist * np.fft.fft(arr) / np.sqrt(n), "coeffs", 1, np.complex128)


def _rfft_power(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin frequencies j/n and scaled powers (4/n)|d(w_j)|^2 of the
    length-n rows of ``x``, for j = 1 .. floor((n-1)/2).

    Computed via the real FFT; the t-origin twist has unit modulus and
    cancels in |d|^2, so it is skipped here.
    """
    n = x.shape[-1]
    half = (n - 1) // 2
    spec = np.fft.rfft(x)[..., 1 : half + 1]
    powers = (4.0 / (float(n) * n)) * (spec.real * spec.real + spec.imag * spec.imag)
    return np.arange(1, half + 1, dtype=np.float64) / n, powers


def scaled_periodogram(x) -> Periodogram:
    """Scaled periodogram of one series."""
    freqs, powers = _rfft_power(_as_series(x))
    return Periodogram(freqs=freqs, powers=powers)


def aggregate_periodogram(ds: Dataset, window_len: int) -> Periodogram:
    """Mean periodogram over all non-overlapping windows of all channels.

    The trailing n mod window_len samples of each channel are discarded.
    The frequency grid is that of a length-``window_len`` series.
    """
    w = _whole_number("window_len", window_len, 16)
    if w > ds.n:
        raise WindowTooLong(f"window_len {w} exceeds series length {ds.n}")
    k = ds.n // w
    freqs, powers = _rfft_power(ds.values[:, : k * w].reshape(ds.d * k, w))
    return Periodogram(freqs=freqs, powers=powers.mean(axis=0))


def default_window_len(n: int) -> int:
    """Aggregation window for a length-n dataset.

    DEFAULT_WINDOW_CAP (1024) or, for shorter data, the largest power of
    two <= n.
    """
    n = _whole_number("series length n", n, 16)
    return min(DEFAULT_WINDOW_CAP, 1 << (n.bit_length() - 1))


def common_grid() -> np.ndarray:
    """COMMON_GRID_SIZE uniformly spaced frequencies strictly inside (0, 0.5)."""
    size = COMMON_GRID_SIZE
    return 0.5 * np.arange(1, size + 1, dtype=np.float64) / (size + 1)


def periodogram_pcc(a: Periodogram, b: Periodogram) -> float:
    """Pearson correlation between two periodograms' power vectors.

    Matching frequency grids are compared directly; otherwise both are
    linearly interpolated onto the fixed 512-point common grid first.
    Either power vector being constant raises DegenerateSpectrum.
    """
    if len(a) == 0 or len(b) == 0:
        raise DegenerateSpectrum("cannot correlate an empty periodogram")
    if np.array_equal(a.freqs, b.freqs):
        x, y = a.powers, b.powers
    else:
        grid = common_grid()
        x = np.interp(grid, a.freqs, a.powers)
        y = np.interp(grid, b.freqs, b.powers)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt(xc @ xc)
    sy = np.sqrt(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise DegenerateSpectrum("constant power vector has no correlation")
    if np.array_equal(x, y):
        return 1.0
    return float(np.clip((xc @ yc) / (sx * sy), -1.0, 1.0))


def find_peaks(p: Periodogram) -> list[tuple[float, float]]:
    """Local maxima with power >= PEAK_THRESHOLD (0.1) * max(power).

    A run of equal powers counts as one bin: it is a peak when it is
    strictly higher than the bins on both sides, and it is reported at
    its lowest-frequency bin.  Boundary runs are compared one-sided, so
    the maximum is always among the peaks.  Returns (frequency, power)
    pairs in ascending frequency order.
    """
    pw = p.powers
    if pw.size == 0 or pw.max() <= 0.0:
        raise NoDominantFrequency("periodogram has no positive power")
    starts = np.flatnonzero(np.r_[True, pw[1:] != pw[:-1]])
    runs = pw[starts]
    m = runs.size
    up_left = np.ones(m, dtype=bool)
    up_left[1:] = runs[1:] > runs[:-1]
    up_right = np.ones(m, dtype=bool)
    up_right[:-1] = runs[:-1] > runs[1:]
    keep = up_left & up_right & (runs >= PEAK_THRESHOLD * pw.max())
    idx = starts[keep]
    return [(float(p.freqs[i]), float(pw[i])) for i in idx]
