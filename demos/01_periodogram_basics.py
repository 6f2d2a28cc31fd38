"""
Scaled periodograms from first principles
=========================================

A walk through the core spectral tools: the discrete Fourier transform
with 1/sqrt(n) scaling, the scaled periodogram whose value at an exact
Fourier bin equals the squared amplitude of a sinusoid sitting on that
bin, energy conservation, and peak picking.
"""

import numpy as np

from freqsynth import dft, find_peaks, scaled_periodogram

# ---------------------------------------------------------------------
# 1. A signal made of two sinusoids on exact Fourier bins.
#
# With n samples, bin j corresponds to frequency j/n cycles per step.
# Putting components exactly on bins makes the periodogram values
# interpretable without leakage corrections.
# ---------------------------------------------------------------------
n = 480
t = np.arange(n)
f1, a1 = 20 / n, 3.0
f2, a2 = 96 / n, 1.5
x = a1 * np.cos(2 * np.pi * f1 * t) + a2 * np.sin(2 * np.pi * f2 * t + 0.4)

p = scaled_periodogram(x)
print(f"signal: n={n}, components at {f1:.4f} (A={a1}) and {f2:.4f} (A={a2})")
print(f"periodogram bins: {len(p)} (j = 1 .. floor((n-1)/2))")

# The periodogram at an exact-bin sinusoid equals amplitude squared.
for f, a in [(f1, a1), (f2, a2)]:
    j = int(round(f * n))
    print(
        f"  P({f:.4f}) = {p.powers[j - 1]:.6f}   expected A^2 = {a * a:.6f}"
    )

# ---------------------------------------------------------------------
# 2. Energy conservation.
#
# The scaled transform preserves energy: sum(x^2) equals the sum of
# squared coefficient magnitudes over all n bins.
# ---------------------------------------------------------------------
spec = dft(x)
lhs = float(np.sum(x * x))
rhs = float(np.sum(np.abs(spec) ** 2))
print(f"\nenergy check: sum x^2 = {lhs:.6f}, sum |d|^2 = {rhs:.6f}")
print(f"relative gap = {abs(lhs - rhs) / lhs:.2e}")

# ---------------------------------------------------------------------
# 3. Peak picking on a noisy version of the same signal.
#
# find_peaks keeps local maxima above 10% of the strongest peak, so
# weak noise bins are dropped while both tones survive.
# ---------------------------------------------------------------------
rng = np.random.default_rng(0)
noisy = x + rng.normal(scale=0.3, size=n)
peaks = find_peaks(scaled_periodogram(noisy))
print(f"\npeaks in the noisy signal (at least 10% of the strongest):")
for freq, power in peaks:
    print(f"  freq {freq:.4f}  power {power:.3f}")
print(f"true frequencies were {f1:.4f} and {f2:.4f}")
