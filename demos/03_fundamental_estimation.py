"""
Finding the fundamental frequency
=================================

Two routes to a fundamental: a lookup table keyed by sampling-rate
tokens (15-minute data cycles daily, daily data cycles weekly, and so
on), and a periodogram-based estimator that prefers the lowest strong
peak with a harmonic partner.  The harmonic-partner rule is what keeps
the estimator from latching onto an overtone.
"""

import numpy as np

from freqsynth import (
    Dataset,
    GeneratorConfig,
    estimate_fundamental,
    freq_from_sampling_rate,
    parse_sampling_rate,
    synthesize,
)
from freqsynth.errors import NoDominantFrequency, UnknownSamplingRate

# ---------------------------------------------------------------------
# 1. Rate tokens.  parse_sampling_rate returns steps per cycle; the
#    fundamental is its reciprocal.
# ---------------------------------------------------------------------
for token in ("15m", "1h", "1d", "custom:36"):
    k = parse_sampling_rate(token)
    est = freq_from_sampling_rate(token)
    print(f"  {token:>9}: {k:>3} steps per cycle, omega_bar = {est.omega_bar:.6f}")
try:
    parse_sampling_rate("2h")
except UnknownSamplingRate as exc:
    print(f"  a token outside the table is rejected: {exc}")

# ---------------------------------------------------------------------
# 2. Estimation from data.  Generate hourly-style series (fundamental
#    1/24 with three harmonics) and recover the fundamental from the
#    aggregate periodogram.
# ---------------------------------------------------------------------
truth = 1 / 24
cfg = GeneratorConfig(omega_bar=truth, h=3, seed=3)
est = estimate_fundamental(synthesize(cfg))
print(f"\ntrue fundamental {truth:.6f}")
print(f"estimated        {est.omega_bar:.6f} (source={est.source}, "
      f"confidence={est.confidence:.2f})")
print(f"absolute error   {abs(est.omega_bar - truth):.2e} "
      f"(one bin at window 1024 is {1 / 1024:.2e})")

# ---------------------------------------------------------------------
# 3. Why the harmonic-partner rule matters.
#
# Build a signal where the second harmonic is stronger than the
# fundamental.  A pure argmax would report the overtone; the estimator
# still returns the fundamental because the fundamental has a partner
# at twice its frequency.
# ---------------------------------------------------------------------
n = 4096
t = np.arange(n)
f0 = 32 / 1024
x = 1.0 * np.sin(2 * np.pi * f0 * t) + 2.5 * np.sin(2 * np.pi * 2 * f0 * t)
ds = Dataset(values=x[None, :], channel_names=("y",))
est = estimate_fundamental(ds)
print(f"\novertone twice as strong as the fundamental:")
print(f"  argmax frequency would be {2 * f0:.6f}")
print(f"  estimator returns         {est.omega_bar:.6f} (the fundamental)")

# ---------------------------------------------------------------------
# 4. Confidence is the fraction of spectral power explained by the
#    chosen fundamental and its harmonics.  White noise spreads power
#    over every bin, so whatever bin wins explains almost nothing,
#    and a flat spectrum is rejected outright.
# ---------------------------------------------------------------------
rng = np.random.default_rng(0)
noise = Dataset(values=rng.normal(size=(2, 4096)), channel_names=("a", "b"))
est = estimate_fundamental(noise)
print(f"\nwhite noise: confidence {est.confidence:.4f} "
      f"(harmonic signals score above 0.9)")

flat = Dataset(values=np.zeros((1, 256)), channel_names=("z",))
try:
    estimate_fundamental(flat)
except NoDominantFrequency as exc:
    print(f"all-zero series rejected: {exc}")
