"""
Harmonic sine-pool generation
=============================

How the synthetic generator works: a pool of random sinusoids is drawn
with exponential amplitudes and frequencies restricted to a harmonic
set, then each channel sums a handful of pool members.  The result is
a multichannel series whose spectrum is concentrated on the chosen
harmonics, which we verify with an aggregate periodogram.
"""

import os
import tempfile

import numpy as np

from freqsynth import (
    GeneratorConfig,
    aggregate_periodogram,
    build_pool,
    harmonic_set,
    load_csv,
    save_csv,
    standardize,
    synthesize,
)

# ---------------------------------------------------------------------
# 1. The harmonic set: multiples of a fundamental below Nyquist.
# ---------------------------------------------------------------------
omega_bar = 1 / 24
print(f"harmonic_set({omega_bar:.5f}, h=3) = {harmonic_set(omega_bar, 3)}")
print(f"harmonic_set(1/7, h=5) stops below 0.5: {harmonic_set(1 / 7, 5)}")

# ---------------------------------------------------------------------
# 2. The sine pool.
#
# Amplitudes follow 0.01 + Exp(A' - 0.01) so the mean is exactly A'
# and no sine is silent.  Frequencies are uniform over the harmonic
# set and phases uniform on [0, 2pi).  build_pool returns the three
# arrays, one entry per sine.
# ---------------------------------------------------------------------
cfg = GeneratorConfig(omega_bar=omega_bar, h=3, m=200, l=10, n=2400, d=6, seed=7)
amps, freqs, _ = build_pool(cfg)
print(f"\npool of {amps.size} sines")
print(f"  amplitude mean {amps.mean():.3f} (target A' = {cfg.A_prime})")
print(f"  amplitude min  {amps.min():.4f} (floor is 0.01)")
print(f"  distinct frequencies: {sorted({round(float(f), 6) for f in freqs})}")

# ---------------------------------------------------------------------
# 3. Channels: each one sums l pool members drawn with replacement.
# ---------------------------------------------------------------------
ds = synthesize(cfg)
print(f"\nsynthesized dataset: {ds.d} channels x {ds.n} steps")
print(f"provenance: {ds.provenance}")

# Standardize for downstream use; each channel gets zero mean, unit sd.
z = standardize(ds)
print(f"after standardize: mean {z.values.mean():+.2e}, sd {z.values.std():.6f}")

# ---------------------------------------------------------------------
# 4. Spectral sanity: nearly all power sits on the harmonic set.
# ---------------------------------------------------------------------
p = aggregate_periodogram(z, 1200)
on_harmonic = 0.0
for k, f in enumerate(harmonic_set(omega_bar, cfg.h), start=1):
    j = int(round(f * 1200))
    lo, hi = max(j - 1, 1), min(j + 1, len(p))
    on_harmonic += float(p.powers[lo - 1 : hi].sum())
frac = on_harmonic / p.total_power
print(f"\npower within one bin of a harmonic: {frac:.1%} of the total")

# ---------------------------------------------------------------------
# 5. Round-trip through CSV.  Values survive exactly (repr precision).
# ---------------------------------------------------------------------
with tempfile.TemporaryDirectory(prefix="freqsynth_demo_") as out_dir:
    path = os.path.join(out_dir, "synthetic.csv")
    save_csv(ds, path)
    back = load_csv(path)
    print(f"\nwrote {path} (removed on exit)")
print(f"round-trip exact: {np.array_equal(back.values, ds.values)}")
