"""
Zero-shot forecasting with ridge models trained on synthetic data
=================================================================

Train a closed-form ridge forecaster purely on synthetic sine-pool
windows, then apply it unchanged to a target series.  When the
synthetic fundamental matches the target the transfer is nearly
lossless; when it does not, errors blow up, and a small anchored
fine-tune on a handful of target windows repairs most of the gap.
"""

import numpy as np

from freqsynth import (
    GeneratorConfig,
    SeasonalNaiveForecaster,
    WindowSet,
    evaluate_zero_shot,
    finetune,
    fit_ridge,
    freq_synth,
    standardize,
    synthesize,
    windowset_metrics,
)

L, H = 96, 96

# ---------------------------------------------------------------------
# 1. Training corpora: windows from hourly-style (1/24) and 30-step
#    synthetic processes.
# ---------------------------------------------------------------------
train_24, _ = freq_synth(1 / 24, seed=0, count_train=2000, count_val=0,
                         L=L, H=H, n=8192, d=4)
train_30, val_30 = freq_synth(1 / 30, seed=1, count_train=2000,
                              count_val=500, L=L, H=H, n=8192, d=4)
print(f"training windows: {train_24.count} at omega 1/24, "
      f"{train_30.count} at omega 1/30")

model_24 = fit_ridge(train_24)
model_30 = fit_ridge(train_30)
print(f"fitted models: {model_24.model_id} (lambda={model_24.lam})")

# ---------------------------------------------------------------------
# 2. Matched vs mismatched transfer on held-out 1/30 windows.
# ---------------------------------------------------------------------
mse_match, _ = windowset_metrics(model_30, val_30)
mse_mismatch, _ = windowset_metrics(model_24, val_30)
print(f"\nheld-out 1/30 windows:")
print(f"  model trained at 1/30: mse {mse_match:.6f}")
print(f"  model trained at 1/24: mse {mse_mismatch:.6f}")
print(f"  mismatch penalty: {mse_mismatch / max(mse_match, 1e-300):.1e}x")

# ---------------------------------------------------------------------
# 3. Whole-series protocol.  evaluate_zero_shot walks a standardized
#    series with every admissible window and reports mse/mae per
#    horizon, here against a seasonal-naive baseline on clean data.
# ---------------------------------------------------------------------
target = standardize(synthesize(GeneratorConfig(omega_bar=1 / 24, h=3,
                                                n=4096, d=3, seed=9)))
reports = evaluate_zero_shot(model_24, target, L=L, horizons=(48, 96))
naive = evaluate_zero_shot(SeasonalNaiveForecaster(24), target, L=L,
                           horizons=(48, 96))
print(f"\nzero-shot on a fresh 1/24 series (model vs seasonal-naive):")
for r, b in zip(reports, naive):
    print(f"  H={r.horizon:>3}: ridge mse {r.mse:.2e}  "
          f"seasonal-naive mse {b.mse:.2e}  ({r.windows} windows)")

# ---------------------------------------------------------------------
# 4. Few-shot repair.  Fine-tune the mismatched model on 100 target
#    windows (5% of the corpus) with an anchor (weight 1) pulling the
#    weights back toward the pretrained solution.
# ---------------------------------------------------------------------
few = WindowSet(lookbacks=train_30.lookbacks[:100],
                horizons=train_30.horizons[:100])
tuned = finetune(model_24, few)
mse_tuned, _ = windowset_metrics(tuned, val_30)
print(f"\nfew-shot fine-tune of the 1/24 model on 100 windows at 1/30:")
print(f"  zero-shot mse {mse_mismatch:.6f}  ->  tuned mse {mse_tuned:.6f}")
print(f"  model id: {tuned.model_id}")
