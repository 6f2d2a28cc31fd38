"""Reference implementations that fast paths in the library are tested against."""

import numpy as np

from freqsynth.evaluation import EvalReport
from freqsynth.errors import SplitTooSmall

_CHUNK = 4096


def render_channels_direct(amps, freqs, phases, n, d, l, rng):
    """Channels summed from every pool member rendered over t = 0..n-1.

    The render synthesize used before harmonic pools went through a
    sin/cos basis: an (m, n) pool matrix, then a (d, m) count matrix of
    the channel draws times it.
    """
    t = np.arange(n, dtype=np.float64)
    signals = amps[:, None] * np.sin(
        2.0 * np.pi * freqs[:, None] * t[None, :] + phases[:, None]
    )
    m = signals.shape[0]
    idx = rng.integers(0, m, size=(d, l))
    counts = np.zeros((d, m), dtype=np.float64)
    np.add.at(counts, (np.repeat(np.arange(d), l), idx.ravel()), 1.0)
    return counts @ signals


def evaluate_zero_shot_per_horizon(
    model, test_ds, L=96, horizons=(96, 192, 336, 720), dataset_id=None, seed=None
):
    """Stride-1 evaluation with one full forecast per horizon.

    The loop evaluate_zero_shot ran before it forecast each window once:
    every horizon re-forecasts all of its windows in 4096-row chunks and
    sums whole-chunk squared and absolute errors.
    """
    horizons = tuple(int(h) for h in horizons)
    if not horizons or min(horizons) < 1:
        raise ValueError(f"horizons must be positive, got {horizons}")
    max_h = max(horizons)
    if test_ds.n < L + max_h:
        raise SplitTooSmall(
            f"test segment of length {test_ds.n} cannot hold one "
            f"window of L + H = {L + max_h}"
        )
    ds_id = dataset_id if dataset_id is not None else (test_ds.provenance or "dataset")
    model_id = getattr(model, "model_id", type(model).__name__)
    reports = []
    for h in horizons:
        count = test_ds.n - L - h + 1
        sse = sae = 0.0
        total = 0
        for c in range(test_ds.d):
            row = test_ds.values[c]
            lbs = np.lib.stride_tricks.sliding_window_view(row, L)[:count]
            tgs = np.lib.stride_tricks.sliding_window_view(row, h)[L : L + count]
            for lo in range(0, count, _CHUNK):
                hi = min(lo + _CHUNK, count)
                pred = model.forecast(lbs[lo:hi], h)
                err = pred - tgs[lo:hi]
                sse += float(np.sum(err * err))
                sae += float(np.sum(np.abs(err)))
                total += err.size
        reports.append(
            EvalReport(
                dataset=ds_id,
                horizon=h,
                mse=sse / total,
                mae=sae / total,
                model=model_id,
                seed=seed,
                windows=count * test_ds.d,
            )
        )
    return reports
