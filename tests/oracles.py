"""Reference implementations that fast paths in the library are tested against."""

import csv
import io

import numpy as np

from freqsynth.dataio import _atomic_write, _is_number
from freqsynth.dataset import Dataset
from freqsynth.evaluation import EvalReport
from freqsynth.errors import (
    EmptyDataset,
    MissingHeader,
    NonNumericCell,
    RaggedRows,
    SplitTooSmall,
)

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


def save_csv_per_cell(ds, path):
    """The save_csv that wrote one csv.writer row per step.

    Every value passes through repr(float(v)) and csv.writer, and the
    whole file is built in memory before the temp-file publish.
    """
    if ds.d == 0 or ds.n == 0:
        raise EmptyDataset(f"refusing to write empty dataset of shape {ds.values.shape}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["date", *ds.channel_names])
    cols = ds.values.T
    for t in range(ds.n):
        writer.writerow([t, *(repr(float(v)) for v in cols[t])])
    _atomic_write(path, buf.getvalue())


def load_csv_per_cell(path, rate=None):
    """The load_csv that held every row as strings and parsed cell by cell."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingHeader(f"{path}: file is empty") from None
        rows = list(reader)
    if len(header) < 2:
        raise MissingHeader(
            f"{path}: header needs a date column plus at least one channel"
        )
    if all(_is_number(cell) for cell in header):
        raise MissingHeader(f"{path}: first row looks like data, not a header")
    if not rows:
        raise EmptyDataset(f"{path}: no data rows")
    width = len(header)
    values = np.empty((len(rows), width - 1), dtype=np.float64)
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise RaggedRows(r, width, len(row))
        for c, cell in enumerate(row[1:], start=2):
            try:
                values[r - 1, c - 2] = float(cell)
            except ValueError:
                raise NonNumericCell(r, c) from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        raise NonNumericCell(int(bad[0, 0]) + 1, int(bad[0, 1]) + 2, "non-finite")
    return Dataset(
        values=values.T,
        channel_names=tuple(header[1:]),
        rate=rate,
        provenance=path,
    )
