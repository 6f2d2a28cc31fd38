"""Reference implementations that fast paths in the library are tested against."""

import csv
import io
from typing import NamedTuple

import numpy as np

from freqsynth.dataio import _atomic_write, _is_number
from freqsynth.dataset import Dataset, WindowSet, _nonnegative
from freqsynth.dataset import _whole_number as whole_number
from freqsynth.evaluation import (
    DEFAULT_HORIZONS,
    EvalReport,
    SplitSpec,
    TransferMatrix,
    _forecaster,
    minmax_scale_columns,
)
from freqsynth.forecast import (
    DEFAULT_ANCHOR,
    STD_FLOOR,
    LinearForecaster,
    _design,
    default_lambda,
)
from freqsynth import forecast
from freqsynth.errors import (
    DegenerateChannel,
    EmptyDataset,
    EmptyTrainingSet,
    InsufficientData,
    InvalidAmplitudeScale,
    InvalidWindow,
    MissingHeader,
    NonNumericCell,
    RaggedRows,
    ShapeMismatch,
    SplitTooSmall,
    WindowTooLong,
)
from freqsynth.freqest import estimate_fundamental
from freqsynth.generator import (
    DEGENERATE_RTOL,
    MIX_FREQ_RANGE,
    NATURAL_FREQUENCIES,
    GeneratorConfig,
    SineSpec,
    _render_channels,
    build_datasets,
    harmonic_set,
    sample_windows,
)
from freqsynth.spectral import Periodogram, _as_series

_CHUNK = 4096

_BLOCK = 2**18

_SEED_CEILING = 2**63 - 1

# The ETTh/ETTm chronological split and the split of the other LTSF
# datasets.
ETT_SPLIT = SplitSpec(0.6, 0.2, 0.2)
STANDARD_SPLIT = SplitSpec(0.7, 0.2, 0.1)


def render_spec(spec: SineSpec, n: int) -> np.ndarray:
    """spec's sinusoid at t = 0 .. n-1.

    The association mirrors the per-member render in _render_channels,
    so a one-sine channel is bitwise equal to the rendered spec.
    """
    t = np.arange(n, dtype=np.float64)
    return spec.amplitude * np.sin(2.0 * np.pi * spec.frequency * t + spec.phase)


def dft_naive(x) -> np.ndarray:
    """Reference O(n^2) summation of spectral.dft, in chunks of 128 output bins.

    An independent check on the FFT path; the two agree to 1e-9
    relative error for n up to a few thousand.
    """
    arr = _as_series(x)
    n = arr.size
    t = np.arange(1, n + 1, dtype=np.float64)
    coeffs = np.empty(n, dtype=np.complex128)
    chunk = 128
    for start in range(0, n, chunk):
        j = np.arange(start, min(start + chunk, n), dtype=np.float64)
        kernel = np.exp((-2j * np.pi / n) * np.outer(j, t))
        coeffs[start : start + j.size] = kernel @ arr
    return coeffs / np.sqrt(n)


def render_channels_direct(amps, freqs, phases, n, d, l, rng):
    """Channels summed from every pool member rendered over t = 0..n-1.

    The render synthesize used before harmonic pools went through a
    sin/cos basis: an (m, n) pool matrix, then a (d, m) count matrix of
    the channel draws times it.  Its pool matrix is, verbatim, the one
    expression the member branch of _render_channels evaluated before it
    computed the rows in place.
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


def load_csv_per_cell(path):
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
            raise RaggedRows(path, r, width, len(row))
        for c, cell in enumerate(row[1:], start=2):
            try:
                values[r - 1, c - 2] = float(cell)
            except ValueError:
                raise NonNumericCell(path, r, c) from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        raise NonNumericCell(path, int(bad[0, 0]) + 1, int(bad[0, 1]) + 2, "non-finite")
    return Dataset(values=values.T, channel_names=tuple(header[1:]), provenance=path)


# The synthetic-data paths from before they shared one law-keyed builder:
# a pool draw per law, three dataset builders, three freq_synth bodies and
# two standardisers, copied unchanged, plus the two periodogram formulas
# from before they shared one helper.  Each is an oracle for bitwise
# equality with the library.

def _draw_pool_arrays(cfg: GeneratorConfig, rng: np.random.Generator):
    """Amplitude/frequency/phase vectors for one harmonic pool."""
    omegas = np.array(harmonic_set(cfg.omega_bar, cfg.h))
    amps = rng.exponential(scale=cfg.A_prime - 0.01, size=cfg.m) + 0.01
    freqs = rng.choice(omegas, size=cfg.m, replace=True)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=cfg.m)
    return amps, freqs, phases


def build_mix_pool(
    m: int, A_prime: float, rng: np.random.Generator
) -> list[SineSpec]:
    """Pool with frequencies uniform over MIX_FREQ_RANGE; no harmonics."""
    if not A_prime > 0.01:
        raise InvalidAmplitudeScale(f"A_prime must exceed 0.01, got {A_prime}")
    lo, hi = MIX_FREQ_RANGE
    amps = rng.exponential(scale=A_prime - 0.01, size=m) + 0.01
    freqs = np.maximum(rng.uniform(lo, hi, size=m), np.nextafter(lo, hi))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=m)
    return [
        SineSpec(amplitude=float(a), frequency=float(f), phase=float(p))
        for a, f, p in zip(amps, freqs, phases)
    ]


def synthesize(cfg: GeneratorConfig, pool: list[SineSpec] | None = None) -> Dataset:
    """Build a (d, n) dataset from a harmonic pool.

    When ``pool`` is given it is used as-is (its length replaces cfg.m)
    and cfg.seed only drives the channel draws; otherwise the pool is
    drawn first from the same seeded stream.
    """
    rng = np.random.default_rng(cfg.seed)
    if pool is None:
        amps, freqs, phases = _draw_pool_arrays(cfg, rng)
    else:
        if not pool:
            raise ValueError("explicit pool must be non-empty")
        amps = np.array([s.amplitude for s in pool])
        freqs = np.array([s.frequency for s in pool])
        phases = np.array([s.phase for s in pool])
    values = _render_channels(amps, freqs, phases, cfg.n, cfg.d, cfg.l, rng)
    names = tuple(f"ch{i + 1}" for i in range(cfg.d))
    return Dataset(
        values=values,
        channel_names=names,
        provenance=f"freq-synth:{cfg.digest()}",
    )


def standardize(ds: Dataset) -> Dataset:
    """Per-channel (x - mean) / std with population std.

    Raises DegenerateChannel when any channel is constant, or constant
    to float resolution (see ``generator.DEGENERATE_RTOL``).
    """
    mean = ds.values.mean(axis=1, keepdims=True)
    std = ds.values.std(axis=1, keepdims=True)
    flat = np.flatnonzero(std <= DEGENERATE_RTOL * np.abs(mean)).tolist()
    if flat:
        raise DegenerateChannel(
            f"channel(s) {flat} have zero variance to float resolution"
        )
    return Dataset(
        values=(ds.values - mean) / std,
        channel_names=ds.channel_names,
        provenance=ds.provenance,
    )


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, _SEED_CEILING))


def standardize_by_train(train: Dataset, *others: Dataset):
    """Standardize splits with the TRAIN split's per-channel statistics.

    The other splits are scaled by the same statistics, so their own
    moments are not exactly 0/1.  Raises DegenerateChannel
    when a train channel is constant, or constant to float resolution
    (see ``generator.DEGENERATE_RTOL``).
    """
    mean = train.values.mean(axis=1, keepdims=True)
    std = train.values.std(axis=1, keepdims=True)
    flat = np.flatnonzero(std <= DEGENERATE_RTOL * np.abs(mean)).tolist()
    if flat:
        raise DegenerateChannel(
            f"train channel(s) {flat} are constant to float resolution"
        )

    def _apply(ds: Dataset) -> Dataset:
        return Dataset(
            values=(ds.values - mean) / std,
            channel_names=ds.channel_names,
            provenance=ds.provenance,
        )

    out = [_apply(train)] + [_apply(o) for o in others]
    return tuple(out)


def build_harmonic_datasets(
    omega_bar: float,
    seed: int,
    h_values: tuple[int, ...] = (1, 2, 3),
    *,
    m: int = 100,
    A_prime: float = 5.0,
    l: int = 10,
    n: int = 50_000,
    d: int = 5,
) -> list[Dataset]:
    """One standardized dataset per harmonic count in ``h_values``."""
    master = np.random.default_rng(seed)
    out = []
    for h in h_values:
        cfg = GeneratorConfig(
            omega_bar=omega_bar,
            m=m,
            h=h,
            A_prime=A_prime,
            l=l,
            n=n,
            d=d,
            seed=_child_seed(master),
        )
        out.append(standardize(synthesize(cfg)))
    return out


def freq_synth(
    omega_bar: float,
    seed: int,
    count_train: int = 5000,
    count_val: int = 5000,
    L: int = 96,
    H: int = 720,
    *,
    m: int = 100,
    A_prime: float = 5.0,
    l: int = 10,
    n: int = 50_000,
    d: int = 5,
) -> tuple[WindowSet, WindowSet]:
    """Training and validation windows around one fundamental.

    Builds standardized datasets for h = 1, 2, 3, then samples windows
    of length L + H uniformly across all of them; train and validation
    draws never share a (dataset, channel, start) triple.
    """
    master = np.random.default_rng(seed)
    data_seed = _child_seed(master)
    sample_seed = _child_seed(master)
    datasets = build_harmonic_datasets(
        omega_bar, data_seed, m=m, A_prime=A_prime, l=l, n=n, d=d
    )
    return sample_windows(datasets, count_train, count_val, L, H, sample_seed)


def build_natural_datasets(
    seed: int,
    *,
    frequencies: tuple[float, ...] = NATURAL_FREQUENCIES,
    h_values: tuple[int, ...] = (1, 2, 3),
    m: int = 100,
    A_prime: float = 5.0,
    l: int = 10,
    n: int = 50_000,
    d: int = 5,
) -> list[Dataset]:
    """Standardized datasets for every (fundamental, harmonic) pair."""
    master = np.random.default_rng(seed)
    out = []
    for omega in frequencies:
        for h in h_values:
            cfg = GeneratorConfig(
                omega_bar=omega,
                m=m,
                h=h,
                A_prime=A_prime,
                l=l,
                n=n,
                d=d,
                seed=_child_seed(master),
            )
            out.append(standardize(synthesize(cfg)))
    return out


def freq_synth_natural(
    seed: int,
    count_train: int = 5000,
    count_val: int = 5000,
    L: int = 96,
    H: int = 720,
    *,
    m: int = 100,
    A_prime: float = 5.0,
    l: int = 10,
    n: int = 50_000,
    d: int = 5,
) -> tuple[WindowSet, WindowSet]:
    """As freq_synth, over pools anchored on NATURAL_FREQUENCIES.

    Each of the four everyday fundamentals is expanded with h = 1, 2, 3
    harmonics; window sampling spans all twelve resulting datasets.
    """
    master = np.random.default_rng(seed)
    data_seed = _child_seed(master)
    sample_seed = _child_seed(master)
    datasets = build_natural_datasets(
        data_seed, m=m, A_prime=A_prime, l=l, n=n, d=d
    )
    return sample_windows(datasets, count_train, count_val, L, H, sample_seed)


def build_mix_datasets(
    seed: int,
    *,
    copies: int = 3,
    m: int = 100,
    A_prime: float = 5.0,
    l: int = 10,
    n: int = 50_000,
    d: int = 5,
) -> list[Dataset]:
    """Standardized datasets over unstructured uniform-frequency pools."""
    master = np.random.default_rng(seed)
    out = []
    for i in range(copies):
        rng = np.random.default_rng(_child_seed(master))
        pool = build_mix_pool(m, A_prime, rng)
        amps = np.array([s.amplitude for s in pool])
        freqs = np.array([s.frequency for s in pool])
        phases = np.array([s.phase for s in pool])
        values = _render_channels(amps, freqs, phases, n, d, l, rng)
        names = tuple(f"ch{j + 1}" for j in range(d))
        ds = Dataset(
            values=values,
            channel_names=names,
            provenance=f"freq-synth-mix:seed={seed}:copy={i}",
        )
        out.append(standardize(ds))
    return out


def freq_synth_mix(
    seed: int,
    count_train: int = 5000,
    count_val: int = 5000,
    L: int = 96,
    H: int = 720,
    *,
    m: int = 100,
    A_prime: float = 5.0,
    l: int = 10,
    n: int = 50_000,
    d: int = 5,
) -> tuple[WindowSet, WindowSet]:
    """As freq_synth, over frequency-unstructured pools.

    Three independent mix datasets stand in for the h = 1, 2, 3 triple
    so sample budgets match the harmonic variant.
    """
    master = np.random.default_rng(seed)
    data_seed = _child_seed(master)
    sample_seed = _child_seed(master)
    datasets = build_mix_datasets(
        data_seed, copies=3, m=m, A_prime=A_prime, l=l, n=n, d=d
    )
    return sample_windows(datasets, count_train, count_val, L, H, sample_seed)


def synthetic_registry(
    seed: int = 0,
    fundamentals: tuple[float, ...] = (1 / 7, 1 / 24, 1 / 96),
    copies: int = 2,
    n: int = 8192,
    d: int = 4,
    h: int = 1,
) -> list[tuple[str, Dataset]]:
    """Small pool of labelled synthetic datasets for transfer studies.

    The registry's own child-seed loop from before it became one
    build_datasets call, copied unchanged.

    ``copies`` independent datasets per fundamental, each with h
    harmonics, standardized, named like ``w24-a`` for omega = 1/24.
    """
    master = np.random.default_rng(seed)
    out = []
    for omega in fundamentals:
        for c in range(copies):
            cfg = GeneratorConfig(
                omega_bar=omega, h=h, n=n, d=d, seed=_child_seed(master)
            )
            name = f"w{round(1 / omega)}-{chr(ord('a') + c)}"
            out.append((name, standardize(synthesize(cfg))))
    return out


def scaled_periodogram(x) -> Periodogram:
    """Scaled periodogram of one series.

    Computed via the real FFT; the t-origin twist has unit modulus and
    cancels in |d|^2, so it is skipped here.
    """
    arr = _as_series(x)
    n = arr.size
    half = (n - 1) // 2
    spec = np.fft.rfft(arr)[1 : half + 1]
    powers = (4.0 / (float(n) * n)) * (spec.real * spec.real + spec.imag * spec.imag)
    freqs = np.arange(1, half + 1, dtype=np.float64) / n
    return Periodogram(freqs=freqs, powers=powers)


def aggregate_periodogram(ds: Dataset, window_len: int) -> Periodogram:
    """Mean periodogram over all non-overlapping windows of all channels.

    The trailing n mod window_len samples of each channel are discarded.
    The frequency grid is that of a length-``window_len`` series.
    """
    w = int(window_len)
    if w > ds.n:
        raise WindowTooLong(f"window_len {w} exceeds series length {ds.n}")
    if w < 16:
        raise InvalidWindow(f"window_len must be >= 16, got {w}")
    k = ds.n // w
    segs = ds.values[:, : k * w].reshape(ds.d * k, w)
    half = (w - 1) // 2
    spec = np.fft.rfft(segs, axis=1)[:, 1 : half + 1]
    powers = (4.0 / (float(w) * w)) * (
        spec.real * spec.real + spec.imag * spec.imag
    )
    freqs = np.arange(1, half + 1, dtype=np.float64) / w
    return Periodogram(freqs=freqs, powers=powers.mean(axis=0))


def sample_windows_eager(datasets, count_train, count_val, L, H, seed):
    """sample_windows from before window sets gathered on demand, copied
    unchanged: it cuts every sampled window into one (need, L + H)
    tensor, and each set copies its lookback and horizon columns."""
    L = whole_number("lookback L", L)
    H = whole_number("horizon H", H)
    count_train = whole_number("count_train", count_train, 1, ValueError)
    count_val = whole_number("count_val", count_val, 0, ValueError)
    length = L + H
    starts = []
    for ds in datasets:
        s = ds.n - length + 1
        if s < 1:
            raise WindowTooLong(
                f"window length {length} exceeds series length {ds.n}"
            )
        starts.append(s)
    sizes = [ds.d * s for ds, s in zip(datasets, starts)]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    need = count_train + count_val
    if need > total:
        raise InsufficientData(
            f"requested {need} windows but only {total} distinct "
            "(dataset, channel, start) triples exist"
        )
    rng = np.random.default_rng(seed)
    flat = rng.choice(total, size=need, replace=False)

    ds_idx = np.searchsorted(offsets, flat, side="right") - 1
    local = flat - offsets[ds_idx]
    starts_arr = np.array(starts)
    chan = local // starts_arr[ds_idx]
    start = local % starts_arr[ds_idx]

    out = np.empty((need, length), dtype=np.float64)
    for di, ds in enumerate(datasets):
        rows = np.flatnonzero(ds_idx == di)
        if rows.size == 0:
            continue
        views = np.lib.stride_tricks.sliding_window_view(
            ds.values, length, axis=1
        )
        out[rows] = views[chan[rows], start[rows]]

    def _cut(rows: slice) -> WindowSet:
        # the set WindowSet(lookbacks, horizons) builds
        windows = out[rows]
        starts = np.arange(windows.shape[0]) * length
        return WindowSet._over(windows.ravel(), starts, L, H)

    return _cut(slice(0, count_train)), _cut(slice(count_train, need))


# fit_ridge and finetune from before they shared one Gram solve, copied
# unchanged, with the feature builder they used: the whole window set's
# lookbacks and horizons at once.

def _features(ws: WindowSet) -> tuple[np.ndarray, np.ndarray]:
    """Instance-normalized design matrix [z; 1] and normalized targets."""
    phi, mu, sd = _design(ws.lookbacks)
    return phi, (ws.horizons - mu) / sd


def fit_ridge(train: WindowSet, lam: float | None = None) -> LinearForecaster:
    """Minimize sum ||W [z;1] - y_norm||^2 + lam ||W||_F^2 over windows.

    lam=None picks the relative default; lam=0 solves exact least
    squares via lstsq (minimum-norm on rank-deficient designs); lam>0
    solves the normal equations directly.
    """
    if train.count == 0:
        raise EmptyTrainingSet("cannot fit on an empty window set")
    phi, y = _features(train)
    if lam is None:
        lam = default_lambda(phi)
    _nonnegative("lam", lam)
    if lam == 0.0:
        wt, *_ = np.linalg.lstsq(phi, y, rcond=None)
    else:
        gram = phi.T @ phi
        gram[np.diag_indices_from(gram)] += lam
        wt = np.linalg.solve(gram, phi.T @ y)
    return LinearForecaster(weights=wt.T, lam=float(lam))


def finetune(
    model: LinearForecaster,
    fewshot: WindowSet,
    anchor: float = DEFAULT_ANCHOR,
    lam: float | None = None,
) -> LinearForecaster:
    """Refit on few-shot windows, penalized toward the pretrained weights.

    Solves sum ||W phi - y||^2 + lam ||W||_F^2 + anchor ||W - W0||_F^2,
    so anchor -> infinity returns W0 and anchor = 0 refits from scratch.
    lam=None reuses the coefficient recorded on the pretrained model.
    """
    if fewshot.count == 0:
        raise EmptyTrainingSet("cannot finetune on an empty window set")
    if fewshot.L != model.L or fewshot.H != model.H:
        raise ShapeMismatch(
            f"few-shot windows are L={fewshot.L}, H={fewshot.H}; "
            f"model expects L={model.L}, H={model.H}"
        )
    _nonnegative("anchor", anchor)
    if lam is None:
        lam = model.lam
    _nonnegative("lam", lam)
    if anchor == 0.0:
        fitted = fit_ridge(fewshot, lam)
        return LinearForecaster(
            weights=fitted.weights,
            lam=fitted.lam,
            model_id=f"{model.model_id}-finetuned",
        )
    phi, y = _features(fewshot)
    gram = phi.T @ phi
    gram[np.diag_indices_from(gram)] += lam + anchor
    rhs = phi.T @ y + anchor * model.weights.T
    wt = np.linalg.solve(gram, rhs)
    return LinearForecaster(
        weights=wt.T,
        lam=float(lam),
        model_id=f"{model.model_id}-finetuned",
    )


# The two passes of a streamed fit before its horizons were gathered in
# column slices and its design took sd from the centred columns: a design
# with np.std, blocks designed whole and then copied into phi (copied
# unchanged), and each block's horizons multiplied whole (with the
# normalization folded into the left operand, as the library folds it).

def design_with_std(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Design matrix [(X - mu) / sd, 1] of (N, L) lookbacks, with mu and sd.

    mu and sd are each row's mean and population std (floored); the
    matrix is built in one array, with no concatenated copy.
    """
    mu = X.mean(axis=1, keepdims=True)
    sd = np.maximum(X.std(axis=1, keepdims=True), STD_FLOOR)
    phi = np.empty((X.shape[0], X.shape[1] + 1))
    z = phi[:, :-1]
    np.subtract(X, mu, out=z)
    z /= sd
    phi[:, -1] = 1.0
    return phi, mu, sd


def design_blocks_whole(ws: WindowSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pass 1 of a fit: the (N, L + 1) design of ``ws`` with per-row mu, sd.

    Lookbacks are gathered and designed _FIT_BLOCK windows at a time, so
    each block's design is built exactly once and no window tensor is
    held.
    """
    n = ws.count
    phi, mu, sd = np.empty((n, ws.L + 1)), np.empty((n, 1)), np.empty((n, 1))
    for lo in range(0, n, forecast._FIT_BLOCK):
        hi = min(lo + forecast._FIT_BLOCK, n)
        phi[lo:hi], mu[lo:hi], sd[lo:hi] = design_with_std(ws._take(lo, hi, 0, ws.L))
    return phi, mu, sd


def target_products_whole(ws: WindowSet, left: np.ndarray, mu) -> np.ndarray:
    """Pass 2 of a fit with the normalization folded into ``left``: the
    sum over blocks of left_b' Y_b, less left' mu.

    Y_b is the block's raw horizons, gathered whole; ``left`` has one row
    per window and is already divided by its sd.
    """
    total = None
    for lo in range(0, ws.count, forecast._FIT_BLOCK):
        hi = min(lo + forecast._FIT_BLOCK, ws.count)
        part = left[lo:hi].T @ ws._take(lo, hi, ws.L, ws.L + ws.H)
        total = part if total is None else total + part
    total -= left.T @ mu
    return total


# Pass 2 of a fit before the horizon normalization was folded into its
# left operand, copied unchanged: every gathered horizon slice is centred
# by mu and divided by sd before the matmul.

def target_products_unfolded(ws: WindowSet, left: np.ndarray, mu, sd) -> np.ndarray:
    """Pass 2 of a fit: the sum over blocks of left_b' Y_b.

    Y_b is the block's horizons normalized by its stored mu and sd (no
    design is rebuilt); ``left`` has one row per window.  Each block's
    horizons are gathered _FIT_COLUMNS at a time, and each column slice
    of left_b' Y_b is its own matmul: every element still sums over the
    block's windows in one order, so the products are those of whole
    blocks, bit for bit.
    """
    total, part = None, np.empty((left.shape[1], ws.H))
    for lo in range(0, ws.count, forecast._FIT_BLOCK):
        hi = min(lo + forecast._FIT_BLOCK, ws.count)
        for c0 in range(0, ws.H, forecast._FIT_COLUMNS):
            c1 = min(c0 + forecast._FIT_COLUMNS, ws.H)
            y = ws._take(lo, hi, ws.L + c0, ws.L + c1)
            y -= mu[lo:hi]
            y /= sd[lo:hi]
            np.matmul(left[lo:hi].T, y, out=part[:, c0:c1])
        if total is None:
            total = part.copy()
        else:
            total += part
    return total


def block_sums_unstacked(predict, segments, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-column squared and absolute error sums over ``segments``.

    The one-model scoring kernel evaluation used before it scored a stack
    of ridge models per block.

    ``segments`` lists (inputs, targets) pairs with one input row per
    target row of ``width`` columns.  ``predict(inputs[rows], out)``
    returns the predictions for ``targets[rows]``, written into ``out``
    when it can.  Rows are taken in blocks of about _BLOCK elements, all
    scored in one error buffer, so each block stays cache-resident and
    needs no fresh error array; each block's errors are squared-and-summed
    by one einsum and made absolute in place.
    """
    step = max(1, _BLOCK // width)
    buf = np.empty((min(step, max(len(t) for _, t in segments)), width))
    sse, sae = np.zeros(width), np.zeros(width)
    for inputs, targets in segments:
        for lo in range(0, targets.shape[0], step):
            tg = targets[lo : lo + step]
            err = buf[: tg.shape[0]]
            np.subtract(predict(inputs[lo : lo + step], err), tg, out=err)
            sse += np.einsum("ij,ij->j", err, err)
            sae += np.abs(err, out=err).sum(axis=0)
    return sse, sae


def _score_unstacked(
    predict, inputs: np.ndarray, targets: np.ndarray
) -> tuple[float, float]:
    """(MSE, MAE) of predict over a non-empty 2-D target array."""
    sse, sae = block_sums_unstacked(predict, [(inputs, targets)], targets.shape[1])
    return float(sse.sum()) / targets.size, float(sae.sum()) / targets.size


def windowset_metrics_unstacked(model, ws: WindowSet) -> tuple[float, float]:
    """(MSE, MAE) of a model over a window set, one-model kernel."""
    if ws.count == 0:
        raise ShapeMismatch("cannot score an empty window set")
    return _score_unstacked(_forecaster(model, ws.H), ws.lookbacks, ws.horizons)


def _whole_number(name: str, value) -> int:
    """``value`` as an int >= 1; InvalidWindow naming it otherwise."""
    try:
        whole = int(value)
        ok = whole == value and whole >= 1
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InvalidWindow(f"{name} must be an integer >= 1, got {value!r}")
    return whole


def evaluate_zero_shot_unstacked(
    model,
    test_ds: Dataset,
    L: int = 96,
    horizons: tuple[int, ...] = DEFAULT_HORIZONS,
    dataset_id: str | None = None,
    seed: int | None = None,
) -> list[EvalReport]:
    """Stride-1 evaluation over the test segment, one report per horizon.

    evaluate_zero_shot as it was before the one-model kernel took a model
    count, kept to pin single-model scores bit for bit.

    Reports follow the requested order, duplicates included.  The model
    must accept ``forecast(X, h)`` for every requested h and be
    prefix-consistent; each window is forecast once, at the largest
    requested horizon that fits it, and shorter horizons are scored from
    the prefix.
    """
    L = _whole_number("lookback L", L)
    horizons = tuple(_whole_number("horizon", h) for h in horizons)
    if not horizons:
        raise InvalidWindow("at least one horizon is required")
    max_h = max(horizons)
    if test_ds.n < L + max_h:
        raise SplitTooSmall(
            f"test segment of length {test_ds.n} cannot hold one "
            f"window of L + H = {L + max_h}"
        )
    ds_id = dataset_id if dataset_id is not None else (test_ds.provenance or "dataset")
    model_id = getattr(model, "model_id", type(model).__name__)

    def count(h: int) -> int:
        return test_ds.n - L - h + 1

    # A band (lo, hi, hb) forecasts windows [lo, hi) at horizon hb;
    # reads[h] lists the bands whose first h columns horizon h sums.
    desc = sorted(set(horizons), reverse=True)
    bounds = [0] + [count(h) for h in desc]
    bands = [(bounds[i], bounds[i + 1], h) for i, h in enumerate(desc)]
    reads = {h: range(i + 1) for i, h in enumerate(desc)}
    windows = np.lib.stride_tricks.sliding_window_view
    sums = [
        block_sums_unstacked(
            _forecaster(model, hb),
            [
                (windows(row, L)[lo:hi], windows(row, hb)[L + lo : L + hi])
                for row in test_ds.values
            ],
            hb,
        )
        for lo, hi, hb in bands
    ]

    reports = []
    for h in horizons:
        sse = sum(float(sums[b][0][:h].sum()) for b in reads[h])
        sae = sum(float(sums[b][1][:h].sum()) for b in reads[h])
        total = count(h) * test_ds.d * h
        reports.append(
            EvalReport(
                dataset=ds_id,
                horizon=h,
                mse=sse / total,
                mae=sae / total,
                model=model_id,
                seed=seed,
                windows=count(h) * test_ds.d,
            )
        )
    return reports


class Matrix(NamedTuple):
    """A transfer matrix's ids, raw MSEs and scaled values, built without
    TransferMatrix, so its ``scaled`` is the oracle's own."""

    ids: tuple[str, ...]
    raw: np.ndarray
    scaled: np.ndarray


def transfer_matrix_per_model(
    datasets: list[Dataset],
    trainer,
    L: int,
    H: int,
    ids: list[str] | None = None,
    seed: int = 0,
) -> Matrix:
    """Train on each dataset, test on every dataset, min-max per column.

    The loop transfer_matrix ran before it fit every row first: each row's
    model is trained, then scored on every column, one model at a time.

    ``trainer`` is a callable (dataset, seed) -> model; each row gets a
    deterministic child seed.  Diagonal (in-domain) cells are reported
    but excluded from each column's min-max range.
    """
    if len(datasets) < 2:
        raise ValueError("transfer matrix needs at least 2 datasets")
    if ids is None:
        ids = [ds.provenance or f"ds{i}" for i, ds in enumerate(datasets)]
    if len(ids) != len(datasets):
        raise ShapeMismatch(f"{len(ids)} ids for {len(datasets)} datasets")
    master = np.random.default_rng(seed)
    k = len(datasets)
    raw = np.empty((k, k), dtype=np.float64)
    for i, train_ds in enumerate(datasets):
        model = trainer(train_ds, _child_seed(master))
        for j, test_ds in enumerate(datasets):
            report = evaluate_zero_shot_unstacked(
                model, test_ds, L, (H,), dataset_id=ids[j], seed=seed
            )[0]
            raw[i, j] = report.mse
    scaled = minmax_scale_columns(raw)
    return Matrix(ids=tuple(ids), raw=raw, scaled=scaled)


def harmonics_sweep_per_model(
    targets: list[tuple[str, Dataset]],
    h_values: tuple[int, ...] = (1, 2, 3, 4),
    seed: int = 0,
    L: int = 96,
    H: int = 96,
    count_train: int = 2000,
    n: int = 16384,
    d: int = 5,
    lam: float | None = None,
) -> list[tuple[int, str, float]]:
    """Zero-shot MSE per (harmonic count, target dataset) pair.

    The loop harmonics_sweep ran before it fit all its models first: each
    model is fit and scored on its target in turn.  Models are fit by the
    library's fit_ridge, so the comparison checks the scoring alone.

    For each target the fundamental is estimated from its periodogram;
    a fresh synthetic train set with the given h is fit and scored on
    the target.  Returns |h_values| * |targets| rows (h, id, mse).
    """
    master = np.random.default_rng(seed)
    est = {tid: estimate_fundamental(ds).omega_bar for tid, ds in targets}
    rows = []
    for h in h_values:
        for tid, ds in targets:
            train_sets = build_datasets([(est[tid], h)], _child_seed(master), n=n, d=d)
            windows, _ = sample_windows(
                train_sets, count_train, 0, L, H, _child_seed(master)
            )
            model = forecast.fit_ridge(windows, lam)
            mse = evaluate_zero_shot_unstacked(model, ds, L, (H,), dataset_id=tid)[0].mse
            rows.append((int(h), tid, float(mse)))
    return rows


def size_variates_sweep_per_model(
    sizes: tuple[int, ...],
    d_values: tuple[int, ...],
    target: Dataset,
    seed: int = 0,
    L: int = 96,
    H: int = 96,
    n: int = 16384,
    lam: float | None = None,
) -> np.ndarray:
    """Zero-shot MSE grid over (training window count, variate count).

    The loop size_variates_sweep ran before it fit all its models first.
    """
    master = np.random.default_rng(seed)
    omega = estimate_fundamental(target).omega_bar
    grid = np.empty((len(sizes), len(d_values)), dtype=np.float64)
    for i, size in enumerate(sizes):
        for j, d in enumerate(d_values):
            train_sets = build_datasets(
                [(omega, h) for h in (1, 2, 3)], _child_seed(master), n=n, d=int(d)
            )
            windows, _ = sample_windows(
                train_sets, int(size), 0, L, H, _child_seed(master)
            )
            model = fit_ridge(windows, lam)
            grid[i, j] = evaluate_zero_shot_unstacked(model, target, L, (H,))[0].mse
    return grid


def save_reports_csv_direct(reports: list[EvalReport], path: str) -> None:
    """Summary rows ``dataset,horizon,mse,mae,model,seed``.

    save_reports_csv as it was before it went through save_table_csv.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dataset", "horizon", "mse", "mae", "model", "seed"])
    for r in reports:
        writer.writerow(
            [
                r.dataset,
                r.horizon,
                repr(float(r.mse)),
                repr(float(r.mae)),
                r.model,
                "" if r.seed is None else r.seed,
            ]
        )
    _atomic_write(path, buf.getvalue())


def save_matrix_csv_direct(tm: TransferMatrix, path: str, kind: str = "scaled") -> None:
    """Transfer matrix with train ids as row labels, test ids as columns.

    save_matrix_csv as it was before it went through save_table_csv.
    """
    if kind not in ("scaled", "raw"):
        raise ValueError(f"kind must be 'scaled' or 'raw', got {kind!r}")
    mat = tm.scaled if kind == "scaled" else tm.raw
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["train\\test", *tm.ids])
    for label, row in zip(tm.ids, mat):
        writer.writerow([label, *(repr(float(v)) for v in row)])
    _atomic_write(path, buf.getvalue())
