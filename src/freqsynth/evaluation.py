"""Zero-shot and few-shot evaluation harness.

Provides the chronological split, window-set metrics, stride-1
zero-shot evaluation over a test segment, cross-dataset transfer
matrices with per-column min-max scaling (each column's in-domain cell
left out of its range), and the synthetic experiment
drivers: frequency confusion, frequency generalization, and the
harmonics / size-and-variates sweeps.

Every driver is a pure function of its arguments and a seed; model
evaluation itself never consumes randomness.  Models are scored in
blocks of forecasts, except SeasonalNaiveForecaster, whose errors are
differences of each series at multiples of its period and are summed
without a forecast.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, WindowSet, _freeze, _nonnegative, _shown, _whole_number
from .errors import (
    FreqSynthError,
    InvalidWindow,
    PeriodTooLong,
    ShapeMismatch,
    SplitTooSmall,
    WindowTooLong,
)
from .forecast import LinearForecaster, SeasonalNaiveForecaster, fit_ridge
from .freqest import estimate_fundamental
from .generator import (
    GeneratorConfig,
    _child_seed,
    _windows,
    build_datasets,
    sample_windows,
    standardize,
    synthesize,
)

# Support and exclusion zone for experiment distractor frequencies.
DISTRACTOR_RANGE = (1 / 200, 0.45)

# The frequency experiments' fixed protocol: training windows per
# sinusoid, held-out evaluation windows, and channels per pure-sine
# dataset.  Both fit exact least squares (lambda = 0).
_WINDOWS_PER_SINE = 256
_EVAL_WINDOWS = 512
_PURE_D = 4

DEFAULT_HORIZONS = (96, 192, 336, 720)

# Elements per scoring block (2 MB of float64), sized to stay in cache.
_BLOCK = 2**18


@dataclass(frozen=True)
class EvalReport:
    """One dataset/horizon measurement."""

    dataset: str
    horizon: int
    mse: float
    mae: float
    model: str
    seed: int | None = None
    windows: int = 0

    def __post_init__(self):
        for name in ("mse", "mae"):
            _nonnegative(name, getattr(self, name))


@dataclass(frozen=True)
class TransferMatrix:
    """Cross-dataset raw MSEs and their per-column min-max scaling.

    Row i is the model trained on dataset ``ids[i]``, column j the test
    dataset ``ids[j]``, so cell (j, j) is in-domain: it is excluded from
    column j's min-max range (the matrix is about cross-domain transfer)
    and its scaled value is clipped into [0, 1].  ``raw`` must be finite
    and >= 0; ``scaled`` is minmax_scale_columns(raw).
    """

    ids: tuple[str, ...]
    raw: np.ndarray
    scaled: np.ndarray = field(init=False)

    def __post_init__(self):
        ids = tuple(self.ids)
        raw = np.asarray(self.raw, dtype=np.float64)
        shape = (len(ids), len(ids))
        if raw.shape != shape:
            raise ShapeMismatch(f"matrix shape {raw.shape}, expected {shape}")
        ok = np.isfinite(raw) & (raw >= 0)
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise ValueError(f"raw[{i}, {j}] must be finite and >= 0, got {raw[i, j]}")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "raw", _freeze(raw, "raw", 2))
        object.__setattr__(self, "scaled", _freeze(minmax_scale_columns(raw), "scaled", 2))


def split(
    ds: Dataset, train_frac: float, val_frac: float, min_len: int = 1
) -> tuple[Dataset, Dataset, Dataset]:
    """Contiguous train/val/test partition at floor(n * frac) boundaries.

    The test segment takes the rest, 1 - train_frac - val_frac, and each
    of the three fractions must be in (0, 1).  ``min_len`` is the smallest
    acceptable segment (pass L + H when the segments must hold at least
    one evaluation window).
    """
    for name, v in zip(("train_frac", "val_frac", "test_frac"),
                       (train_frac, val_frac, 1.0 - train_frac - val_frac)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {v}")
    n = ds.n
    n_train = int(np.floor(n * train_frac + 1e-9))
    n_val = int(np.floor(n * val_frac + 1e-9))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < max(min_len, 1):
        raise SplitTooSmall(
            f"splits {n_train}/{n_val}/{n_test} of n={n} fall below "
            f"min_len={_shown(min_len)}"
        )
    cuts = (0, n_train, n_train + n_val, n)
    return tuple(Dataset(ds.values[:, a:b], ds.channel_names, ds.provenance)
                 for a, b in zip(cuts, cuts[1:]))


def _block_sums(
    predict, segments, width: int, k: int = 1, mae: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-model, per-column squared and absolute error sums over ``segments``.

    ``segments`` yields (inputs, targets) pairs, one input row per target
    row of ``width`` columns; it may be a generator, so a caller can
    gather each segment as it is scored.  ``predict(inputs[rows], out)``
    returns the predictions of k models for ``targets[rows]`` side by
    side, (rows, k * width), written into ``out`` when it can; each
    model's block is scored against the same targets and the sums come
    back as (k, width) arrays.  Rows are taken in blocks of about _BLOCK
    elements, all scored in one error buffer, so each block stays
    cache-resident and needs no fresh error array; each block's errors
    are squared-and-summed by one einsum and made absolute in place.
    Without ``mae`` no error is made absolute or summed as such, and the
    absolute sums come back as None.
    """
    cols = k * width
    step = max(1, _BLOCK // cols)
    buf = np.empty((0, cols))
    sse, sae = np.zeros((k, width)), np.zeros((k, width)) if mae else None
    for inputs, targets in segments:
        for lo in range(0, targets.shape[0], step):
            tg = targets[lo : lo + step]
            if buf.shape[0] < tg.shape[0]:
                buf = np.empty((tg.shape[0], cols))
            err = buf[: tg.shape[0]]
            pred = predict(inputs[lo : lo + step], err)
            shape = (tg.shape[0], k, width)
            np.subtract(pred.reshape(shape), tg[:, None, :], out=err.reshape(shape))
            sse += np.einsum("ij,ij->j", err, err).reshape(k, width)
            if mae:
                sae += np.abs(err, out=err).sum(axis=0).reshape(k, width)
    return sse, sae


def _forecaster(model, h: int):
    """``predict(X, out)`` for _block_sums: ``model.forecast(X, h)``.

    A model whose ``forecast`` takes ``out`` writes into the buffer; the
    result of any other model is subtracted into it.
    """
    if "out" in inspect.signature(model.forecast).parameters:
        return lambda X, out: model.forecast(X, h, out=out)
    return lambda X, out: model.forecast(X, h)


def _window_sums(d: np.ndarray, m: int, w: int, square: bool) -> np.ndarray:
    """Per row of d and r < w, the sum of d**2 (``square``) or d over d[:, r : r + m].

    Those windows share d[:, w - 1 : m], which is reduced once; their
    first and last w - 1 positions are added as cumulative sums.  Every
    term is a square or an absolute value, so no sum cancels and exact
    zeros stay 0.0.
    """

    def total(v):
        return np.einsum("...i,...i->...", v, v) if square else v.sum(axis=-1)

    if m < w:
        return total(np.lib.stride_tricks.sliding_window_view(d, m, axis=1))
    out = total(d[:, w - 1 : m])[:, None].repeat(w, axis=1)
    head, tail = d[:, : w - 1][:, ::-1], d[:, m:]
    if square:
        head, tail = head * head, tail * tail
    out[:, :-1] += np.cumsum(head, axis=1)[:, ::-1]
    out[:, 1:] += np.cumsum(tail, axis=1)
    return out


def _lag_sums(
    values: np.ndarray, L: int, p: int, lo: int, hi: int, hb: int
) -> tuple[np.ndarray, np.ndarray]:
    """_block_sums of SeasonalNaiveForecaster(p) over one band, without forecasts.

    For window i and column j = (k - 1) * p + r (r < p), the forecast
    minus the target is x[s] - x[s + k * p] at s = i + L - p + r: the
    same subtraction of the same two floats, so every error is bitwise
    the block kernel's and only the summation order differs.  Per
    channel, windows [lo, hi) are taken in pieces of at most _BLOCK, and
    lags in chunks of about _BLOCK elements: one subtraction gives each
    lag's differences over the m + w - 1 positions its w columns read,
    and _window_sums sums them per column.  Returns (1, hb) arrays, as
    _block_sums does for one model.
    """
    windows = np.lib.stride_tricks.sliding_window_view
    sse, sae = np.zeros((1, hb)), np.zeros((1, hb))
    full, rest = divmod(hb, p)
    for x in values:
        for a in range(lo, hi, _BLOCK):
            m = min(hi - a, _BLOCK)
            s = L - p + a
            step = max(1, _BLOCK // (m + p - 1))
            chunks = [(k0, min(k0 + step, full), p) for k0 in range(0, full, step)]
            chunks += [(full, full + 1, rest)] if rest else []
            for k0, k1, w in chunks:
                span = m + w - 1
                d = x[s : s + span] - windows(x[s + p :], span)[k0 * p : k1 * p : p]
                cols = slice(k0 * p, k0 * p + (k1 - k0) * w)
                sse[0, cols] += _window_sums(d, m, w, True).ravel()
                sae[0, cols] += _window_sums(np.abs(d, out=d), m, w, False).ravel()
    return sse, sae


def windowset_metrics(model, ws: WindowSet) -> tuple[float, float]:
    """(MSE, MAE) of a model over a window set, predictions blocked.

    Windows are gathered one _block_sums block at a time, so the sums
    run in the order they would over the whole set at once.
    """
    if ws.count == 0:
        raise ShapeMismatch("cannot score an empty window set")
    step = max(1, _BLOCK // ws.H)
    blocks = (ws.block(lo, min(lo + step, ws.count)) for lo in range(0, ws.count, step))
    segments = ((b[:, : ws.L], b[:, ws.L :]) for b in blocks)
    sse, sae = _block_sums(_forecaster(model, ws.H), segments, ws.H)
    size = ws.count * ws.H
    return float(sse[0].sum()) / size, float(sae[0].sum()) / size


def _checked_window(
    test_ds: Dataset, L, horizons
) -> tuple[int, tuple[int, ...]]:
    """Whole-number L and horizons that fit one window of ``test_ds``."""
    L = _whole_number("lookback L", L)
    horizons = tuple(_whole_number("horizon", h) for h in horizons)
    if not horizons:
        raise InvalidWindow("at least one horizon is required")
    max_h = max(horizons)
    if test_ds.n < L + max_h:
        raise SplitTooSmall(
            f"test segment of length {test_ds.n} cannot hold one "
            f"window of L + H = {_shown(L + max_h)}"
        )
    return L, horizons


def _scores(models, test_ds: Dataset, L: int, horizons, mae: bool = True) -> np.ndarray:
    """evaluate_zero_shot's MSEs, and with ``mae`` its MAEs, of every model.

    Returns a (2, models, horizons) array, MSEs then MAEs; without
    ``mae``, (1, models, horizons) of MSEs, and no error is made absolute.
    Every model is scored over the same bands: each window is forecast
    once, at the largest requested horizon that fits it, and shorter
    horizons are read from the prefix of that forecast.  Models that are
    exactly LinearForecaster with lookback L and a horizon of at least
    max(horizons) are scored together: in each band their first hb
    weight rows are stacked into one forecaster, so each block of
    windows gets one design matrix and one matmul, and _block_sums
    scores every model against the same targets.  A lone ridge model is
    a stack of one.  A model that is exactly SeasonalNaiveForecaster is
    scored by _lag_sums, with no forecast call; its sums differ from the
    block kernel's in summation order only.  Every other model, naive
    included, is scored alone.  A seasonal period longer than L raises
    PeriodTooLong before any scoring; L and horizons are _checked_window's.
    """
    count = {h: test_ds.n - L - h + 1 for h in horizons}

    # A band (lo, hi, hb) forecasts windows [lo, hi) at horizon hb;
    # reads[h] lists the bands whose first h columns horizon h sums.
    desc = sorted(count, reverse=True)
    bounds = [0] + [count[h] for h in desc]
    bands = [(bounds[i], bounds[i + 1], h) for i, h in enumerate(desc)]
    reads = {h: range(i + 1) for i, h in enumerate(desc)}
    stack = [
        i for i, m in enumerate(models)
        if type(m) is LinearForecaster and m.L == L and m.H >= desc[0]
    ]
    for m in models:
        if type(m) is SeasonalNaiveForecaster and m.period > L:
            raise PeriodTooLong(f"period {_shown(m.period)} exceeds lookback length {L}")
    groups = [stack] if stack else []
    groups += [[i] for i in range(len(models)) if i not in stack]

    windows = np.lib.stride_tricks.sliding_window_view
    kinds = range(2 if mae else 1)
    means = np.zeros((len(kinds), len(models), len(horizons)))
    for members in groups:
        k = len(members)
        sums = []
        for lo, hi, hb in bands:
            model = models[members[0]]
            if members is stack:
                model = LinearForecaster(
                    weights=np.vstack([models[i].weights[:hb] for i in stack]), lam=0.0
                )
            if type(model) is SeasonalNaiveForecaster:
                sums.append(_lag_sums(test_ds.values, L, model.period, lo, hi, hb))
                continue
            segments = [
                (windows(row, L)[lo:hi], windows(row, hb)[L + lo : L + hi])
                for row in test_ds.values
            ]
            sums.append(_block_sums(_forecaster(model, k * hb), segments, hb, k, mae))
        for j, i in enumerate(members):
            for c, h in enumerate(horizons):
                total = count[h] * test_ds.d * h
                for kind in kinds:
                    sub = sum(float(sums[b][kind][j, :h].sum()) for b in reads[h])
                    means[kind, i, c] = sub / total
    return means


def evaluate_zero_shot(
    model,
    test_ds: Dataset,
    L: int = 96,
    horizons: tuple[int, ...] = DEFAULT_HORIZONS,
    seed: int | None = None,
) -> list[EvalReport]:
    """Stride-1 evaluation over the test segment, one report per horizon.

    Reports follow the requested order, duplicates included, and name
    the test dataset by its provenance.  The model must accept
    ``forecast(X, h)`` for every requested h and be prefix-consistent:
    ``forecast(X, H)[:, :h]`` equals ``forecast(X, h)`` for h <= H, up to
    rounding.  Each window is forecast once, at the largest requested
    horizon that fits it, and shorter horizons are scored from the prefix.
    """
    L, horizons = _checked_window(test_ds, L, horizons)
    mse, mae = _scores([model], test_ds, L, horizons)
    return [
        EvalReport(dataset=test_ds.provenance or "dataset", horizon=h, mse=float(mse[0, c]),
                   mae=float(mae[0, c]), model=getattr(model, "model_id", type(model).__name__),
                   seed=seed, windows=(test_ds.n - L - h + 1) * test_ds.d)
        for c, h in enumerate(horizons)
    ]


def minmax_scale_columns(raw: np.ndarray) -> np.ndarray:
    """Per-column (v - min) / (max - min), clipped into [0, 1].

    Cell raw[j, j] is left out of column j's min/max range (for j below
    the row count); a column whose remaining cells are constant, or
    that has none, scales to 0.
    """
    raw = np.asarray(raw, dtype=np.float64)
    rows, cols = raw.shape
    scaled = np.zeros_like(raw)
    for j in range(cols):
        col = raw[:, j]
        pool = np.delete(col, j) if j < rows else col
        if pool.size:
            lo, hi = float(pool.min()), float(pool.max())
            if hi > lo:
                scaled[:, j] = np.clip((col - lo) / (hi - lo), 0.0, 1.0)
    return scaled


def ridge_trainer(L: int, H: int, count: int = 1024):
    """Trainer factory for transfer_matrix: sample windows, fit exact
    least squares (lambda = 0)."""

    def train(ds: Dataset, seed: int):
        windows, _ = sample_windows([ds], count, 0, L, H, seed)
        return fit_ridge(windows, 0.0)

    return train


def transfer_matrix(
    datasets: list[Dataset],
    trainer,
    L: int,
    H: int,
    ids: list[str],
    seed: int = 0,
) -> TransferMatrix:
    """Train on each dataset, test on every dataset, min-max per column.

    ``trainer`` is a callable (dataset, seed) -> model; each row gets a
    deterministic child seed.  Every row is trained first, then each
    column is scored in one pass (see _scores).  Diagonal
    (in-domain) cells are reported but excluded from each column's
    min-max range.  Raises WindowTooLong naming the first dataset that
    cannot hold one window of L + H, before any training; a typed error
    raised while training on a dataset starts with its id.
    """
    if len(datasets) < 2:
        raise ValueError("transfer matrix needs at least 2 datasets")
    if len(ids) != len(datasets):
        raise ShapeMismatch(f"{len(ids)} ids for {len(datasets)} datasets")
    L = _whole_number("lookback L", L)
    H = _whole_number("horizon", H)
    for ds_id, ds in zip(ids, datasets):
        if ds.n < L + H:
            raise WindowTooLong(
                f"dataset {ds_id!r} of length {ds.n} cannot hold one "
                f"window of L + H = {L + H}"
            )
    master = np.random.default_rng(seed)
    models = []
    for ds_id, ds in zip(ids, datasets):
        try:
            models.append(trainer(ds, _child_seed(master)))
        except FreqSynthError as exc:
            exc.args = (f"{ds_id}: {exc}",)
            raise
    raw = np.column_stack(
        [_scores(models, ds, L, (H,), mae=False)[0, :, 0] for ds in datasets]
    )
    return TransferMatrix(ids=tuple(ids), raw=raw)


def _pure_dataset(omega: float, seed: int, n: int) -> Dataset:
    """Standardized _PURE_D-channel dataset of single sinusoids.

    Uses a single-harmonic pool of 16 sines, 3 summed per channel: sums
    of equal-frequency sines collapse to one sinusoid per channel, with
    phase and amplitude set by the pool draws.
    """
    cfg = GeneratorConfig(omega_bar=omega, m=16, h=1, l=3, n=n, d=_PURE_D, seed=seed)
    return standardize(synthesize(cfg))


def _sample_distractors(
    rng: np.random.Generator, count: int, exclude_around: float, bin_width: float
) -> np.ndarray:
    """Log-uniform draws over DISTRACTOR_RANGE, avoiding a harmonic comb.

    Frequencies within one bin (``bin_width``) of k * exclude_around
    for k = 1..5 are rejected and redrawn.
    """
    lo, hi = DISTRACTOR_RANGE
    comb = exclude_around * np.arange(1, 6)
    comb = comb[comb < 0.5]
    out = np.empty(count, dtype=np.float64)
    filled = 0
    while filled < count:
        cand = np.exp(rng.uniform(np.log(lo), np.log(hi), size=count - filled))
        ok = np.all(np.abs(cand[:, None] - comb[None, :]) > bin_width, axis=1)
        take = cand[ok]
        out[filled : filled + take.size] = take
        filled += take.size
    return out


def confusion_experiment(
    distractor_counts: tuple[int, ...] = (0, 1, 2, 4, 8, 16),
    seed: int = 0,
    n: int = 4096,
) -> list[tuple[int, float]]:
    """Test MSE at the base frequency 1/24 as distractor sines pile up.

    For each count c the training pool holds windows from the base
    sinusoid dataset plus c distractor-frequency sinusoid datasets
    (distractor windows augment, never replace, the base windows).
    Evaluation uses held-out base-frequency windows.  Distractor
    frequencies avoid the base harmonic comb by one bin of the training
    window, 1 / (L + H), with L = 8 and H = 96.

    The lookback is deliberately short: each frequency needs about
    three directions of the affine map's L + 1, so crowding only sets
    in once roughly (L + 1) / 3 frequencies compete.  At L = 96 the map
    can fit the whole default grid exactly and the curve stays flat at
    zero.
    """
    L, H, base_omega = 8, 96, 1 / 24
    counts = tuple(
        _whole_number("distractor count", c, 0, ValueError) for c in distractor_counts
    )
    master = np.random.default_rng(seed)
    base_ds = _pure_dataset(base_omega, _child_seed(master), n)
    eval_ds = _pure_dataset(base_omega, _child_seed(master), n)
    freqs = _sample_distractors(
        master, max(counts, default=0), base_omega, 1.0 / (L + H)
    )
    distractor_ds = [_pure_dataset(f, _child_seed(master), n) for f in freqs]

    base_ws, _ = sample_windows([base_ds], _WINDOWS_PER_SINE, 0, L, H, _child_seed(master))
    eval_ws, _ = sample_windows([eval_ds], _EVAL_WINDOWS, 0, L, H, _child_seed(master))
    distractor_ws = [
        sample_windows([ds], _WINDOWS_PER_SINE, 0, L, H, _child_seed(master))[0]
        for ds in distractor_ds
    ]

    curve = []
    for c in counts:
        train = WindowSet._concat([base_ws] + distractor_ws[:c])
        model = fit_ridge(train, 0.0)
        mse, _ = windowset_metrics(model, eval_ws)
        curve.append((c, mse))
    return curve


def generalization_experiment(
    target_omega: float,
    seed: int = 0,
    n: int = 4096,
) -> tuple[float, float]:
    """MSE on target-frequency windows with and without the target seen.

    Trains twice on equal-size frequency sets, L = H = 96: three fillers
    plus the target, and the same fillers plus a disjoint replacement
    frequency.  Both models are scored on held-out target windows.
    """
    L, H = 96, 96
    master = np.random.default_rng(seed)
    bin_width = 1.0 / (L + H)
    fillers = _sample_distractors(master, 4, target_omega, bin_width)
    replacement, fillers = float(fillers[-1]), fillers[:-1]

    target_ds = _pure_dataset(target_omega, _child_seed(master), n)
    eval_ds = _pure_dataset(target_omega, _child_seed(master), n)
    filler_ds = [_pure_dataset(f, _child_seed(master), n) for f in fillers]
    replacement_ds = _pure_dataset(replacement, _child_seed(master), n)

    filler_ws = [
        sample_windows([ds], _WINDOWS_PER_SINE, 0, L, H, _child_seed(master))[0]
        for ds in filler_ds
    ]
    target_ws, _ = sample_windows(
        [target_ds], _WINDOWS_PER_SINE, 0, L, H, _child_seed(master)
    )
    replacement_ws, _ = sample_windows(
        [replacement_ds], _WINDOWS_PER_SINE, 0, L, H, _child_seed(master)
    )
    eval_ws, _ = sample_windows([eval_ds], _EVAL_WINDOWS, 0, L, H, _child_seed(master))

    model_with = fit_ridge(WindowSet._concat(filler_ws + [target_ws]), 0.0)
    model_without = fit_ridge(WindowSet._concat(filler_ws + [replacement_ws]), 0.0)
    mse_with, _ = windowset_metrics(model_with, eval_ws)
    mse_without, _ = windowset_metrics(model_without, eval_ws)
    return mse_with, mse_without


def harmonics_sweep(
    targets: list[tuple[str, Dataset]],
    h_values: tuple[int, ...] = (1, 2, 3, 4),
    seed: int = 0,
    L: int = 96,
    H: int = 96,
    count_train: int = 2000,
    n: int = 16384,
    d: int = 5,
) -> list[tuple[int, str, float]]:
    """Zero-shot MSE per (harmonic count, target dataset) pair.

    For each target the fundamental is estimated from its periodogram;
    a fresh synthetic train set with the given h is fit and scored on
    the target.  Ridge uses the relative default lambda.  Returns
    |h_values| * |targets| rows (h, id, mse).  A target that cannot hold
    one window of L + H raises SplitTooSmall before anything is fit.
    """
    for _, ds in targets:
        L, (H,) = _checked_window(ds, L, (H,))
    master = np.random.default_rng(seed)
    est = [estimate_fundamental(ds).omega_bar for _, ds in targets]
    models = []  # h-major: models[a * len(targets) + b] is (h_values[a], target b)
    for h in h_values:
        for omega in est:
            windows = _windows([(omega, h)], master, count_train, 0, L, H, n=n, d=d)[0]
            models.append(fit_ridge(windows))
    t = len(targets)
    mses = [
        _scores(models[b::t], ds, L, (H,), mae=False)[0, :, 0]
        for b, (_, ds) in enumerate(targets)
    ]
    return [
        (int(h), tid, float(mses[b][a]))
        for a, h in enumerate(h_values)
        for b, (tid, _) in enumerate(targets)
    ]


def synthetic_registry(
    seed: int = 0, n: int = 8192, d: int = 4
) -> list[tuple[str, Dataset]]:
    """Small pool of labelled synthetic datasets for transfer studies.

    Two independent standardized datasets per fundamental 1/7, 1/24 and
    1/96, built by build_datasets with one harmonic each and named like
    ``w24-a`` for omega = 1/24.

    One harmonic keeps same-fundamental copies affinely similar in the
    spectrum (periodogram correlation near 1), so similarity-based
    grouping of transfer cells is well populated; with h >= 2 the
    independent per-harmonic amplitude draws would make copies of the
    same fundamental genuinely dissimilar.
    """
    periods = (7, 24, 96)
    names = [f"w{k}-{c}" for k in periods for c in "ab"]
    laws = [(1 / k, 1) for k in periods for _ in "ab"]
    return list(zip(names, build_datasets(laws, seed, n=n, d=d)))


def size_variates_sweep(
    sizes: tuple[int, ...],
    d_values: tuple[int, ...],
    target: Dataset,
    seed: int = 0,
) -> np.ndarray:
    """Zero-shot MSE grid over (training window count, variate count).

    Each model trains on L = H = 96 windows sampled from the h = 1, 2, 3
    datasets of the target's estimated fundamental, each n = 16,384 steps
    of d variates.  Ridge uses the relative default lambda.  A target
    that cannot hold one window of L + H raises SplitTooSmall before
    anything is fit.
    """
    L, H, n = 96, 96, 16384
    _checked_window(target, L, (H,))
    master = np.random.default_rng(seed)
    omega = estimate_fundamental(target).omega_bar
    models = []
    laws = [(omega, h) for h in (1, 2, 3)]
    for size in sizes:
        for d in d_values:
            windows = _windows(laws, master, size, 0, L, H, n=n, d=d)[0]
            models.append(fit_ridge(windows))
    mses = _scores(models, target, L, (H,), mae=False)[0, :, 0]
    return mses.reshape(len(sizes), len(d_values))
