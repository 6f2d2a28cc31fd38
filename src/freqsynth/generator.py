"""Harmonic sine-pool synthesis of multichannel series.

Construction happens in two stages:

1. build a pool of m sinusoids; each draws an amplitude from a shifted
   exponential law, Exp(scale = A' - 0.01) + 0.01, a frequency uniformly
   from the harmonic set {k * omega_bar : 1 <= k <= h, k * omega_bar < 0.5},
   and a phase uniformly from [0, 2*pi);
2. form each of the d channels as the pointwise sum of l pool members
   drawn uniformly WITH replacement, evaluated at t = 0 .. n-1.

A harmonic pool has at most h distinct frequencies however large m is,
so its channels are rendered from sin and cos rows of those frequencies
(2h rows of n values instead of m), which matches rendering every member
to within 1e-10 of the channel std for n up to 50,000; pools with few
repeated frequencies, such as the mix variant's, render every drawn
member (at most d * l of the m).  Those rows are computed in one buffer,
in place: the phase argument, then its sine, then the amplitude scaling,
each an elementwise pass over that buffer, so the render holds one array
of the drawn members besides the channels.

Variants differ only in the pool's frequency law, which
``build_datasets`` takes per dataset: a harmonic ``(omega_bar, h)`` pair
(the single-fundamental variant uses h = 1, 2, 3 of one omega_bar, the
natural variant the same over a fixed set of everyday fundamentals), or
``"mix"``, frequencies uniform with no harmonic structure at all.  The
pool hyperparameters m, A' and l are GeneratorConfig's fields;
``build_datasets`` and the freq_synth variants use their defaults.  All
outputs are pure functions of (config, seed).  ``standardize_by_train``
is the one standardization routine.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, WindowSet, _freeze, _frequency, _whole_number
from .errors import (
    DegenerateChannel,
    InsufficientData,
    InvalidAmplitudeScale,
    InvalidSeries,
    TooManyPoints,
    WindowTooLong,
)

# Everyday fundamentals: monthly, weekly, daily-at-1h, hourly-at-1m.
NATURAL_FREQUENCIES = (1 / 30, 1 / 7, 1 / 24, 1 / 60)

# Frequency support for the mix variant; the lower bound keeps cycles
# short enough for a 96-step lookback to see at least a fraction of one.
MIX_FREQ_RANGE = (1 / 500, 0.5)

_SEED_CEILING = 2**63 - 1

# Tolerance of standardization's contract: per-channel mean within
# STANDARDIZED_ATOL of 0 and population std within STANDARDIZED_ATOL of 1.
STANDARDIZED_ATOL = 1e-6

# A computed channel mean is off by up to about 2 * eps * |mean| (worst
# measured 1.7 over n = 100 .. 10^6), and centring by it leaves that error
# divided by the std as a mean offset in standardized units.  A channel
# whose std is at most this multiple of |mean| (about 9e-10) may not meet
# STANDARDIZED_ATOL, so standardization treats it as constant.
DEGENERATE_RTOL = 4 * np.finfo(np.float64).eps / STANDARDIZED_ATOL


# Smallest accepted value of each integer size of a synthesized dataset.
_SIZE_MINIMUM = {"m": 1, "h": 1, "l": 1, "n": 2, "d": 1}

# Largest accepted size of any array synthesis holds: 8 GB of float64.
_MAX_POINTS = 10**9


def _check_render(m: int, K: int | None, l: int, n: int, d: int) -> None:
    """TooManyPoints, naming the product, when rendering d channels of n
    steps, each the sum of l draws from an m-member pool of K distinct
    frequencies, would hold an array over _MAX_POINTS.  K is None for a
    mix pool, whose m frequencies are distinct: it renders only the
    members some channel draws, at most min(m, d * l) rows, and builds no
    one-hot."""
    if K is None:
        arrays = (("min(m, d * l) * n", min(m, d * l), n),)
    else:
        arrays = (("m * K", m, K), ("min(m, 2K) * n", min(m, 2 * K), n))
    for names, rows, cols in (("n * d", n, d), ("d * l", d, l), ("d * m", d, m), *arrays):
        if rows * cols > _MAX_POINTS:
            raise TooManyPoints(
                f"{names} = {rows} * {cols} = {rows * cols} points exceeds the "
                f"limit of {_MAX_POINTS} points"
            )


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for one synthesized dataset.

    omega_bar: fundamental frequency in cycles/step, in (0, 0.5)
    m: pool size; h: harmonics kept (k*omega_bar below Nyquist)
    A_prime: expected sine amplitude; l: sines summed per channel
    n: series length; d: channel count; seed: RNG seed

    No array synthesize holds may exceed _MAX_POINTS (10**9 points, 8 GB
    of float64): the (d, n) dataset, d * l draws, (d, m) counts, the (m,
    K) one-hot for K = len(harmonic_set(omega_bar, h)) and min(m, 2K)
    rendered rows of n.  Else TooManyPoints names the product, before
    anything is allocated.
    """

    omega_bar: float
    m: int = 100
    h: int = 3
    A_prime: float = 5.0
    l: int = 10
    n: int = 50_000
    d: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("omega_bar", "A_prime"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:
                raise ValueError(f"{name} is out of range, got {value!r}") from None
        _frequency("omega_bar", self.omega_bar)
        if not 0.01 < self.A_prime < np.inf:
            raise InvalidAmplitudeScale(
                f"A_prime must be finite and exceed 0.01, got {self.A_prime}"
            )
        for name, lo in (*_SIZE_MINIMUM.items(), ("seed", 0)):
            value = _whole_number(name, getattr(self, name), lo, ValueError)
            object.__setattr__(self, name, value)
        K = _harmonic_count(self.omega_bar, self.h)
        _check_render(self.m, K, self.l, self.n, self.d)

    def digest(self) -> str:
        """Short stable hash of all fields, used as provenance."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def harmonic_set(omega_bar: float, h: int) -> list[float]:
    """Ascending multiples k*omega_bar for k = 1..h that stay below 0.5."""
    _frequency("omega_bar", omega_bar)
    h = _whole_number("h", h, 1, ValueError)
    return [omega_bar * k for k in range(1, _harmonic_count(omega_bar, h) + 1)]


def _harmonic_count(omega_bar: float, h: int) -> int:
    """len(harmonic_set(omega_bar, h)), by bisection: the rounded products
    k*omega_bar rise with k, k = 1 passes and no k > 1/omega_bar does."""
    lo, hi = 1, int(min(h, 1 / omega_bar))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if omega_bar * mid < 0.5 else (lo, mid - 1)
    return lo


def _draw_pool(law, m: int, A_prime: float, rng: np.random.Generator):
    """Amplitude, frequency and phase vectors of an m-member pool.

    ``law`` is a harmonic ``(omega_bar, h)`` pair, drawing frequencies
    uniformly from harmonic_set(omega_bar, h), or ``"mix"``, drawing them
    uniformly over MIX_FREQ_RANGE.  The vectors come off ``rng`` in the
    order amplitudes, frequencies, phases.  A_prime is GeneratorConfig's,
    already checked to exceed 0.01.
    """
    amps = rng.exponential(scale=A_prime - 0.01, size=m) + 0.01
    if law == "mix":
        lo, hi = MIX_FREQ_RANGE
        freqs = np.maximum(rng.uniform(lo, hi, size=m), np.nextafter(lo, hi))
    else:
        freqs = rng.choice(np.array(harmonic_set(*law)), size=m, replace=True)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=m)
    return amps, freqs, phases


def build_pool(cfg: GeneratorConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (amplitudes, frequencies, phases) of synthesize(cfg)'s pool, m each."""
    return _draw_pool((cfg.omega_bar, cfg.h), cfg.m, cfg.A_prime, np.random.default_rng(cfg.seed))


def _checked_pool(pool) -> list[np.ndarray]:
    """An explicit pool's arrays, frozen; InvalidSeries names the first that is not
    1-d and finite, empty or not as long as the amplitudes, or out of its range."""
    names = ("amplitudes", "frequencies", "phases")
    if len(pool) != 3:
        raise InvalidSeries(f"a pool is the 3 arrays {names}, got {len(pool)} arrays")
    amps, freqs, phases = arrays = [_freeze(a, k, 1) for a, k in zip(pool, names)]
    in_range = (amps > 0, (freqs > 0) & (freqs < 0.5), (phases >= 0) & (phases < 2 * np.pi))
    for name, a, ok, rule in zip(names, arrays, in_range, ("> 0", "in (0, 0.5)", "in [0, 2*pi)")):
        if not 0 < a.size == amps.size:
            raise InvalidSeries(f"{name} has {a.size} values; the pool needs {amps.size or 'some'}")
        if not ok.all():
            raise InvalidSeries(f"{name} must be {rule}, got {a[~ok][0]}")
    return arrays


def _render_channels(
    amps: np.ndarray,
    freqs: np.ndarray,
    phases: np.ndarray,
    n: int,
    d: int,
    l: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sum l uniform-with-replacement pool draws into each of d channels.

    Draws become a (d, m) count matrix, so the channel sums reduce to one
    matrix product over rendered rows.  When the pool has fewer than m/2
    distinct frequencies (harmonic and natural pools have at most three),
    the rows are a sin/cos basis of those frequencies instead of the m
    members: A*sin(a + phi) = A*cos(phi)*sin(a) + A*sin(phi)*cos(a), so
    channel c weights the pair of frequency f by the sum of
    count * A * (cos(phi), sin(phi)) over the members at f.  That agrees
    with rendering every member up to rounding of the largest argument
    2*pi*f*n (within 1e-10 of the channel std for n up to 50,000); other
    pools render every drawn member, in one buffer updated in place (an
    undrawn member's zero count would add exact zeros: no bit changes).
    """
    m = amps.size
    idx = rng.integers(0, m, size=(d, l))
    counts = np.zeros((d, m), dtype=np.float64)
    np.add.at(counts, (np.repeat(np.arange(d), l), idx.ravel()), 1.0)
    t = np.arange(n, dtype=np.float64)
    uniq, member_of = np.unique(freqs, return_inverse=True)
    if 2 * uniq.size >= m:
        used = np.flatnonzero(counts.any(axis=0))
        rows = (2.0 * np.pi * freqs[used])[:, None] * t
        rows += phases[used, None]
        np.sin(rows, out=rows)
        rows *= amps[used, None]
        return counts[:, used] @ rows
    onehot = np.eye(uniq.size)[member_of]
    weights = counts * amps
    coef = np.concatenate(
        [(weights * np.cos(phases)) @ onehot, (weights * np.sin(phases)) @ onehot],
        axis=1,
    )
    arg = 2.0 * np.pi * uniq[:, None] * t[None, :]
    return coef @ np.concatenate([np.sin(arg), np.cos(arg)])


def _named(values: np.ndarray, provenance: str) -> Dataset:
    names = tuple(f"ch{i + 1}" for i in range(values.shape[0]))
    return Dataset(values=values, channel_names=names, provenance=provenance)


def synthesize(cfg: GeneratorConfig, pool=None) -> Dataset:
    """Build a (d, n) dataset from a harmonic pool.

    An explicit ``pool``, three arrays as build_pool returns, is used as-is
    (its length replaces cfg.m) and cfg.seed only drives the channel
    draws; otherwise the pool is drawn first from the same seeded stream.
    """
    rng = np.random.default_rng(cfg.seed)
    arrays = (_draw_pool((cfg.omega_bar, cfg.h), cfg.m, cfg.A_prime, rng) if pool is None
              else _checked_pool(pool))
    values = _render_channels(*arrays, cfg.n, cfg.d, cfg.l, rng)
    return _named(values, f"freq-synth:{cfg.digest()}")


def standardize_by_train(train: Dataset, *others: Dataset):
    """Standardize splits with the TRAIN split's per-channel statistics.

    Each split becomes (x - mean) / std with the train split's mean and
    population std, so the train split's channels have mean 0 and std 1
    to within STANDARDIZED_ATOL; the other splits' own moments are not
    exactly 0/1.  Raises DegenerateChannel when a train channel is
    constant, or constant to float resolution: its std is at most
    DEGENERATE_RTOL times its mean's magnitude.
    """
    mean = train.values.mean(axis=1, keepdims=True)
    std = train.values.std(axis=1, keepdims=True)
    flat = np.flatnonzero(std <= DEGENERATE_RTOL * np.abs(mean)).tolist()
    if flat:
        raise DegenerateChannel(
            f"channel(s) {flat} are constant to float resolution"
        )
    return tuple(
        Dataset(
            values=(ds.values - mean) / std,
            channel_names=ds.channel_names,
            provenance=ds.provenance,
        )
        for ds in (train, *others)
    )


def standardize(ds: Dataset) -> Dataset:
    """Per-channel (x - mean) / std with population std: the train split
    of standardize_by_train(ds)."""
    return standardize_by_train(ds)[0]


def sample_windows(
    datasets: list[Dataset],
    count_train: int,
    count_val: int,
    L: int,
    H: int,
    seed: int,
) -> tuple[WindowSet, WindowSet]:
    """Uniformly sample disjoint (dataset, channel, start) windows.

    Start positions run over every valid offset of every channel of
    every dataset; count_train + count_val distinct triples are drawn
    without replacement, the first count_train forming the train set.
    Both sets gather from one shared copy of the datasets' channels laid
    end to end, so they do not keep the datasets alive; no window is copied.
    A window's start in that copy identifies its triple one to one.
    """
    L = _whole_number("lookback L", L)
    H = _whole_number("horizon H", H)
    count_train = _whole_number("count_train", count_train, 1, ValueError)
    count_val = _whole_number("count_val", count_val, 0, ValueError)
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

    series = np.concatenate([ds.values.ravel() for ds in datasets])
    base = np.concatenate([[0], np.cumsum([ds.values.size for ds in datasets])])
    lengths = np.array([ds.n for ds in datasets])
    flat_starts = base[ds_idx] + chan * lengths[ds_idx] + start
    return tuple(
        WindowSet._over(series, flat_starts[rows], L, H)
        for rows in (slice(0, count_train), slice(count_train, need))
    )


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, _SEED_CEILING))


def build_datasets(
    laws,
    seed: int,
    *,
    n: int = 50_000,
    d: int = 5,
) -> list[Dataset]:
    """One standardized (d, n) dataset per frequency law, in order.

    A law is a harmonic ``(omega_bar, h)`` pair, which gives
    synthesize's dataset for that config, or ``"mix"``, a pool with
    frequencies uniform over MIX_FREQ_RANGE.  Pools take GeneratorConfig's
    default m, A' and l.  Dataset i is built from the i-th child seed of
    ``seed``.  Before anything is rendered, every law is checked as
    GeneratorConfig checks it, point budget included; a mix pool's render
    holds at most min(m, d * l) rows of n, the members its channels draw.
    """
    n, d = (
        _whole_number(name, v, _SIZE_MINIMUM[name], ValueError)
        for name, v in zip("nd", (n, d))
    )
    m, l = GeneratorConfig.m, GeneratorConfig.l
    master = np.random.default_rng(seed)
    jobs = []  # a mix law's child seed, or a harmonic law's config
    for law in laws:
        child = _child_seed(master)
        if law == "mix":
            _check_render(m, None, l, n, d)
            jobs.append(child)
        elif isinstance(law, (tuple, list)) and len(law) == 2:
            jobs.append(GeneratorConfig(omega_bar=law[0], h=law[1], n=n, d=d, seed=child))
        else:
            raise ValueError(
                f"unknown frequency law {law!r}: expected 'mix' or an "
                "(omega_bar, h) pair"
            )
    out = []
    for i, job in enumerate(jobs):
        if isinstance(job, GeneratorConfig):
            ds = synthesize(job)
        else:
            rng = np.random.default_rng(job)
            pool = _draw_pool("mix", m, GeneratorConfig.A_prime, rng)
            values = _render_channels(*pool, n, d, l, rng)
            ds = _named(values, f"freq-synth-mix:seed={seed}:copy={i}")
        out.append(standardize(ds))
    return out


def _windows(laws, seed, count_train, count_val, L, H, **sizes):
    """Windows of build_datasets(laws): a data seed, then a sample seed."""
    master = np.random.default_rng(seed)
    data_seed = _child_seed(master)
    sample_seed = _child_seed(master)
    datasets = build_datasets(laws, data_seed, **sizes)
    return sample_windows(datasets, count_train, count_val, L, H, sample_seed)


def freq_synth(
    omega_bar: float,
    seed: int,
    count_train: int = 5000,
    count_val: int = 5000,
    L: int = 96,
    H: int = 720,
    *,
    n: int = 50_000,
    d: int = 5,
) -> tuple[WindowSet, WindowSet]:
    """Training and validation windows around one fundamental.

    Builds standardized datasets for h = 1, 2, 3, then samples windows
    of length L + H uniformly across all of them; train and validation
    draws never share a (dataset, channel, start) triple.
    """
    laws = [(omega_bar, h) for h in (1, 2, 3)]
    return _windows(laws, seed, count_train, count_val, L, H, n=n, d=d)


def freq_synth_natural(
    seed: int,
    count_train: int = 5000,
    count_val: int = 5000,
    L: int = 96,
    H: int = 720,
    *,
    n: int = 50_000,
    d: int = 5,
) -> tuple[WindowSet, WindowSet]:
    """As freq_synth, over pools anchored on NATURAL_FREQUENCIES.

    Each of the four everyday fundamentals is expanded with h = 1, 2, 3
    harmonics; window sampling spans all twelve resulting datasets.
    """
    laws = [(omega, h) for omega in NATURAL_FREQUENCIES for h in (1, 2, 3)]
    return _windows(laws, seed, count_train, count_val, L, H, n=n, d=d)


def freq_synth_mix(
    seed: int,
    count_train: int = 5000,
    count_val: int = 5000,
    L: int = 96,
    H: int = 720,
    *,
    n: int = 50_000,
    d: int = 5,
) -> tuple[WindowSet, WindowSet]:
    """As freq_synth, over frequency-unstructured pools.

    Three independent mix datasets stand in for the h = 1, 2, 3 triple
    so sample budgets match the harmonic variant.
    """
    return _windows(["mix"] * 3, seed, count_train, count_val, L, H, n=n, d=d)
