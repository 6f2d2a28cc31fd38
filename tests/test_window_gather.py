"""Window sets gathered on demand, against the eager sampler they replace.

A window set keeps one flat series and a vector of window start offsets
instead of a window tensor; tests/oracles.py keeps the sampler that cut
every window up front.  Fits and scores read a set one block at a time and
never its whole lookbacks or horizons, so their memory stays well under
the window tensor's.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from freqsynth import (
    Dataset,
    WindowSet,
    build_datasets,
    confusion_experiment,
    finetune,
    fit_ridge,
    freq_synth_natural,
    generalization_experiment,
    sample_windows,
    windowset_metrics,
)
from freqsynth import forecast

import oracles


def noisy(n, d, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    vals = np.sin(2 * np.pi * t / 24)[None, :] + 0.3 * rng.normal(size=(d, n))
    return Dataset(values=vals, channel_names=tuple(f"c{i}" for i in range(d)))


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def relative_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestAgainstEagerSampler:
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_multi_dataset_multi_channel(self, seed):
        datasets = [noisy(300 + 41 * i, d=1 + i, seed=seed + i) for i in range(3)]
        got = sample_windows(datasets, 150, 40, 24, 16, seed)
        want = oracles.sample_windows_eager(datasets, 150, 40, 24, 16, seed)
        for g, w in zip(got, want):
            assert (g.count, g.L, g.H) == (w.count, w.L, w.H)
            assert_bitwise(g.block(0, g.count), np.hstack([w.lookbacks, w.horizons]))
            assert_bitwise(g.lookbacks, w.lookbacks)
            assert_bitwise(g.horizons, w.horizons)
        assert not np.intersect1d(got[0]._starts, got[1]._starts).size

    def test_one_dataset(self):
        ds = noisy(500, d=2, seed=3)
        got, _ = sample_windows([ds], 200, 0, 32, 8, 5)
        want, _ = oracles.sample_windows_eager([ds], 200, 0, 32, 8, 5)
        assert_bitwise(got.block(0, got.count), np.hstack([want.lookbacks, want.horizons]))

    def test_blocks_tile_the_set(self):
        datasets = [noisy(200, d=2, seed=i) for i in range(2)]
        ws, _ = sample_windows(datasets, 90, 0, 16, 8, 4)
        whole = ws.block(0, ws.count)
        cuts = [0, 1, 1, 30, 64, 90]
        parts = [ws.block(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        assert_bitwise(np.concatenate(parts), whole)

    def test_train_and_validation_share_one_series(self):
        datasets = [noisy(200, d=2, seed=i) for i in range(2)]
        train, val = sample_windows(datasets, 30, 10, 16, 8, 4)
        want = oracles.sample_windows_eager(datasets, 30, 10, 16, 8, 4)
        assert train._series is val._series
        assert train._series.ndim == 1 and not train._series.flags.writeable
        for g, w in zip((train, val), want):
            assert_bitwise(g.block(0, g.count), np.hstack([w.lookbacks, w.horizons]))

    def test_sets_do_not_keep_the_datasets_alive(self):
        datasets = [noisy(200, d=2, seed=i) for i in range(2)]
        refs = [weakref.ref(ds.values) for ds in datasets]
        train, val = sample_windows(datasets, 30, 10, 16, 8, 4)
        del datasets
        assert all(ref() is None for ref in refs)
        assert train.block(0, train.count).shape == (30, 24)

    @pytest.mark.parametrize("lo, hi", [(-1, 2), (3, 2), (0, 11)])
    def test_block_range_checked(self, lo, hi):
        ws = WindowSet(lookbacks=np.ones((10, 4)), horizons=np.ones((10, 2)))
        with pytest.raises(IndexError):
            ws.block(lo, hi)

    def test_constructed_set_is_read_only(self):
        lb, hz = np.arange(12.0).reshape(3, 4), -np.arange(6.0).reshape(3, 2)
        ws = WindowSet(lookbacks=lb, horizons=hz)
        lb[0, 0] = 99.0  # the set keeps its own copy
        assert_bitwise(ws.block(0, 3), np.hstack([np.arange(12.0).reshape(3, 4), hz]))
        with pytest.raises(AttributeError):
            ws.L = 5
        with pytest.raises(ValueError):
            ws.horizons[0, 0] = 1.0

    @pytest.mark.parametrize("shapes", [[(300, 2)] * 3, [(300, 1), (451, 3), (97, 2)]])
    def test_concatenation_keeps_window_order(self, shapes):
        sets = [sample_windows([noisy(n, d, seed=i)], 40 + i, 0, 16, 8, i)[0]
                for i, (n, d) in enumerate(shapes)]
        joined = WindowSet._concat(sets)
        assert joined.count == sum(ws.count for ws in sets)
        assert_bitwise(joined.block(0, joined.count),
                       np.concatenate([ws.block(0, ws.count) for ws in sets]))


class TestWholeSetArrays:
    """lookbacks and horizons: the whole set, gathered on each access."""

    @pytest.fixture
    def ws(self):
        return sample_windows([noisy(300, d=2, seed=0), noisy(250, d=1, seed=1)],
                              60, 0, 24, 12, 3)[0]

    def test_read_only_on_every_access(self, ws):
        for _ in range(2):
            for arr in (ws.lookbacks, ws.horizons):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0] = 1.0

    def test_equal_to_the_block_columns(self, ws):
        whole = ws.block(0, ws.count)
        assert_bitwise(ws.lookbacks, whole[:, : ws.L])
        assert_bitwise(ws.horizons, whole[:, ws.L :])

    @pytest.mark.parametrize("L, H", [(1, 1), (4, 3)])
    def test_empty_set(self, L, H):
        ws = WindowSet(lookbacks=np.empty((0, L)), horizons=np.empty((0, H)))
        assert ws.count == 0
        assert ws.block(0, 0).shape == (0, L + H)
        assert ws.lookbacks.shape == (0, L) and ws.horizons.shape == (0, H)
        assert not ws.lookbacks.flags.writeable and not ws.horizons.flags.writeable
        with pytest.raises(IndexError):
            ws.block(0, 1)

    def test_empty_validation_set(self):
        ds = noisy(100, d=1, seed=0)
        _, val = sample_windows([ds], 10, 0, 8, 4, 0)
        assert val.count == 0
        assert val.block(0, 0).shape == (0, 12)
        assert val.lookbacks.shape == (0, 8) and not val.lookbacks.flags.writeable


class TestStreamedFits:
    """A fit streamed over blocks against the same fit in one block."""

    @pytest.fixture
    def windows(self):
        datasets = [noisy(400, d=3, seed=i) for i in range(2)]
        return sample_windows(datasets, 500, 60, 24, 12, 8)

    def test_block_designs_equal_the_whole_design(self, windows, monkeypatch):
        train, _ = windows
        monkeypatch.setattr(forecast, "_FIT_BLOCK", 37)
        phi, mu, sd = forecast._design_blocks(train)
        want_phi, want_mu, want_sd = forecast._design(train.lookbacks)
        for got, want in ((phi, want_phi), (mu, want_mu), (sd, want_sd)):
            assert_bitwise(got, want)

    @pytest.mark.parametrize("lam", [None, 0.0, 0.5])
    def test_fit_ridge(self, windows, monkeypatch, lam):
        train, _ = windows
        whole = fit_ridge(train, lam)
        monkeypatch.setattr(forecast, "_FIT_BLOCK", 37)
        streamed = fit_ridge(train, lam)
        assert relative_gap(streamed.weights, whole.weights) <= 1e-12
        # against the pre-fold oracle through forecasts: the fold moves
        # the weights along the design's near-null direction (the z of a
        # row sum to zero), which no forecast sees
        want = oracles.fit_ridge(train, lam)
        assert relative_gap(whole.forecast(train.lookbacks, train.H),
                            want.forecast(train.lookbacks, train.H)) <= 1e-12

    def test_finetune(self, windows, monkeypatch):
        # finetune's solve, forecast._ridge, at an anchor other than its own
        train, val = windows
        model = fit_ridge(train)
        whole, _ = forecast._ridge(val, model.lam, 2.0, model.weights)
        assert relative_gap(whole, oracles.finetune(model, val, 2.0).weights) <= 1e-12
        monkeypatch.setattr(forecast, "_FIT_BLOCK", 7)
        streamed, _ = forecast._ridge(val, model.lam, 2.0, model.weights)
        assert relative_gap(streamed, whole) <= 1e-12

    def test_windowset_metrics_bit_for_bit(self, windows):
        train, val = windows
        model = fit_ridge(train)
        got = windowset_metrics(model, val)
        want = oracles.windowset_metrics_unstacked(model, val)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def use_whole_block_passes(monkeypatch):
    """Fits from here on run the passes of tests/oracles.py: whole-block
    horizons (normalization folded, as in the library), and designs with
    np.std."""
    monkeypatch.setattr(forecast, "_design_blocks", oracles.design_blocks_whole)
    monkeypatch.setattr(forecast, "_target_products", oracles.target_products_whole)


def fit_windows(count, L, H, seed=0):
    d, val = 5, 500
    n = L + H + -(-(count + val) // d) + 50
    return sample_windows([noisy(n, d, seed)], count, val, L, H, seed)


class TestColumnSlicedFitsBitForBit:
    """Horizons gathered in column slices and sd from the centred design
    columns, against the passes they replace, hex for hex."""

    @pytest.mark.parametrize(
        "count, H, lam",
        [(5000, 720, None), (20000, 720, 0.0), (300, 96, None), (9000, 97, 0.0),
         (4097, 1000, None)],
    )
    def test_fit_ridge(self, monkeypatch, count, H, lam):
        train, _ = fit_windows(count, 96, H)
        got = fit_ridge(train, lam)
        phi, mu, sd = forecast._design_blocks(train)
        for g, w in zip((phi, mu, sd), oracles.design_blocks_whole(train)):
            assert_bitwise(g, w)
        phi /= sd
        products = forecast._target_products(train, phi, mu)
        use_whole_block_passes(monkeypatch)
        want = fit_ridge(train, lam)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.lam.hex() == want.lam.hex()
        assert_bitwise(products, oracles.target_products_whole(train, phi, mu))

    @pytest.mark.parametrize("anchor", [0.0, 2.0])
    def test_finetune(self, monkeypatch, anchor):
        train, val = fit_windows(5000, 96, 720, seed=3)
        model = fit_ridge(train)
        # finetune's solve, forecast._ridge, at each anchor
        got, _ = forecast._ridge(val, model.lam, anchor, model.weights)
        use_whole_block_passes(monkeypatch)
        want, _ = forecast._ridge(val, model.lam, anchor, model.weights)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("L", [1, 7, 96, 1000])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e8])
    def test_design(self, L, offset):
        X = offset + np.random.default_rng(L).normal(size=(40, L))
        X[0] = offset
        X[1] = 0.0
        X[2] = -3.5
        want = oracles.design_with_std(X)
        for g, w in zip(forecast._design(X), want):
            assert_bitwise(g, w)
        phi = np.full((40, L + 1), np.nan)
        got = forecast._design(X, phi)
        assert got[0] is phi
        for g, w in zip(got, want):
            assert_bitwise(g, w)


def folds(train):
    """(folded, unfolded, max |mu| / sd) right-hand sides of ``train`` for
    both left operands a fit takes: the design and the SVD's U."""
    phi, mu, sd = forecast._design_blocks(train)
    ratio = float(np.max(np.abs(mu) / sd))
    for left in (phi, np.linalg.svd(phi, full_matrices=False)[0]):
        want = oracles.target_products_unfolded(train, left, mu, sd)
        yield forecast._target_products(train, left / sd, mu), want, ratio


class TestFoldAgainstUnfolded:
    """The right-hand side with the normalization folded into the left
    operand, against the pass that normalized every horizon first."""

    def test_standardized_windows(self):
        train, _ = freq_synth_natural(0, 6000, 0, n=8192)
        for got, want, ratio in folds(train):
            assert ratio < 1.0
            assert relative_gap(got, want) <= 1e-14

    @pytest.mark.parametrize("offset", [0.0, 1e2, 1e4])
    def test_offset_windows_within_the_stated_bound(self, offset):
        # 1e-14 * (1 + max |mu| / sd), as _target_products states it
        ds = noisy(3000, d=3, seed=4)
        shifted = Dataset(values=ds.values + offset, channel_names=ds.channel_names)
        train, _ = sample_windows([shifted], 5000, 0, 96, 720, 2)
        for got, want, ratio in folds(train):
            assert ratio > offset / 2
            assert relative_gap(got, want) <= 1e-14 * (1.0 + ratio)


def test_library_paths_read_blocks_only(monkeypatch):
    """Fits, scores and the experiment drivers never read a whole set."""

    def refuse(self):
        raise AssertionError("a library path read a whole window set")

    train, val = sample_windows([noisy(600, d=2, seed=1)], 300, 60, 32, 16, 0)
    monkeypatch.setattr(WindowSet, "lookbacks", property(refuse))
    monkeypatch.setattr(WindowSet, "horizons", property(refuse))
    with pytest.raises(AssertionError):
        train.lookbacks
    for lam in (None, 0.0, 0.5):
        model = fit_ridge(train, lam)
    finetune(model, val)
    forecast._ridge(val, model.lam, 0.0, model.weights)  # finetune's solve unanchored
    windowset_metrics(model, val)
    confusion_experiment(distractor_counts=(0, 2), seed=0, n=1024)
    generalization_experiment(1 / 24, seed=0, n=1024)


@pytest.mark.parametrize("lam", [None, 0.0])
def test_peak_memory_under_half_the_window_tensor(monkeypatch, lam):
    """sample_windows and fit_ridge at H = 720 each peak below half of the
    N * (L + H) float64 tensor the eager sampler cut.  The block is shrunk
    so that a small N still spans many blocks."""
    monkeypatch.setattr(forecast, "_FIT_BLOCK", 128)
    count, L, H = 3000, 96, 720
    half = count * (L + H) * 8 / 2
    ds = noisy(4000, d=4, seed=2)
    tracemalloc.start()
    try:
        train, _ = sample_windows([ds], count, 0, L, H, 1)
        sampled = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        fit_ridge(train, lam)
        fitted = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sampled < half
    assert fitted < half


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MiB = 2**20


@pytest.mark.parametrize("lam, bound", [(None, 20 * MiB), (0.0, 24 * MiB)])
def test_fit_peak_at_the_default_block(lam, bound):
    """fit_ridge on 5,000 windows at L = 96, H = 720 and the default block.

    Gathering each block's horizons whole peaked at 31.8 MiB (lam None)
    and 35.5 MiB (lam 0); column slices peak at 16.3 and 20.1 MiB.  The
    bounds leave about 20% above those, under the 17 MiB a whole-block
    horizon gather would add back."""
    train, _ = sample_windows([noisy(6000, d=2, seed=2)], 5000, 0, 96, 720, 1)
    assert traced_peak(lambda: fit_ridge(train, lam)) < bound


def test_mix_render_peak():
    """build_datasets(["mix"], 0, n=50_000, d=5) makes d * l = 50 draws,
    with replacement, from a 100-member pool, 0.38 MiB per rendered row of
    50,000.  Rendering all
    100 rows as one expression peaked at 76.7 MiB, and in place at 41.1
    MiB; rendering only the drawn members in place peaks at 17.5 MiB, and
    the bound of 21 MiB leaves about 20% above that."""
    assert traced_peak(lambda: build_datasets(["mix"], 0, n=50_000, d=5)) < 21 * MiB
