"""Evaluation-protocol and experiment-driver tests."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from freqsynth import (
    Dataset,
    EvalReport,
    GeneratorConfig,
    LinearForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
    SplitSpec,
    TransferMatrix,
    WindowSet,
    aggregate_periodogram,
    confusion_experiment,
    evaluate_zero_shot,
    fit_ridge,
    freq_synth,
    generalization_experiment,
    harmonics_sweep,
    minmax_scale_columns,
    periodogram_pcc,
    ridge_trainer,
    size_variates_sweep,
    split,
    standardize,
    standardize_by_train,
    synthesize,
    synthetic_registry,
    transfer_matrix,
    windowset_metrics,
)
from freqsynth import evaluation, forecast
from freqsynth.generator import STANDARDIZED_ATOL
from freqsynth.evaluation import DEFAULT_HORIZONS
from freqsynth.errors import (
    DegenerateChannel,
    InsufficientData,
    InvalidWindow,
    PeriodTooLong,
    ShapeMismatch,
    SplitTooSmall,
    WindowTooLong,
)
import oracles
from oracles import ETT_SPLIT, STANDARD_SPLIT, evaluate_zero_shot_per_horizon


def assert_standardized(ds):
    """Every channel has mean 0 and population std 1 to STANDARDIZED_ATOL."""
    assert np.max(np.abs(ds.values.mean(axis=1))) <= STANDARDIZED_ATOL
    assert np.max(np.abs(ds.values.std(axis=1) - 1.0)) <= STANDARDIZED_ATOL


def sine_dataset(omega, n, d=2, seed=0, standardized=True):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    rows = [
        np.sin(2 * np.pi * omega * t + rng.uniform(0, 2 * np.pi))
        for _ in range(d)
    ]
    ds = Dataset(
        values=np.stack(rows), channel_names=tuple(f"c{i}" for i in range(d))
    )
    return standardize(ds) if standardized else ds


class TestSplitSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.5, 0.2)
        with pytest.raises(ValueError):
            SplitSpec(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            SplitSpec(-0.2, 0.6, 0.6)


class TestSplit:
    def _ds(self, n):
        vals = np.random.default_rng(0).normal(size=(2, n))
        return Dataset(values=vals, channel_names=("a", "b"))

    def test_ett_fractions(self):
        train, val, test = split(self._ds(100), ETT_SPLIT)
        assert (train.n, val.n, test.n) == (60, 20, 20)

    def test_standard_fractions_floor(self):
        train, val, test = split(self._ds(10), STANDARD_SPLIT)
        assert (train.n, val.n, test.n) == (7, 2, 1)

    def test_contiguous_chronological(self):
        ds = self._ds(50)
        train, val, test = split(ds, ETT_SPLIT)
        glued = np.concatenate([train.values, val.values, test.values], axis=1)
        assert np.array_equal(glued, ds.values)

    def test_too_small(self):
        with pytest.raises(SplitTooSmall):
            split(self._ds(100), ETT_SPLIT, min_len=30)


class TestStandardizeByTrain:
    def test_near_constant_large_offset_train_channel(self):
        t = np.arange(1000)
        vals = np.vstack([np.sin(0.3 * t), 1e8 + 1e-7 * np.sin(t)])
        train, val, test = split(Dataset(values=vals, channel_names=("a", "b")), ETT_SPLIT)
        with pytest.raises(DegenerateChannel, match=r"channel\(s\) \[1\]"):
            standardize_by_train(train, val, test)

    def test_train_statistics_applied_everywhere(self):
        rng = np.random.default_rng(1)
        ds = Dataset(
            values=rng.uniform(3, 9, size=(2, 200)), channel_names=("a", "b")
        )
        train, val, test = split(ds, ETT_SPLIT)
        tr, va, te = standardize_by_train(train, val, test)
        assert_standardized(tr)
        mu = train.values.mean(axis=1, keepdims=True)
        sd = train.values.std(axis=1, keepdims=True)
        assert np.allclose(va.values, (val.values - mu) / sd, atol=1e-12)
        assert np.allclose(te.values, (test.values - mu) / sd, atol=1e-12)

    def test_metrics_invariant_to_affine_rescale(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(1, 400)).cumsum(axis=1)
        a, b = 3.7, -11.0
        reports = []
        for vals in (base, a * base + b):
            ds = Dataset(values=vals, channel_names=("x",))
            train, val, test = split(ds, ETT_SPLIT)
            _, _, te = standardize_by_train(train, val, test)
            reports.append(
                evaluate_zero_shot(NaiveForecaster(), te, L=16, horizons=(8,))[0]
            )
        assert abs(reports[0].mse - reports[1].mse) < 1e-9
        assert abs(reports[0].mae - reports[1].mae) < 1e-9


class TestMetrics:
    def test_report_validation(self):
        with pytest.raises(ValueError):
            EvalReport(dataset="d", horizon=96, mse=-1.0, mae=0.0, model="m")
        with pytest.raises(ValueError):
            EvalReport(dataset="d", horizon=96, mse=np.nan, mae=0.0, model="m")


class TestEvaluateZeroShot:
    def test_seasonal_naive_exact_periodic(self):
        cell = np.random.default_rng(5).normal(size=24)
        vals = np.tile(cell, 50)[None, :]
        vals = (vals - vals.mean()) / vals.std()
        ds = Dataset(values=vals, channel_names=("x",))
        reports = evaluate_zero_shot(SeasonalNaiveForecaster(24), ds, L=96)
        assert [r.horizon for r in reports] == [96, 192, 336, 720]
        for r in reports:
            assert r.mse <= 1e-12
            assert r.mae <= 1e-6

    def test_naive_on_random_walk(self):
        walk = np.random.default_rng(6).normal(size=(1, 600)).cumsum(axis=1)
        ds = standardize(Dataset(values=walk, channel_names=("x",)))
        reports = evaluate_zero_shot(NaiveForecaster(), ds, L=32, horizons=(8, 16))
        for r in reports:
            assert np.isfinite(r.mse) and r.mse > 0
            assert np.isfinite(r.mae) and r.mae > 0
            assert r.model == "naive"

    def test_matched_frequency_at_least_10x_better(self):
        # pretrain at the test frequency vs at a mismatched one
        train_24, _ = freq_synth(
            1 / 24, seed=0, count_train=800, count_val=1, L=96, H=96, n=4096, d=3
        )
        train_30, _ = freq_synth(
            1 / 30, seed=0, count_train=800, count_val=1, L=96, H=96, n=4096, d=3
        )
        target = sine_dataset(1 / 24, n=2048, d=3, seed=7)
        m24 = fit_ridge(train_24)
        m30 = fit_ridge(train_30)
        mse24 = evaluate_zero_shot(m24, target, horizons=(96,))[0].mse
        mse30 = evaluate_zero_shot(m30, target, horizons=(96,))[0].mse
        assert mse24 * 10 <= mse30

    def test_window_counts_and_determinism(self):
        ds = sine_dataset(1 / 24, n=300, d=2, seed=8)
        a = evaluate_zero_shot(NaiveForecaster(), ds, L=48, horizons=(24,))
        b = evaluate_zero_shot(NaiveForecaster(), ds, L=48, horizons=(24,))
        assert a == b
        assert a[0].windows == (300 - 48 - 24 + 1) * 2

    def test_too_short(self):
        ds = sine_dataset(1 / 24, n=100, d=1, seed=9)
        with pytest.raises(SplitTooSmall):
            evaluate_zero_shot(NaiveForecaster(), ds, L=96, horizons=(96,))


def noisy_dataset(n, d=3, seed=0):
    """Standardized sines plus noise, so every model has a clear error."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    vals = np.sin(2 * np.pi * t / 24)[None, :] + 0.3 * rng.normal(size=(d, n))
    ds = Dataset(values=vals, channel_names=tuple(f"c{i}" for i in range(d)))
    return standardize(ds)


class HorizonScaledNaive:
    """Duck-typed model whose h-step forecast depends on h as a whole.

    It is not prefix-consistent, so it is only scored at one horizon.
    """

    model_id = "scaled-naive"

    def forecast(self, X, h):
        return np.repeat(X[:, -1:], h, axis=1) * (1.0 + 1.0 / h)


class CountingNaive(NaiveForecaster):
    def __init__(self):
        super().__init__()
        self.rows = 0

    def forecast(self, X, H):
        self.rows += len(X)
        return super().forecast(X, H)


class CountingSeasonal(SeasonalNaiveForecaster):
    """Seasonal naive subclass that counts the rows it forecasts."""

    def __init__(self, period):
        super().__init__(period)
        self.rows = 0

    def forecast(self, X, H, out=None):
        self.rows += len(X)
        return super().forecast(X, H, out=out)


class BufferSpy(NaiveForecaster):
    """Naive forecaster that records each buffer it is asked to fill."""

    def __init__(self):
        super().__init__()
        self.buffers = []

    def forecast(self, X, H, out=None):
        self.buffers.append((H, out.__array_interface__["data"][0], len(X)))
        return super().forecast(X, H, out=out)


@pytest.fixture(scope="module")
def ridge_model():
    train, _ = freq_synth(
        1 / 24, seed=3, count_train=600, count_val=1, L=48, H=64, n=2048, d=2
    )
    return fit_ridge(train)


def assert_matches_oracle(model, ds, L, horizons):
    ds = replace(ds, provenance="t")
    got = evaluate_zero_shot(model, ds, L, horizons, seed=5)
    want = evaluate_zero_shot_per_horizon(model, ds, L, horizons, dataset_id="t", seed=5)
    assert len(got) == len(want) == len(horizons)
    for g, w in zip(got, want):
        assert (g.dataset, g.horizon, g.model, g.seed, g.windows) == (
            w.dataset, w.horizon, w.model, w.seed, w.windows
        )
        assert abs(g.mse - w.mse) <= 1e-12 * w.mse
        assert abs(g.mae - w.mae) <= 1e-12 * w.mae
    return got


class TestOnePassKernel:
    """evaluate_zero_shot against the per-horizon loop it replaced."""

    @pytest.mark.parametrize("name", ["ridge", "naive", "seasonal:24"])
    def test_models_match_oracle(self, name, ridge_model):
        model = {
            "ridge": ridge_model,
            "naive": NaiveForecaster(),
            "seasonal:24": SeasonalNaiveForecaster(24),
        }[name]
        assert_matches_oracle(model, noisy_dataset(700, d=3), 48, (8, 16, 32, 64))

    def test_unsorted_horizons_keep_requested_order(self, ridge_model):
        got = assert_matches_oracle(ridge_model, noisy_dataset(500), 48, (32, 8, 64, 16))
        assert [r.horizon for r in got] == [32, 8, 64, 16]

    def test_duplicate_horizons_give_one_report_each(self):
        ds = noisy_dataset(300)
        got = assert_matches_oracle(NaiveForecaster(), ds, 32, (8, 8))
        assert got[0] == got[1]
        got = assert_matches_oracle(SeasonalNaiveForecaster(24), ds, 32, (16, 8, 16))
        assert [r.horizon for r in got] == [16, 8, 16]

    def test_single_window_at_largest_horizon(self, ridge_model):
        ds = noisy_dataset(48 + 64, d=2)
        got = assert_matches_oracle(ridge_model, ds, 48, (16, 64))
        assert [r.windows for r in got] == [2 * 49, 2 * 1]

    def test_block_size_not_dividing_window_count(self, ridge_model, monkeypatch):
        # 100 // 16 = 6 rows per block against 637 windows at h = 16
        monkeypatch.setattr(evaluation, "_BLOCK", 100)
        ds = noisy_dataset(700, d=2)
        assert_matches_oracle(ridge_model, ds, 48, (16, 7, 64))
        assert_matches_oracle(NaiveForecaster(), ds, 48, (16, 7, 64))

    def test_every_model_forecasts_each_window_once(self):
        ds = noisy_dataset(400, d=2)
        model = CountingNaive()
        evaluate_zero_shot(model, ds, 32, (8, 24, 16))
        assert model.rows == 2 * (400 - 32 - 8 + 1)

    def test_short_forecasts_are_prefixes_of_long_ones(self, ridge_model):
        X = noisy_dataset(200).values[:, :48]
        for model in (ridge_model, NaiveForecaster(), SeasonalNaiveForecaster(24)):
            np.testing.assert_allclose(
                model.forecast(X, 64)[:, :10], model.forecast(X, 10),
                rtol=1e-13, atol=1e-13,
            )

    def test_seasonal_exact_periodic_stays_below_1e_20(self):
        cell = np.random.default_rng(5).normal(size=24)
        vals = np.tile(cell, 60)[None, :]
        ds = Dataset(values=vals, channel_names=("x",))
        for r in evaluate_zero_shot(SeasonalNaiveForecaster(24), ds, L=96):
            assert r.mse < 1e-20


class TestReusedBuffers:
    """Forecasts are written into one error buffer per band."""

    @pytest.mark.parametrize("name", ["ridge", "naive", "seasonal:24"])
    def test_forecast_into_out_is_bitwise_equal(self, name, ridge_model):
        model = {
            "ridge": ridge_model,
            "naive": NaiveForecaster(),
            "seasonal:24": SeasonalNaiveForecaster(24),
        }[name]
        X = np.lib.stride_tricks.sliding_window_view(noisy_dataset(300, d=1).values[0], 48)
        for h in (1, 10, 64):
            want = model.forecast(X, h)
            buf = np.full((len(X), h), np.nan)
            got = model.forecast(X, h, out=buf)
            assert got is buf
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["ridge", "naive", "seasonal:24"])
    def test_scores_equal_to_a_model_without_out(self, name, ridge_model):
        # a subclass, as SeasonalNaiveForecaster itself is scored without
        # forecasts (see TestLagScoring)
        model = {
            "ridge": ridge_model,
            "naive": NaiveForecaster(),
            "seasonal:24": CountingSeasonal(24),
        }[name]

        class WithoutOut:
            def forecast(self, X, h):
                return model.forecast(X, h)

        ds = noisy_dataset(700, d=2)
        scores = [
            [(r.mse, r.mae, r.windows) for r in evaluate_zero_shot(m, ds, 48, (16, 8, 64))]
            for m in (model, WithoutOut())
        ]
        assert scores[0] == scores[1]
        win = np.lib.stride_tricks.sliding_window_view(ds.values[0], 48 + 64)
        ws = WindowSet(lookbacks=win[:, :48], horizons=win[:, 48:])
        assert windowset_metrics(model, ws) == windowset_metrics(WithoutOut(), ws)

    def test_every_block_of_a_band_gets_the_same_buffer(self, monkeypatch):
        # 100 // 24 = 4 rows per block: about 87 blocks per channel at h = 24
        monkeypatch.setattr(evaluation, "_BLOCK", 100)
        ds = noisy_dataset(400, d=3)
        spy = BufferSpy()
        got = evaluate_zero_shot(spy, ds, 32, (8, 24, 16))
        want = evaluate_zero_shot(NaiveForecaster(), ds, 32, (8, 24, 16))
        assert [(r.mse, r.mae) for r in got] == [(r.mse, r.mae) for r in want]
        by_band = {}
        for h, address, rows in spy.buffers:
            by_band.setdefault(h, []).append((address, rows))
        assert sorted(by_band) == [8, 16, 24]
        for blocks in by_band.values():
            assert len({address for address, _ in blocks}) == 1
        # every channel of the h = 24 band, tail block included
        assert len(by_band[24]) > 3
        assert sum(rows for _, rows in by_band[24]) == 3 * (400 - 32 - 24 + 1)


class TestEvaluateValidation:
    """Bad horizons and lookbacks are rejected before any forecast."""

    class Refusing:
        def forecast(self, X, h):
            raise AssertionError("forecast called before validation")

    @pytest.mark.parametrize(
        "L, horizons, bad",
        [
            (16, (8.5,), "8.5"),
            (16, (0,), "0"),
            (16, (8, -3), "-3"),
            (16, (8, "8"), "'8'"),
            (0, (8,), "0"),
            (2.5, (8,), "2.5"),
            (True, (8,), "True"),
        ],
    )
    def test_invalid_value_is_named(self, L, horizons, bad):
        ds = noisy_dataset(200, d=1)
        with pytest.raises(InvalidWindow, match=f"got {bad}$"):
            evaluate_zero_shot(self.Refusing(), ds, L, horizons)

    def test_empty_horizons(self):
        with pytest.raises(InvalidWindow, match="horizon"):
            evaluate_zero_shot(self.Refusing(), noisy_dataset(200, d=1), 16, ())

    def test_integral_floats_are_accepted(self):
        ds = noisy_dataset(200, d=1)
        a = evaluate_zero_shot(NaiveForecaster(), ds, 16.0, (8.0,))
        b = evaluate_zero_shot(NaiveForecaster(), ds, 16, (8,))
        assert a == b and a[0].horizon == 8


class TestMinmaxScaling:
    def test_hand_column(self):
        # cell (0, 0) is left out of the range [4, 6], then clipped
        out = minmax_scale_columns(np.array([[2.0], [4.0], [6.0]]))
        assert np.array_equal(out[:, 0], [0.0, 0.0, 1.0])
        out = minmax_scale_columns(np.array([[7.0, 2.0], [4.0, 9.0], [8.0, 4.0]]))
        assert np.array_equal(out, [[0.75, 0.0], [0.0, 1.0], [1.0, 1.0]])

    def test_one_row_scales_to_zero(self):
        assert np.array_equal(minmax_scale_columns(np.array([[3.0, 1.0]])), [[0.0, 0.0]])

    def test_constant_column_is_zero(self):
        out = minmax_scale_columns(np.full((3, 2), 5.0))
        assert np.all(out == 0.0)

    def test_exclude_diagonal(self):
        raw = np.array([[9.0, 1.0], [3.0, 9.0]])
        out = minmax_scale_columns(raw)
        # each column's off-diagonal pool is a single value -> constant
        assert np.all(out == 0.0)

    def test_affine_invariance_of_pattern(self):
        rng = np.random.default_rng(10)
        raw = rng.uniform(1, 5, size=(4, 3))
        out1 = minmax_scale_columns(raw)
        out2 = minmax_scale_columns(2.5 * raw + 7.0)
        assert np.allclose(out1, out2, atol=1e-12)

    def test_range_and_extremes(self):
        rng = np.random.default_rng(11)
        raw = rng.uniform(size=(5, 4))
        out = minmax_scale_columns(raw)
        assert out.min() >= 0.0 and out.max() <= 1.0
        for j in range(4):
            assert out[:, j].min() == 0.0
            assert out[:, j].max() == 1.0

    def test_matrix_type_validation(self):
        with pytest.raises(ValueError):
            TransferMatrix(ids=("a",), raw=np.array([[-1.0]]))
        with pytest.raises(ShapeMismatch, match=r"^matrix shape \(3, 2\), expected \(2, 2\)$"):
            TransferMatrix(ids=("a", "b"), raw=np.ones((3, 2)))

    @pytest.mark.parametrize("field, value, rule", [
        ("raw", np.nan, "finite and >= 0"),
        ("raw", np.inf, "finite and >= 0"),
        ("raw", -np.inf, "finite and >= 0"),
        ("raw", -3.0, "finite and >= 0"),
    ])
    def test_matrix_rejects_bad_cells(self, field, value, rule):
        raw = np.ones((2, 2))
        raw[1, 0] = value
        with pytest.raises(ValueError, match=rf"^{field}\[1, 0\] must be {rule}, got"):
            TransferMatrix(ids=("a", "b"), raw=raw)

    def test_matrix_accepts_the_bounds(self):
        tm = TransferMatrix(ids=("a", "b"), raw=[[0.0, 5e-324], [1e300, 2.0]])
        assert tm.ids == ("a", "b")
        assert not (tm.raw.flags.writeable or tm.scaled.flags.writeable)
        # each column's range leaves its in-domain cell out, so it holds
        # one cell and the column scales to 0
        assert np.array_equal(tm.scaled, np.zeros((2, 2)))
        assert np.array_equal(tm.scaled, minmax_scale_columns(tm.raw))


class TestTransferMatrix:
    def test_identical_datasets_scale_to_zero(self):
        ds = sine_dataset(1 / 24, n=1024, d=2, seed=12)
        tm = transfer_matrix(
            [ds, ds],
            ridge_trainer(48, 24, count=128),
            L=48,
            H=24,
            ids=["a", "b"],
            seed=0,
        )
        assert tm.raw.shape == (2, 2)
        assert np.all(tm.scaled == 0.0)
        # off-diagonal raw cells only differ through the training seed
        hi, lo = max(tm.raw[0, 1], tm.raw[1, 0]), min(tm.raw[0, 1], tm.raw[1, 0])
        assert hi <= 10 * lo + 1e-9

    def test_registry_pcc_groups_order_scaled_mse(self):
        # similar spectra (PCC >= 0.9) should transfer better than
        # dissimilar ones (PCC < 0.5)
        registry = synthetic_registry(seed=0, n=4096)
        ids = [name for name, _ in registry]
        datasets = [ds for _, ds in registry]
        tm = transfer_matrix(
            datasets, ridge_trainer(96, 96, count=256), L=96, H=96, ids=ids, seed=0
        )
        pgs = [aggregate_periodogram(ds, 1024) for ds in datasets]
        hi, lo = [], []
        k = len(datasets)
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                pcc = periodogram_pcc(pgs[i], pgs[j])
                if pcc >= 0.9:
                    hi.append(tm.scaled[i, j])
                elif pcc < 0.5:
                    lo.append(tm.scaled[i, j])
        assert hi and lo
        assert np.mean(hi) < np.mean(lo)

    def test_needs_two_datasets(self):
        ds = sine_dataset(1 / 24, n=512, d=1, seed=13)
        with pytest.raises(ValueError):
            transfer_matrix([ds], ridge_trainer(32, 8, count=16), L=32, H=8, ids=["a"])

    def test_training_error_starts_with_the_dataset_id(self):
        # 60 steps hold 21 windows of L + H = 40, too few for count=64
        ok = sine_dataset(1 / 24, n=512, d=1, seed=13)
        short = sine_dataset(1 / 24, n=60, d=1, seed=14)
        with pytest.raises(InsufficientData, match=r"^b: requested 64 windows but only 21 "):
            transfer_matrix([ok, short], ridge_trainer(32, 8, count=64), L=32, H=8,
                            ids=["a", "b"])


class TestConfusion:
    def test_clean_fit_then_degradation(self):
        curve = confusion_experiment(seed=0)
        counts = [c for c, _ in curve]
        mses = [m for _, m in curve]
        assert counts == [0, 1, 2, 4, 8, 16]
        assert mses[0] < 1e-3
        rho = stats.spearmanr(counts, mses).statistic
        assert rho > 0

    def test_deterministic(self):
        assert confusion_experiment(seed=3) == confusion_experiment(seed=3)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            confusion_experiment(distractor_counts=(0, -1))


class TestGeneralization:
    def test_seen_frequency_wins(self):
        mse_with, mse_without = generalization_experiment(1 / 24, seed=0)
        assert mse_with < 1e-2
        assert mse_with < mse_without

    def test_deterministic(self):
        a = generalization_experiment(1 / 24, seed=5)
        b = generalization_experiment(1 / 24, seed=5)
        assert a == b


class TestHarmonicsSweep:
    def test_row_count_and_pure_sine_fit(self):
        # 1/32 sits on an exact bin of the 1024-sample estimation
        # window, so the recovered fundamental is exact and the h = 1
        # pipeline reproduces the tone; off-bin targets carry an
        # irreducible phase-drift floor from bin-resolution rounding
        target = sine_dataset(1 / 32, n=2048, d=2, seed=14)
        table = harmonics_sweep(
            [("pure32", target)],
            h_values=(1, 2),
            seed=0,
            count_train=400,
            n=8192,
            d=3,
        )
        assert len(table) == 2
        assert {h for h, _, _ in table} == {1, 2}
        assert all(name == "pure32" for _, name, _ in table)
        by_h = {h: mse for h, _, mse in table}
        assert by_h[1] < 1e-2

    def test_richer_harmonics_help_on_harmonic_target(self):
        cfg = GeneratorConfig(omega_bar=1 / 24, h=3, n=8192, d=3, seed=100)
        target = standardize(synthesize(cfg))
        table = harmonics_sweep(
            [("h3", target)], h_values=(1, 3), seed=0, count_train=600, n=8192, d=3
        )
        by_h = {h: mse for h, _, mse in table}
        assert by_h[3] <= by_h[1]


class TestSizeVariatesSweep:
    def test_grid_shape_and_finiteness(self):
        target = sine_dataset(1 / 24, n=2048, d=2, seed=15)
        grid = size_variates_sweep((64, 128), (2, 3), target, seed=0)
        assert grid.shape == (2, 2)
        assert np.all(np.isfinite(grid))
        assert np.all(grid > 0)


class TestSyntheticRegistry:
    def test_labels_and_determinism(self):
        reg = synthetic_registry(seed=1, n=2048, d=2)
        names = [name for name, _ in reg]
        assert len(reg) == 6
        assert names == sorted(names) or len(set(names)) == 6
        prefixes = {name.split("-")[0] for name in names}
        assert prefixes == {"w7", "w24", "w96"}
        again = synthetic_registry(seed=1, n=2048, d=2)
        for (na, da), (nb, db) in zip(reg, again):
            assert na == nb
            assert np.array_equal(da.values, db.values)
        for _, ds in reg:
            assert_standardized(ds)

    @pytest.mark.parametrize("seed, n, d", [(0, 8192, 4), (1, 2048, 2), (7, 300, 1)])
    def test_matches_the_child_seed_loop(self, seed, n, d):
        got = synthetic_registry(seed=seed, n=n, d=d)
        want = oracles.synthetic_registry(seed=seed, n=n, d=d)
        assert [name for name, _ in got] == [name for name, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a.values.tobytes() == b.values.tobytes()
            assert a.provenance == b.provenance
            assert a.channel_names == b.channel_names
            assert_standardized(a)


class TestWindowsetMetrics:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(16)
        from freqsynth import WindowSet

        ws = WindowSet(
            lookbacks=rng.normal(size=(40, 16)), horizons=rng.normal(size=(40, 8))
        )
        model = NaiveForecaster()
        mse, mae = windowset_metrics(model, ws)
        pred = np.repeat(ws.lookbacks[:, -1:], 8, axis=1)
        err = pred - ws.horizons
        assert abs(mse - np.mean(err**2)) < 1e-12
        assert abs(mae - np.mean(np.abs(err))) < 1e-12

    def test_small_blocks_match_direct_computation(self, monkeypatch):
        # 20 // 8 = 2 rows per block against 41 windows
        monkeypatch.setattr(evaluation, "_BLOCK", 20)
        rng = np.random.default_rng(17)
        from freqsynth import WindowSet

        ws = WindowSet(
            lookbacks=rng.normal(size=(41, 16)), horizons=rng.normal(size=(41, 8))
        )
        mse, mae = windowset_metrics(SeasonalNaiveForecaster(5), ws)
        err = SeasonalNaiveForecaster(5).forecast(ws.lookbacks, 8) - ws.horizons
        assert abs(mse - np.mean(err**2)) <= 1e-12 * mse
        assert abs(mae - np.mean(np.abs(err))) <= 1e-12 * mae


class OffsetRidge(LinearForecaster):
    """A LinearForecaster subclass whose forecast differs from its weights'."""

    def forecast(self, X, H=None, out=None):
        return super().forecast(X, H, out=out) + 0.5


def mixed_trainer(L, H, calls):
    """Trainer cycling through every kind of model the drivers meet.

    Records each (dataset, seed) call in ``calls``; the kinds are plain
    ridge (three, so several share one stack), ridge with a horizon above
    H, naive, seasonal:24, a duck-typed model and a LinearForecaster
    subclass.
    """

    def ridge(ds, seed, h=H):
        windows, _ = evaluation.sample_windows([ds], 96, 0, L, h, seed)
        return fit_ridge(windows)

    def offset(ds, seed):
        m = ridge(ds, seed)
        return OffsetRidge(weights=m.weights, lam=m.lam)

    kinds = [
        ridge,
        lambda ds, seed: NaiveForecaster(),
        ridge,
        lambda ds, seed: ridge(ds, seed, H + 8),
        lambda ds, seed: SeasonalNaiveForecaster(24),
        lambda ds, seed: HorizonScaledNaive(),
        offset,
        ridge,
    ]

    def train(ds, seed):
        calls.append((ds, seed))
        return kinds[len(calls) - 1](ds, seed)

    return train


def assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * np.abs(want))


def assert_reports_close(got, want, rtol=1e-12):
    """Equal reports but for MSE and MAE, which agree within rtol."""
    assert [(r.dataset, r.horizon, r.model, r.seed, r.windows) for r in got] == [
        (r.dataset, r.horizon, r.model, r.seed, r.windows) for r in want
    ]
    assert_close([(r.mse, r.mae) for r in got], [(r.mse, r.mae) for r in want], rtol)


class TestStackedScoring:
    """Drivers score plain ridge models per block in one pass."""

    def test_single_model_scores_are_hex_equal_to_the_one_model_kernel(
        self, ridge_model, monkeypatch
    ):
        ds = noisy_dataset(700, d=2)
        win = np.lib.stride_tricks.sliding_window_view(ds.values[1], 48 + 64)
        ws = WindowSet(lookbacks=win[:, :48], horizons=win[:, 48:])
        models = [ridge_model, NaiveForecaster(), SeasonalNaiveForecaster(24)]
        for block in (evaluation._BLOCK, 100):
            monkeypatch.setattr(evaluation, "_BLOCK", block)
            monkeypatch.setattr(oracles, "_BLOCK", block)
            for model in models:
                got = evaluate_zero_shot(model, ds, 48, (16, 7, 64, 16), seed=2)
                want = oracles.evaluate_zero_shot_unstacked(
                    model, ds, 48, (16, 7, 64, 16), seed=2
                )
                if type(model) is SeasonalNaiveForecaster:
                    # scored from lagged differences: summation order only
                    assert_reports_close(got, want)
                    continue
                assert [(r.mse.hex(), r.mae.hex()) for r in got] == [
                    (r.mse.hex(), r.mae.hex()) for r in want
                ]
                assert got == want
            for model in models:
                got = windowset_metrics(model, ws)
                want = oracles.windowset_metrics_unstacked(model, ws)
                assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_transfer_matrix_matches_per_model_loop(self, monkeypatch):
        # 3 ridge models stacked at H = 24: 1000 // 72 = 13 rows per block
        # against 432 windows per channel
        monkeypatch.setattr(evaluation, "_BLOCK", 1000)
        datasets = [noisy_dataset(503, d=2, seed=s) for s in range(8)]
        ids = [f"n{s}" for s in range(8)]
        calls, oracle_calls = [], []
        got = transfer_matrix(
            datasets, mixed_trainer(48, 24, calls), 48, 24, ids=ids, seed=4
        )
        want = oracles.transfer_matrix_per_model(
            datasets, mixed_trainer(48, 24, oracle_calls), 48, 24, ids=ids, seed=4
        )
        assert [(id(d), s) for d, s in calls] == [(id(d), s) for d, s in oracle_calls]
        assert [d for d, _ in calls] == datasets
        assert got.ids == want.ids == tuple(ids)
        assert_close(got.raw, want.raw)
        np.testing.assert_allclose(got.scaled, want.scaled, rtol=0, atol=1e-9)

    def test_one_design_per_block_per_test_dataset(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_BLOCK", 5000)
        monkeypatch.setattr(oracles, "_BLOCK", 5000)
        built = []

        def spy(X, *phi):
            built.append(len(X))
            return design(X, *phi)

        design = forecast._design
        monkeypatch.setattr(forecast, "_design", spy)
        k, L, H, count = 6, 48, 24, 160
        datasets = [noisy_dataset(400 + 37 * i, d=2, seed=i) for i in range(k)]

        def blocks(step):
            return sum(ds.d * -(-(ds.n - L - H + 1) // step) for ds in datasets)

        trainer = ridge_trainer(L, H, count=count)
        transfer_matrix(datasets, trainer, L, H, ids=[str(i) for i in range(k)], seed=1)
        assert built[:k] == [count] * k  # one design per fit
        assert len(built) == k + blocks(5000 // (k * H))
        # the per-model loop builds one design per block per model
        built.clear()
        oracles.transfer_matrix_per_model(datasets, trainer, L, H, seed=1)
        assert len(built) == k + k * blocks(5000 // H)

    def test_stack_scores_every_band_like_each_model_alone(self, ridge_model, monkeypatch):
        # horizons 64 > 16 > 7 give three bands; the three plain ridge
        # models (one fit to H = 80) share one stack per band
        monkeypatch.setattr(evaluation, "_BLOCK", 1000)
        monkeypatch.setattr(oracles, "_BLOCK", 1000)
        ds = noisy_dataset(503, d=2, seed=6)

        def ridge(h, seed):
            train = noisy_dataset(900, d=2, seed=seed)
            return fit_ridge(evaluation.sample_windows([train], 300, 0, 48, h, seed)[0])

        extra = ridge(64, 11)
        offset = OffsetRidge(weights=extra.weights, lam=0.0)
        models = [ridge_model, NaiveForecaster(), extra, ridge(80, 12), offset]
        horizons = (16, 7, 64, 16)
        ds = replace(ds, provenance="t")
        got = evaluation._zero_shot(models, ds, 48, horizons, seed=1)
        assert len(got) == len(models)
        for model, reports in zip(models, got):
            want = oracles.evaluate_zero_shot_unstacked(
                model, ds, 48, horizons, dataset_id="t", seed=1
            )
            assert [(r.dataset, r.horizon, r.model, r.seed, r.windows) for r in reports] == [
                (r.dataset, r.horizon, r.model, r.seed, r.windows) for r in want
            ]
            assert_close([(r.mse, r.mae) for r in reports], [(r.mse, r.mae) for r in want])
        # the offset subclass is scored alone, not from its weights
        assert got[4][0].mse != got[2][0].mse

        built = []
        design = forecast._design
        monkeypatch.setattr(forecast, "_design", lambda X: built.append(len(X)) or design(X))
        evaluation._zero_shot([ridge_model, extra, models[3]], ds, 48, horizons)
        count = {h: 503 - 48 - h + 1 for h in (64, 16, 7)}
        bands = [(0, count[64], 64), (count[64], count[16], 16), (count[16], count[7], 7)]
        step = {hb: 1000 // (3 * hb) for _, _, hb in bands}
        assert len(built) == sum(2 * -(-(hi - lo) // step[hb]) for lo, hi, hb in bands)

    def test_evaluate_and_every_driver_reach_one_scorer(self, monkeypatch):
        # the drivers read MSEs only, so they take the scorer's MSE-only path
        seen = []
        scorer = evaluation._scores

        def spy(models, *args, mae=True, **kwargs):
            seen.append((len(models), mae))
            return scorer(models, *args, mae=mae, **kwargs)

        monkeypatch.setattr(evaluation, "_scores", spy)
        target = sine_dataset(1 / 24, n=400, d=1, seed=15)
        evaluate_zero_shot(NaiveForecaster(), target, 48, (24,))
        transfer_matrix([target, target], ridge_trainer(48, 24, count=64), 48, 24,
                        ids=["a", "b"])
        harmonics_sweep([("t", target)], h_values=(1, 2), L=48, H=24, count_train=64,
                        n=512, d=1)
        size_variates_sweep((32, 64), (1,), target)
        assert seen == [(1, True)] + [(2, False)] * 4

    def test_mse_only_scores_are_the_full_scores_mses(self, monkeypatch):
        # without MAEs no block's absolute errors are summed, and every
        # MSE keeps its bits: a stack, a naive model and a seasonal one
        sums = []
        block_sums = evaluation._block_sums
        monkeypatch.setattr(evaluation, "_block_sums",
                            lambda *a: sums.append(block_sums(*a)) or sums[-1])
        ds = noisy_dataset(300, d=2)
        models = [fit_ridge(evaluation.sample_windows([ds], 64, 0, 48, 24, s)[0])
                  for s in (1, 2)] + [NaiveForecaster(), SeasonalNaiveForecaster(7)]
        mse = evaluation._scores(models, ds, 48, (24, 7), mae=False)
        assert len(sums) == 4 and all(sae is None for _, sae in sums)
        both = evaluation._scores(models, ds, 48, (24, 7))
        assert mse.shape == (1, 4, 2) and both.shape == (2, 4, 2)
        assert [v.hex() for v in mse.ravel()] == [v.hex() for v in both[0].ravel()]
        assert np.all(both[1] > 0)

    def test_driver_mses_are_the_evaluation_bits(self, monkeypatch):
        # each driver cell is hex-equal to the MSE that evaluate_zero_shot's
        # scorer reports for the same models on the same target, and to
        # evaluate_zero_shot's own MSE where the driver scores one model
        fits = []
        fit = evaluation.fit_ridge
        monkeypatch.setattr(evaluation, "fit_ridge",
                            lambda *a, **k: fits.append(fit(*a, **k)) or fits[-1])
        targets = [sine_dataset(1 / 24, n=400, d=2, seed=15), noisy_dataset(400, d=2)]

        def hexes(values):
            return [float(v).hex() for v in values]

        def reported(models, ds, L, H):
            return hexes(r[0].mse for r in evaluation._zero_shot(models, ds, L, (H,)))

        models = []
        trainer = ridge_trainer(48, 24, count=64)
        tm = transfer_matrix(targets, lambda ds, seed: models.append(trainer(ds, seed))
                             or models[-1], 48, 24, ids=["a", "b"], seed=3)
        for j, ds in enumerate(targets):
            assert hexes(tm.raw[:, j]) == reported(models, ds, 48, 24)

        fits.clear()
        named = [("a", targets[0]), ("b", targets[1])]
        rows = harmonics_sweep(named, h_values=(1, 2), L=48, H=24, count_train=64,
                               n=512, d=1)
        for b, (_, ds) in enumerate(named):
            assert hexes(m for _, _, m in rows[b::2]) == reported(fits[b::2], ds, 48, 24)

        fits.clear()
        grid = size_variates_sweep((32, 64), (1, 2), targets[0])
        assert hexes(grid.ravel()) == reported(fits, targets[0], 96, 96)

        # one model: the driver's bits are evaluate_zero_shot's
        fits.clear()
        (_, _, mse), = harmonics_sweep(named[:1], h_values=(2,), L=48, H=24,
                                       count_train=64, n=512, d=1)
        assert mse.hex() == evaluate_zero_shot(fits[0], targets[0], 48, (24,))[0].mse.hex()
        fits.clear()
        grid = size_variates_sweep((32,), (1,), targets[0])
        want = evaluate_zero_shot(fits[0], targets[0], 96, (96,))[0].mse
        assert grid[0, 0].hex() == want.hex()

    def test_harmonics_sweep_matches_per_model_loop_with_repeated_h(self):
        targets = [
            ("a", sine_dataset(1 / 32, n=1024, d=2, seed=14)),
            ("b", noisy_dataset(1024, d=2, seed=5)),
        ]
        kw = dict(seed=3, L=48, H=24, count_train=200, n=2048, d=2)
        got = harmonics_sweep(targets, h_values=(1, 2, 1), **kw)
        want = oracles.harmonics_sweep_per_model(targets, h_values=(1, 2, 1), **kw)
        assert [(h, tid) for h, tid, _ in got] == [(h, tid) for h, tid, _ in want]
        assert [(h, tid) for h, tid, _ in got] == [
            (1, "a"), (1, "b"), (2, "a"), (2, "b"), (1, "a"), (1, "b")
        ]
        assert_close([m for _, _, m in got], [m for _, _, m in want])
        # the repeated h = 1 rows are fit from their own seeds
        assert got[0][2] != got[4][2] and got[1][2] != got[5][2]

    def test_size_variates_sweep_matches_per_model_loop_with_repeated_size(self):
        target = sine_dataset(1 / 24, n=2048, d=2, seed=15)
        kw = dict(seed=2)
        got = size_variates_sweep((64, 128, 64), (2, 1), target, **kw)
        want = oracles.size_variates_sweep_per_model((64, 128, 64), (2, 1), target, **kw)
        assert got.shape == (3, 2)
        assert_close(got, want)
        assert np.all(got[0] != got[2])

    def test_empty_sweeps_score_nothing(self):
        target = sine_dataset(1 / 24, n=400, d=1, seed=15)
        assert harmonics_sweep([("t", target)], h_values=()) == []
        assert size_variates_sweep((), (1, 2), target).shape == (0, 2)

    def test_empty_sweeps_still_check_the_target(self):
        target = sine_dataset(1 / 24, n=100, d=1, seed=15)  # below L + H
        with pytest.raises(SplitTooSmall, match=r"length 100 .* L \+ H = 192"):
            harmonics_sweep([("t", target)], h_values=())

    def test_short_dataset_is_named_before_any_training(self):
        calls = []

        def trainer(ds, seed):
            calls.append(seed)
            return NaiveForecaster()

        datasets = [noisy_dataset(200, seed=1), noisy_dataset(60, seed=2),
                    noisy_dataset(50, seed=3)]
        with pytest.raises(WindowTooLong, match="'short'.*length 60.*L \\+ H = 72"):
            transfer_matrix(datasets, trainer, 48, 24, ids=["ok", "short", "shorter"])
        assert calls == []


class DuckSeasonal:
    """Duck-typed seasonal naive: the library's forecasts, another class."""

    def __init__(self, period):
        self.inner = SeasonalNaiveForecaster(period)
        self.rows = 0

    def forecast(self, X, h, out=None):
        self.rows += len(X)
        return self.inner.forecast(X, h, out=out)


def refuse_forecast(self, X, H, out=None):
    raise AssertionError("SeasonalNaiveForecaster.forecast called")


def lag_scored(model, ds, L, horizons):
    """evaluate_zero_shot of a SeasonalNaiveForecaster with forecast refused,
    checked against the one-model kernel at 1e-12."""
    ds = replace(ds, provenance="t")
    want = oracles.evaluate_zero_shot_unstacked(
        model, ds, L, horizons, dataset_id="t", seed=4
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SeasonalNaiveForecaster, "forecast", refuse_forecast)
        got = evaluate_zero_shot(model, ds, L, horizons, seed=4)
    assert_reports_close(got, want)
    return got


class TestLagScoring:
    """SeasonalNaiveForecaster is scored from lagged differences, unforecast."""

    @pytest.mark.parametrize("block", [evaluation._BLOCK, 100])
    @pytest.mark.parametrize("p", [1, 2, 7, 24, 48])
    def test_periods_and_horizons_match_the_kernel(self, p, block, monkeypatch):
        # h < p, h = p, h = 3p and h = 3p + 1, unsorted; a block of 100
        # splits windows into pieces and lags into chunks of one
        monkeypatch.setattr(evaluation, "_BLOCK", block)
        horizons = (3 * p + 1, p, 3 * p) + ((p - 1,) if p > 1 else ())
        got = lag_scored(SeasonalNaiveForecaster(p), noisy_dataset(700), 48, horizons)
        assert [r.horizon for r in got] == list(horizons)

    @pytest.mark.parametrize("p", [7, 24])
    def test_duplicated_horizons_and_a_single_window(self, p):
        ds = noisy_dataset(48 + 64, d=2)
        got = lag_scored(SeasonalNaiveForecaster(p), ds, 48, (16, 7, 64, 16))
        assert got[0] == got[3]
        assert [r.windows for r in got] == [2 * 49, 2 * 58, 2 * 1, 2 * 49]

    @pytest.mark.parametrize("gap", [1, 22, 23, 24, 25])
    def test_bands_about_one_period_wide(self, gap):
        # the band of windows scored at h = 64 - gap holds gap windows
        lag_scored(SeasonalNaiveForecaster(24), noisy_dataset(300), 48, (64, 64 - gap))

    def test_channels_offset_by_1e8(self):
        ds = noisy_dataset(700)
        vals = ds.values + 1e8 * np.arange(1, 4)[:, None]
        offset = Dataset(values=vals, channel_names=ds.channel_names)
        lag_scored(SeasonalNaiveForecaster(24), offset, 48, (16, 7, 64))

    @pytest.mark.parametrize("p", [24, 48, 96])
    def test_exactly_periodic_data_scores_exact_zeros(self, p):
        cell = np.random.default_rng(5).normal(size=24)
        ds = Dataset(values=np.tile(cell, (2, 50)), channel_names=("x", "y"))
        for r in lag_scored(SeasonalNaiveForecaster(p), ds, 96, DEFAULT_HORIZONS):
            assert (r.mse, r.mae) == (0.0, 0.0)

    def test_period_longer_than_lookback_is_raised_before_any_scoring(self):
        ds = noisy_dataset(300)
        first = CountingNaive()
        with pytest.raises(PeriodTooLong, match="period 49 exceeds lookback length 48"):
            evaluation._zero_shot([first, SeasonalNaiveForecaster(49)], ds, 48, (8,))
        assert first.rows == 0
        with pytest.raises(PeriodTooLong, match="period 49"):
            evaluate_zero_shot(SeasonalNaiveForecaster(49), ds, 48, (8,))

    @pytest.mark.parametrize("kind", [CountingSeasonal, DuckSeasonal])
    def test_subclass_and_duck_typed_models_keep_the_block_kernel(self, kind):
        ds = noisy_dataset(400, d=2)
        model = kind(24)
        got = evaluate_zero_shot(model, ds, 48, (16, 7, 64, 16), seed=2)
        want = oracles.evaluate_zero_shot_unstacked(kind(24), ds, 48, (16, 7, 64, 16), seed=2)
        assert [(r.mse.hex(), r.mae.hex()) for r in got] == [
            (r.mse.hex(), r.mae.hex()) for r in want
        ]
        assert model.rows == 2 * (400 - 48 - 7 + 1)

    def test_forecast_is_never_called(self, ridge_model, monkeypatch):
        calls = []
        real = SeasonalNaiveForecaster.forecast

        def spy(self, X, H, out=None):
            calls.append(len(X))
            return real(self, X, H, out=out)

        monkeypatch.setattr(SeasonalNaiveForecaster, "forecast", spy)
        ds = noisy_dataset(400, d=2)
        evaluate_zero_shot(SeasonalNaiveForecaster(24), ds, 48, (16, 7, 64))
        models = [ridge_model, SeasonalNaiveForecaster(7), NaiveForecaster()]
        evaluation._zero_shot(models, ds, 48, (24,))
        assert calls == []
        # windowset_metrics still forecasts, so the spy is live
        win = np.lib.stride_tricks.sliding_window_view(ds.values[0], 48 + 16)
        windowset_metrics(SeasonalNaiveForecaster(24),
                          WindowSet(lookbacks=win[:, :48], horizons=win[:, 48:]))
        assert calls == [len(win)]
