"""Sampling-rate table and fundamental-frequency estimator tests."""

import numpy as np
import pytest

from freqsynth import (
    Dataset,
    FundamentalEstimate,
    GeneratorConfig,
    aggregate_periodogram,
    default_window_len,
    estimate_fundamental,
    freq_from_sampling_rate,
    parse_sampling_rate,
    synthesize,
)
from freqsynth.errors import (
    InsufficientData,
    InvalidPeriod,
    NoDominantFrequency,
    UnknownSamplingRate,
)

RATE_PAIRS = {
    "4s": 1 / 900,
    "1m": 1 / 1440,
    "5m": 1 / 288,
    "10m": 1 / 144,
    "15m": 1 / 96,
    "30m": 1 / 48,
    "1h": 1 / 24,
    "1d": 1 / 7,
}


class TestRateTable:
    def test_all_pairs(self):
        for token, freq in RATE_PAIRS.items():
            est = freq_from_sampling_rate(token)
            assert est.omega_bar == freq
            assert est.source == "table"
            assert est.confidence == 1.0

    def test_case_and_whitespace(self):
        assert parse_sampling_rate("1H") == 24
        assert parse_sampling_rate(" 15M ") == 96

    def test_custom_form(self):
        assert parse_sampling_rate("custom:12") == 12
        assert parse_sampling_rate("custom:900") == 900
        assert freq_from_sampling_rate("custom:30").omega_bar == 1 / 30

    def test_unknown_token(self):
        with pytest.raises(UnknownSamplingRate):
            parse_sampling_rate("3h")
        with pytest.raises(UnknownSamplingRate):
            parse_sampling_rate("")
        with pytest.raises(UnknownSamplingRate):
            parse_sampling_rate("custom:abc")

    def test_custom_period_too_small(self):
        with pytest.raises(InvalidPeriod):
            parse_sampling_rate("custom:2")
        with pytest.raises(InvalidPeriod):
            parse_sampling_rate("custom:0")

    def test_purity(self):
        assert parse_sampling_rate("1h") == parse_sampling_rate("1h")


class TestFundamentalEstimate:
    def test_sources_are_the_ones_the_estimators_build(self):
        table = freq_from_sampling_rate("1h")
        found = estimate_fundamental(sine_ds([1 / 24], [1.0]))
        assert (table.source, found.source) == ("table", "periodogram")
        for source in ("table", "periodogram"):
            assert FundamentalEstimate(0.1, source, 1.0).source == source

    @pytest.mark.parametrize("source", ["prior", "", "Table"])
    def test_unknown_source_rejected(self, source):
        with pytest.raises(ValueError, match=f"unknown source {source!r}"):
            FundamentalEstimate(0.1, source, 1.0)


def sine_ds(freqs, amps, n=4096, d=1, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    rows = []
    for _ in range(d):
        row = np.zeros(n)
        for f, a in zip(freqs, amps):
            row += a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        rows.append(row)
    return Dataset(values=np.stack(rows), channel_names=tuple(f"c{i}" for i in range(d)))


class TestEstimateFundamental:
    def test_generated_dataset_recovery(self):
        cfg = GeneratorConfig(omega_bar=1 / 24, h=3, seed=42)
        est = estimate_fundamental(synthesize(cfg))
        w = default_window_len(cfg.n)
        assert abs(est.omega_bar - 1 / 24) <= 1.0 / w
        assert est.source == "periodogram"
        assert 0.0 <= est.confidence <= 1.0

    def test_pure_sine_strongest_peak_fallback(self):
        # no harmonics present, so the estimator falls back to the argmax bin
        ds = sine_ds([0.1], [1.0], n=4096)
        est = estimate_fundamental(ds)
        agg = aggregate_periodogram(ds, default_window_len(ds.n))
        oracle = float(agg.freqs[np.argmax(agg.powers)])
        assert est.omega_bar == oracle
        assert abs(est.omega_bar - 0.1) <= 1.0 / default_window_len(ds.n)

    def test_lowest_harmonic_peak_beats_strong_isolated(self):
        # bin-aligned: fundamental 32/1024 with partner 64/1024; isolated
        # distractor at 300/1024 carries the most power but has no partner
        w = 1024
        ds = sine_ds([32 / w, 64 / w, 300 / w], [1.0, 1.0, 3.0], n=4096)
        est = estimate_fundamental(ds)
        assert abs(est.omega_bar - 32 / w) < 1e-12

    def test_white_noise_rejected(self):
        ok = 0
        for seed in range(20):
            x = np.random.default_rng(seed).normal(size=(1, 4096))
            ds = Dataset(values=x, channel_names=("c",))
            try:
                est = estimate_fundamental(ds, rel_threshold=0.5)
            except NoDominantFrequency:
                ok += 1
                continue
            if est.confidence < 0.05:
                ok += 1
        assert ok == 20

    def test_too_short(self):
        ds = sine_ds([0.1], [1.0], n=63)
        with pytest.raises(InsufficientData):
            estimate_fundamental(ds)

    def test_exact_tie_at_the_maximum(self):
        # integer spikes every 16 steps: the spectrum repeats every 4 bins
        # and bins 4j+1..4j+3 share the maximum power exactly
        x = np.zeros(64)
        x[::16] = [-2, -2, -2, 3]
        ds = Dataset(values=x[None, :], channel_names=("c",))
        pw = aggregate_periodogram(ds, 64).powers
        assert pw[0] == pw[1] == pw[2] == pw.max() > pw[3]
        est = estimate_fundamental(ds)
        # plateaus at 1/64, 5/64, ...: 1/64 has its 5th harmonic as partner
        assert est.omega_bar == 1 / 64
        assert est.source == "periodogram"

    def test_zero_dataset_flat_spectrum(self):
        ds = Dataset(values=np.zeros((1, 256)), channel_names=("c",))
        with pytest.raises(NoDominantFrequency):
            estimate_fundamental(ds)

    @pytest.mark.parametrize("omega", [1 / 7, 1 / 24, 1 / 48, 1 / 96])
    def test_recovery_property_over_seeds(self, omega):
        # h >= 2, A' >= 1: estimator lands within one bin of the window.
        # Random phase cancellation can suppress the fundamental on rare
        # draws, so the bar is >= 9/10 seeds, matching the acceptance gate.
        hits = 0
        for seed in range(10):
            cfg = GeneratorConfig(
                omega_bar=omega, h=2, A_prime=1.0, n=8192, d=3, seed=seed
            )
            est = estimate_fundamental(synthesize(cfg))
            w = default_window_len(cfg.n)
            hits += abs(est.omega_bar - omega) <= 1.0 / w
            assert 0.0 < est.omega_bar < 0.5
        assert hits >= 9
