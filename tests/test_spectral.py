"""Fourier analysis tests.

The reference oracle is a direct per-bin summation written here with
plain Python complex arithmetic, independent of the naive path in
tests/oracles.py, so the package transform and that reference are both
checked against a third implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqsynth import (
    Dataset,
    Periodogram,
    aggregate_periodogram,
    default_window_len,
    dft,
    find_peaks,
    periodogram_pcc,
    scaled_periodogram,
)
from freqsynth.errors import (
    DegenerateSpectrum,
    InvalidSeries,
    InvalidWindow,
    NoDominantFrequency,
    WindowTooLong,
)
from oracles import dft_naive


def oracle_dft(x):
    """Per-bin summation with t = 1..n; O(n^2) pure Python."""
    n = len(x)
    out = np.empty(n, dtype=complex)
    for j in range(n):
        acc = 0j
        for t in range(1, n + 1):
            acc += x[t - 1] * np.exp(-2j * np.pi * t * j / n)
        out[j] = acc / np.sqrt(n)
    return out


def oracle_periodogram(x):
    """Scaled periodogram computed from the oracle transform."""
    n = len(x)
    d = oracle_dft(x)
    half = (n - 1) // 2
    return (4.0 / n) * np.abs(d[1 : half + 1]) ** 2


def rel_err(a, b):
    denom = max(np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / denom


class TestDft:
    def test_zero_series(self):
        spec = dft([0.0] * 5)
        assert np.all(spec.coeffs == 0)

    def test_constant_series_is_dc_only(self):
        n = 17
        c = 3.5
        spec = dft([c] * n)
        assert abs(abs(spec.coeffs[0]) - c * np.sqrt(n)) < 1e-9
        assert np.max(np.abs(spec.coeffs[1:])) < 1e-9

    def test_fast_matches_oracle(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 8, 33, 64):
            x = rng.normal(size=n)
            assert rel_err(dft(x).coeffs, oracle_dft(x)) < 1e-9

    def test_naive_matches_oracle(self):
        rng = np.random.default_rng(12)
        for n in (2, 5, 64, 130):
            x = rng.normal(size=n)
            assert rel_err(dft_naive(x).coeffs, oracle_dft(x)) < 1e-9

    def test_too_short(self):
        with pytest.raises(InvalidSeries):
            dft([1.0])

    def test_non_finite(self):
        with pytest.raises(InvalidSeries):
            dft([1.0, np.nan, 2.0])

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=1024),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_fast_naive_agreement_property(self, n, seed):
        x = np.random.default_rng(seed).normal(size=n)
        assert rel_err(dft(x).coeffs, dft_naive(x).coeffs) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=4096),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_parseval_property(self, n, seed):
        x = np.random.default_rng(seed).normal(size=n)
        lhs = float(np.sum(x * x))
        rhs = float(np.sum(np.abs(dft(x).coeffs) ** 2))
        assert abs(lhs - rhs) <= 1e-9 * max(lhs, 1e-300)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=2048),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_conjugate_symmetry_property(self, n, seed):
        x = np.random.default_rng(seed).normal(size=n)
        c = dft(x).coeffs
        scale = max(np.max(np.abs(c)), 1e-300)
        for j in range(1, n):
            assert abs(c[n - j] - np.conj(c[j])) < 1e-9 * scale


class TestScaledPeriodogram:
    def test_exact_bin_cosine(self):
        n = 100
        t = np.arange(n)
        x = 3.0 * np.cos(2 * np.pi * t * 5 / n + 0.7)
        p = scaled_periodogram(x)
        j = np.argmin(np.abs(p.freqs - 0.05))
        assert abs(p.freqs[j] - 0.05) < 1e-15
        assert abs(p.powers[j] - 9.0) < 1e-6
        assert np.max(np.delete(p.powers, j)) < 1e-9

    def test_zero_series(self):
        p = scaled_periodogram(np.zeros(64))
        assert np.all(p.powers == 0)

    def test_two_cosines_against_oracle(self):
        n = 240
        t = np.arange(n)
        x = 2 * np.cos(2 * np.pi * t / 24) + np.cos(2 * np.pi * t * 2 / 24)
        p = scaled_periodogram(x)
        expected = oracle_periodogram(x)
        assert np.max(np.abs(p.powers - expected)) < 1e-9
        j24 = np.argmin(np.abs(p.freqs - 1 / 24))
        j12 = np.argmin(np.abs(p.freqs - 1 / 12))
        assert abs(p.powers[j24] - 4.0) < 1e-6
        assert abs(p.powers[j12] - 1.0) < 1e-6

    def test_bin_layout(self):
        for n in (9, 10, 64, 101):
            p = scaled_periodogram(np.random.default_rng(n).normal(size=n))
            half = (n - 1) // 2
            assert len(p) == half
            assert np.allclose(p.freqs, np.arange(1, half + 1) / n)
            assert np.all(p.freqs < 0.5)
            assert np.all(p.freqs > 0)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=1024),
        amp=st.floats(min_value=0.01, max_value=100.0),
        phase=st.floats(min_value=0.0, max_value=6.28),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_exact_bin_recovery_property(self, n, amp, phase, seed):
        half = (n - 1) // 2
        j0 = 1 + seed % half
        t = np.arange(n)
        x = amp * np.cos(2 * np.pi * t * j0 / n + phase)
        p = scaled_periodogram(x)
        assert abs(p.powers[j0 - 1] - amp * amp) < 1e-6 * max(1.0, amp * amp)
        others = np.delete(p.powers, j0 - 1)
        if others.size:
            assert np.max(others) < 1e-9 * max(1.0, amp * amp)


class TestAggregatePeriodogram:
    def _ds(self, values):
        values = np.atleast_2d(values)
        names = tuple(f"c{i}" for i in range(values.shape[0]))
        return Dataset(values=values, channel_names=names)

    def test_single_window_matches_plain(self):
        x = np.random.default_rng(0).normal(size=128)
        agg = aggregate_periodogram(self._ds(x), 128)
        plain = scaled_periodogram(x)
        assert np.allclose(agg.powers, plain.powers, rtol=0, atol=1e-12)

    def test_identical_channels_average_to_same(self):
        x = np.random.default_rng(1).normal(size=256)
        two = self._ds(np.stack([x, x]))
        one = self._ds(x)
        a = aggregate_periodogram(two, 64)
        b = aggregate_periodogram(one, 64)
        assert np.allclose(a.powers, b.powers, rtol=0, atol=1e-12)

    def test_mean_over_windows_against_direct_average(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=300)
        w = 100
        agg = aggregate_periodogram(self._ds(x), w)
        parts = [scaled_periodogram(x[i * w : (i + 1) * w]).powers for i in range(3)]
        assert np.allclose(agg.powers, np.mean(parts, axis=0), atol=1e-12)

    def test_sine_power_concentration(self):
        rng = np.random.default_rng(3)
        n, w = 960, 240
        t = np.arange(n)
        rows = [np.sin(2 * np.pi * t / 24 + rng.uniform(0, 2 * np.pi)) for _ in range(3)]
        agg = aggregate_periodogram(self._ds(np.stack(rows)), w)
        j = np.argmin(np.abs(agg.freqs - 1 / 24))
        near = agg.powers[max(0, j - 1) : j + 2].sum()
        assert near >= 0.99 * agg.powers.sum()

    def test_window_too_long(self):
        with pytest.raises(WindowTooLong):
            aggregate_periodogram(self._ds(np.ones((1, 64))), 65)

    def test_window_too_short(self):
        with pytest.raises(InvalidWindow):
            aggregate_periodogram(self._ds(np.ones((1, 64))), 8)

    def test_default_window_len(self):
        assert default_window_len(50000) == 1024
        assert default_window_len(1024) == 1024
        assert default_window_len(1023) == 512
        assert default_window_len(16) == 16
        with pytest.raises(InvalidWindow):
            default_window_len(15)


class TestPcc:
    def _pg(self, powers, n=None):
        k = len(powers)
        denom = n if n is not None else 2 * k + 1
        freqs = np.arange(1, k + 1) / denom
        return Periodogram(freqs=freqs, powers=powers)

    def test_self_correlation_exactly_one(self):
        p = self._pg(np.random.default_rng(4).uniform(size=50))
        assert periodogram_pcc(p, p) == 1.0

    def test_affine_invariance(self):
        a = self._pg(np.random.default_rng(5).uniform(size=50))
        b = self._pg(2.0 * a.powers + 5.0)
        assert abs(periodogram_pcc(a, b) - 1.0) < 1e-12

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(6)
        a = self._pg(rng.uniform(size=40))
        b = self._pg(rng.uniform(size=40))
        r1, r2 = periodogram_pcc(a, b), periodogram_pcc(b, a)
        assert r1 == r2
        assert -1.0 <= r1 <= 1.0

    def test_different_grids_interpolated(self):
        # same single-peak shape on two grid resolutions correlates high
        x = np.sin(2 * np.pi * np.arange(4096) / 16)
        a = scaled_periodogram(x[:1024])
        b = scaled_periodogram(x[:2048])
        assert periodogram_pcc(a, b) > 0.9

    def test_constant_powers_degenerate(self):
        a = self._pg(np.ones(30))
        b = self._pg(np.random.default_rng(7).uniform(size=30))
        with pytest.raises(DegenerateSpectrum):
            periodogram_pcc(a, b)

    def test_white_noise_pairs_uncorrelated(self):
        rng = np.random.default_rng(8)
        low = 0
        for _ in range(100):
            x = rng.normal(size=1024)
            y = rng.normal(size=1024)
            a = aggregate_periodogram(
                Dataset(values=x[None, :], channel_names=("c",)), 256
            )
            b = aggregate_periodogram(
                Dataset(values=y[None, :], channel_names=("c",)), 256
            )
            low += abs(periodogram_pcc(a, b)) < 0.3
        assert low >= 95


class TestFindPeaks:
    def test_pure_sine_single_peak(self):
        t = np.arange(240)
        p = scaled_periodogram(np.sin(2 * np.pi * t / 24))
        peaks = find_peaks(p, 0.1)
        assert len(peaks) == 1
        assert abs(peaks[0][0] - 1 / 24) < 1e-12

    def test_two_sines_two_peaks(self):
        t = np.arange(240)
        x = 2 * np.sin(2 * np.pi * t / 24) + np.sin(2 * np.pi * t / 8)
        p = scaled_periodogram(x)
        peaks = find_peaks(p, 0.1)
        freqs = [f for f, _ in peaks]
        assert any(abs(f - 1 / 24) < 1e-12 for f in freqs)
        assert any(abs(f - 1 / 8) < 1e-12 for f in freqs)
        # oracle: exhaustive scan
        pw = p.powers
        expected = [
            i
            for i in range(len(pw))
            if (i == 0 or pw[i] > pw[i - 1])
            and (i == len(pw) - 1 or pw[i] > pw[i + 1])
            and pw[i] >= 0.1 * pw.max()
        ]
        assert [f for f, _ in peaks] == [float(p.freqs[i]) for i in expected]

    def test_zero_series_no_peak(self):
        p = scaled_periodogram(np.zeros(64))
        with pytest.raises(NoDominantFrequency):
            find_peaks(p, 0.1)

    def test_threshold_validation(self):
        p = scaled_periodogram(np.sin(2 * np.pi * np.arange(64) / 8))
        with pytest.raises(ValueError):
            find_peaks(p, 0.0)
        with pytest.raises(ValueError):
            find_peaks(p, 1.5)

    def test_plateau_is_one_peak_at_its_lowest_bin(self):
        freqs = np.array([0.1, 0.2, 0.3, 0.4])
        p = Periodogram(freqs=freqs, powers=np.array([1.0, 5.0, 5.0, 1.0]))
        assert find_peaks(p, 0.1) == [(0.2, 5.0)]
        # a lower plateau is a peak too; a run with a higher neighbour is not
        powers = np.array([3.0, 3.0, 1.0, 2.0, 2.0, 4.0, 0.5])
        p = Periodogram(freqs=np.arange(1, 8) / 16, powers=powers)
        assert find_peaks(p, 0.1) == [(1 / 16, 3.0), (6 / 16, 4.0)]
        flat = Periodogram(freqs=freqs, powers=np.full(4, 2.0))
        assert find_peaks(flat, 0.1) == [(0.1, 2.0)]

    def test_ascending_order(self):
        rng = np.random.default_rng(9)
        p = scaled_periodogram(rng.normal(size=257))
        peaks = find_peaks(p, 0.01)
        freqs = [f for f, _ in peaks]
        assert freqs == sorted(freqs)


class TestTypes:
    def test_periodogram_validation(self):
        with pytest.raises(ValueError):
            Periodogram(freqs=np.array([0.1, 0.1]), powers=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Periodogram(freqs=np.array([0.1, 0.6]), powers=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Periodogram(freqs=np.array([0.1]), powers=np.array([-1.0]))
        with pytest.raises(ValueError):
            Periodogram(freqs=np.array([0.1]), powers=np.array([1.0, 2.0]))

    def test_spectrum_read_only(self):
        s = dft([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.coeffs[0] = 0
