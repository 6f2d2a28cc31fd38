"""Container validation tests."""

import numpy as np
import pytest

from freqsynth import Dataset, WindowSet
from freqsynth.errors import InvalidSeries, ShapeMismatch


def make_ds(d=2, n=10, seed=0):
    vals = np.random.default_rng(seed).normal(size=(d, n))
    return Dataset(values=vals, channel_names=tuple(f"c{i}" for i in range(d)))


class TestDataset:
    def test_basic_properties(self):
        ds = make_ds(3, 7)
        assert ds.d == 3
        assert ds.n == 7
        assert ds.channel_names == ("c0", "c1", "c2")

    def test_values_read_only(self):
        ds = make_ds()
        with pytest.raises(ValueError):
            ds.values[0, 0] = 99.0

    def test_one_dim_rejected(self):
        with pytest.raises(InvalidSeries):
            Dataset(values=np.ones(5), channel_names=("a",))

    def test_name_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Dataset(values=np.ones((2, 5)), channel_names=("a",))

    def test_non_finite_rejected(self):
        vals = np.ones((1, 4))
        vals[0, 2] = np.inf
        with pytest.raises(InvalidSeries):
            Dataset(values=vals, channel_names=("a",))

    def test_slice_time(self):
        ds = make_ds(2, 10)
        sub = ds.slice_time(3, 8)
        assert sub.n == 5
        assert np.array_equal(sub.values, ds.values[:, 3:8])
        assert sub.channel_names == ds.channel_names


class TestWindowSet:
    def test_basic(self):
        lb = np.ones((4, 8))
        hz = np.zeros((4, 3))
        ws = WindowSet(lookbacks=lb, horizons=hz)
        assert ws.count == 4
        assert ws.L == 8
        assert ws.H == 3

    def test_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            WindowSet(lookbacks=np.ones((4, 8)), horizons=np.ones((3, 2)))

    def test_non_finite_rejected(self):
        lb = np.ones((2, 4))
        lb[1, 1] = np.nan
        with pytest.raises(InvalidSeries):
            WindowSet(lookbacks=lb, horizons=np.ones((2, 2)))

    def test_read_only(self):
        ws = WindowSet(lookbacks=np.ones((2, 4)), horizons=np.ones((2, 2)))
        with pytest.raises(ValueError):
            ws.lookbacks[0, 0] = 5.0
