"""Container validation tests."""

import numpy as np
import pytest

from freqsynth import (
    Dataset,
    LinearForecaster,
    Periodogram,
    TransferMatrix,
    WindowSet,
)
from freqsynth.dataset import _shown
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



def _fields():
    """(field, build, stored, good) per array field of the six value
    types: ``build`` makes the value with the given array in that field
    (``scaled`` is derived from the given ``raw``), ``stored`` reads the
    array the value keeps for it, and ``good`` is an array the field
    accepts."""
    lb, hz = np.ones((2, 4)), np.ones((2, 3))
    pg = {"freqs": np.array([0.1, 0.2, 0.3]), "powers": np.ones(3)}
    return [
        ("values", lambda a: Dataset(values=a, channel_names=("a", "b")),
         lambda v: v.values, np.ones((2, 5))),
        ("lookbacks", lambda a: WindowSet(lookbacks=a, horizons=hz),
         lambda v: v._series, lb),
        ("horizons", lambda a: WindowSet(lookbacks=lb, horizons=a),
         lambda v: v._series, hz),
        ("weights", lambda a: LinearForecaster(weights=a, lam=0.0),
         lambda v: v.weights, np.ones((2, 4))),
        *((name, lambda a, name=name: Periodogram(**{**pg, name: a}),
           lambda v, name=name: getattr(v, name), pg[name]) for name in pg),
        *((name, lambda a: TransferMatrix(ids=("a", "b"), raw=a),
           lambda v, name=name: getattr(v, name), np.array([[1.0, 2.0], [3.0, 5.0]]))
          for name in ("raw", "scaled")),
    ]


FIELDS = _fields()
# TransferMatrix checks its shape and then each cell before it freezes
CHECKED_BY_FREEZE = [f for f in FIELDS if f[0] not in ("raw", "scaled")]


@pytest.mark.parametrize("name, build, stored, good", FIELDS,
                         ids=[f[0] for f in FIELDS])
def test_stored_array_is_a_read_only_copy(name, build, stored, good):
    given = good.copy()
    kept = stored(build(given))
    assert not kept.flags.writeable
    assert not np.shares_memory(kept, given)
    before = kept.copy()
    given.flat[0] += 1.0
    assert np.array_equal(kept, before)


@pytest.mark.parametrize("name, build, stored, good", CHECKED_BY_FREEZE,
                         ids=[f[0] for f in CHECKED_BY_FREEZE])
def test_nan_and_wrong_ndim_raise_invalid_series_naming_the_field(
    name, build, stored, good
):
    bad = good.copy()
    bad.flat[-1] = np.nan
    with pytest.raises(InvalidSeries, match=f"^{name} must be finite$"):
        build(bad)
    deep = good.reshape((1,) * (3 - good.ndim) + good.shape)
    with pytest.raises(InvalidSeries, match=f"^{name} must be {good.ndim}-d, got ndim=3$"):
        build(deep)


def _nested(depth):
    value = 0.1
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("value", [0, -7, 2.5, "abc", None, True, [1, 2], np.float64(0.3)])
def test_shown_value_is_its_repr(value):
    assert _shown(value) == repr(value)


@pytest.mark.parametrize("value", [
    "h" * 3000, "é" * 3000, 10**3000, _nested(600), {"k" * 500: list(range(1000))},
    [["x" * 100] * 100] * 100,
], ids=["str", "non-ascii", "int", "nested", "dict", "lists"])
def test_shown_value_of_any_size_is_short(value):
    text = _shown(value)
    assert 0 < len(text) <= 80
    assert text[0] == repr(value)[0]


@pytest.mark.parametrize("value", [10**5000, [1, 10**5000]], ids=["int", "nested int"])
def test_shown_int_past_the_digit_limit_is_named_by_its_type(value):
    # str() of an int of more than 4,300 digits raises ValueError
    assert _shown(value) == f"<{type(value).__name__} too large to show>"
