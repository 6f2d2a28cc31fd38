"""Every count, size, period and horizon argument is checked as a whole number.

One helper, dataset._whole_number, does the check: integral floats and
numpy integers pass, while fractions, bools (numpy's too), strings and
values below the minimum raise the error type the site already used,
with the message "<name> must be an integer >= <lo>, got <value!r>".
"""

import re

import numpy as np
import pytest

from freqsynth import (
    Dataset,
    GeneratorConfig,
    LinearForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
    aggregate_periodogram,
    build_datasets,
    confusion_experiment,
    default_window_len,
    evaluate_zero_shot,
    harmonic_set,
    harmonics_sweep,
    sample_windows,
    transfer_matrix,
)
from freqsynth.errors import InvalidPeriod, InvalidWindow

X = np.arange(48.0).reshape(2, 24)
DS = Dataset(values=np.sin(np.arange(600.0)).reshape(2, 300), channel_names=("a", "b"))
RIDGE = LinearForecaster(weights=np.ones((8, 25)), lam=0.0)


def never_trained(ds, seed):
    raise AssertionError("trainer called before validation")


CASES = [
    ("naive horizon", lambda: NaiveForecaster().forecast(X, 2.5),
     InvalidWindow, "horizon", "2.5"),
    ("naive horizon bool", lambda: NaiveForecaster().forecast(X, True),
     InvalidWindow, "horizon", "True"),
    ("ridge horizon", lambda: RIDGE.forecast(X, 2.5), InvalidWindow, "horizon", "2.5"),
    ("ridge horizon bool", lambda: RIDGE.forecast(X, True),
     InvalidWindow, "horizon", "True"),
    ("seasonal horizon", lambda: SeasonalNaiveForecaster(4).forecast(X, 2.5),
     InvalidWindow, "horizon", "2.5"),
    ("seasonal period", lambda: SeasonalNaiveForecaster(2.5),
     InvalidPeriod, "period", "2.5"),
    ("seasonal period string", lambda: SeasonalNaiveForecaster("24"),
     InvalidPeriod, "period", "'24'"),
    ("periodogram window", lambda: aggregate_periodogram(DS, 100.7),
     InvalidWindow, "window_len", "100.7", 16),
    ("periodogram window below 16", lambda: aggregate_periodogram(DS, 8),
     InvalidWindow, "window_len", "8", 16),
    ("default window", lambda: default_window_len(100.5),
     InvalidWindow, "series length n", "100.5", 16),
    ("harmonic count", lambda: harmonic_set(0.1, 2.5), ValueError, "h", "2.5"),
    ("distractor count", lambda: confusion_experiment(distractor_counts=(0, 2.5)),
     ValueError, "distractor count", "2.5", 0),
    ("negative distractor count", lambda: confusion_experiment(distractor_counts=(-1,)),
     ValueError, "distractor count", "-1", 0),
    ("sample lookback", lambda: sample_windows([DS], 4, 0, 8.5, 4, 0),
     InvalidWindow, "lookback L", "8.5"),
    ("sample horizon bool", lambda: sample_windows([DS], 4, 0, 8, True, 0),
     InvalidWindow, "horizon H", "True"),
    ("sample count_train", lambda: sample_windows([DS], 2.5, 0, 8, 4, 0),
     ValueError, "count_train", "2.5"),
    ("sample count_val", lambda: sample_windows([DS], 4, -1, 8, 4, 0),
     ValueError, "count_val", "-1", 0),
    ("evaluate lookback bool", lambda: evaluate_zero_shot(NaiveForecaster(), DS, True, (8,)),
     InvalidWindow, "lookback L", "True"),
    ("transfer horizon bool",
     lambda: transfer_matrix([DS, DS], never_trained, 24, True, ids=["a", "b"]),
     InvalidWindow, "horizon", "True"),
    ("config numpy bool", lambda: GeneratorConfig(omega_bar=0.1, d=np.True_),
     ValueError, "d", repr(np.True_)),
    ("config seed fraction", lambda: GeneratorConfig(omega_bar=0.1, seed=1.5),
     ValueError, "seed", "1.5", 0),
    ("config seed string", lambda: GeneratorConfig(omega_bar=0.1, seed="3"),
     ValueError, "seed", "'3'", 0),
    ("config seed bool", lambda: GeneratorConfig(omega_bar=0.1, seed=True),
     ValueError, "seed", "True", 0),
    ("config negative seed", lambda: GeneratorConfig(omega_bar=0.1, seed=-1),
     ValueError, "seed", "-1", 0),
    ("mix law size", lambda: build_datasets(["mix"], 0, n=2.5),
     ValueError, "n", "2.5", 2),
]


@pytest.mark.parametrize("call, error, name, shown, lo",
                         [c[1:] if len(c) == 6 else (*c[1:], 1) for c in CASES],
                         ids=[c[0] for c in CASES])
def test_bad_value_is_named_with_the_sites_error(call, error, name, shown, lo):
    message = f"{name} must be an integer >= {lo}, got {shown}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_whole_floats_and_numpy_integers_pass():
    assert NaiveForecaster().forecast(X, 3.0).shape == (2, 3)
    assert RIDGE.forecast(X, np.int64(5)).shape == (2, 5)
    assert SeasonalNaiveForecaster(np.int32(4)).period == 4
    assert GeneratorConfig(omega_bar=0.1, seed=np.int64(0)).seed == 0
    assert GeneratorConfig(omega_bar=0.1, seed=7.0).digest() == GeneratorConfig(
        omega_bar=0.1, seed=7
    ).digest()
    a, b = aggregate_periodogram(DS, 100.0), aggregate_periodogram(DS, 100)
    assert a.powers.tobytes() == b.powers.tobytes()
    train, val = sample_windows([DS], np.int64(4), 0.0, 8.0, np.int16(4), 0)
    assert (train.count, train.L, train.H, val.count) == (4, 8, 4, 0)


def test_drivers_score_with_the_checked_whole_numbers():
    # the window check's normalised L and H reach the scorer, whose
    # slices need ints: each result is hex-equal to the call with ints
    def sweep(L, H):
        rows = harmonics_sweep([("t", DS)], (1,), L=L, H=H, count_train=32, n=512, d=1)
        return [(h, tid, mse.hex()) for h, tid, mse in rows]

    assert sweep(48.0, np.int64(24)) == sweep(48, 24)

    def evaluate(L, horizons):
        return [(r.horizon, r.windows, r.mse.hex(), r.mae.hex())
                for r in evaluate_zero_shot(NaiveForecaster(), DS, L, horizons)]

    assert evaluate(48.0, (np.int64(24), 12.0)) == evaluate(48, (24, 12))
