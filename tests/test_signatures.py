"""The public parameters and names of the package.

Each driver runs one fixed protocol; its constants are documented in
README's Experiments section.  The generators take their pool
hyperparameters from GeneratorConfig's defaults, finetune reuses the
pretrained model's ridge coefficient, and no non-test code sets the
other parameters these rows left out.  ``tests/public_census.py`` lists
what no non-test caller sets, uses or reads, and the last test here fails
while it lists anything without a recorded reason.  Adding a parameter, a
public name or a field back is a deliberate API change, so these tests pin
them.  The forecasters share one ``forecast`` contract, pinned here too.
"""

import contextlib
import inspect
import io
import os

import pytest

import freqsynth
import mutants
import public_census
from freqsynth import errors
from freqsynth import (
    Dataset,
    LinearForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
    Spectrum,
    TransferMatrix,
    WindowSet,
    build_datasets,
    confusion_experiment,
    finetune,
    freq_synth,
    freq_synth_mix,
    freq_synth_natural,
    generalization_experiment,
    harmonics_sweep,
    load_csv,
    minmax_scale_columns,
    size_variates_sweep,
    synthetic_registry,
)
from freqsynth.spectral import common_grid, default_window_len

WINDOWS = ("count_train", "count_val", "L", "H", "n", "d")

PARAMETERS = [
    (confusion_experiment, ("base_omega", "distractor_counts", "seed", "n")),
    (generalization_experiment, ("target_omega", "seed", "n")),
    (harmonics_sweep,
     ("targets", "h_values", "seed", "L", "H", "count_train", "n", "d")),
    (size_variates_sweep, ("sizes", "d_values", "target", "seed")),
    (synthetic_registry, ("seed", "n", "d")),
    (default_window_len, ("n",)),
    (common_grid, ()),
    (Dataset.slice_time, ("self", "start", "stop")),
    (freq_synth, ("omega_bar", "seed", *WINDOWS)),
    (freq_synth_natural, ("seed", *WINDOWS)),
    (freq_synth_mix, ("seed", *WINDOWS)),
    (build_datasets, ("laws", "seed", "n", "d")),
    (finetune, ("model", "fewshot", "anchor")),
    (load_csv, ("path",)),
    (WindowSet.__init__, ("self", "lookbacks", "horizons")),
    (Dataset.__init__, ("self", "values", "channel_names", "provenance")),
    (TransferMatrix.__init__, ("self", "ids", "raw")),
    (LinearForecaster.__init__, ("self", "weights", "lam", "model_id")),
    (Spectrum.__init__, ("self", "coeffs")),
    (minmax_scale_columns, ("raw",)),
]

PUBLIC_NAMES = [
    "Dataset", "EvalReport", "FreqSynthError", "FundamentalEstimate",
    "GeneratorConfig", "LinearForecaster", "MIX_FREQ_RANGE",
    "NATURAL_FREQUENCIES", "NaiveForecaster", "Periodogram", "RATE_TABLE",
    "SeasonalNaiveForecaster", "SineSpec", "Spectrum", "SplitSpec",
    "TransferMatrix", "WindowSet", "__version__", "aggregate_periodogram",
    "build_datasets", "build_pool", "confusion_experiment",
    "default_window_len", "dft", "estimate_fundamental", "evaluate_zero_shot",
    "find_peaks", "finetune", "fit_ridge", "freq_from_sampling_rate",
    "freq_synth", "freq_synth_mix", "freq_synth_natural",
    "generalization_experiment", "harmonic_set", "harmonics_sweep",
    "load_csv", "load_generator_config", "minmax_scale_columns",
    "model_from_json", "model_to_json", "parse_sampling_rate",
    "periodogram_pcc", "ridge_trainer", "sample_windows", "save_csv",
    "save_matrix_csv", "save_periodogram_csv", "save_reports_csv",
    "save_reports_json", "save_table_csv", "scaled_periodogram",
    "size_variates_sweep", "split", "standardize", "standardize_by_train",
    "synthesize", "synthetic_registry", "transfer_matrix", "windowset_metrics",
]


FORECASTERS = [NaiveForecaster, SeasonalNaiveForecaster, LinearForecaster]

@pytest.mark.parametrize("fn, names", PARAMETERS,
                         ids=[fn.__qualname__ for fn, _ in PARAMETERS])
def test_parameter_names(fn, names):
    assert tuple(inspect.signature(fn).parameters) == names


@pytest.mark.parametrize("cls", FORECASTERS, ids=lambda cls: cls.__name__)
def test_forecast_contract(cls):
    params = inspect.signature(cls.forecast).parameters
    assert tuple(params) == ("self", "X", "H", "out")
    assert params["H"].default is inspect.Parameter.empty
    assert params["out"].default is None


def test_naive_is_the_seasonal_naive_of_period_one():
    naive = NaiveForecaster()
    assert isinstance(naive, SeasonalNaiveForecaster)
    assert (naive.period, naive.model_id) == (1, "naive")


@pytest.mark.parametrize("cls", FORECASTERS, ids=lambda cls: cls.__name__)
def test_forecast_is_in_the_class_namespace(cls):
    """perfbench's stage tracer patches ``cls.__dict__["forecast"]`` on each
    forecaster class, so an inherited ``forecast`` breaks traced runs."""
    assert "forecast" in cls.__dict__


def test_public_names():
    assert sorted(freqsynth.__all__) == PUBLIC_NAMES


def test_census_finds_nothing_unexplained():
    """Every public parameter is set, and every public name used and field
    read, by non-test code, or kept with a recorded reason."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        status = public_census.main()
    assert status == 0, out.getvalue()


def test_census_reports_a_stale_kept_entry(monkeypatch):
    """A KEPT reason whose finding has gone fails the census too."""
    key = "name freqsynth.generator.no_such_name"
    monkeypatch.setitem(public_census.KEPT, key, "kept for a name that does not exist")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        status = public_census.main()
    assert status == 1
    assert f"stale: {key}" in out.getvalue()


def test_every_mutant_applies_once():
    """``tests/mutants.py`` can apply each registered mutant: its old text
    occurs exactly once in its file, and its test files exist."""
    stale = [f"{m.file}: {m.reason}" for m in mutants.MUTANTS
             if mutants.occurrences(m) != 1]
    assert not stale
    tests = {name for m in mutants.MUTANTS for name in m.tests}
    assert all(os.path.isfile(os.path.join(mutants.ROOT, "tests", t)) for t in tests)


def test_one_error_family_that_is_a_value_error():
    """Every library error is a FreqSynthError, which is a ValueError, so
    ``except ValueError`` catches them all; no other class in errors.py
    names ValueError as a base."""
    classes = [obj for obj in vars(errors).values()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__]
    assert errors.FreqSynthError.__bases__ == (ValueError,)
    for cls in classes:
        assert issubclass(cls, errors.FreqSynthError), cls
        if cls is not errors.FreqSynthError:
            assert ValueError not in cls.__bases__, cls
