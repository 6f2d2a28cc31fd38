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
``tests/reach_census.py`` lists the statements that no non-test caller
reaches, and the parameters that every call leaves at one value; its
run is a script, and the tests here check its reports and its recorded
reasons.
"""

import contextlib
import inspect
import io
import os
from collections import Counter

import pytest

import freqsynth
import mutants
import public_census
import reach_census
from freqsynth import errors
from freqsynth import (
    Dataset,
    LinearForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
    TransferMatrix,
    WindowSet,
    build_datasets,
    confusion_experiment,
    dft,
    estimate_fundamental,
    find_peaks,
    finetune,
    freq_synth,
    freq_synth_mix,
    freq_synth_natural,
    generalization_experiment,
    harmonics_sweep,
    load_csv,
    minmax_scale_columns,
    ridge_trainer,
    size_variates_sweep,
    synthetic_registry,
)
from freqsynth.spectral import common_grid, default_window_len

WINDOWS = ("count_train", "count_val", "L", "H", "n", "d")

PARAMETERS = [
    (confusion_experiment, ("distractor_counts", "seed", "n")),
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
    (finetune, ("model", "fewshot")),
    (estimate_fundamental, ("ds",)),
    (find_peaks, ("p",)),
    (ridge_trainer, ("L", "H", "count")),
    (load_csv, ("path",)),
    (WindowSet.__init__, ("self", "lookbacks", "horizons")),
    (Dataset.__init__, ("self", "values", "channel_names", "provenance")),
    (TransferMatrix.__init__, ("self", "ids", "raw")),
    (LinearForecaster.__init__, ("self", "weights", "lam", "model_id")),
    (dft, ("x",)),
    (minmax_scale_columns, ("raw",)),
]

PUBLIC_NAMES = [
    "Dataset", "EvalReport", "FreqSynthError", "FundamentalEstimate",
    "GeneratorConfig", "LinearForecaster", "MIX_FREQ_RANGE",
    "NATURAL_FREQUENCIES", "NaiveForecaster", "Periodogram", "RATE_TABLE",
    "SeasonalNaiveForecaster", "SineSpec", "SplitSpec",
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


def _reach_report(missed):
    """reach_census.report's status and printout for these unreached keys."""
    known = set(reach_census.every_key(reach_census.statements()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        status = reach_census.report(missed, known)
    return status, out.getvalue()


def test_every_kept_reach_entry_names_one_statement():
    """Each KEPT key of ``tests/reach_census.py`` names exactly one counted
    statement of ``src/freqsynth``."""
    keys = Counter(reach_census.every_key(reach_census.statements()))
    assert {key: keys[key] for key in reach_census.KEPT} == dict.fromkeys(
        reach_census.KEPT, 1)


def test_reach_census_passes_the_kept_statements():
    assert _reach_report(list(reach_census.KEPT))[0] == 0


def test_reach_census_reports_an_unexplained_statement(monkeypatch):
    missed = list(reach_census.KEPT)
    monkeypatch.delitem(reach_census.KEPT, missed[0])
    status, out = _reach_report(missed)
    assert status == 1
    assert out.startswith(f"{missed[0]}\n")


@pytest.mark.parametrize("named", [False, True], ids=["no statement", "reached"])
def test_reach_census_reports_a_stale_kept_entry(monkeypatch, named):
    """A KEPT reason for a statement that has gone, or that a caller
    reaches now, fails the census too."""
    key = next(iter(reach_census.KEPT)) if named else "cli.py: no_such_statement()"
    monkeypatch.setitem(reach_census.KEPT, key, "kept for a statement no census lists")
    status, out = _reach_report([k for k in reach_census.KEPT if k != key])
    assert status == 1
    why = "a statement that is not listed" if named else "no statement"
    assert f"stale: {key}  (a KEPT entry that names {why})" in out


def _value_report(single):
    """reach_census.value_report's status and printout when the keys of
    ``single`` each took one value and every other parameter took two."""
    known = reach_census.public_parameters()
    values = {key: {"1", "2"} for key in known}
    values.update((key, {"0.5"}) for key in single)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        status = reach_census.value_report(values, known)
    return status, out.getvalue()


def test_every_kept_value_names_a_public_parameter():
    """Each KEPT_VALUES key of ``tests/reach_census.py`` names a parameter
    of a public function or method, or a public dataclass field."""
    known = reach_census.public_parameters()
    assert {"estimate_fundamental(ds)", "WindowSet.block(hi)",
            "SeasonalNaiveForecaster(period)", "GeneratorConfig(omega_bar)"} <= known
    assert set(reach_census.KEPT_VALUES) <= known


def test_value_census_passes_the_kept_values():
    assert _value_report(reach_census.KEPT_VALUES)[0] == 0


def test_value_census_reports_an_unexplained_value(monkeypatch):
    single = list(reach_census.KEPT_VALUES)
    key = single[0]
    monkeypatch.delitem(reach_census.KEPT_VALUES, key)
    status, out = _value_report(single)
    assert status == 1
    assert f"value: {key} = 0.5\n" in out


@pytest.mark.parametrize("named", [False, True], ids=["no parameter", "two values"])
def test_value_census_reports_a_stale_kept_entry(monkeypatch, named):
    """A KEPT_VALUES reason for a parameter that has gone, or that takes
    more than one value now, fails the census too."""
    key = "estimate_fundamental(ds)" if named else "estimate_fundamental(bin_tol)"
    monkeypatch.setitem(reach_census.KEPT_VALUES, key, "kept for a knob no census lists")
    status, out = _value_report([k for k in reach_census.KEPT_VALUES if k != key])
    assert status == 1
    why = ("a parameter that took more than one value or none" if named
           else "no public parameter")
    assert f"stale: {key}  (a KEPT_VALUES entry that names {why})" in out


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
