"""The public parameters and names of the package.

Each driver runs one fixed protocol; its constants are documented in
README's Experiments section.  The generators take their pool
hyperparameters from GeneratorConfig's defaults, finetune reuses the
pretrained model's ridge coefficient, and no non-test code sets the
other parameters these rows left out.  Adding a parameter, a public name
or a field back is a deliberate API change, so these tests pin them.  The
forecasters share one ``forecast`` contract, pinned here too.
``tests/census.py`` runs the non-test callers and lists each statement
they leave unreached, each parameter they leave at one value, each public
constant or class they never name and each field they never read;
``test_census_finds_nothing_unexplained`` fails while it lists anything
without a recorded reason or keeps a stale one, and
``test_census_report`` checks that report on made-up findings.
"""

import inspect
import os
import subprocess
import sys

import pytest

import census
import freqsynth
import mutants
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
    split,
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
    (split, ("ds", "train_frac", "val_frac", "min_len")),
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
    "SeasonalNaiveForecaster",
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
    """``tests/census.py`` finds no unreached statement, one-value
    parameter, unnamed name or unread field without a recorded reason, and
    no stale reason.  It runs in a fresh process: its trace must see the
    first import of freqsynth, which this process has made already."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tests", "census.py")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


KINDS = {"statement": "statement cli.py: run()", "value": "value fit(lam)",
         "name": "name freqsynth.cli.LIMIT", "field": "field freqsynth.cli.Spec.f"}


CASES = [(kind, case) for kind in KINDS for case in ("explained", "unexplained", "stale")]


@pytest.mark.parametrize("kind, case", CASES, ids=[f"{k}-{c}" for k, c in CASES])
def test_census_report(capsys, kind, case):
    """The report passes findings that an entry keeps, and fails on a
    finding that no entry keeps and on an entry's key that is not found
    while its other key is."""
    key, other = KINDS[kind], "statement cli.py: other()"
    detail = " = 0.5" if kind == "value" else ""
    findings, kept = {key: detail, other: ""}, {(key, other): "one reason"}
    if case == "unexplained":
        findings, kept = {key: detail}, {}
    elif case == "stale":
        del findings[key]
    status = census.report(findings, kept)
    out = capsys.readouterr().out
    if case == "explained":
        assert (status, out) == (0, f"kept: one reason\n    {key}{detail}\n    {other}\n")
    elif case == "unexplained":
        assert (status, out) == (1, f"{key}{detail}\n")
    else:
        assert status == 1
        assert out.endswith(f"stale: {key}  (a KEPT key that is not found)\n")


@pytest.mark.parametrize("named", [False, True], ids=["no statement", "reached"])
def test_reach_census_reports_a_stale_kept_entry(capsys, named):
    """A KEPT key for a statement that has gone, or that a caller reaches
    now, is not among the unreached statements, and fails the census."""
    run = census.Statement("cli.py", "statement cli.py: run()", 3, 3, ())
    other = census.Statement("cli.py", "statement cli.py: other()", 4, 4, ())
    found, hits = ((run, other), {("cli.py", 3)}) if named else ((other,), set())
    key = run.key if named else "statement cli.py: no_such_statement()"
    findings = dict.fromkeys(census.unreached(found, hits), "")
    assert findings == {other.key: ""}
    assert census.report(findings, {(key, other.key): "one reason"}) == 1
    assert capsys.readouterr().out.endswith(f"stale: {key}  (a KEPT key that is not found)\n")


@pytest.mark.parametrize("named", [False, True], ids=["no parameter", "two values"])
def test_value_census_reports_a_stale_kept_entry(capsys, named):
    """A KEPT key for a parameter that has gone, or that takes more than
    one value now, is not among the one-value parameters, and fails the
    census."""
    values = {"fit(lam)": {"0.5"}, "fit(h)": {"1", "2"}}
    findings = census.one_values(values, {"fit(lam)": 1.0, "fit(h)": 1})
    assert findings == {"value fit(lam)": " = 0.5"}
    key = "value fit(h)" if named else "value fit(no_such_parameter)"
    assert census.report(findings, {(key, "value fit(lam)"): "one reason"}) == 1
    assert capsys.readouterr().out.endswith(f"stale: {key}  (a KEPT key that is not found)\n")


def test_census_value_of_a_default_object():
    """A parameter that every call left at its default object is one-valued
    whatever the object's type; another object of that type is no value."""
    default, other = [], []
    values = {"f(a)": {census._value(default)}, "f(b)": {census._value(other)},
              "f(c)": {census._value(1)}}
    defaults = {"f(a)": default, "f(b)": default, "f(c)": 2}
    assert census.one_values(values, defaults) == {"value f(a)": " = []", "value f(c)": " = 1"}


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
