"""The public parameters of the experiment drivers and spectral helpers.

Each driver runs one fixed protocol; its constants are documented in
README's Experiments section.  Adding a parameter back to one of these
functions is a deliberate API change, so this test pins their names.
"""

import inspect

import pytest

from freqsynth import (
    Dataset,
    confusion_experiment,
    generalization_experiment,
    harmonics_sweep,
    size_variates_sweep,
    synthetic_registry,
)
from freqsynth.spectral import common_grid, default_window_len, dft_naive

PARAMETERS = [
    (confusion_experiment, ("base_omega", "distractor_counts", "seed", "n")),
    (generalization_experiment, ("target_omega", "seed", "n")),
    (harmonics_sweep,
     ("targets", "h_values", "seed", "L", "H", "count_train", "n", "d")),
    (size_variates_sweep, ("sizes", "d_values", "target", "seed", "L", "H", "n")),
    (synthetic_registry, ("seed", "n", "d")),
    (default_window_len, ("n",)),
    (common_grid, ()),
    (dft_naive, ("x",)),
    (Dataset.slice_time, ("self", "start", "stop")),
]


@pytest.mark.parametrize("fn, names", PARAMETERS,
                         ids=[fn.__qualname__ for fn, _ in PARAMETERS])
def test_parameter_names(fn, names):
    assert tuple(inspect.signature(fn).parameters) == names
