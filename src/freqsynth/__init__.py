"""freqsynth: frequency-domain time-series toolkit.

Scaled-periodogram analysis, harmonic sine-pool synthesis with natural
and mixed-frequency variants, fundamental-frequency estimation, and a
desk-scale zero-/few-shot forecasting evaluation harness.
"""

from types import ModuleType as _ModuleType

from .dataio import (
    load_csv,
    load_generator_config,
    save_csv,
    save_matrix_csv,
    save_periodogram_csv,
    save_reports_csv,
    save_reports_json,
    save_table_csv,
)
from .dataset import Dataset, WindowSet
from .errors import FreqSynthError
from .evaluation import (
    EvalReport,
    TransferMatrix,
    confusion_experiment,
    evaluate_zero_shot,
    generalization_experiment,
    harmonics_sweep,
    minmax_scale_columns,
    ridge_trainer,
    size_variates_sweep,
    split,
    synthetic_registry,
    transfer_matrix,
    windowset_metrics,
)
from .forecast import (
    LinearForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
    finetune,
    fit_ridge,
    model_from_json,
    model_to_json,
)
from .freqest import (
    RATE_TABLE,
    FundamentalEstimate,
    estimate_fundamental,
    freq_from_sampling_rate,
    parse_sampling_rate,
)
from .generator import (
    MIX_FREQ_RANGE,
    NATURAL_FREQUENCIES,
    GeneratorConfig,
    build_datasets,
    build_pool,
    freq_synth,
    freq_synth_mix,
    freq_synth_natural,
    harmonic_set,
    sample_windows,
    standardize,
    standardize_by_train,
    synthesize,
)
from .spectral import (
    Periodogram,
    aggregate_periodogram,
    default_window_len,
    dft,
    find_peaks,
    periodogram_pcc,
    scaled_periodogram,
)

__version__ = "0.1.0"

# Every public name imported above, and __version__.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
