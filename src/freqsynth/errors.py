"""Exception hierarchy.

Every contract violation raises a subclass of :class:`FreqSynthError`, a
``ValueError``, so callers can catch one base type at a pipeline boundary
while tests pin the specific failure mode.  Range and shape checks of an
argument, such as a frequency, a coefficient or a periodogram's grid, still
raise a bare ``ValueError`` naming what failed.
"""


class FreqSynthError(ValueError):
    """Base class for all library errors."""


# -- series / spectra -------------------------------------------------------

class InvalidSeries(FreqSynthError):
    """Series is too short or contains non-finite values."""


class WindowTooLong(FreqSynthError):
    """A requested window exceeds the available series length."""


class DegenerateSpectrum(FreqSynthError):
    """A power vector has zero variance; correlation is undefined."""


class NoDominantFrequency(FreqSynthError):
    """All periodogram powers are zero; no peak exists."""


# -- sampling rates ---------------------------------------------------------

class UnknownSamplingRate(FreqSynthError):
    """Sampling-rate token is not in the supported set."""


class InvalidPeriod(FreqSynthError):
    """Period (steps per cycle) is out of range."""


# -- generation -------------------------------------------------------------

class InvalidAmplitudeScale(FreqSynthError):
    """Expected amplitude must exceed the 0.01 shift and keep every render finite."""


class DegenerateChannel(FreqSynthError):
    """A channel has zero variance and cannot be standardized."""


class InsufficientData(FreqSynthError):
    """Requested more windows than distinct start positions exist."""


class TooManyPoints(FreqSynthError):
    """An array that synthesis would hold exceeds the generator's point budget."""


# -- forecasting ------------------------------------------------------------

class InvalidWindow(FreqSynthError):
    """Lookback window is empty or has the wrong length."""


class PeriodTooLong(FreqSynthError):
    """Seasonal period exceeds the lookback length."""


class EmptyTrainingSet(FreqSynthError):
    """A fit was requested on zero windows."""


class InvalidModel(FreqSynthError):
    """A serialized model is not a JSON object, lacks a field or holds a bad
    value in one; the CLI also raises it for a model file it cannot read."""


# -- evaluation -------------------------------------------------------------

class SplitTooSmall(FreqSynthError):
    """A chronological split segment is too short to evaluate."""


class ShapeMismatch(FreqSynthError):
    """Prediction and target arrays disagree in shape."""


# -- data IO ----------------------------------------------------------------

class MissingHeader(FreqSynthError):
    """CSV file has no header row."""


class RaggedRows(FreqSynthError):
    """CSV row has a different number of cells than the header.

    The message starts with the file's path; carries the 1-based ``row``
    index (data rows, header excluded).
    """

    def __init__(self, path: str, row: int, expected: int, got: int):
        self.row = row
        super().__init__(f"{path}: row {row} has {got} cells, expected {expected}")


class NonNumericCell(FreqSynthError):
    """CSV value cell failed to parse as a number, or parsed to NaN or an
    infinity (``kind="non-finite"``).

    The message starts with the file's path; carries 1-based ``row``
    (data rows, header excluded) and 1-based ``col`` (absolute, date
    column included).
    """

    def __init__(self, path: str, row: int, col: int, kind: str = "non-numeric"):
        self.row = row
        self.col = col
        super().__init__(f"{path}: {kind} cell at row {row}, col {col}")


class MalformedRow(FreqSynthError):
    """The csv module cannot read a CSV row, for example because one of
    its fields is longer than ``csv.field_size_limit()``.

    Carries the ``row`` index: 1-based over data rows, 0 for the header.
    """

    def __init__(self, path: str, row: int, reason: str):
        self.row = row
        super().__init__(f"{path}: row {row}: {reason}")


class InvalidEncoding(FreqSynthError):
    """A file that should hold UTF-8 text does not."""


class EmptyDataset(FreqSynthError):
    """Dataset has no channels or no samples."""


class InvalidConfig(FreqSynthError):
    """A generator config file is not UTF-8 JSON, not a JSON object, or sets
    unknown keys."""
