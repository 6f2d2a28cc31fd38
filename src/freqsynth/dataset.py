"""Core containers for multichannel series and forecasting windows.

A :class:`Dataset` is a d-channel real-valued series stored as a (d, n)
float64 matrix together with channel names, an optional sampling-rate tag,
and a free-text provenance string.  A :class:`WindowSet` is a batch of
(lookback, horizon) training pairs cut from one or more datasets.

Both containers are frozen: the arrays they hold are marked read-only so
downstream code can share them without defensive copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSeries, InvalidWindow, ShapeMismatch

# Tolerance for the standardized-flag contract: per-channel mean within
# STANDARDIZED_ATOL of 0 and population std within STANDARDIZED_ATOL of 1.
STANDARDIZED_ATOL = 1e-6

# A computed channel mean is off by up to about 2 * eps * |mean| (worst
# measured 1.7 over n = 100 .. 10^6), and centring by it leaves that error
# divided by the std as a mean offset in standardized units.  A channel
# whose std is at most this multiple of |mean| (about 9e-10) may not meet
# STANDARDIZED_ATOL, so standardization treats it as constant.
DEGENERATE_RTOL = 4 * np.finfo(np.float64).eps / STANDARDIZED_ATOL


def degenerate_channels(mean: np.ndarray, std: np.ndarray) -> list[int]:
    """Indices of channels, by their moments, that cannot be standardized:
    a zero std, or one within DEGENERATE_RTOL of the mean's magnitude."""
    return np.flatnonzero(std <= DEGENERATE_RTOL * np.abs(mean)).tolist()


def _whole_number(name: str, value, lo: int = 1, error=InvalidWindow) -> int:
    """``value`` as an int >= ``lo``; ``error`` naming it otherwise.

    Integral floats and numpy integers pass; bools do not.
    """
    try:
        whole = int(value)
        ok = not isinstance(value, (bool, np.bool_)) and whole == value and whole >= lo
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise error(f"{name} must be an integer >= {lo}, got {value!r}")
    return whole


def _freeze(a: np.ndarray) -> np.ndarray:
    """Return a float64 C-contiguous copy of ``a`` with the write flag off."""
    out = np.array(a, dtype=np.float64, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """A d-channel series of length n with metadata.

    Fields
    ------
    values : (d, n) float64, read-only
    channel_names : tuple of d strings
    rate : optional sampling-rate token (e.g. ``"1h"``), or None
    provenance : free text (generator config digest or source path)
    standardized : True once per-channel standardization has been applied
    """

    values: np.ndarray
    channel_names: tuple[str, ...]
    rate: str | None = None
    provenance: str = ""
    standardized: bool = False

    def __post_init__(self):
        vals = _freeze(self.values)
        if vals.ndim != 2:
            raise InvalidSeries(f"values must be 2-d (d, n), got ndim={vals.ndim}")
        if not np.all(np.isfinite(vals)):
            raise InvalidSeries("values must be finite")
        names = tuple(str(c) for c in self.channel_names)
        if len(names) != vals.shape[0]:
            raise ShapeMismatch(
                f"{len(names)} channel names for {vals.shape[0]} channels"
            )
        if self.standardized and vals.size:
            mean = vals.mean(axis=1)
            std = vals.std(axis=1)
            if np.max(np.abs(mean)) > STANDARDIZED_ATOL or np.max(
                np.abs(std - 1.0)
            ) > STANDARDIZED_ATOL:
                raise InvalidSeries(
                    "marked standardized but channel moments are off: "
                    f"max|mean|={np.max(np.abs(mean)):.3g}, "
                    f"max|std-1|={np.max(np.abs(std - 1.0)):.3g}"
                )
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "channel_names", names)

    @property
    def d(self) -> int:
        """Number of channels."""
        return self.values.shape[0]

    @property
    def n(self) -> int:
        """Series length."""
        return self.values.shape[1]

    def channel(self, name: str) -> np.ndarray:
        """Return the 1-d series for the named channel."""
        try:
            i = self.channel_names.index(name)
        except ValueError:
            raise KeyError(f"no channel named {name!r}") from None
        return self.values[i]

    def slice_time(self, start: int, stop: int) -> "Dataset":
        """Return the [start, stop) time slice as a new dataset.

        The slice keeps channel names, rate and provenance; the
        standardized flag is dropped because moments are no longer
        guaranteed on a sub-range.
        """
        if not 0 <= start < stop <= self.n:
            raise InvalidSeries(
                f"bad time slice [{start}, {stop}) for length {self.n}"
            )
        return Dataset(
            values=self.values[:, start:stop],
            channel_names=self.channel_names,
            rate=self.rate,
            provenance=self.provenance,
        )


@dataclass(frozen=True)
class WindowSet:
    """A batch of N (lookback, horizon) pairs.

    Fields
    ------
    lookbacks : (N, L) float64, read-only
    horizons : (N, H) float64, read-only
    origins : optional (N, 3) int64 of (dataset index, channel, start),
        recording where each window was cut; purely informational
    """

    lookbacks: np.ndarray
    horizons: np.ndarray
    origins: np.ndarray | None = field(default=None)

    def __post_init__(self):
        lb = _freeze(self.lookbacks)
        hz = _freeze(self.horizons)
        if lb.ndim != 2 or hz.ndim != 2:
            raise InvalidSeries("lookbacks and horizons must be 2-d (N, len)")
        if lb.shape[0] != hz.shape[0]:
            raise ShapeMismatch(
                f"{lb.shape[0]} lookbacks vs {hz.shape[0]} horizons"
            )
        if lb.shape[1] < 1 or hz.shape[1] < 1:
            raise InvalidSeries("lookback and horizon lengths must be >= 1")
        if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(hz))):
            raise InvalidSeries("window values must be finite")
        object.__setattr__(self, "lookbacks", lb)
        object.__setattr__(self, "horizons", hz)
        if self.origins is not None:
            org = np.array(self.origins, dtype=np.int64, copy=True)
            if org.shape != (lb.shape[0], 3):
                raise ShapeMismatch(
                    f"origins shape {org.shape}, expected ({lb.shape[0]}, 3)"
                )
            org.setflags(write=False)
            object.__setattr__(self, "origins", org)

    @property
    def count(self) -> int:
        return self.lookbacks.shape[0]

    @property
    def L(self) -> int:
        return self.lookbacks.shape[1]

    @property
    def H(self) -> int:
        return self.horizons.shape[1]

    def __len__(self) -> int:
        return self.count
