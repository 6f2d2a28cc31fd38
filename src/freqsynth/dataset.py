"""Core containers for multichannel series and forecasting windows.

A :class:`Dataset` is a d-channel real-valued series stored as a (d, n)
float64 matrix together with channel names and a free-text provenance
string.  A :class:`WindowSet` is a batch of (lookback, horizon) training
pairs cut from one or more datasets.  It holds no window tensor: it keeps one flat series and the start offset of
each window in it, and gathers blocks of windows on demand.

Both containers are frozen: the arrays they hold are marked read-only so
downstream code can share them without defensive copies.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSeries, InvalidWindow, ShapeMismatch


def _shown(value) -> str:
    """A value from a file or a flag, of any size, as an error shows it:
    reprlib's repr, which caps strings, numbers and nesting, in 80 characters."""
    try:
        text = reprlib.repr(value)
    except ValueError:  # an int past str's 4,300-digit limit, alone or nested
        return f"<{type(value).__name__} too large to show>"
    return text if len(text) <= 80 else text[:77] + "..."


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
        raise error(f"{name} must be an integer >= {lo}, got {_shown(value)}")
    return whole


def _freeze(a, name: str, ndim: int, dtype=np.float64) -> np.ndarray:
    """A read-only C-contiguous ``dtype`` copy of ``a`` for the field
    ``name``; InvalidSeries naming it unless ``ndim``-d and finite."""
    out = np.array(a, dtype=dtype, order="C", copy=True)
    if out.ndim != ndim:
        raise InvalidSeries(f"{name} must be {ndim}-d, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise InvalidSeries(f"{name} must be finite")
    out.setflags(write=False)
    return out


def _frequency(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is in (0, 0.5) cycles/step."""
    if not 0.0 < value < 0.5:
        raise ValueError(f"{name} must be in (0, 0.5), got {value}")


def _nonnegative(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is finite and >= 0."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class Dataset:
    """A d-channel series of length n with metadata.

    Fields
    ------
    values : (d, n) float64, read-only
    channel_names : tuple of d strings
    provenance : free text (generator config digest or source path)
    """

    values: np.ndarray
    channel_names: tuple[str, ...]
    provenance: str = ""

    def __post_init__(self):
        vals = _freeze(self.values, "values", 2)
        names = tuple(str(c) for c in self.channel_names)
        if len(names) != vals.shape[0]:
            raise ShapeMismatch(
                f"{len(names)} channel names for {vals.shape[0]} channels"
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


class WindowSet:
    """A batch of N (lookback, horizon) pairs, gathered on demand.

    The set holds one read-only 1-D series and an int64 vector of N
    start offsets: window i is the L + H values
    ``series[starts[i]:starts[i] + L + H]``.  It copies no window until
    asked: ``block(lo, hi)`` gathers windows lo..hi-1 as one
    (hi - lo, L + H) array, so a fit or a score can stream over blocks.

    Attributes
    ----------
    count, L, H : window count, lookback length and horizon length
    lookbacks : (N, L) float64, read-only, gathered on each access
    horizons : (N, H) float64, read-only, gathered on each access

    ``WindowSet(lookbacks=, horizons=)`` builds a set whose series is the
    ravelled ``[lookbacks | horizons]``; ``sample_windows`` builds sets
    over the sampled datasets' channels laid end to end.
    ``lookbacks`` and ``horizons`` gather the whole set, so library code
    reads blocks instead.
    """

    def __init__(self, lookbacks, horizons):
        lb = _freeze(lookbacks, "lookbacks", 2)
        hz = _freeze(horizons, "horizons", 2)
        if lb.shape[0] != hz.shape[0]:
            raise ShapeMismatch(
                f"{lb.shape[0]} lookbacks vs {hz.shape[0]} horizons"
            )
        if lb.shape[1] < 1 or hz.shape[1] < 1:
            raise InvalidSeries("lookback and horizon lengths must be >= 1")
        L, H = lb.shape[1], hz.shape[1]
        series = np.concatenate([lb, hz], axis=1).ravel()
        self._build(series, np.arange(lb.shape[0]) * (L + H), L, H)

    @classmethod
    def _over(cls, series, starts, L: int, H: int) -> "WindowSet":
        """A set over a 1-D ``series`` by window ``starts``; no window
        values are checked or copied."""
        ws = object.__new__(cls)
        ws._build(series, starts, L, H)
        return ws

    @classmethod
    def _concat(cls, sets: list["WindowSet"]) -> "WindowSet":
        """The windows of ``sets`` in order, over their series laid end to
        end."""
        shifts = np.cumsum([0] + [ws._series.size for ws in sets[:-1]])
        starts = [ws._starts + shift for ws, shift in zip(sets, shifts)]
        series = np.concatenate([ws._series for ws in sets])
        return cls._over(series, np.concatenate(starts), sets[0].L, sets[0].H)

    def _build(self, series, starts, L, H) -> None:
        series.setflags(write=False)
        starts = np.array(starts, dtype=np.int64, copy=True)
        starts.setflags(write=False)
        for name, value in (("_series", series), ("_starts", starts), ("L", L),
                            ("H", H)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"WindowSet is read-only; cannot set {name!r}")

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Windows lo..hi-1 as a fresh (hi - lo, L + H) array."""
        return self._take(lo, hi, 0, self.L + self.H)

    def _take(self, lo: int, hi: int, first: int, stop: int) -> np.ndarray:
        """Columns first..stop-1 of windows lo..hi-1, as a fresh array."""
        if not 0 <= lo <= hi <= self.count:
            raise IndexError(f"window range [{lo}, {hi}) outside [0, {self.count})")
        if lo == hi:  # an empty set's series may be shorter than one window
            return np.empty((0, stop - first))
        windows = np.lib.stride_tricks.sliding_window_view(
            self._series, self.L + self.H
        )
        return windows[self._starts[lo:hi], first:stop]

    def _frozen(self, first: int, stop: int) -> np.ndarray:
        whole = self._take(0, self.count, first, stop)
        whole.setflags(write=False)
        return whole

    @property
    def lookbacks(self) -> np.ndarray:
        return self._frozen(0, self.L)

    @property
    def horizons(self) -> np.ndarray:
        return self._frozen(self.L, self.L + self.H)

    @property
    def count(self) -> int:
        return self._starts.size
