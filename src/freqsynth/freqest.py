"""Fundamental-frequency acquisition.

Two routes to a fundamental frequency omega_bar (cycles/step):

* a lookup table keyed by sampling-rate token, mapping each rate to its
  dominant seasonal cycle (sub-daily rates to the daily cycle, daily
  data to the weekly cycle), plus a ``custom:<k>`` escape for an
  explicit k-step period;
* a periodogram estimator that picks the lowest spectral peak backed by
  a harmonic partner, falling back to the strongest peak when no peak
  has harmonics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _frequency, _shown
from .errors import InsufficientData, InvalidPeriod, UnknownSamplingRate
from .spectral import aggregate_periodogram, default_window_len, find_peaks

# Steps per cycle for each supported sampling-rate token.  Sub-daily
# rates cycle daily; "1d" cycles weekly; "4s" cycles hourly.
RATE_TABLE: dict[str, int] = {
    "4s": 900,
    "1m": 1440,
    "5m": 288,
    "10m": 144,
    "15m": 96,
    "30m": 48,
    "1h": 24,
    "1d": 7,
}

# Harmonic multiples searched for a partner peak.
HARMONIC_RANGE = range(2, 6)

# Bins by which a partner peak may miss k times a peak's frequency.
BIN_TOL = 1

ESTIMATE_SOURCES = ("table", "periodogram")


@dataclass(frozen=True)
class FundamentalEstimate:
    """A fundamental frequency with its origin and a power-fraction score."""

    omega_bar: float
    source: str
    confidence: float

    def __post_init__(self):
        _frequency("omega_bar", self.omega_bar)
        if self.source not in ESTIMATE_SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(
                f"confidence must be in [0, 1], got {self.confidence}"
            )


def parse_sampling_rate(token: str) -> int:
    """Return steps per cycle for a rate token (case-insensitive).

    Accepts the fixed token set plus ``custom:<k>`` with integer k >= 3
    (k of 1 or 2 would put the fundamental at or above Nyquist).
    """
    tok = str(token).strip().lower()
    if tok in RATE_TABLE:
        return RATE_TABLE[tok]
    if tok.startswith("custom:"):
        body = tok[len("custom:") :]
        try:
            k = int(body)
        except ValueError:
            raise UnknownSamplingRate(
                f"custom rate needs an integer step count, got {_shown(body)}"
            ) from None
        if k < 3:
            raise InvalidPeriod(f"custom period must be >= 3 steps, got {_shown(k)}")
        return k
    raise UnknownSamplingRate(
        f"unknown sampling rate {_shown(token)}; expected one of "
        f"{sorted(RATE_TABLE)} or custom:<steps>"
    )


def freq_from_sampling_rate(rate: str) -> FundamentalEstimate:
    """Table lookup: omega_bar = 1 / (steps per cycle), confidence 1."""
    k = parse_sampling_rate(rate)
    return FundamentalEstimate(omega_bar=1.0 / k, source="table", confidence=1.0)


def estimate_fundamental(ds: Dataset) -> FundamentalEstimate:
    """Estimate the fundamental from the aggregate periodogram.

    Among find_peaks' peaks (at least 10% of the maximum power), the
    fundamental is the lowest-frequency peak with at least one harmonic
    partner: a peak within BIN_TOL (1) bin of k times its frequency for
    some k in HARMONIC_RANGE (2..5).  If no peak has a partner the
    strongest peak wins.  The confidence is the fraction of total power
    within BIN_TOL bins of the chosen frequency and its in-range
    harmonics.
    """
    if ds.n < 64:
        raise InsufficientData(
            f"need at least 64 samples to estimate a fundamental, got {ds.n}"
        )
    w = default_window_len(ds.n)
    pgram = aggregate_periodogram(ds, w)
    peaks = find_peaks(pgram)
    tol = (BIN_TOL + 1e-9) / w

    freqs = np.array([f for f, _ in peaks])
    powers = np.array([p for _, p in peaks])
    multiples = np.array(HARMONIC_RANGE)
    chosen = None
    for i, f in enumerate(freqs):
        partners = np.abs(freqs[:, None] - f * multiples[None, :]) <= tol
        partners[i, :] = False
        if partners.any():
            chosen = float(f)
            break
    if chosen is None:
        chosen = float(freqs[np.argmax(powers)])

    # Power captured by the chosen bin and its harmonics, each +- BIN_TOL.
    mask = np.zeros(len(pgram), dtype=bool)
    for k in (1, *HARMONIC_RANGE):
        target = k * chosen
        if target >= 0.5:
            break
        mask |= np.abs(pgram.freqs - target) <= tol
    total = pgram.total_power
    conf = float(pgram.powers[mask].sum() / total) if total > 0 else 0.0
    return FundamentalEstimate(
        omega_bar=chosen,
        source="periodogram",
        confidence=min(max(conf, 0.0), 1.0),
    )
