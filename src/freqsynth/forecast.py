"""Desk-scale forecasters.

Three models share one calling convention, ``forecast(X, H, out=None)``
on a batch of N lookback rows; given an (N, H) float64 array ``out``,
the forecast is written into it and ``out`` is returned, so a caller
scoring many blocks can reuse one buffer.  All three are prefix-consistent,
as the evaluation harness requires of every model: ``forecast(X, H)[:, :h]``
equals ``forecast(X, h)`` up to rounding.

* seasonal naive: repeat the last full period of the lookback;
* naive: the seasonal naive of period 1, which repeats the last value;
* linear: an affine map from the instance-normalized lookback to the
  horizon, fit by ridge regression on pooled windows.

Instance normalization uses lookback-only statistics (mean and
population std, std floored at 1e-8), so predictions are equivariant
under positive affine rescaling of the input window and no target
information leaks into the features.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import WindowSet, _freeze, _nonnegative, _shown, _whole_number
from .errors import (
    EmptyTrainingSet,
    InvalidModel,
    InvalidPeriod,
    InvalidWindow,
    PeriodTooLong,
    ShapeMismatch,
)

# Floor applied to per-window std so constant lookbacks stay finite.
STD_FLOOR = 1e-8

# Relative weight of the default ridge coefficient against the mean
# feature second moment, trace(Phi' Phi) / (L + 1).
DEFAULT_LAMBDA_REL = 1e-3

# Weight of finetune's pull toward the pretrained weights.
DEFAULT_ANCHOR = 1.0

# Windows per block when a fit streams over a window set.
_FIT_BLOCK = 4096

# Horizon columns a fit gathers at once within a block; a multiple of 64.
_FIT_COLUMNS = 192


def _as_batch(X, L: int | None = None) -> np.ndarray:
    """Validate lookbacks as a finite (N, L) float64 batch."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise InvalidWindow(f"lookbacks must be (N, L), got shape {arr.shape}")
    if L is not None and arr.shape[1] != L:
        raise InvalidWindow(
            f"lookback length {arr.shape[1]} does not match model L={L}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidWindow("lookback values must be finite")
    return arr


def _design(
    X: np.ndarray, phi: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Design matrix [(X - mu) / sd, 1] of (N, L) lookbacks, with mu and sd.

    mu and sd are each row's mean and population std (floored); the
    matrix is built in one array, ``phi`` when given, with no
    concatenated copy.  sd comes from the centred columns already in
    phi, sqrt(sum((X - mu)**2) / L): the operations np.std performs, so
    it is bitwise np.std without its second mean pass.
    """
    mu = X.mean(axis=1, keepdims=True)
    if phi is None:
        phi = np.empty((X.shape[0], X.shape[1] + 1))
    z = phi[:, :-1]
    np.subtract(X, mu, out=z)
    sd = np.add.reduce(z * z, axis=1, keepdims=True)
    sd /= X.shape[1]
    np.sqrt(sd, out=sd)
    np.maximum(sd, STD_FLOOR, out=sd)
    z /= sd
    phi[:, -1] = 1.0
    return phi, mu, sd


class SeasonalNaiveForecaster:
    """Repeat the last full period of the lookback."""

    def __init__(self, period: int):
        self.period = _whole_number("period", period, error=InvalidPeriod)

    @property
    def model_id(self) -> str:
        return f"seasonal-naive-{self.period}"

    def forecast(self, X, H: int, out: np.ndarray | None = None) -> np.ndarray:
        H = _whole_number("horizon", H)
        arr = _as_batch(X)
        L = arr.shape[1]
        if self.period > L:
            raise PeriodTooLong(f"period {_shown(self.period)} exceeds lookback length {L}")
        if out is None:
            out = np.empty((arr.shape[0], H))
        # copy the last period once, then double the filled prefix, which
        # always holds whole periods
        filled = min(self.period, H)
        out[:, :filled] = arr[:, L - self.period : L - self.period + filled]
        while filled < H:
            step = min(filled, H - filled)
            out[:, filled : filled + step] = out[:, :step]
            filled += step
        return out


class NaiveForecaster(SeasonalNaiveForecaster):
    """Last-value carry-forward: the seasonal naive of period 1."""

    model_id = "naive"

    def __init__(self):
        super().__init__(1)

    # perfbench's stage tracer patches cls.__dict__["forecast"] on each
    # forecaster class, so the inherited method is bound here too
    forecast = SeasonalNaiveForecaster.forecast


@dataclass(frozen=True)
class LinearForecaster:
    """Affine map from normalized lookback to horizon.

    ``weights`` is H x (L + 1), and L and H are read from its shape; the
    last column multiplies the constant bias feature.  ``lam`` records
    the ridge coefficient used at fit time (informational after
    construction).
    """

    weights: np.ndarray
    lam: float
    model_id: str = "ridge"
    L: int = field(init=False)
    H: int = field(init=False)

    def __post_init__(self):
        w = _freeze(self.weights, "weights", 2)
        if w.shape[0] < 1 or w.shape[1] < 2:
            raise ShapeMismatch(f"weights shape {w.shape}, expected (H >= 1, L + 1 >= 2)")
        _nonnegative("lam", self.lam)
        for name, value in (("weights", w), ("H", w.shape[0]), ("L", w.shape[1] - 1)):
            object.__setattr__(self, name, value)

    def forecast(self, X, H: int, out: np.ndarray | None = None) -> np.ndarray:
        """Predict ``H`` steps for each lookback row.

        H below self.H truncates the prediction; above raises.
        """
        h = _whole_number("horizon", H)
        if h > self.H:
            raise InvalidWindow(
                f"horizon {h} outside this model's range [1, {self.H}]"
            )
        arr = _as_batch(X, self.L)
        phi, mu, sd = _design(arr)
        y = np.matmul(phi, self.weights[:h].T, out=out)
        y *= sd
        y += mu
        return y


def _design_blocks(ws: WindowSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pass 1 of a fit: the (N, L + 1) design of ``ws`` with per-row mu, sd.

    Lookbacks are gathered and designed _FIT_BLOCK windows at a time, so
    each block's design is built exactly once and no window tensor is
    held.
    """
    n = ws.count
    phi, mu, sd = np.empty((n, ws.L + 1)), np.empty((n, 1)), np.empty((n, 1))
    for lo in range(0, n, _FIT_BLOCK):
        hi = min(lo + _FIT_BLOCK, n)
        _, mu[lo:hi], sd[lo:hi] = _design(ws._take(lo, hi, 0, ws.L), phi[lo:hi])
    return phi, mu, sd


def _target_products(ws: WindowSet, left: np.ndarray, mu) -> np.ndarray:
    """Pass 2 of a fit: B' Y for B = ``left`` * sd, Y the horizons
    normalized by their stored mu and sd, folded as left' Y_raw - left' mu.

    The raw horizons are multiplied as gathered and mu is taken off once,
    so no horizon is normalized.  The mu term cancels, so the result is
    within about 1e-14 * (1 + max |mu| / sd) of its largest element of
    normalizing first (measured 6e-16 on standardized windows, 2e-11 on
    1e4 + sin, where |mu| / sd reaches 1.5e4).  Each block's horizons are
    gathered _FIT_COLUMNS at a time, and each column slice of left_b' Y_b
    is its own matmul: every element still sums over the block's windows
    in one order, so the products are those of whole blocks, bit for bit.
    """
    total, part = None, np.empty((left.shape[1], ws.H))
    for lo in range(0, ws.count, _FIT_BLOCK):
        hi = min(lo + _FIT_BLOCK, ws.count)
        for c0 in range(0, ws.H, _FIT_COLUMNS):
            c1 = min(c0 + _FIT_COLUMNS, ws.H)
            y = ws._take(lo, hi, ws.L + c0, ws.L + c1)
            np.matmul(left[lo:hi].T, y, out=part[:, c0:c1])
        if total is None:
            total = part.copy()
        else:
            total += part
    total -= left.T @ mu
    return total


def _min_norm(ws: WindowSet, phi: np.ndarray, mu, sd) -> np.ndarray:
    """Minimum-norm least-squares W of phi W' = Y, with lstsq's cutoff.

    A thin SVD phi = U diag(s) V' drops singular values at or below
    eps * max(N, L + 1) * s[0], as lstsq(rcond=None) does, and then
    W' = V diag(1/s) sum_b U_b' Y_b.
    """
    u, s, vt = np.linalg.svd(phi, full_matrices=False)
    rank = int(np.count_nonzero(s > np.finfo(np.float64).eps * max(phi.shape) * s[0]))
    u[:, :rank] /= sd
    rhs = _target_products(ws, u[:, :rank], mu)
    return (vt[:rank].T @ (rhs / s[:rank, None])).T


def default_lambda(phi: np.ndarray) -> float:
    """DEFAULT_LAMBDA_REL times the mean feature second moment."""
    return DEFAULT_LAMBDA_REL * float(np.einsum("ij,ij->", phi, phi)) / phi.shape[1]


def _ridge(ws: WindowSet, lam, anchor=0.0, w0=None) -> tuple[np.ndarray, float]:
    """(W, lam) minimizing sum ||W [z;1] - y_norm||^2 + lam ||W||_F^2
    + anchor ||W - w0||_F^2 over the windows of ``ws``.

    lam=None picks the relative default; lam + anchor = 0 solves exact
    least squares through a thin SVD of the design (minimum-norm on
    rank-deficient designs, with lstsq's singular-value cutoff); else the
    normal equations (phi' phi + (lam + anchor) I) W' = phi' Y + anchor w0'
    are solved directly.  Windows are read in blocks of _FIT_BLOCK: one
    pass designs the lookbacks, a second streams the raw horizons into
    the right-hand side, with phi divided by sd in place after the Gram.
    """
    if ws.count == 0:
        raise EmptyTrainingSet("cannot fit on an empty window set")
    phi, mu, sd = _design_blocks(ws)
    if lam is None:
        lam = default_lambda(phi)
    _nonnegative("lam", lam)
    if lam + anchor == 0.0:
        return _min_norm(ws, phi, mu, sd), lam
    gram = phi.T @ phi
    gram[np.diag_indices_from(gram)] += lam + anchor
    phi /= sd
    rhs = _target_products(ws, phi, mu)
    if anchor != 0.0:
        rhs += anchor * w0.T
    return np.linalg.solve(gram, rhs).T, lam


def fit_ridge(train: WindowSet, lam: float | None = None) -> LinearForecaster:
    """The ridge forecaster of ``train``'s windows: _ridge with no anchor."""
    w, lam = _ridge(train, lam)
    return LinearForecaster(weights=w, lam=float(lam))


def finetune(model: LinearForecaster, fewshot: WindowSet) -> LinearForecaster:
    """Refit on few-shot windows, penalized toward the pretrained weights.

    Solves sum ||W phi - y||^2 + lam ||W||_F^2 + a ||W - W0||_F^2 with
    a = DEFAULT_ANCHOR (1).  lam is the coefficient recorded on the
    pretrained model.
    """
    if fewshot.L != model.L or fewshot.H != model.H:
        raise ShapeMismatch(
            f"few-shot windows are L={fewshot.L}, H={fewshot.H}; "
            f"model expects L={model.L}, H={model.H}"
        )
    w, lam = _ridge(fewshot, model.lam, DEFAULT_ANCHOR, model.weights)
    return LinearForecaster(w, float(lam), f"{model.model_id}-finetuned")


def model_to_json(model: LinearForecaster) -> str:
    """Serialize as {L, H, lambda, weights row-major}; exact round-trip."""
    doc = {
        "L": model.L,
        "H": model.H,
        "lambda": model.lam,
        "weights": model.weights.ravel().tolist(),
    }
    return json.dumps(doc)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def model_from_json(text: str) -> LinearForecaster:
    """Inverse of model_to_json; InvalidModel names a missing or bad field, or deep nesting."""
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise InvalidModel(str(exc)) from None
    if not isinstance(doc, dict):
        raise InvalidModel("model must be a JSON object")
    for name in ("L", "H", "lambda", "weights"):
        if name not in doc:
            raise InvalidModel(f"model field {name!r} is missing")
    L, H = (
        _whole_number(f"model field {name!r}", doc[name], 1, InvalidModel)
        for name in ("L", "H")
    )
    lam, weights = doc["lambda"], doc["weights"]
    if not (_is_number(lam) and 0.0 <= lam < np.inf):
        raise InvalidModel(f"model field 'lambda' must be a finite number >= 0, got {_shown(lam)}")
    size = H * (L + 1)
    if not (isinstance(weights, list) and len(weights) == size):
        got = f"{len(weights)} entries" if isinstance(weights, list) else _shown(weights)
        raise InvalidModel(
            f"model field 'weights' must list H * (L + 1) = {size} numbers, got {got}"
        )
    if not all(_is_number(v) and np.isfinite(v) for v in weights):
        raise InvalidModel("model field 'weights' must hold finite numbers")
    w = np.array(weights, dtype=np.float64).reshape(H, L + 1)
    return LinearForecaster(weights=w, lam=float(lam))
