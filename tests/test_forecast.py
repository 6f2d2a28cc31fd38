"""Forecaster tests.

fit_ridge is checked against a numerical-optimizer oracle: the stated
objective (squared residual on instance-normalized windows plus the
ridge penalty) is written out here and minimized with scipy, then the
analytic solution must reach at least as low an objective value.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from freqsynth import forecast
from freqsynth import (
    LinearForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
    WindowSet,
    finetune,
    fit_ridge,
    model_from_json,
    model_to_json,
)
from freqsynth.errors import (
    EmptyTrainingSet,
    InvalidModel,
    InvalidPeriod,
    InvalidWindow,
    PeriodTooLong,
    ShapeMismatch,
)

import oracles

STD_FLOOR = 1e-8

# Declared bound on the exact (lam = 0) fit's move from lstsq to a thin SVD.
SVD_RTOL = 1e-12


def normalize_windows(ws):
    """Objective features exactly as the fitting contract states them."""
    mu = ws.lookbacks.mean(axis=1, keepdims=True)
    sd = np.maximum(ws.lookbacks.std(axis=1, keepdims=True), STD_FLOOR)
    z = (ws.lookbacks - mu) / sd
    phi = np.concatenate([z, np.ones((ws.count, 1))], axis=1)
    y = (ws.horizons - mu) / sd
    return phi, y


def ridge_objective(w_flat, phi, y, lam, H):
    w = w_flat.reshape(H, -1)
    resid = phi @ w.T - y
    return float(np.sum(resid * resid) + lam * np.sum(w * w))


def random_windows(n, L, H, seed):
    rng = np.random.default_rng(seed)
    return WindowSet(
        lookbacks=rng.normal(size=(n, L)), horizons=rng.normal(size=(n, H))
    )


def sine_windows(omega, n_windows, L, H, seed=0, amp=1.0):
    rng = np.random.default_rng(seed)
    t = np.arange(L + H)
    rows = amp * np.sin(
        2 * np.pi * omega * (t[None, :] + rng.integers(0, 10_000, size=(n_windows, 1)))
        + rng.uniform(0, 2 * np.pi, size=(n_windows, 1))
    )
    return WindowSet(lookbacks=rows[:, :L], horizons=rows[:, L:])


class TestNaive:
    def test_last_value_repeated(self):
        assert np.array_equal(NaiveForecaster().forecast([[1.0, 2.0, 7.0]], 3)[0], [7, 7, 7])

    def test_tiny(self):
        assert np.array_equal(NaiveForecaster().forecast([[1.0, 2.0]], 1)[0], [2.0])

    def test_constant_series_zero_mse(self):
        x = np.full(20, 3.3)
        out = NaiveForecaster().forecast(x[None, :10], 10)[0]
        assert np.max(np.abs(out - x[10:])) == 0.0

    def test_batch_shape(self):
        out = NaiveForecaster().forecast(np.ones((5, 8)), 4)
        assert out.shape == (5, 4)

    def test_empty_lookback(self):
        with pytest.raises(InvalidWindow):
            NaiveForecaster().forecast(np.empty((1, 0)), 3)[0]

    @pytest.mark.parametrize("cls", [NaiveForecaster, LinearForecaster])
    def test_one_dimensional_lookback_is_rejected(self, cls):
        model = cls() if cls is NaiveForecaster else cls(np.ones((2, 4)), 0.0)
        with pytest.raises(InvalidWindow, match=r"must be \(N, L\), got shape \(3,\)"):
            model.forecast([1.0, 2.0, 3.0], 2)

    def test_bad_horizon(self):
        with pytest.raises(InvalidWindow):
            NaiveForecaster().forecast([[1.0, 2.0]], 0)[0]


class TestSeasonalNaive:
    def test_hand_example(self):
        out = SeasonalNaiveForecaster(2).forecast([[1.0, 2.0, 3.0, 4.0]], 4)[0]
        assert np.array_equal(out, [3, 4, 3, 4])

    def test_period_one_is_naive(self):
        x = np.random.default_rng(0).normal(size=12)
        assert np.array_equal(
            SeasonalNaiveForecaster(1).forecast(x[None], 7)[0],
            NaiveForecaster().forecast(x[None], 7)[0],
        )

    def test_exact_sine_period_24(self):
        t = np.arange(192)
        x = np.sin(2 * np.pi * t / 24)
        out = SeasonalNaiveForecaster(24).forecast(x[None, :96], 96)[0]
        assert np.mean((out - x[96:]) ** 2) <= 1e-12

    def test_period_too_long(self):
        with pytest.raises(PeriodTooLong):
            SeasonalNaiveForecaster(4).forecast([[1.0, 2.0, 3.0]], 2)[0]

    def test_bad_period(self):
        with pytest.raises(InvalidPeriod):
            SeasonalNaiveForecaster(0)

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=16),
        reps=st.integers(min_value=2, max_value=6),
        H=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_periodic_signal_zero_error_property(self, p, reps, H, seed):
        cell = np.random.default_rng(seed).normal(size=p)
        x = np.tile(cell, reps + (H + p - 1) // p + 1)
        L = p * reps
        out = SeasonalNaiveForecaster(p).forecast(x[None, :L], H)[0]
        assert np.max(np.abs(out - x[L : L + H])) == 0.0

    @pytest.mark.parametrize(
        "L, p, H",
        [
            (20, 7, 5),      # H < p
            (20, 7, 7),      # H = p
            (20, 7, 28),     # H = k * p
            (20, 7, 29),     # H = k * p + 1
            (20, 20, 45),    # p = L
            (20, 1, 13),     # p = 1
            (96, 24, 720),
            (96, 24, 1),
        ],
    )
    @pytest.mark.parametrize("with_out", [False, True])
    def test_block_copies_equal_take(self, L, p, H, with_out):
        """The doubled block copies against the np.take gather they replace."""
        X = np.random.default_rng(L * H + p).normal(size=(9, L)) * 1e3 + 7.0
        want = np.take(X, L - p + (np.arange(H) % p), axis=1)
        out = np.full((9, H), np.nan) if with_out else None
        got = SeasonalNaiveForecaster(p).forecast(X, H, out=out)
        if with_out:
            assert got is out
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestFitRidge:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 3.0])
    def test_objective_matches_optimizer_oracle(self, lam):
        ws = random_windows(50, 8, 4, seed=1)
        model = fit_ridge(ws, lam)
        phi, y = normalize_windows(ws)
        ours = ridge_objective(model.weights.ravel(), phi, y, lam, 4)
        res = optimize.minimize(
            ridge_objective,
            np.zeros(4 * 9),
            args=(phi, y, lam, 4),
            method="L-BFGS-B",
            options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-12},
        )
        assert abs(ours - res.fun) < 1e-4 * max(1.0, abs(res.fun))
        assert ours <= res.fun + 1e-6

    def test_gradient_vanishes_at_solution(self):
        ws = random_windows(120, 8, 4, seed=2)
        model = fit_ridge(ws, 0.0)
        phi, y = normalize_windows(ws)
        grad = phi.T @ (phi @ model.weights.T - y)
        scale = np.linalg.norm(phi.T @ y)
        assert np.linalg.norm(grad) < 1e-6 * max(scale, 1.0)

    def test_affine_map_recovery(self):
        # targets exactly affine in the normalized lookback, lam = 0,
        # overdetermined: residual collapses and predictions reproduce
        # the raw targets through the de-normalization round trip
        rng = np.random.default_rng(3)
        L, H, N = 8, 4, 60
        A = rng.normal(size=(H, L))
        b = rng.normal(size=H)
        raw = rng.normal(loc=5.0, scale=2.0, size=(N, L))
        mu = raw.mean(axis=1, keepdims=True)
        sd = raw.std(axis=1, keepdims=True)
        z = (raw - mu) / sd
        horizons = (z @ A.T + b) * sd + mu
        ws = WindowSet(lookbacks=raw, horizons=horizons)
        model = fit_ridge(ws, 0.0)
        phi, y = normalize_windows(ws)
        resid = phi @ model.weights.T - y
        assert np.max(np.abs(resid)) < 1e-6
        preds = model.forecast(raw, model.H)
        assert np.max(np.abs(preds - horizons)) < 1e-6
        one = model.forecast(raw[0][None], model.H)[0]
        assert np.max(np.abs(one - preds[0])) < 1e-9

    def test_rank_deficient_exact_fit_is_minimum_norm(self):
        # windows of one sinusoid: z spans sin and cos, so the design
        # [z; 1] has rank 3 of L + 1 = 97 and lam = 0 has many solutions
        ws = sine_windows(1 / 24, 400, 96, 96, seed=5)
        phi, _ = normalize_windows(ws)
        assert np.linalg.matrix_rank(phi) == 3
        got, want = fit_ridge(ws, 0.0).weights, oracles.fit_ridge(ws, 0.0).weights
        assert np.max(np.abs(got - want)) <= SVD_RTOL * np.max(np.abs(want))
        assert np.linalg.norm(got) <= np.linalg.norm(want) * (1 + SVD_RTOL)
        # the minimum-norm solution has no component in the null space
        null = np.linalg.svd(phi)[2][3:]
        assert np.max(np.abs(got @ null.T)) <= SVD_RTOL * np.linalg.norm(got)

    def test_huge_lambda_shrinks_to_mean(self):
        ws = random_windows(80, 8, 4, seed=4)
        model = fit_ridge(ws, 1e9)
        assert np.max(np.abs(model.weights)) < 1e-3
        x = np.arange(1.0, 9.0)
        out = model.forecast(x[None], model.H)[0]
        assert np.max(np.abs(out - x.mean())) < 1e-2

    def test_pure_sine_heldout(self):
        train = sine_windows(1 / 24, 400, 96, 96, seed=5)
        test = sine_windows(1 / 24, 100, 96, 96, seed=6)
        model = fit_ridge(train)
        preds = model.forecast(test.lookbacks, model.H)
        assert np.mean((preds - test.horizons) ** 2) < 1e-3

    def test_empty_training_set(self):
        ws = WindowSet(lookbacks=np.empty((0, 8)), horizons=np.empty((0, 4)))
        with pytest.raises(EmptyTrainingSet):
            fit_ridge(ws, 0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            fit_ridge(random_windows(10, 4, 2, seed=0), -1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="^lam must be finite"):
            fit_ridge(random_windows(10, 4, 2, seed=0), lam)
        with pytest.raises(ValueError, match="^lam must be finite"):
            LinearForecaster(weights=np.zeros((2, 5)), lam=lam)

    def test_deterministic(self):
        ws = random_windows(64, 8, 4, seed=7)
        a, b = fit_ridge(ws, 0.1), fit_ridge(ws, 0.1)
        assert np.array_equal(a.weights, b.weights)


class TestPredict:
    def test_zero_weights_give_mean(self):
        model = LinearForecaster(weights=np.zeros((3, 5)), lam=0.0)
        out = model.forecast(np.array([2.0, 4.0, 6.0, 8.0])[None], 3)[0]
        assert np.allclose(out, 5.0, atol=1e-12)

    def test_length_mismatch(self):
        model = LinearForecaster(weights=np.zeros((3, 5)), lam=0.0)
        with pytest.raises(InvalidWindow):
            model.forecast(np.array([1.0, 2.0, 3.0])[None], 3)[0]

    def test_horizon_truncation(self):
        ws = random_windows(40, 8, 6, seed=8)
        model = fit_ridge(ws, 0.1)
        X = np.random.default_rng(9).normal(size=(5, 8))
        full = model.forecast(X, 6)
        assert np.array_equal(model.forecast(X, 4), full[:, :4])
        with pytest.raises(InvalidWindow):
            model.forecast(X, 7)
        with pytest.raises(InvalidWindow):
            model.forecast(X, 0)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(min_value=0.1, max_value=50.0),
        b=st.floats(min_value=-100.0, max_value=100.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_affine_equivariance_property(self, a, b, seed):
        ws = random_windows(30, 8, 4, seed=10)
        model = fit_ridge(ws, 0.2)
        x = np.random.default_rng(seed).normal(size=8)
        lhs = model.forecast((a * x + b)[None], 4)[0]
        rhs = a * model.forecast(x[None], 4)[0] + b
        scale = max(np.max(np.abs(rhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale


def anchored(model, few, anchor):
    """finetune's solve at any anchor: forecast._ridge with the pretrained
    lam and weights, as finetune calls it with DEFAULT_ANCHOR."""
    w, lam = forecast._ridge(few, model.lam, anchor, model.weights)
    return LinearForecaster(w, float(lam), f"{model.model_id}-finetuned")


class TestFinetune:
    def test_infinite_anchor_returns_pretrained(self):
        src = fit_ridge(random_windows(60, 8, 4, seed=11), 0.1)
        few = random_windows(10, 8, 4, seed=12)
        out = anchored(src, few, 1e9)
        assert np.max(np.abs(out.weights - src.weights)) < 1e-6

    def test_zero_anchor_is_fresh_fit(self):
        ws = random_windows(60, 8, 4, seed=13)
        src = fit_ridge(ws, 0.3)
        out = anchored(src, ws, 0.0)
        ref = fit_ridge(ws, 0.3)
        assert np.max(np.abs(out.weights - ref.weights)) < 1e-9

    def test_adaptation_helps_on_shifted_frequency(self):
        train = sine_windows(1 / 24, 600, 96, 96, seed=14)
        few = sine_windows(1 / 30, 60, 96, 96, seed=15)
        test = sine_windows(1 / 30, 200, 96, 96, seed=16)
        src = fit_ridge(train)
        tuned = finetune(src, few)
        assert tuned.model_id == "ridge-finetuned"
        mse_zero = np.mean((src.forecast(test.lookbacks, 96) - test.horizons) ** 2)
        mse_tuned = np.mean((tuned.forecast(test.lookbacks, 96) - test.horizons) ** 2)
        assert mse_tuned < mse_zero

    def test_shape_guard(self):
        src = fit_ridge(random_windows(20, 8, 4, seed=17), 0.1)
        with pytest.raises(ShapeMismatch):
            finetune(src, random_windows(5, 6, 4, seed=18))

    def test_empty_fewshot(self):
        src = fit_ridge(random_windows(20, 8, 4, seed=19), 0.1)
        empty = WindowSet(lookbacks=np.empty((0, 8)), horizons=np.empty((0, 4)))
        with pytest.raises(EmptyTrainingSet):
            finetune(src, empty)


class TestSerialization:
    def test_round_trip_exact(self):
        model = fit_ridge(random_windows(40, 8, 4, seed=20), 0.7)
        clone = model_from_json(model_to_json(model))
        assert np.array_equal(clone.weights, model.weights)
        assert (clone.L, clone.H, clone.lam) == (model.L, model.H, model.lam)

    def test_document_keys(self):
        import json

        model = fit_ridge(random_windows(10, 4, 2, seed=21), 0.0)
        doc = json.loads(model_to_json(model))
        assert set(doc) == {"L", "H", "lambda", "weights"}
        assert len(doc["weights"]) == 2 * 5

    @pytest.mark.parametrize("edit, field", [
        ({"L": None}, "'L'"), ({"H": None}, "'H'"), ({"lambda": None}, "'lambda'"),
        ({"weights": None}, "'weights'"), ({"H": 2.5}, "'H'"), ({"L": 0}, "'L'"),
        ({"H": "2"}, "'H'"), ({"lambda": float("nan")}, "'lambda'"),
        ({"lambda": -1.0}, "'lambda'"), ({"weights": [0.0] * 9}, "'weights'"),
        ({"weights": [0.0] * 9 + ["x"]}, "'weights'"),
        ({"weights": [0.0] * 9 + [float("inf")]}, "'weights'"),
    ])
    def test_bad_document_names_the_field(self, edit, field):
        import json

        doc = {"L": 4, "H": 2, "lambda": 0.5, "weights": [0.0] * 10}
        doc.update(edit)
        doc = {k: v for k, v in doc.items() if v is not None}
        with pytest.raises(InvalidModel, match=field):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("depth, words", [
        (500, "model must be a JSON object"),
        (1000, "maximum recursion depth exceeded"),
        (5000, "maximum recursion depth exceeded"),
    ])
    def test_deep_nesting_is_typed(self, depth, words):
        with pytest.raises(InvalidModel, match=f"^{words}"):
            model_from_json("[" * depth + "]" * depth)

    def test_weights_shape_guard(self):
        """L and H are read from the weights' shape, so a weight matrix
        needs a row and a bias column after at least one lookback column."""
        model = LinearForecaster(weights=np.zeros((3, 5)), lam=0.0)
        assert (model.L, model.H) == (4, 3)
        for shape in ((0, 5), (3, 1), (3, 0), (0, 0)):
            with pytest.raises(ShapeMismatch, match=rf"^weights shape \({shape[0]}, {shape[1]}\)"):
                LinearForecaster(weights=np.zeros(shape), lam=0.0)
        assert LinearForecaster(weights=np.zeros((1, 2)), lam=0.0).L == 1


# Fits fold the horizon normalization into their left operand
# (forecast._target_products), so they round differently from the oracle,
# which normalized every horizon first.  Weights are compared through
# their forecasts on the fit's own lookbacks: each design row's z sums to
# zero, so a small lam leaves a near-null weight direction that rounding
# moves (2e-8 relative at lam = 1e-6) but no forecast sees.  Measured
# gaps are at most 2e-15 here.
FIT_RTOL = 1e-12


def assert_same_fit(got, want, ws):
    """Forecasts on ``ws``'s lookbacks within FIT_RTOL of the largest one;
    lam and model id equal."""
    a, b = (m.forecast(ws.lookbacks, m.H) for m in (got, want))
    assert np.max(np.abs(a - b)) <= FIT_RTOL * np.max(np.abs(b))
    assert (got.lam, got.model_id) == (want.lam, want.model_id)


class TestRidgeSolveBitForBit:
    """fit_ridge and finetune against the code before they shared one
    Gram solve (tests/oracles.py).  They matched it bit for bit (lam > 0)
    until fits folded the horizon normalization into their left operand;
    now they match within FIT_RTOL, and finetune matches its solve
    forecast._ridge bit for bit."""

    @pytest.mark.parametrize("lam", [None, 0.0, 1e-6, 0.3, 40.0])
    def test_fit_ridge(self, lam):
        ws = random_windows(120, 12, 5, seed=21)
        got, want = fit_ridge(ws, lam), oracles.fit_ridge(ws, lam)
        assert_same_fit(got, want, ws)

    @pytest.mark.parametrize("anchor", [0.0, 1e-3, 1.0, 7.5])
    @pytest.mark.parametrize("lam", [None, 0.0, 0.2])
    def test_finetune(self, anchor, lam):
        # lam is the coefficient recorded on the pretrained model, which
        # finetune reuses; None keeps the fit's own 0.1
        model = fit_ridge(random_windows(200, 12, 5, seed=22), 0.1)
        if lam is not None:
            model = replace(model, lam=lam)
        few = random_windows(15, 12, 5, seed=23)
        got = anchored(model, few, anchor)
        assert_same_fit(got, oracles.finetune(model, few, anchor), few)
        if anchor == forecast.DEFAULT_ANCHOR:
            assert finetune(model, few).weights.tobytes() == got.weights.tobytes()
