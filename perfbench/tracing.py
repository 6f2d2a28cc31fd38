"""Spans around every public ``freqsynth`` call, and the per-layer metrics.

The traced run patches each public function of the six layer modules,
in every ``freqsynth`` module namespace that binds it, so calls between
modules are caught too.  ``forecast`` on the three forecaster classes is
patched at class level and recorded as ``forecast.predict``: that covers
the models the workload passes in and the ones the experiment drivers
fit internally.  The caller-supplied trainer callback gets a span through
``Tracer.wrap``.  Nothing is patched outside ``Tracer.instrument``, so
untraced runs call the library directly.

Spans stay in memory; ``run.py`` writes them as JSON lines at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("generator", "spectral", "freqest", "forecast", "evaluation", "dataio")

FORECASTERS = ("LinearForecaster", "NaiveForecaster", "SeasonalNaiveForecaster")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int | None
    counts: dict = field(default_factory=dict)


# Counters computed from a call's bound arguments and result.  Bytes are
# computed from array shapes, except dataio's, which are file sizes.
def _synthesize(a, out):
    m = len(a["pool"]) if a["pool"] is not None else a["cfg"].m
    return {"generator.points": out.d * out.n, "generator.pool_bytes": m * out.n * 8}


def _mix_datasets(a, out):
    # mix pools are rendered in place, not through synthesize
    return {"generator.points": sum(ds.d * ds.n for ds in out),
            "generator.pool_bytes": a["copies"] * a["m"] * a["n"] * 8}


def _sample_windows(a, out):
    count = a["count_train"] + a["count_val"]
    return {"generator.windows": count,
            "generator.window_bytes": count * (a["L"] + a["H"]) * 8}


def _design(ws):
    return {"forecast.design_bytes": ws.count * (ws.L + 1 + ws.H) * 8}


def _predict(a, out):
    rows, cols = out.shape
    flops = 2 * rows * (a["self"].L + 1) * cols if hasattr(a["self"], "weights") else 0
    return {"forecast.predict_rows": rows, "forecast.predict_flops": flops}


def _evaluate(a, out):
    return {"evaluation.windows": sum(r.windows for r in out),
            "evaluation.scored_points": sum(r.windows * r.horizon for r in out)}


def _bytes_written(a, out):
    return {"dataio.bytes_written": os.path.getsize(a["path"])}


COUNTERS = {
    "generator.synthesize": _synthesize,
    "generator.build_mix_datasets": _mix_datasets,
    "generator.sample_windows": _sample_windows,
    "forecast.fit_ridge": lambda a, out: _design(a["train"]),
    "forecast.finetune": lambda a, out: _design(a["fewshot"]),
    "forecast.predict": _predict,
    "evaluation.evaluate_zero_shot": _evaluate,
    "dataio.load_csv": lambda a, out: {"dataio.bytes_read": os.path.getsize(a["path"])},
}


class Tracer:
    """Records nested spans; ``iteration`` tags the spans opened next."""

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration: int | None = None
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        """``fn`` with a span called ``name`` around every call."""
        counter = COUNTERS.get(name)
        if name.startswith("dataio.save_"):
            counter = _bytes_written
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), 0.0, parent, self.iteration)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, out)
            return out

        return traced

    @contextmanager
    def instrument(self):
        """Patch spans into every public layer function for the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "freqsynth" or name.startswith("freqsynth.")]
        undo = []
        for layer in LAYERS:
            module = importlib.import_module(f"freqsynth.{layer}")
            for fname, fn in list(vars(module).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self.wrap(fn, f"{layer}.{fname}")
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            undo.append((m, attr, fn))
                            setattr(m, attr, traced)
        forecast = importlib.import_module("freqsynth.forecast")
        for cls_name in FORECASTERS:
            cls = getattr(forecast, cls_name)
            undo.append((cls, "forecast", cls.__dict__["forecast"]))
            cls.forecast = self.wrap(cls.__dict__["forecast"], "forecast.predict")
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list.

        Called between iterations, so ``parent`` indexes the iteration's
        own list.
        """
        spans, self.spans = self.spans, []
        return spans


# Each ``_s`` metric sums the self time of the spans with these names.
SELF_TIME = {
    "generator.synthesize_s": ("generator.synthesize",),
    "generator.freq_synth_s": (
        "generator.freq_synth", "generator.freq_synth_natural",
        "generator.freq_synth_mix", "generator.build_harmonic_datasets",
        "generator.build_natural_datasets", "generator.build_mix_datasets",
        "generator.build_pool", "generator.build_mix_pool",
        "generator.harmonic_set",
    ),
    "generator.sample_windows_s": ("generator.sample_windows",),
    "generator.standardize_s": ("generator.standardize",),
    "forecast.fit_s": ("forecast.fit_ridge", "forecast.default_lambda"),
    "forecast.finetune_s": ("forecast.finetune",),
    "forecast.predict_s": ("forecast.predict",),
    "evaluation.evaluate_s": ("evaluation.evaluate_zero_shot",),
    "evaluation.experiment_s": (
        "evaluation.transfer_matrix", "evaluation.harmonics_sweep",
        "evaluation.confusion_experiment", "evaluation.generalization_experiment",
        "evaluation.size_variates_sweep", "evaluation.synthetic_registry",
    ),
    "spectral.periodogram_s": ("spectral.aggregate_periodogram",
                               "spectral.scaled_periodogram"),
    "spectral.pcc_s": ("spectral.periodogram_pcc",),
    "freqest.estimate_s": ("freqest.estimate_fundamental",),
    "dataio.save_s": ("dataio.save_csv", "dataio.save_periodogram_csv",
                      "dataio.save_matrix_csv", "dataio.save_reports_csv",
                      "dataio.save_reports_json", "dataio.save_table_csv"),
    "dataio.load_s": ("dataio.load_csv",),
}

CALLS = {
    "generator.synthesize_calls": "generator.synthesize",
    "forecast.fit_calls": "forecast.fit_ridge",
    "forecast.predict_calls": "forecast.predict",
    "evaluation.evaluate_calls": "evaluation.evaluate_zero_shot",
    "spectral.periodogram_calls": "spectral.aggregate_periodogram",
    "freqest.estimate_calls": "freqest.estimate_fundamental",
}

COUNTS = (
    "generator.points", "generator.pool_bytes", "generator.windows",
    "generator.window_bytes", "forecast.design_bytes", "forecast.predict_rows",
    "forecast.predict_flops", "evaluation.windows", "evaluation.scored_points",
    "dataio.bytes_written", "dataio.bytes_read",
)


def iteration_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration lasting ``wall`` seconds.

    Self time is a span's duration minus its children's.  The spans
    nest, so the layers' ``self_s`` plus ``trace.glue_s`` (time outside
    every span: the benchmark's own code) add up to ``trace.wall_s``.
    """
    self_time = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            self_time[s.parent] -= s.end - s.start
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(t for s, t in zip(spans, self_time) if s.name in names)
    for metric, name in CALLS.items():
        out[metric] = sum(1 for s in spans if s.name == name)
    for key in COUNTS:
        out[key] = sum(s.counts.get(key, 0) for s in spans)
    # inclusive: the callback's own work is already split into fit and sampling
    out["evaluation.train_callback_s"] = sum(
        s.end - s.start for s in spans if s.name == "evaluation.train_callback")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, self_time) if s.name.startswith(layer + ".")
        )
    covered = sum(s.end - s.start for s in spans if s.parent is None)
    out["trace.glue_s"] = wall - covered
    out["trace.wall_s"] = wall
    return out


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over iterations."""
    return {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
