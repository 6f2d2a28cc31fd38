"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import freqsynth as fs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _scratch_out(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads_run_py_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_is_correct_and_reports_declared_metrics(name, trace):
    out = run.run(name, seed=5, seconds=0, trace=trace, sizes=workloads.TINY,
                  setup_probes=1)
    result = out["result"]
    assert result["correct"], out["detail"]["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert out["detail"]["max_rel_err"] <= workloads.REL_TOL
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert json.loads(Path(out["file"]).read_text())["manifest"]["seed"] == 5


def test_layer_self_times_and_glue_add_up_to_traced_wall():
    out = run.run("experiments", seed=2, seconds=0, trace=1, sizes=workloads.TINY)
    m = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    layers = sum(m[f"{layer}.self_s"] for layer in ("generator", "spectral", "freqest",
                                                     "forecast", "evaluation", "dataio"))
    assert m["trace.glue_s"] >= 0
    assert layers + m["trace.glue_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["evaluation.train_callback_s"] > 0 and m["forecast.predict_calls"] > 0


def test_tracing_leaves_the_library_unpatched():
    synthesize, forecast = fs.synthesize, fs.LinearForecaster.forecast
    run.run("pipeline", seed=1, seconds=0, trace=1, sizes=workloads.TINY)
    assert fs.synthesize is synthesize
    assert fs.evaluation.fit_ridge is fs.forecast.fit_ridge
    assert fs.LinearForecaster.forecast is forecast


@pytest.mark.parametrize("name", ["pipeline", "train", "experiments"])
def test_forecasts_perturbed_by_1e6_are_caught(name, monkeypatch, tmp_path):
    for cls in (fs.LinearForecaster, fs.SeasonalNaiveForecaster):
        real = cls.forecast
        monkeypatch.setattr(cls, "forecast",
                            lambda self, X, H=None, real=real: real(self, X, H) + 1e-6)
    ops = workloads.Ops()
    workloads.WORKLOADS[name](ops, workloads.TINY[name], workloads.iteration_seeds(5, 0),
                              lambda trainer: trainer, str(tmp_path))
    failures = ops.verify()
    assert failures
    assert ops.max_rel_err > workloads.REL_TOL


def test_raising_call_counts_as_failed_operation(tmp_path):
    def broken(ops, z, seeds, wrap, tmpdir):
        ops(fs.GeneratorConfig, omega_bar=0.7)

    (it,) = run.run_iterations(broken, {}, 0, 0, 0, 1, str(tmp_path))
    assert it.attempted == 1 and len(it.failures) == 1


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
