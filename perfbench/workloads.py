"""The four benchmark workloads and the checks on their outputs.

Each workload is a function ``(ops, sizes, seeds, wrap, tmpdir)`` that
makes one iteration of public ``freqsynth`` calls through ``ops``.
``ops`` counts every call and collects the checks on its output; the
checks run after the timed region (see ``Ops.verify``).  ``seeds`` are
derived from the run's ``--seed``, so the library only ever sees
generated inputs.  ``wrap(trainer)`` lets the traced run put a span
around the caller-supplied trainer callback; untraced runs pass the
identity.

The reference recomputations below are deliberately plain numpy and
share no code with the library: they feed ``max_rel_err``.
"""

from __future__ import annotations

import os
from itertools import combinations

import numpy as np

import freqsynth as fs

# A library output may differ from its plain-numpy recomputation only by
# summation-order rounding; anything larger marks the operation failed.
REL_TOL = 1e-9

# The stated input sizes of each workload (recorded in every manifest).
SIZES = {
    "pipeline": {
        "omega": 1 / 24, "h": 3, "n": 50_000, "d": 5,
        "count_train": 5000, "L": 96, "horizons": (96, 192, 336, 720),
        "period": 24,
    },
    "train": {
        "omega": 1 / 24, "count_train": 20_000, "count_val": 2000,
        "L": 96, "H": 720, "n": 50_000, "d": 5,
        "target_n": 16_384, "target_d": 5, "eval_h": 96,
    },
    "experiments": {
        "registry_n": 8192, "registry_d": 4, "L": 96, "H": 96,
        "trainer_count": 256, "sweep_h": (1, 2, 3, 4),
        "target_n": 16_384, "target_d": 5, "sweep_n": 16_384,
        "sweep_d": 5, "sweep_count": 2000,
        "confusion_n": 4096, "confusion_counts": (0, 1, 2, 4, 8, 16),
        "generalization_n": 4096,
    },
    "analysis": {
        "fundamentals": (1 / 7, 1 / 24, 1 / 96), "h_values": (1, 3),
        "n": 50_000, "d": 5,
    },
}

# Small sizes for the benchmark's own smoke tests.
TINY = {
    "pipeline": {**SIZES["pipeline"], "n": 2048, "d": 2, "count_train": 200,
                 "horizons": (24, 48)},
    "train": {**SIZES["train"], "count_train": 300, "count_val": 60,
              "L": 48, "H": 48, "n": 1024, "d": 2, "target_n": 1024,
              "target_d": 2, "eval_h": 24},
    "experiments": {**SIZES["experiments"], "registry_n": 1024,
                    "registry_d": 2, "L": 48, "H": 24, "trainer_count": 64,
                    "sweep_h": (1, 2), "target_n": 1024, "target_d": 2,
                    "sweep_n": 1024, "sweep_d": 2, "sweep_count": 200,
                    "confusion_n": 1024, "confusion_counts": (0, 2),
                    "generalization_n": 1024},
    "analysis": {**SIZES["analysis"], "n": 2048, "d": 2},
}

SEEDS_PER_ITERATION = 4


def iteration_seeds(seed: int, iteration: int) -> list[int]:
    """Library seeds for one iteration, a pure function of the run seed."""
    state = np.random.SeedSequence([seed, iteration]).generate_state(
        SEEDS_PER_ITERATION, dtype=np.uint32
    )
    return [int(s) for s in state]


class Ops:
    """Counts one iteration's library calls and checks their outputs.

    An operation fails if its call raises or if any check registered
    after it fails.  Checks are closures run by ``verify``, after the
    timed region, so their cost never lands in ``wall_s``.
    """

    def __init__(self):
        self.attempted = 0
        self.max_rel_err = 0.0
        self._checks = []
        self._raised = None

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._raised = (self.attempted,
                            f"{fn.__name__} raised {type(exc).__name__}: {exc}")
            raise

    def aborted(self, exc: Exception) -> None:
        """Record the exception that ended the iteration.

        One raised outside any library call still counts as one failed
        operation, so a broken iteration never reads as zero attempts.
        """
        if self._raised is None:
            self.attempted += 1
            self._raised = (self.attempted, f"raised {type(exc).__name__}: {exc}")

    def check(self, what: str, predicate) -> None:
        """Attach ``predicate() -> bool`` to the last attempted call."""
        self._checks.append((self.attempted, what, predicate))

    def compare(self, what: str, got: float, reference) -> None:
        """Attach a relative-gap check of ``got`` against ``reference()``."""

        def gap_ok():
            ref = float(reference())
            gap = abs(float(got) - ref) / (abs(ref) if ref != 0.0 else 1.0)
            self.max_rel_err = max(self.max_rel_err, gap)
            return gap <= REL_TOL

        self.check(what, gap_ok)

    def verify(self) -> list[str]:
        """Run the checks; return one description per failed operation."""
        failures = {}
        if self._raised is not None:
            failures[self._raised[0]] = self._raised[1]
        for op, what, predicate in self._checks:
            try:
                ok = bool(predicate())
            except Exception as exc:  # a check that cannot run has failed
                ok, what = False, f"{what} ({type(exc).__name__}: {exc})"
            if not ok:
                failures.setdefault(op, f"check failed: {what}")
        self._checks = []
        return [failures[k] for k in sorted(failures)]


# ---------------------------------------------------------------- references


def _ref_linear_forecast(weights: np.ndarray, X: np.ndarray, h: int) -> np.ndarray:
    """Instance-normalized affine forecast, bias applied separately."""
    mu = X.mean(axis=1, keepdims=True)
    sd = np.maximum(X.std(axis=1, keepdims=True), 1e-8)
    y = ((X - mu) / sd) @ weights[:h, :-1].T + weights[:h, -1]
    return y * sd + mu


def ref_stride1_errors(weights, values, L: int, h: int, chunk: int = 4096):
    """(MSE, MAE) of a linear model over every stride-1 window."""
    sse = sae = 0.0
    total = 0
    for row in values:
        count = row.size - L - h + 1
        for lo in range(0, count, chunk):
            hi = min(lo + chunk, count)
            idx = np.arange(lo, hi)[:, None]
            X = row[idx + np.arange(L)]
            Y = row[idx + L + np.arange(h)]
            err = _ref_linear_forecast(weights, X, h) - Y
            sse += float((err**2).sum())
            sae += float(np.abs(err).sum())
            total += err.size
    return sse / total, sae / total


def ref_window_mse(weights, lookbacks, horizons, chunk: int = 4096) -> float:
    """MSE of a linear model over a window set."""
    sse = 0.0
    for lo in range(0, lookbacks.shape[0], chunk):
        pred = _ref_linear_forecast(weights, lookbacks[lo : lo + chunk], horizons.shape[1])
        sse += float(((pred - horizons[lo : lo + chunk]) ** 2).sum())
    return sse / horizons.size


def _once(compute):
    """Memoize a zero-argument reference so several checks share it."""
    memo = []

    def get():
        if not memo:
            memo.append(compute())
        return memo[0]

    return get


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _within_one_bin(ops, ds, omega_hat: float, omega: float, h: int) -> None:
    """The estimate lies within one bin of the true fundamental.

    With h >= 2 the fundamental's aggregate power can fall under the
    estimator's 10% peak threshold (about one seed in ten at h = 3), and
    then it documentedly returns a harmonic: there the estimate must lie
    within one bin of some k * omega, k <= h.
    """
    targets = [omega] if h == 1 else [k * omega for k in range(1, h + 1) if k * omega < 0.5]
    ops.check(
        f"fundamental {omega_hat:.6g} within one bin of "
        + " or ".join(f"{t:.6g}" for t in targets),
        lambda: min(abs(omega_hat - t) for t in targets) * fs.default_window_len(ds.n)
        <= 1 + 1e-9,
    )


def _check_windows(ops, reports, ds, L: int) -> None:
    for r in reports:
        ops.check(
            f"EvalReport.windows at h={r.horizon}",
            lambda r=r: r.windows == ds.d * (ds.n - L - r.horizon + 1),
        )


# ---------------------------------------------------------------- workloads


def pipeline(ops, z, seeds, wrap, tmpdir):
    """README-default CLI chain generate -> estimate -> fit -> evaluate."""
    cfg = fs.GeneratorConfig(omega_bar=z["omega"], h=z["h"], n=z["n"], d=z["d"],
                             seed=seeds[0])
    ds = ops(fs.synthesize, cfg)
    path = os.path.join(tmpdir, "pipeline.csv")
    ops(fs.save_csv, ds, path)
    loaded = ops(fs.load_csv, path)
    ops.check("CSV round trip is bitwise equal",
              lambda: _same_bits(loaded.values, ds.values)
              and loaded.channel_names == ds.channel_names)
    est = ops(fs.estimate_fundamental, loaded)
    _within_one_bin(ops, loaded, est.omega_bar, z["omega"], z["h"])

    L, horizons = z["L"], z["horizons"]
    train, _ = ops(fs.freq_synth, est.omega_bar, seeds[1],
                   count_train=z["count_train"], count_val=0, L=L, H=max(horizons))
    ops.check("train window count", lambda: train.count == z["count_train"])
    model = ops(fs.fit_ridge, train)
    target = ops(fs.standardize, loaded)

    ridge = ops(fs.evaluate_zero_shot, model, target, L, horizons)
    _check_windows(ops, ridge, target, L)
    h0 = ridge[0]
    ref_errors = _once(lambda: ref_stride1_errors(model.weights, target.values, L, h0.horizon))
    ops.compare(f"ridge MSE at h={h0.horizon}", h0.mse, lambda: ref_errors()[0])
    ops.compare(f"ridge MAE at h={h0.horizon}", h0.mae, lambda: ref_errors()[1])

    seasonal = fs.SeasonalNaiveForecaster(z["period"])
    naive = ops(fs.evaluate_zero_shot, seasonal, target, L, horizons)
    _check_windows(ops, naive, target, L)
    for r in naive:
        ops.check(f"seasonal:{z['period']} MSE below 1e-20 at h={r.horizon}",
                  lambda r=r: r.mse < 1e-20)


def train(ops, z, seeds, wrap, tmpdir):
    """Window synthesis and fitting for each training-data variant."""
    cfg = fs.GeneratorConfig(omega_bar=z["omega"], h=3, n=z["target_n"],
                             d=z["target_d"], seed=seeds[0])
    target = ops(fs.standardize, ops(fs.synthesize, cfg))
    sizes = {k: z[k] for k in ("count_train", "count_val", "L", "H", "n", "d")}
    for k, name in enumerate(("freq_synth", "freq_synth_natural", "freq_synth_mix")):
        lead = (z["omega"],) if name == "freq_synth" else ()
        tr, va = ops(getattr(fs, name), *lead, seeds[k + 1], **sizes)
        ops.check(f"{name} window counts",
                  lambda tr=tr, va=va: (tr.count, va.count) == (z["count_train"], z["count_val"]))
        model = ops(fs.fit_ridge, tr)
        ops(fs.fit_ridge, tr, 0.0)
        ops(fs.finetune, model, va)
        mse, _ = ops(fs.windowset_metrics, model, va)
        ops.compare(f"{name} validation MSE", mse,
                    lambda m=model, va=va: ref_window_mse(m.weights, va.lookbacks, va.horizons))
        reports = ops(fs.evaluate_zero_shot, model, target, z["L"],
                      (z["eval_h"],))
        _check_windows(ops, reports, target, z["L"])


def experiments(ops, z, seeds, wrap, tmpdir):
    """The paper's experiment drivers at one short horizon."""
    named = ops(fs.synthetic_registry, seeds[0], n=z["registry_n"], d=z["registry_d"])
    ids = [name for name, _ in named]
    datasets = [ds for _, ds in named]
    pgrams = [ops(fs.aggregate_periodogram, ds, fs.default_window_len(ds.n))
              for ds in datasets]
    for i, j in combinations(range(len(pgrams)), 2):
        pcc = ops(fs.periodogram_pcc, pgrams[i], pgrams[j])
        if ids[i].split("-")[0] == ids[j].split("-")[0]:
            ops.check(f"PCC of same-fundamental h=1 pair {ids[i]}/{ids[j]} >= 0.9",
                      lambda pcc=pcc: pcc >= 0.9)

    L, H = z["L"], z["H"]
    trainer = fs.ridge_trainer(L, H, count=z["trainer_count"])
    tm = ops(fs.transfer_matrix, datasets, wrap(trainer), L, H, ids=ids,
             seed=seeds[1])

    def ref_first_row():
        # transfer_matrix seeds row i's trainer with the i-th draw of
        # default_rng(seed); row 0 gets the first.
        child = int(np.random.default_rng(seeds[1]).integers(0, 2**63 - 1))
        weights = trainer(datasets[0], child).weights
        return [ref_stride1_errors(weights, ds.values, L, H)[0] for ds in datasets]

    ref_row = _once(ref_first_row)
    for j in range(len(datasets)):
        ops.compare(f"transfer raw[0, {j}]", tm.raw[0, j], lambda j=j: ref_row()[j])

    cfg = fs.GeneratorConfig(omega_bar=1 / 24, h=3, n=z["target_n"], d=z["target_d"],
                             seed=seeds[2])
    target = ops(fs.standardize, ops(fs.synthesize, cfg))
    rows = ops(fs.harmonics_sweep, [("target-h3", target)], z["sweep_h"], seed=seeds[3],
               L=L, H=H, count_train=z["sweep_count"], n=z["sweep_n"], d=z["sweep_d"])
    ops.check("one harmonics-sweep row per h",
              lambda: [h for h, _, _ in rows] == list(z["sweep_h"]))
    curve = ops(fs.confusion_experiment, distractor_counts=z["confusion_counts"],
                seed=seeds[3], n=z["confusion_n"])
    ops.check("one confusion point per count",
              lambda: [c for c, _ in curve] == list(z["confusion_counts"]))
    gen = ops(fs.generalization_experiment, 1 / 24, seed=seeds[3], n=z["generalization_n"])
    ops.check("generalization MSEs are finite",
              lambda: bool(np.all(np.isfinite(gen))))


def analysis(ops, z, seeds, wrap, tmpdir):
    """CSV-driven spectral analysis: generate, periodogram, estimate, similarity."""
    master = np.random.default_rng(seeds[0])
    pgrams = []
    for omega in z["fundamentals"]:
        for h in z["h_values"]:
            cfg = fs.GeneratorConfig(omega_bar=omega, h=h, n=z["n"], d=z["d"],
                                     seed=int(master.integers(0, 2**31)))
            ds = ops(fs.synthesize, cfg)
            path = os.path.join(tmpdir, f"w{round(1 / omega)}-h{h}.csv")
            ops(fs.save_csv, ds, path)
            loaded = ops(fs.load_csv, path)
            ops.check(f"CSV round trip of {os.path.basename(path)} is bitwise equal",
                      lambda a=loaded, b=ds: _same_bits(a.values, b.values))
            pg = ops(fs.aggregate_periodogram, loaded, fs.default_window_len(loaded.n))
            pg_path = path.replace(".csv", ".pgram.csv")
            ops(fs.save_periodogram_csv, pg, pg_path)
            ops.check(f"{os.path.basename(pg_path)} has one row per bin",
                      lambda p=pg_path, k=len(pg): _count_lines(p) == k + 1)
            est = ops(fs.estimate_fundamental, loaded)
            _within_one_bin(ops, loaded, est.omega_bar, omega, h)
            pgrams.append(pg)
    for a, b in combinations(pgrams, 2):
        pcc = ops(fs.periodogram_pcc, a, b)
        ops.check("PCC in [-1, 1]", lambda pcc=pcc: -1.0 <= pcc <= 1.0)


def _count_lines(path: str) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for _ in f)


WORKLOADS = {
    "pipeline": pipeline,
    "train": train,
    "experiments": experiments,
    "analysis": analysis,
}
