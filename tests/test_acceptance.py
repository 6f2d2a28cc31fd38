"""Acceptance gate: one check per shipped guarantee.

Each test prints a single verdict line (PASS/FAIL plus the measured
statistic and wall time) before asserting, so a full run reads as a
checklist.  Runtime budgets are part of the contract and asserted.

When the environment variable FREQSYNTH_ACCEPTANCE_JSON names a path, the
run also writes each check's measured values, with the threshold each must
meet, to that file as JSON (ACCEPTANCE.json at the repository root is one
such file), so a change that moves a finding toward its threshold shows
before it fails.  Without the variable nothing is written, and each check
instead compares its verdict and its integer readings (pairs, hits, wins,
seeds, mismatches) with the committed ACCEPTANCE.json, and fails naming
the check and the command that regenerates the file when one differs.
Float readings move with rounding and wall times with the host, so they
are not compared.  The comparison runs as each verdict is recorded, so a
``-k`` subset checks its own checks.  The file's ``machine`` block names
the build it was measured on (numpy, its BLAS, the CPU architecture); on
another build each check still asserts its verdict, but prints one line
saying so instead of comparing its integer readings.
"""

import json
import os
import platform
import time

import numpy as np
import pytest
from scipy import stats

from freqsynth import (
    GeneratorConfig,
    SeasonalNaiveForecaster,
    WindowSet,
    Dataset,
    aggregate_periodogram,
    build_pool,
    default_window_len,
    dft,
    estimate_fundamental,
    evaluate_zero_shot,
    finetune,
    fit_ridge,
    freq_from_sampling_rate,
    freq_synth,
    generalization_experiment,
    confusion_experiment,
    harmonics_sweep,
    periodogram_pcc,
    ridge_trainer,
    scaled_periodogram,
    standardize,
    synthesize,
    synthetic_registry,
    transfer_matrix,
    windowset_metrics,
)
from freqsynth.cli import main as cli_main
from oracles import dft_naive


MARGINS = {}

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "ACCEPTANCE.json"), encoding="utf-8") as _fh:
    COMMITTED = json.load(_fh)

REGENERATE = ("FREQSYNTH_ACCEPTANCE_JSON=ACCEPTANCE.json "
              "PYTHONPATH=src python -m pytest tests/test_acceptance.py")

_BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
# The build whose rounding the readings come from.
MACHINE = {"numpy": np.__version__, "blas": f"{_BLAS['name']} {_BLAS['version']}",
           "platform": platform.machine()}


@pytest.fixture(scope="module", autouse=True)
def margins_file():
    """Write the checks' measured values once the module has run."""
    MARGINS.clear()
    yield
    path = os.environ.get("FREQSYNTH_ACCEPTANCE_JSON")
    if path:
        entries = sorted({**MARGINS, "machine": MACHINE}.items())
        lines = (f" {json.dumps(k)}: {json.dumps(v)}" for k, v in entries)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def verdict(num, ok, desc, **values):
    """Print and assert one check.  Each of ``values`` is a measured
    number, or a (number, threshold) pair such as (9, ">= 9")."""
    def entry(v):
        value, *need = v if isinstance(v, tuple) else (v,)
        value = value.item() if isinstance(value, np.generic) else value
        return {"value": value, **({"need": need[0]} if need else {})}

    MARGINS[f"C{num:02d}"] = {
        "pass": bool(ok), "values": {name: entry(v) for name, v in values.items()}
    }
    print(f"ACCEPTANCE C{num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"C{num:02d} failed: {desc}"
    if not os.environ.get("FREQSYNTH_ACCEPTANCE_JSON"):
        compare_with_committed(f"C{num:02d}", MARGINS[f"C{num:02d}"], COMMITTED)


def compare_with_committed(key, check, committed):
    """Assert that ``check``'s verdict and integer readings equal those of
    ``committed[key]`` when ``committed`` was measured on this build, and
    print one line saying the comparison is skipped when it was not."""
    if committed.get("machine") != MACHINE:
        print(f"{key}: integer readings not compared: ACCEPTANCE.json was measured on "
              f"{json.dumps(committed.get('machine'))}, this build is {json.dumps(MACHINE)}")
        return
    now, then = _counts(check), _counts(committed.get(key))
    assert now == then, (
        f"{key} moved from the committed ACCEPTANCE.json: {now} != {then}; "
        f"if the move is meant, regenerate the file with `{REGENERATE}`")


def _counts(check):
    """A check's verdict and integer readings, or None for no check."""
    if check is None:
        return None
    return {"pass": check["pass"], **{name: v["value"] for name, v in check["values"].items()
                                      if type(v["value"]) is int}}


def test_a_file_from_another_build_is_not_compared(capsys):
    check = {"pass": True, "values": {"hits": {"value": 3, "need": ">= 9"}}}
    other = {"machine": {**MACHINE, "numpy": "0.0"}, "C99": {"pass": True, "values": {}}}
    compare_with_committed("C99", check, other)
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("C99: integer readings not compared")
    with pytest.raises(AssertionError, match="C99 moved from the committed"):
        compare_with_committed("C99", check, {**other, "machine": MACHINE})


def test_c01_periodogram_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_peak = worst_leak = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 2049))
        half = (n - 1) // 2
        j0 = int(rng.integers(1, half + 1))
        amp = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        phase = float(rng.uniform(0, 2 * np.pi))
        t = np.arange(n)
        x = amp * np.cos(2 * np.pi * t * j0 / n + phase)
        p = scaled_periodogram(x)
        worst_peak = max(worst_peak, abs(p.powers[j0 - 1] - amp * amp))
        others = np.delete(p.powers, j0 - 1)
        if others.size:
            worst_leak = max(worst_leak, float(others.max()))
    el = time.perf_counter() - t0
    ok = worst_peak <= 1e-6 and worst_leak < 1e-9 and el < 5.0
    verdict(
        1,
        ok,
        "periodogram exactness on 100 random bin cosines "
        f"(peak err {worst_peak:.2e} <= 1e-6, leak {worst_leak:.2e} < 1e-9, "
        f"{el:.2f}s < 5s)",
        peak_err=(worst_peak, "<= 1e-6"),
        leak=(worst_leak, "< 1e-9"),
        seconds=(el, "< 5"),
    )


def test_c02_parseval_and_naive_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    sizes = list(rng.integers(2, 1025, size=46)) + [2048, 3000, 4095, 4096]
    worst_pars = worst_agree = 0.0
    for n in sizes:
        x = rng.normal(size=int(n))
        fast = dft(x)
        slow = dft_naive(x)
        energy = float(np.sum(x * x))
        worst_pars = max(
            worst_pars, abs(energy - float(np.sum(np.abs(fast) ** 2))) / energy
        )
        scale = max(float(np.max(np.abs(fast))), 1e-300)
        worst_agree = max(
            worst_agree, float(np.max(np.abs(fast - slow))) / scale
        )
    el = time.perf_counter() - t0
    ok = worst_pars <= 1e-9 and worst_agree <= 1e-9 and el < 10.0
    verdict(
        2,
        ok,
        "Parseval and fast/naive transform agreement on 50 series "
        f"(parseval {worst_pars:.2e}, agreement {worst_agree:.2e}, "
        f"both <= 1e-9 rel, {el:.2f}s < 10s)",
        parseval=(worst_pars, "<= 1e-9"),
        agreement=(worst_agree, "<= 1e-9"),
        seconds=(el, "< 10"),
    )


def test_c03_sampling_rate_table():
    pairs = {
        "5m": 288,
        "10m": 144,
        "15m": 96,
        "30m": 48,
        "1h": 24,
        "1d": 7,
    }
    exact = sum(
        freq_from_sampling_rate(tok).omega_bar == 1.0 / k
        for tok, k in pairs.items()
    )
    ok = exact == len(pairs)
    verdict(3, ok, "sampling-rate table pairs exact (5m,10m,15m,30m,1h,1d)",
            exact_pairs=(exact, "== 6"))


def test_c04_fundamental_recovery():
    t0 = time.perf_counter()
    results = {}
    for omega in (1 / 7, 1 / 24, 1 / 48, 1 / 96):
        hits = 0
        for seed in range(10):
            cfg = GeneratorConfig(omega_bar=omega, h=3, seed=seed)
            est = estimate_fundamental(synthesize(cfg))
            w = default_window_len(cfg.n)
            hits += abs(est.omega_bar - omega) <= 1.0 / w
        results[omega] = hits
    el = time.perf_counter() - t0
    ok = all(h >= 9 for h in results.values()) and el < 60.0
    detail = ", ".join(f"1/{round(1 / w)}: {h}/10" for w, h in results.items())
    verdict(
        4,
        ok,
        f"fundamental recovery within one bin ({detail}; "
        f"need >= 9/10 each, {el:.1f}s < 60s)",
        **{f"hits_1_{round(1 / w)}": (h, ">= 9") for w, h in results.items()},
        seconds=(el, "< 60"),
    )


def test_c05_generalization_gap():
    t0 = time.perf_counter()
    wins = 0
    ratios = []
    for seed in range(10):
        mse_with, mse_without = generalization_experiment(1 / 24, seed=seed)
        ratio = mse_without / mse_with if mse_with > 0 else float("inf")
        ratios.append(ratio)
        wins += mse_with < mse_without and ratio >= 10.0
    el = time.perf_counter() - t0
    ok = wins >= 9 and el < 60.0
    verdict(
        5,
        ok,
        f"frequency-generalization gap >= 10x on 1/24 in {wins}/10 seeds "
        f"(median ratio {np.median(ratios):.1e}, need >= 9/10, {el:.1f}s < 60s)",
        wins=(wins, ">= 9"),
        median_ratio=np.median(ratios),
        min_ratio=min(ratios),
        seconds=(el, "< 60"),
    )


def test_c06_confusion_trend():
    t0 = time.perf_counter()
    wins = 0
    rhos = []
    for seed in range(10):
        curve = confusion_experiment(seed=seed)
        counts = [c for c, _ in curve]
        mses = [m for _, m in curve]
        rho = stats.spearmanr(counts, mses).statistic
        rhos.append(rho)
        wins += rho > 0
    el = time.perf_counter() - t0
    ok = wins >= 8 and el < 120.0
    verdict(
        6,
        ok,
        f"frequency-confusion upward trend in {wins}/10 seeds "
        f"(median spearman {np.median(rhos):.2f}, need >= 8/10, "
        f"{el:.1f}s < 120s)",
        wins=(wins, ">= 8"),
        median_spearman=np.median(rhos),
        seconds=(el, "< 120"),
    )


def test_c07_correlation_control():
    t0 = time.perf_counter()
    l_grid = (1, 5, 20, 50)

    def mean_abs_pcc(l, seed):
        cfg = GeneratorConfig(
            omega_bar=1 / 24, h=3, m=100, l=l, n=4096, d=8, seed=seed
        )
        c = np.corrcoef(synthesize(cfg).values)
        off = c[~np.eye(8, dtype=bool)]
        return float(np.mean(np.abs(off)))

    ups = 0
    for seed in range(30):
        vals = [mean_abs_pcc(l, seed) for l in l_grid]
        ups += stats.spearmanr(l_grid, vals).statistic > 0
    p = stats.binomtest(ups, 30, 0.5, alternative="greater").pvalue
    el = time.perf_counter() - t0
    ok = p < 0.01 and el < 120.0
    verdict(
        7,
        ok,
        f"channel correlation rises with sines-per-channel: upward trend "
        f"in {ups}/30 seeds, sign test p = {p:.1e} < 0.01 ({el:.1f}s < 120s)",
        upward_seeds=ups,
        sign_test_p=(p, "< 0.01"),
        seconds=(el, "< 120"),
    )


def test_c08_transfer_ordering():
    t0 = time.perf_counter()
    wins = 0
    gaps = []
    for seed in range(10):
        registry = synthetic_registry(seed=seed)
        datasets = [ds for _, ds in registry]
        ids = [name for name, _ in registry]
        tm = transfer_matrix(
            datasets,
            ridge_trainer(96, 96, count=256),
            L=96,
            H=96,
            ids=ids,
            seed=seed,
        )
        pgs = [aggregate_periodogram(ds, 1024) for ds in datasets]
        hi, lo = [], []
        for i in range(len(datasets)):
            for j in range(len(datasets)):
                if i == j:
                    continue
                pcc = periodogram_pcc(pgs[i], pgs[j])
                if pcc >= 0.9:
                    hi.append(tm.scaled[i, j])
                elif pcc < 0.5:
                    lo.append(tm.scaled[i, j])
        wins += bool(hi) and bool(lo) and np.mean(hi) < np.mean(lo)
        if hi and lo:
            gaps.append(np.mean(lo) - np.mean(hi))
    el = time.perf_counter() - t0
    ok = wins >= 8 and el < 300.0
    verdict(
        8,
        ok,
        f"transfer ordering: similar-spectrum pairs beat dissimilar in "
        f"{wins}/10 seeds (need >= 8/10, {el:.1f}s < 5min)",
        wins=(wins, ">= 8"),
        median_scaled_gap=np.median(gaps),
        seconds=(el, "< 300"),
    )


def test_c09_generation_throughput():
    cfg = GeneratorConfig(omega_bar=1 / 24, h=3, n=1000, d=1000, seed=0)
    t0 = time.perf_counter()
    ds = synthesize(cfg)
    el = time.perf_counter() - t0
    ok = ds.values.shape == (1000, 1000) and el <= 5.0
    stretch = " (stretch < 1s met)" if el < 1.0 else ""
    verdict(
        9,
        ok,
        f"generated 10^6 points (1000 x 1000) in {el:.3f}s <= 5s{stretch}",
        seconds=(el, "<= 5"),
    )


def test_c10_harmonics_ablation():
    t0 = time.perf_counter()
    wins = 0
    ratios = []
    for seed in range(10):
        cfg = GeneratorConfig(
            omega_bar=1 / 24, h=3, n=16384, d=5, seed=1000 + seed
        )
        target = standardize(synthesize(cfg))
        table = harmonics_sweep(
            [("t", target)], h_values=(1, 3), seed=seed
        )
        by_h = {h: mse for h, _, mse in table}
        wins += by_h[3] <= by_h[1]
        ratios.append(by_h[3] / by_h[1])
    el = time.perf_counter() - t0
    ok = wins >= 8
    verdict(
        10,
        ok,
        f"harmonics ablation: mse(h=3) <= mse(h=1) on 3-harmonic targets "
        f"in {wins}/10 seeds (need >= 8/10, {el:.1f}s)",
        wins=(wins, ">= 8"),
        median_mse_ratio_h3_h1=np.median(ratios),
    )


def test_c11_amplitude_law():
    results = {}
    for a_prime in (1.0, 5.0):
        cfg = GeneratorConfig(
            omega_bar=1 / 24, h=3, m=100_000, A_prime=a_prime, seed=11
        )
        amps = build_pool(cfg)[0]
        results[a_prime] = abs(float(amps.mean()) - a_prime) / a_prime
    ok = all(v < 0.05 for v in results.values())
    verdict(
        11,
        ok,
        "amplitude law: mean of 1e5 draws within 5% of A' "
        f"(A'=1: {results[1.0]:.3%}, A'=5: {results[5.0]:.3%})",
        rel_err_A1=(results[1.0], "< 0.05"),
        rel_err_A5=(results[5.0], "< 0.05"),
    )


def test_c12_seasonal_naive_zero_error():
    rng = np.random.default_rng(12)
    worst = 0.0
    for period in (7, 24, 53, 96):
        cell = rng.normal(size=period)
        reps = -(-(96 + 720 + 200) // period)
        vals = np.tile(cell, reps)[None, : 96 + 720 + 200]
        ds = Dataset(values=vals, channel_names=("x",))
        reports = evaluate_zero_shot(
            SeasonalNaiveForecaster(period), ds, L=96
        )
        worst = max(worst, max(r.mse for r in reports))
    ok = worst <= 1e-12
    verdict(
        12,
        ok,
        "seasonal-naive zero error on periodic signals, all four horizons "
        f"(worst mse {worst:.1e} <= 1e-12)",
        worst_mse=(worst, "<= 1e-12"),
    )


def test_c13_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(
        json.dumps({"omega_bar": 1 / 24, "h": 2, "n": 512, "d": 2}),
        encoding="utf-8",
    )
    data_a = str(tmp_path / "data_a.csv")
    assert (
        cli_main(["generate", "--config", str(cfg_path), "--out", data_a]) == 0
    )
    data_b = str(tmp_path / "data_b.csv")
    assert (
        cli_main(
            ["generate", "--config", str(cfg_path), "--out", data_b,
             "--seed", "1"]
        )
        == 0
    )

    # (argv-without-outputs, [output flag names]) per subcommand
    runs = [
        (["generate", "--config", str(cfg_path), "--seed", "7"], ["--out"]),
        (["periodogram", "--input", data_a], ["--out", "--plot"]),
        (["estimate", "--input", data_a], ["--out"]),
        (["similarity", "--inputs", data_a, data_b], ["--out"]),
        (
            ["fit", "--omega", str(1 / 24), "--count", "200", "--lookback",
             "16", "--horizons", "8", "--seed", "3"],
            ["--out"],
        ),
        (
            ["evaluate", "--model", "naive", "--input", data_a,
             "--lookback", "16", "--horizons", "8"],
            ["--out"],
        ),
        (["confusion", "--counts", "0,1,2", "--seed", "4"], ["--out", "--plot"]),
        (["generalization", "--omega", str(1 / 24), "--seed", "5"], ["--out"]),
        (
            ["transfer", "--inputs", data_a, data_b, "--lookback", "16",
             "--horizon", "8", "--count", "64", "--seed", "6"],
            ["--out", "--raw-out"],
        ),
        (
            ["sweep-harmonics", "--omega", str(1 / 24), "--h-values", "1,2",
             "--seed", "8"],
            ["--out"],
        ),
        (
            ["sweep-size", "--omega", str(1 / 24), "--sizes", "100,200",
             "--d-values", "1,2", "--seed", "9"],
            ["--out"],
        ),
        (["bench-gen", "--channels", "4", "--length", "512"], ["--out"]),
    ]
    mismatched = []
    for idx, (argv, out_flags) in enumerate(runs):
        paths = {}
        for attempt in ("x", "y"):
            extra = []
            for flag in out_flags:
                suffix = ".svg" if flag == "--plot" else ".out"
                p = str(tmp_path / f"c13_{idx}_{flag.strip('-')}_{attempt}{suffix}")
                paths.setdefault(flag, []).append(p)
                extra += [flag, p]
            assert cli_main(argv + extra) == 0, argv[0]
        for flag, (pa, pb) in paths.items():
            ba = open(pa, "rb").read()
            bb = open(pb, "rb").read()
            if ba != bb:
                mismatched.append(f"{argv[0]} {flag}")
    el = time.perf_counter() - t0
    ok = not mismatched
    verdict(
        13,
        ok,
        "all 12 subcommands byte-identical across repeat runs"
        + (f" (mismatches: {mismatched})" if mismatched else "")
        + f" ({el:.1f}s)",
        mismatched_outputs=(len(mismatched), "== 0"),
    )


def test_c14_few_shot_improvement():
    t0 = time.perf_counter()
    wins = 0
    ratios = []
    for seed in range(10):
        src_train, _ = freq_synth(
            1 / 24, seed, count_train=1000, count_val=0, L=96, H=96,
            n=8192, d=4,
        )
        tgt_train, tgt_val = freq_synth(
            1 / 30, seed + 1000, count_train=1000, count_val=500, L=96,
            H=96, n=8192, d=4,
        )
        model = fit_ridge(src_train)
        few = WindowSet(
            lookbacks=tgt_train.lookbacks[:100],
            horizons=tgt_train.horizons[:100],
        )
        tuned = finetune(model, few)
        mse_zero, _ = windowset_metrics(model, tgt_val)
        mse_tuned, _ = windowset_metrics(tuned, tgt_val)
        wins += mse_tuned < mse_zero
        ratios.append(mse_tuned / mse_zero)
    el = time.perf_counter() - t0
    ok = wins >= 9
    verdict(
        14,
        ok,
        f"few-shot anchored fine-tune on 10% of 1/30 windows beats "
        f"zero-shot from 1/24 in {wins}/10 seeds (need >= 9/10, {el:.1f}s)",
        wins=(wins, ">= 9"),
        median_mse_ratio_tuned_zero=np.median(ratios),
    )
