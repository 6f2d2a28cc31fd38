"""Command-line interface.

One executable, twelve subcommands covering the pipeline: synthesis
(generate, bench-gen), analysis (periodogram, estimate, similarity),
modeling (fit, evaluate), and the experiment drivers (confusion,
generalization, transfer, sweep-harmonics, sweep-size).

Every subcommand is deterministic: file outputs are byte-identical
across repeat runs with the same arguments, --seed included for the
subcommands that draw random numbers (all but periodogram, estimate and
similarity, which take no seed).  bench-gen's wall-clock timing goes
to stdout only; its --out summary carries a checksum instead of times
so the file stays reproducible.  Results are computed fully before any
file is written, and writes are atomic, so a failing run leaves no
partial outputs.  An error raised while an input file's data is loaded
or analysed starts with that file's path.

BLAS thread pools follow the standard environment variables, read when
numpy is first imported: set OMP_NUM_THREADS or OPENBLAS_NUM_THREADS
(MKL_NUM_THREADS for an MKL build) to cap them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from xml.sax.saxutils import escape

import numpy as np

from . import dataio
from .dataset import Dataset, _shown
from .errors import (
    FreqSynthError,
    InvalidModel,
    InvalidPeriod,
    NoDominantFrequency,
    SplitTooSmall,
    WindowTooLong,
)
from .evaluation import (
    DEFAULT_HORIZONS,
    confusion_experiment,
    evaluate_zero_shot,
    generalization_experiment,
    harmonics_sweep,
    ridge_trainer,
    size_variates_sweep,
    split,
    synthetic_registry,
    transfer_matrix,
)
from .forecast import (
    NaiveForecaster,
    SeasonalNaiveForecaster,
    fit_ridge,
    model_from_json,
    model_to_json,
)
from .freqest import estimate_fundamental, freq_from_sampling_rate
from .generator import (
    GeneratorConfig,
    freq_synth,
    freq_synth_mix,
    freq_synth_natural,
    standardize,
    standardize_by_train,
    synthesize,
)
from .spectral import aggregate_periodogram, default_window_len, periodogram_pcc


def _list_of(kind, noun: str):
    """argparse type for a non-empty comma-separated list of ``kind``."""

    def parse(text: str) -> tuple:
        try:
            vals = tuple(kind(v) for v in text.split(",") if v.strip() != "")
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}"
            ) from None
        if not vals:
            raise argparse.ArgumentTypeError("list must be non-empty")
        return vals

    return parse


_int_list = _list_of(int, "integers")
_float_list = _list_of(float, "reals")


def _svg_line_plot(path, xs, ys, title, xlabel, ylabel):
    """Minimal deterministic SVG polyline plot."""
    width, height = 640, 400
    ml, mr, mt, mb = 70, 20, 40, 50
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0

    def px(x):
        return ml + (x - xmin) / (xmax - xmin) * (width - ml - mr)

    def py(y):
        return height - mb - (y - ymin) / (ymax - ymin) * (height - mt - mb)

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    title, xlabel, ylabel = escape(title), escape(xlabel), escape(ylabel)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{points}"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.0f})">{ylabel}</text>',
        f'<text x="{ml}" y="{height - mb + 16}" font-size="10" text-anchor="middle">{xmin:g}</text>',
        f'<text x="{width - mr}" y="{height - mb + 16}" font-size="10" text-anchor="middle">{xmax:g}</text>',
        f'<text x="{ml - 6}" y="{height - mb}" font-size="10" text-anchor="end">{ymin:.4g}</text>',
        f'<text x="{ml - 6}" y="{mt + 4}" font-size="10" text-anchor="end">{ymax:.4g}</text>',
        "</svg>",
    ]
    dataio._atomic_write(path, "\n".join(parts) + "\n")


@contextmanager
def _naming(path: str, kind=FreqSynthError):
    """Start the message of a ``kind`` error (a class or a tuple of them)
    raised in the block with ``path: ``, unless it already does."""
    try:
        yield
    except kind as exc:
        if not str(exc).startswith(f"{path}: "):
            exc.args = (f"{path}: {exc}",)
        raise


# What a sweep raises for its target: too short for one window, or no
# peak to estimate a fundamental from.  Its flags raise other errors.
_TARGET_ERRORS = (SplitTooSmall, NoDominantFrequency)


def _resolve_omega(args, parser) -> float:
    if args.omega is not None:
        return args.omega
    if args.rate is not None:
        return freq_from_sampling_rate(args.rate).omega_bar
    parser.error("one of --omega or --rate is required")


def _load_target(args) -> tuple[str, Dataset]:
    """Target dataset for sweeps: a file, or a synthetic 3-harmonic truth."""
    if args.input is not None:
        with _naming(args.input):
            return args.input, standardize(dataio.load_csv(args.input))
    cfg = GeneratorConfig(
        omega_bar=args.omega, h=3, n=16384, d=5, seed=args.seed + 1
    )
    return "target-h3", standardize(synthesize(cfg))


def cmd_generate(args, parser) -> int:
    if args.config is None and args.omega is None and args.rate is None:
        parser.error("one of --omega, --rate, or --config is required")
    flags = {"h": args.h, "seed": args.seed}
    if args.omega is not None or args.rate is not None:
        flags["omega_bar"] = _resolve_omega(args, parser)
    if args.config is not None:
        cfg = dataio.load_generator_config(args.config, **flags)
    else:
        cfg = GeneratorConfig(**{k: v for k, v in flags.items() if v is not None})
    ds = synthesize(cfg)
    dataio.save_csv(ds, args.out)
    return 0


def cmd_periodogram(args, parser) -> int:
    with _naming(args.input):
        ds = dataio.load_csv(args.input)
        window = args.window if args.window is not None else default_window_len(ds.n)
    with _naming(args.input, WindowTooLong):  # not the flag's InvalidWindow
        p = aggregate_periodogram(ds, window)
    dataio.save_periodogram_csv(p, args.out)
    if args.plot:
        _svg_line_plot(
            args.plot, p.freqs, p.powers,
            title=f"aggregate periodogram (window {window})",
            xlabel="frequency (cycles/step)", ylabel="power",
        )
    return 0


def cmd_estimate(args, parser) -> int:
    if args.rate is None and args.input is None:
        parser.error("one of --rate or --input is required")
    if args.rate is not None:
        est = freq_from_sampling_rate(args.rate)
    else:
        with _naming(args.input):
            ds = dataio.load_csv(args.input)
            est = estimate_fundamental(ds)
    doc = {
        "omega_bar": est.omega_bar,
        "source": est.source,
        "confidence": est.confidence,
    }
    text = json.dumps(doc, sort_keys=True) + "\n"
    if args.out:
        dataio._atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_similarity(args, parser) -> int:
    if len(args.inputs) < 2:
        parser.error("similarity needs at least two --inputs")
    pgrams, diagonal = [], []
    for path in args.inputs:
        with _naming(path):
            ds = dataio.load_csv(path)
            p = aggregate_periodogram(ds, default_window_len(ds.n))
            # the diagonal: periodogram_pcc(p, p) is exactly 1.0, and raises
            # here, naming the input, for a flat p that the off-diagonal
            # cells of its row and column would raise for unnamed
            diagonal.append(periodogram_pcc(p, p))
        pgrams.append(p)
    rows = [
        (path, *(diagonal[i] if i == j else periodogram_pcc(p, q)
                 for j, q in enumerate(pgrams)))
        for i, (path, p) in enumerate(zip(args.inputs, pgrams))
    ]
    dataio.save_table_csv(rows, ["dataset", *args.inputs], args.out)
    return 0


def cmd_fit(args, parser) -> int:
    build = {"single": freq_synth, "natural": freq_synth_natural, "mix": freq_synth_mix}
    lead = (_resolve_omega(args, parser),) if args.variant == "single" else ()
    train, _ = build[args.variant](
        *lead, args.seed, count_train=args.count, count_val=0,
        L=args.lookback, H=max(args.horizons),
    )
    model = fit_ridge(train, args.lam)
    dataio._atomic_write(args.out, model_to_json(model) + "\n")
    return 0


def _resolve_model(token: str):
    if token == "naive":
        return NaiveForecaster()
    if token.startswith("seasonal:"):
        try:
            return SeasonalNaiveForecaster(int(token.split(":", 1)[1]))
        except ValueError:
            raise InvalidPeriod(
                f"--model {_shown(token)}: the period must be an integer >= 1"
            ) from None
    try:  # read whole, so a decode error's position is the file's own
        with open(token, "r", encoding="utf-8") as f:
            return model_from_json(f.read())
    except ValueError as exc:  # not UTF-8, not JSON, or not a model
        raise InvalidModel(f"{token}: {exc}") from None


def cmd_evaluate(args, parser) -> int:
    model = _resolve_model(args.model)
    with _naming(args.input):
        target = dataio.load_csv(args.input)
    if args.split is not None:
        if len(args.split) != 3:
            parser.error("--split needs three comma-separated fractions")
        train_frac, val_frac, test_frac = args.split
        total = train_frac + val_frac + test_frac
        if not 0.0 < test_frac < 1.0:  # split checks the test fraction it derives
            raise ValueError(f"test_frac must be in (0, 1), got {test_frac}")
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {total}")
        with _naming(args.input):
            train, _, test = split(target, train_frac, val_frac,
                                   min_len=args.lookback + max(args.horizons))
            _, target = standardize_by_train(train, test)
    # the input's length check names it; the flags' checks do not
    with _naming(args.input, SplitTooSmall):
        reports = evaluate_zero_shot(
            model, target, args.lookback, args.horizons, seed=args.seed
        )
    if args.out.endswith(".json"):
        dataio.save_reports_json(reports, args.out)
    else:
        dataio.save_reports_csv(reports, args.out)
    return 0


def cmd_confusion(args, parser) -> int:
    curve = confusion_experiment(distractor_counts=args.counts, seed=args.seed)
    rows = [(c, float(m)) for c, m in curve]
    dataio.save_table_csv(rows, ["distractors", "mse"], args.out)
    if args.plot:
        _svg_line_plot(
            args.plot, [c for c, _ in curve], [m for _, m in curve],
            title="frequency confusion", xlabel="distractor sines",
            ylabel="test MSE",
        )
    return 0


def cmd_generalization(args, parser) -> int:
    mse_with, mse_without = generalization_experiment(args.omega, seed=args.seed)
    doc = {
        "target_omega": args.omega,
        "mse_with": mse_with,
        "mse_without": mse_without,
        "ratio": mse_without / mse_with if mse_with > 0 else float("inf"),
    }
    dataio._atomic_write(args.out, json.dumps(doc, sort_keys=True) + "\n")
    return 0


def cmd_transfer(args, parser) -> int:
    if args.inputs is not None:
        if len(args.inputs) < 2:
            parser.error("transfer needs at least two --inputs")
        named = []
        for path in args.inputs:
            with _naming(path):
                named.append((path, standardize(dataio.load_csv(path))))
    else:
        named = synthetic_registry(args.seed)
    ids = [name for name, _ in named]
    datasets = [ds for _, ds in named]
    trainer = ridge_trainer(args.lookback, args.horizon, count=args.count)
    tm = transfer_matrix(
        datasets, trainer, args.lookback, args.horizon, ids=ids, seed=args.seed
    )
    dataio.save_matrix_csv(tm, args.out, kind="scaled")
    if args.raw_out:
        dataio.save_matrix_csv(tm, args.raw_out, kind="raw")
    return 0


def cmd_sweep_harmonics(args, parser) -> int:
    tid, target = _load_target(args)
    with _naming(tid, _TARGET_ERRORS):
        rows = harmonics_sweep([(tid, target)], args.h_values, seed=args.seed)
    dataio.save_table_csv(rows, ["h", "dataset", "mse"], args.out)
    if args.plot:
        _svg_line_plot(
            args.plot, [h for h, _, _ in rows], [m for _, _, m in rows],
            title=f"harmonics sweep on {tid}", xlabel="harmonics h",
            ylabel="test MSE",
        )
    return 0


def cmd_sweep_size(args, parser) -> int:
    tid, target = _load_target(args)
    with _naming(tid, _TARGET_ERRORS):
        grid = size_variates_sweep(args.sizes, args.d_values, target, seed=args.seed)
    rows = [
        (int(size), *(float(v) for v in grid[i]))
        for i, size in enumerate(args.sizes)
    ]
    header = ["windows", *(f"d={d}" for d in args.d_values)]
    dataio.save_table_csv(rows, header, args.out)
    return 0


def cmd_bench_gen(args, parser) -> int:
    cfg = GeneratorConfig(
        omega_bar=args.omega,
        h=args.h if args.h is not None else 3,
        n=args.length,
        d=args.channels,
        seed=args.seed,
    )
    start = time.perf_counter()
    ds = synthesize(cfg)
    elapsed = time.perf_counter() - start
    points = cfg.n * cfg.d
    sys.stdout.write(
        f"generated {points} points ({cfg.d} channels x {cfg.n} steps) "
        f"in {elapsed:.3f} s ({points / elapsed:.3e} points/s)\n"
    )
    if args.out:
        doc = {
            "channels": cfg.d,
            "length": cfg.n,
            "points": points,
            "omega_bar": cfg.omega_bar,
            "h": cfg.h,
            "seed": cfg.seed,
            "sha256": hashlib.sha256(ds.values.tobytes()).hexdigest(),
        }
        dataio._atomic_write(args.out, json.dumps(doc, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqsynth",
        description="Frequency-domain synthesis, analysis, and forecasting harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def new(name, help_text, seeded=True):
        p = sub.add_parser(name, help=help_text)
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        return p

    p = new("generate", "synthesize a dataset and write LTSF-style CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--omega", type=float, help="fundamental frequency in cycles/step")
    p.add_argument("--rate", help="sampling-rate token, e.g. 1h or custom:96")
    p.add_argument("--h", type=int, help="harmonics (default 3)")
    p.add_argument("--config", help="JSON file with generator fields; a flag "
                   "given here overrides the file's field")
    p.set_defaults(func=cmd_generate, seed=None)

    p = new("periodogram", "aggregate periodogram of a CSV dataset", seeded=False)
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--out", required=True, help="output CSV (frequency,power)")
    p.add_argument("--window", type=int, help="aggregation window (default: auto)")
    p.add_argument("--plot", help="optional SVG plot path")
    p.set_defaults(func=cmd_periodogram)

    p = new("estimate", "fundamental frequency from a rate token or a CSV", seeded=False)
    p.add_argument("--rate", help="sampling-rate token (takes precedence)")
    p.add_argument("--input", help="input CSV to analyze")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_estimate)

    p = new("similarity", "pairwise periodogram correlation matrix", seeded=False)
    p.add_argument("--inputs", nargs="+", required=True, help="two or more CSVs")
    p.add_argument("--out", required=True, help="output CSV matrix")
    p.set_defaults(func=cmd_similarity)

    p = new("fit", "fit the ridge forecaster on synthetic windows")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--omega", type=float, help="fundamental frequency")
    p.add_argument("--rate", help="sampling-rate token")
    p.add_argument("--variant", choices=("single", "natural", "mix"),
                   default="single", help="training data variant")
    p.add_argument("--count", type=int, default=5000, help="training windows")
    p.add_argument("--lookback", type=int, default=96)
    p.add_argument("--horizons", type=_int_list, default=DEFAULT_HORIZONS,
                   help="comma list; the model trains to the largest")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="ridge coefficient (default: relative)")
    p.set_defaults(func=cmd_fit)

    p = new("evaluate", "zero-shot evaluation of a model on a CSV dataset")
    p.add_argument("--model", required=True,
                   help="model JSON path, 'naive', or 'seasonal:<period>'")
    p.add_argument("--input", required=True, help="dataset CSV")
    p.add_argument("--lookback", type=int, default=96)
    p.add_argument("--horizons", type=_int_list, default=DEFAULT_HORIZONS)
    p.add_argument("--split", type=_float_list, default=None,
                   help="train,val,test fractions; evaluates the test segment "
                        "standardized with train statistics")
    p.add_argument("--out", required=True,
                   help="output path (.json for full reports, else CSV summary)")
    p.set_defaults(func=cmd_evaluate)

    p = new("confusion", "test MSE as distractor frequencies are added")
    p.add_argument("--counts", type=_int_list, default=(0, 1, 2, 4, 8, 16),
                   help="distractor counts (comma list)")
    p.add_argument("--out", required=True, help="output CSV curve")
    p.add_argument("--plot", help="optional SVG plot path")
    p.set_defaults(func=cmd_confusion)

    p = new("generalization", "MSE with and without the target frequency seen")
    p.add_argument("--omega", type=float, default=1 / 24, help="target frequency")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_generalization)

    p = new("transfer", "cross-dataset transfer matrix with scaled MSE")
    p.add_argument("--inputs", nargs="*", default=None,
                   help="dataset CSVs (default: built-in synthetic registry)")
    p.add_argument("--lookback", type=int, default=96)
    p.add_argument("--horizon", type=int, default=96)
    p.add_argument("--count", type=int, default=1024,
                   help="training windows per model")
    p.add_argument("--out", required=True, help="scaled-MSE CSV path")
    p.add_argument("--raw-out", help="optional raw-MSE CSV path")
    p.set_defaults(func=cmd_transfer)

    p = new("sweep-harmonics", "zero-shot MSE versus training harmonics")
    p.add_argument("--omega", type=float, default=1 / 24,
                   help="target fundamental when synthesizing the target")
    p.add_argument("--input", help="target CSV (default: synthetic 3-harmonic)")
    p.add_argument("--h-values", type=_int_list, default=(1, 2, 3, 4))
    p.add_argument("--out", required=True, help="output CSV table")
    p.add_argument("--plot", help="optional SVG plot path")
    p.set_defaults(func=cmd_sweep_harmonics)

    p = new("sweep-size", "zero-shot MSE over window count and variate grid")
    p.add_argument("--omega", type=float, default=1 / 24)
    p.add_argument("--input", help="target CSV (default: synthetic 3-harmonic)")
    p.add_argument("--sizes", type=_int_list, default=(500, 1000, 2000, 4000))
    p.add_argument("--d-values", type=_int_list, default=(1, 5, 10))
    p.add_argument("--out", required=True, help="output CSV grid")
    p.set_defaults(func=cmd_sweep_size)

    p = new("bench-gen", "time the generation of channels x length points")
    p.add_argument("--channels", type=int, default=1000)
    p.add_argument("--length", type=int, default=1000)
    p.add_argument("--omega", type=float, default=1 / 24)
    p.add_argument("--h", type=int, help="harmonics (default 3)")
    p.add_argument("--out", help="optional JSON summary (deterministic fields only)")
    p.set_defaults(func=cmd_bench_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        print(f"freqsynth: error: {exc}", file=sys.stderr)
        return 2
