"""sha256 of every file the CLI writes for one or more seeds.

Runs the freqsynth subcommands below with ``--seed SEED`` in a fresh
directory and prints one ``<sha256>  <file>`` line per output file, 22
per seed: every --out, --raw-out and --plot.  Two checkouts are
bit-for-bit equal on these outputs when their printouts are, e.g.

    PYTHONPATH=src python tests/cli_digests.py --seed 0 1 2 > after.txt

A refactor that must not change outputs compares seeds 0-2 this way
before and after.  The fit outputs depend on BLAS's thread count, so
the script sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 before numpy is imported: printouts compare on
the same numpy and BLAS build.  With one seed the lines name the bare
files, as older checkouts print them; with several, each file is
prefixed with ``seed<k>/``.  This is a script, not a pytest module;
one seed takes about ten seconds on two cores.

``--compare FILE`` makes that check one command: after the printout,
the lines that differ from a saved printout go to stderr as a unified
diff (``-`` saved, ``+`` this run), and the script exits 1 on any
difference, e.g.

    (cd parent && PYTHONPATH=src python tests/cli_digests.py --seed 0 1 2 > before.txt)
    PYTHONPATH=src python tests/cli_digests.py --seed 0 1 2 --compare before.txt

``--keep DIR`` also copies the output files into DIR (into
``DIR/seed<k>/`` with several seeds), so a change that moves numbers on
purpose can compare values, not only hashes.  Run each checkout with
its own ``src`` on the path, then diff the kept trees, e.g.

    (cd parent && PYTHONPATH=src python tests/cli_digests.py --seed 0 --keep /tmp/a)
    (cd change && PYTHONPATH=src python tests/cli_digests.py --seed 0 --keep /tmp/b)
    diff -r /tmp/a /tmp/b

and read the numbers of each file that differs side by side.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

# The fits' Gram and target products round differently with BLAS's
# thread count, so the digests are taken with one thread; the variables
# are read when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from freqsynth.cli import main  # noqa: E402

# generate --config input, written before the runs; it sets no seed,
# so the --seed flag alone decides it.
CONFIG = {"omega_bar": 0.05, "h": 2, "n": 3000, "d": 3}


def invocations(seed: int) -> list[list[str]]:
    """Each subcommand's argv; every output file is named by an --out,
    --raw-out or --plot."""
    s = ["--seed", str(seed)]
    return [
        ["generate", "--rate", "1h", *s, "--out", "gen_rate.csv"],
        ["generate", "--omega", "0.1", "--h", "2", *s, "--out", "gen_omega.csv"],
        ["generate", "--config", "config.json", *s, "--out", "gen_config.csv"],
        ["periodogram", "--input", "gen_rate.csv", "--out", "periodogram.csv",
         "--plot", "periodogram.svg"],
        ["estimate", "--input", "gen_rate.csv", "--out", "estimate.json"],
        ["similarity", "--inputs", "gen_rate.csv", "gen_omega.csv",
         "--out", "similarity.csv"],
        ["fit", "--rate", "1h", "--count", "2000", *s, "--out", "fit_single.json"],
        ["fit", "--variant", "natural", "--count", "2000", *s,
         "--out", "fit_natural.json"],
        ["fit", "--variant", "mix", "--count", "2000", *s, "--out", "fit_mix.json"],
        ["evaluate", "--model", "fit_single.json", "--input", "gen_rate.csv", *s,
         "--out", "evaluate_ridge.json"],
        ["evaluate", "--model", "seasonal:24", "--input", "gen_rate.csv",
         "--split", "0.7,0.1,0.2", *s, "--out", "evaluate_seasonal.csv"],
        ["evaluate", "--model", "naive", "--input", "gen_rate.csv",
         "--split", "0.7,0.1,0.2", "--horizons", "96,24,48,24",
         "--out", "evaluate_naive.csv"],
        ["confusion", *s, "--out", "confusion.csv", "--plot", "confusion.svg"],
        ["generalization", *s, "--out", "generalization.json"],
        ["transfer", *s, "--out", "transfer.csv", "--raw-out", "transfer_raw.csv"],
        ["sweep-harmonics", "--h-values", "1,2,3", *s, "--out", "sweep_harmonics.csv",
         "--plot", "sweep_harmonics.svg"],
        ["sweep-size", "--sizes", "300,600", "--d-values", "1,3", *s,
         "--out", "sweep_size.csv"],
        ["bench-gen", *s, "--out", "bench_gen.json"],
    ]


def outputs(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv)
            if a in ("--out", "--raw-out", "--plot")]


def digests(seed: int, directory: str) -> list[tuple[str, str]]:
    """(sha256, file) per output, in invocation order; raises on a failed run."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with open("config.json", "w", encoding="utf-8") as f:
            json.dump(CONFIG, f)
        rows = []
        for argv in invocations(seed):
            # bench-gen prints its timing; keep stdout to the digests
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"freqsynth {' '.join(argv)} exited {code}")
            for name in outputs(argv):
                with open(name, "rb") as f:
                    rows.append((hashlib.sha256(f.read()).hexdigest(), name))
        return rows
    finally:
        os.chdir(cwd)


def main_digests(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--keep", metavar="DIR",
                        help="also copy the output files into DIR")
    parser.add_argument("--compare", metavar="FILE",
                        help="diff this printout against a saved one; exit 1 "
                             "on any difference")
    args = parser.parse_args(argv)
    lines = []
    for seed in args.seed:
        prefix = f"seed{seed}/" if len(args.seed) > 1 else ""
        with tempfile.TemporaryDirectory() as directory:
            for digest, name in digests(seed, directory):
                lines.append(f"{digest}  {prefix}{name}")
                print(lines[-1])
                if args.keep is not None:
                    keep = os.path.join(args.keep, prefix)
                    os.makedirs(keep, exist_ok=True)
                    shutil.copy(os.path.join(directory, name), keep)
    if args.compare is None:
        return 0
    with open(args.compare, encoding="utf-8") as f:
        saved = f.read().splitlines()
    diff = list(difflib.unified_diff(saved, lines, args.compare, "this run",
                                     n=0, lineterm=""))
    for line in diff:
        print(line, file=sys.stderr)
    verdict = "differ from" if diff else "are identical to"
    print(f"these {len(lines)} lines {verdict} {args.compare}", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main_digests())
