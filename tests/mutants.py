"""A committed registry of mutants, and a script that checks each is caught.

A mutant is one small edit that breaks the library, or a check the tests
run, on purpose: the file (relative to the repository root), the exact
old text, the new text, a one-line reason, and the test files that must
catch it.  The script copies the library, its tests and the census's
callers (``src/``, ``tests/``, ``perfbench/``, ``demos/``, README and
pyproject) to a temporary directory and, one mutant at a time, applies
the edit there and runs that mutant's test files with ``-x -q`` in the
copy.  It prints one line per mutant:

* ``killed``: a test failed, as it should;
* ``SURVIVED``: every test passed, so no test pins that behaviour; the
  fix is a new test, not deleting the mutant;
* ``STALE``: the old text does not occur exactly once in its file, so
  the code it targets has changed and the entry must be rewritten;
* ``ERROR``: pytest stopped for another reason than a failing test,
  such as a mutant that cannot be imported, or ran past 15 minutes.

It exits 1 on any line but ``killed``, e.g.

    python tests/mutants.py

This is a script, not a pytest module.  It runs each mutant's tests in
a fresh process, without bytecode caches, so a run takes a few seconds
per mutant, and about 10 s more for each mutant that
``tests/test_signatures.py`` must catch, since its census test runs
``tests/census.py`` over every caller.  Two of those mutants add to the
library what only that census test sees: a keyword parameter that no
caller sets, and a statement that no caller reaches.  In tier-1,
``tests/test_signatures.py`` checks only that every old text still
occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# What the copy holds: the library, the tests and every caller the census reads.
COPIED = ("src", "tests", "perfbench", "demos", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str
    new: str
    reason: str
    tests: tuple[str, ...]  # relative to tests/


MUTANTS = [
    # value types that take each fact once
    Mutant("src/freqsynth/forecast.py", '("L", w.shape[1] - 1)', '("L", w.shape[1])',
           "LinearForecaster reads L as the weights' column count",
           ("test_forecast.py",)),
    Mutant("src/freqsynth/forecast.py", "        if w.shape[0] < 1 or w.shape[1] < 2:",
           "        if False:", "LinearForecaster accepts weights with no row or no "
           "lookback column", ("test_forecast.py",)),
    Mutant("src/freqsynth/evaluation.py", '_freeze(minmax_scale_columns(raw), "scaled", 2)',
           '_freeze(raw, "scaled", 2)', "TransferMatrix.scaled is the raw matrix",
           ("test_evaluation.py",)),
    # errors that name the input file
    Mutant("src/freqsynth/errors.py", 'f"{path}: row {row} has', 'f"row {row} has',
           "RaggedRows does not name the file", ("test_dataio.py",)),
    Mutant("src/freqsynth/errors.py", 'f"{path}: {kind} cell at', 'f"{kind} cell at',
           "NonNumericCell does not name the file", ("test_dataio.py",)),
    Mutant("src/freqsynth/cli.py", '            exc.args = (f"{path}: {exc}",)',
           "            pass", "an error from a short CSV's analysis does not name "
           "the file", ("test_cli.py",)),
    # the render budget of every law, checked before any render
    Mutant("src/freqsynth/generator.py", "_check_render(m, None, l, n, d)",
           "_check_render(m, 1, l, n, d)",
           "a mix law's budget counts one frequency's basis rows, not its drawn members",
           ("test_generator.py",)),
    Mutant("src/freqsynth/generator.py", '("min(m, d * l) * n", min(m, d * l), n)',
           '("min(m, d * l) * n", m, n)', "a mix law's budget counts all m members as rows",
           ("test_generator.py",)),
    # the census's report
    Mutant("tests/census.py", "    return 1 if unexplained or stale else 0",
           "    return 1 if unexplained else 0", "the census passes a stale KEPT key",
           ("test_signatures.py",)),
    # the value types' one freezing routine and the shared scalar checks
    Mutant("src/freqsynth/dataset.py", "    out.setflags(write=False)\n    return out",
           "    return out", "_freeze leaves the stored copy writable",
           ("test_dataset.py",)),
    Mutant("src/freqsynth/dataset.py", "    if out.ndim != ndim:", "    if False:",
           "_freeze without its ndim check", ("test_dataset.py",)),
    Mutant("src/freqsynth/dataset.py", "    if not np.all(np.isfinite(out)):", "    if False:",
           "_freeze without its finite check", ("test_dataset.py",)),
    Mutant("src/freqsynth/dataset.py",
           "    if not 0.0 < value < 0.5:", "    if not 0.0 < value <= 0.5:",
           "_frequency accepts 0.5", ("test_generator.py", "test_freqest.py")),
    Mutant("src/freqsynth/dataset.py",
           "    if not 0.0 <= value < np.inf:", "    if not 0.0 <= value:",
           "_nonnegative accepts infinity", ("test_forecast.py", "test_evaluation.py")),
    # the harmonic set and the render's point budget
    Mutant("src/freqsynth/generator.py", "    lo, hi = 1, int(min(h, 1 / omega_bar))",
           "    lo, hi = 1, int(min(h - 1, 1 / omega_bar))",
           "harmonic_set stops one short of h", ("test_generator.py",)),
    Mutant("src/freqsynth/generator.py", '("d * l", d, l), ', "",
           "the point budget without its d * l term", ("test_generator.py",)),
    # file errors that name the file
    Mutant("src/freqsynth/dataio.py", "    except UnicodeDecodeError as exc:  # its position",
           "    except KeyError as exc:  # its position",
           "load_csv's decode error does not name the file", ("test_cli.py",)),
    Mutant("src/freqsynth/dataio.py",
           '        raise type(exc)(f"{path}: {exc.strerror or exc}") from None',
           "        raise", "_atomic_write's OSError names the temp file",
           ("test_cli.py",)),
    Mutant("src/freqsynth/dataio.py", '        raise InvalidConfig(f"{path}: {exc}") from None',
           "        raise", "a config that is not UTF-8 JSON does not name the file",
           ("test_cli.py",)),
    Mutant("src/freqsynth/cli.py", '        raise InvalidModel(f"{token}: {exc}") from None',
           "        raise", "a bad model file is not named", ("test_cli.py",)),
    # checks described by earlier changes
    Mutant("src/freqsynth/generator.py", "    std = train.values.std(axis=1, keepdims=True)",
           "    std = train.values.std(axis=1, ddof=1, keepdims=True)",
           "standardization with the sample std (ddof=1)", ("test_generator.py",)),
    Mutant("src/freqsynth/generator.py", "    if 2 * uniq.size >= m:", "    if 2 * uniq.size > m:",
           "basis render threshold >= turned into >", ("test_generator.py",)),
    Mutant("src/freqsynth/generator.py", "[(weights * np.cos(phases)) @ onehot, "
           "(weights * np.sin(phases)) @ onehot]",
           "[(weights * np.sin(phases)) @ onehot, (weights * np.cos(phases)) @ onehot]",
           "basis coefficients with cos and sin swapped", ("test_generator.py",)),
    Mutant("src/freqsynth/dataio.py", "map(repr, ch)", 'map("%.17g".__mod__, ch)',
           "CSV cells formatted with %.17g, not repr", ("test_dataio.py",)),
    Mutant("src/freqsynth/dataio.py", "os.O_EXCL, 0o666)", "os.O_EXCL, 0o600)",
           "written files get mode 0o600, ignoring the umask", ("test_dataio.py",)),
    Mutant("src/freqsynth/dataio.py",
           '        and text.count(",") == (width - 1) * len(lines)\n', "",
           "the loadtxt fast path without its comma-count guard", ("test_dataio.py",)),
    Mutant("src/freqsynth/dataio.py",
           "raise MalformedRow(path, first + len(cells) // (width - 1), str(exc))",
           "raise MalformedRow(path, first, str(exc))",
           "MalformedRow reports the block's first row", ("test_dataio.py",)),
    Mutant("src/freqsynth/evaluation.py", "_window_sums(np.abs(d, out=d), m, w, False)",
           "_window_sums(d, m, w, False)", "_lag_sums without its abs pass",
           ("test_evaluation.py",)),
    Mutant("src/freqsynth/evaluation.py", "SeasonalNaiveForecaster and m.period > L:",
           "SeasonalNaiveForecaster and m.period >= L:",
           "PeriodTooLong raised at period = L", ("test_evaluation.py",)),
    Mutant("src/freqsynth/forecast.py", "    sd /= X.shape[1]\n", "    sd /= X.shape[1] - 1\n",
           "instance std with the wrong divisor", ("test_forecast.py",)),
    Mutant("src/freqsynth/forecast.py", "    gram[np.diag_indices_from(gram)] += lam + anchor",
           "    gram[np.diag_indices_from(gram)] += lam",
           "finetune without the anchor on the diagonal", ("test_forecast.py",)),
    Mutant("src/freqsynth/dataset.py", " and whole == value and ", " and ",
           "_whole_number accepts non-integral values", ("test_whole_numbers.py",)),
    Mutant("src/freqsynth/dataset.py",
           "isinstance(value, (bool, np.bool_))", "isinstance(value, bool)",
           "_whole_number accepts numpy bools", ("test_whole_numbers.py",)),
    Mutant("src/freqsynth/dataset.py", "[ws._starts + shift for ws, shift in",
           "[ws._starts for ws, shift in", "WindowSet._concat without its shifts",
           ("test_window_gather.py",)),
    Mutant("src/freqsynth/cli.py", "    model = _resolve_model(args.model)\n"
           "    with _naming(args.input):\n        target = dataio.load_csv(args.input)\n",
           "    with _naming(args.input):\n        target = dataio.load_csv(args.input)\n"
           "    model = _resolve_model(args.model)\n",
           "evaluate loads its input before its model", ("test_cli.py",)),
    Mutant("src/freqsynth/cli.py",
           "    title, xlabel, ylabel = escape(title), escape(xlabel), escape(ylabel)\n",
           "", "SVG plot text left unescaped", ("test_cli.py",)),
    Mutant("src/freqsynth/spectral.py", "    half = (n - 1) // 2", "    half = n // 2",
           "the periodogram keeps the Nyquist bin of even n", ("test_spectral.py",)),
    # short inputs named by evaluate and sweep-harmonics; flags left bare
    Mutant("src/freqsynth/cli.py", "    with _naming(args.input, SplitTooSmall):",
           "    if True:", "evaluate's length check does not name a short input",
           ("test_cli.py",)),
    Mutant("src/freqsynth/cli.py", "    with _naming(tid, _TARGET_ERRORS):\n        rows",
           "    if True:\n        rows", "sweep-harmonics does not name a short input",
           ("test_cli.py",)),
    Mutant("src/freqsynth/cli.py", "_naming(args.input, SplitTooSmall)",
           "_naming(args.input)", "evaluate's flag errors name the input",
           ("test_cli.py",)),
    # what no caller reaches: --seed where nothing reads it, dataset ids
    Mutant("src/freqsynth/cli.py", "        if seeded:\n", "        if True:\n",
           "periodogram, estimate and similarity accept an unread --seed",
           ("test_cli.py",)),
    Mutant("src/freqsynth/evaluation.py", 'dataset=test_ds.provenance or "dataset",',
           'dataset="dataset",', "reports do not name the test dataset's provenance",
           ("test_evaluation.py",)),
    # one ridge solve, dft's array, the sweeps' target checked before any fit
    Mutant("src/freqsynth/forecast.py", "    if lam + anchor == 0.0:", "    if lam == 0.0:",
           "an anchored finetune at lam = 0 takes the unanchored SVD path",
           ("test_forecast.py",)),
    Mutant("src/freqsynth/spectral.py",
           '    return _freeze(twist * np.fft.fft(arr) / np.sqrt(n), "coeffs", 1, '
           'np.complex128)', "    return twist * np.fft.fft(arr) / np.sqrt(n)",
           "dft returns a writable array", ("test_spectral.py",)),
    Mutant("src/freqsynth/cli.py", "    with _naming(tid, _TARGET_ERRORS):\n        grid",
           "    if True:\n        grid", "sweep-size does not name its target",
           ("test_cli.py",)),
    Mutant("src/freqsynth/cli.py", "_TARGET_ERRORS = (SplitTooSmall, NoDominantFrequency)",
           "_TARGET_ERRORS = FreqSynthError", "the sweeps' flag errors name the input",
           ("test_cli.py",)),
    Mutant("src/freqsynth/evaluation.py",
           "    for _, ds in targets:\n        L, (H,) = _checked_window(ds, L, (H,))\n", "",
           "harmonics_sweep checks its targets' length only after its fits",
           ("test_cli.py",)),
    Mutant("src/freqsynth/evaluation.py", "    _checked_window(target, L, (H,))\n", "",
           "size_variates_sweep checks its target's length only after its fits",
           ("test_cli.py",)),
    # the census: its report, its statement listing, and the tier-1 gate
    Mutant("tests/census.py", "    return 1 if unexplained or stale else 0",
           "    return 1 if stale else 0", "the census passes an unexplained finding",
           ("test_signatures.py",)),
    Mutant("tests/census.py", "            out.extend(unreached(s.children, hits))",
           "            pass", "the census lists no statement inside a reached one",
           ("test_signatures.py",)),
    Mutant("tests/census.py", "            if value != id(defaults[key]):",
           "            if True:", "the census skips a parameter left at a non-scalar default",
           ("test_signatures.py",)),
    Mutant("src/freqsynth/spectral.py",
           "def periodogram_pcc(a: Periodogram, b: Periodogram) -> float:",
           "def periodogram_pcc(a: Periodogram, b: Periodogram, eps: float = 0.0) -> float:",
           "a public function gains a keyword parameter that no caller sets",
           ("test_signatures.py",)),
    Mutant("src/freqsynth/generator.py", "    return standardize_by_train(ds)[0]",
           "    if not ds.n:\n        return ds\n    return standardize_by_train(ds)[0]",
           "a public function gains a statement that no caller reaches",
           ("test_signatures.py",)),
    # inputs named by similarity's self-check and transfer's trainer
    Mutant("src/freqsynth/cli.py",
           "            diagonal.append(periodogram_pcc(p, p))\n        pgrams.append(p)",
           "        diagonal.append(periodogram_pcc(p, p))\n        pgrams.append(p)",
           "similarity checks each input's periodogram outside its naming",
           ("test_cli.py",)),
    Mutant("src/freqsynth/evaluation.py", '            exc.args = (f"{ds_id}: {exc}",)',
           "            exc.args = exc.args",
           "transfer_matrix does not name the dataset its trainer failed on",
           ("test_cli.py", "test_evaluation.py")),
    # the fit's normalization folded into its left operand; drawn mix members
    Mutant("src/freqsynth/forecast.py", "    total -= left.T @ mu\n", "",
           "the folded right-hand side without its mu correction",
           ("test_forecast.py", "test_window_gather.py")),
    Mutant("src/freqsynth/forecast.py", "    phi /= sd\n", "    phi *= sd\n",
           "the ridge's left operand multiplied by sd", ("test_forecast.py",)),
    Mutant("src/freqsynth/forecast.py", "    u[:, :rank] /= sd\n", "    u[:, :rank] *= sd\n",
           "the exact fit's U multiplied by sd", ("test_forecast.py",)),
    Mutant("src/freqsynth/generator.py", "counts.any(axis=0)", "counts.any(axis=1)",
           "the drawn-member mask reduced over members: one flag per channel",
           ("test_generator.py",)),
    # MSE-only scoring for the drivers; an empty transfer --inputs; config values
    Mutant("src/freqsynth/evaluation.py",
           "    mse, mae = _scores([model], test_ds, L, horizons)\n",
           "    mse, mae = _scores([model], test_ds, L, horizons, mae=False).repeat(2, axis=0)\n",
           "evaluate_zero_shot takes the MSE-only path and reports its MSE as the MAE",
           ("test_evaluation.py",)),
    Mutant("src/freqsynth/evaluation.py",
           "[_scores(models, ds, L, (H,), mae=False)[0, :, 0] for ds in datasets]",
           "[_scores(models, ds, L, (H,))[0, :, 0] for ds in datasets]",
           "transfer_matrix sums absolute errors that it never reads",
           ("test_evaluation.py",)),
    Mutant("src/freqsynth/cli.py", "    if args.inputs is not None:\n",
           "    if args.inputs:\n", "transfer --inputs with no paths uses the synthetic "
           "registry", ("test_cli.py",)),
    Mutant("src/freqsynth/dataio.py", '        exc.args = (f"{path}: {exc}",)\n',
           "", "a bad value in a config file does not name the file", ("test_cli.py",)),
    Mutant("src/freqsynth/dataio.py",
           '        GeneratorConfig(**{"omega_bar": 0.25, **flags})\n', "",
           "a bad flag over a config file blames the file", ("test_cli.py",)),
    # an explicit pool is three checked arrays; one window check per call
    Mutant("src/freqsynth/generator.py", "    in_range = (amps > 0, ",
           "    in_range = (amps == amps, ", "an explicit pool accepts amplitudes <= 0",
           ("test_generator.py",)),
    Mutant("src/freqsynth/generator.py", "(freqs > 0) & (freqs < 0.5)", "freqs == freqs",
           "an explicit pool accepts frequencies outside (0, 0.5)", ("test_generator.py",)),
    Mutant("src/freqsynth/generator.py", "(phases >= 0) & (phases < 2 * np.pi)",
           "phases == phases", "an explicit pool accepts phases outside [0, 2*pi)",
           ("test_generator.py",)),
    Mutant("src/freqsynth/generator.py", "    if len(pool) != 3:\n", "    if False:\n",
           "an explicit pool of 4 arrays drops the 4th", ("test_generator.py",)),
    Mutant("src/freqsynth/generator.py", "        if not 0 < a.size == amps.size:",
           "        if not a.size == amps.size:", "an explicit pool may be empty",
           ("test_generator.py",)),
    Mutant("src/freqsynth/generator.py", "        if not 0 < a.size == amps.size:",
           "        if not 0 < a.size:", "an explicit pool's arrays may differ in length",
           ("test_generator.py",)),
    Mutant("src/freqsynth/generator.py", "[_freeze(a, k, 1) for a, k in",
           "[np.array(a, dtype=np.float64) for a, k in",
           "an explicit pool is neither frozen nor checked finite", ("test_generator.py",)),
    Mutant("src/freqsynth/evaluation.py", "        L, (H,) = _checked_window(ds, L, (H,))\n",
           "        _checked_window(ds, L, (H,))\n",
           "harmonics_sweep scores with the L and H it was given, not the checked ints",
           ("test_whole_numbers.py",)),
    # deep JSON nesting, an infinite amplitude scale and a too-short periodogram input
    Mutant("src/freqsynth/generator.py", "self.A_prime <= _A_PRIME_L_MAX / self.l:",
           "self.A_prime <= _A_PRIME_L_MAX:", "the A_prime bound does not divide by l",
           ("test_generator.py",)),
    Mutant("src/freqsynth/dataio.py", "    except (ValueError, RecursionError) as exc:",
           "    except ValueError as exc:", "a deeply nested config file is not caught",
           ("test_dataio.py", "test_cli.py")),
    Mutant("src/freqsynth/forecast.py", "    except RecursionError as exc:",
           "    except ZeroDivisionError as exc:", "a deeply nested model is not caught",
           ("test_forecast.py", "test_cli.py")),
    Mutant("src/freqsynth/cli.py", "    with _naming(args.input, WindowTooLong):",
           "    if True:", "periodogram does not name an input shorter than its window",
           ("test_cli.py",)),
    Mutant("src/freqsynth/cli.py", "_naming(args.input, WindowTooLong)",
           "_naming(args.input)", "periodogram names the input for a bad --window flag",
           ("test_cli.py",)),
    # one step per row: windows indexed by series row, CSV rows parsed as read
    Mutant("src/freqsynth/generator.py", "    flat_starts = flat + row * (length - 1)\n",
           "    flat_starts = flat\n", "sample_windows drops the row shift",
           ("test_window_gather.py",)),
    Mutant("src/freqsynth/generator.py", "flat + row * (length - 1)", "flat + row * length",
           "sample_windows shifts each row by one step too many", ("test_window_gather.py",)),
    Mutant("src/freqsynth/dataio.py", "            if len(row) != width:\n"
           "                raise RaggedRows(path, r, width, len(row))\n", "",
           "the csv fallback without its per-row width check", ("test_dataio.py",)),
    Mutant("src/freqsynth/dataio.py", "enumerate(row[1:], start=2) if not _is_number(cell)",
           "enumerate(row[1:], start=1) if not _is_number(cell)",
           "the bad-column search reports the column before", ("test_dataio.py",)),
    # an amplitude scale whose render can overflow; error values of any size
    Mutant("src/freqsynth/generator.py", "0.01 < self.A_prime <= _A_PRIME_L_MAX / self.l:",
           "0.01 < self.A_prime:", "GeneratorConfig accepts an A_prime whose render "
           "overflows, infinity included", ("test_generator.py", "test_cli.py")),
    Mutant("src/freqsynth/dataset.py",
           '    return text if len(text) <= 80 else text[:77] + "..."', "    return repr(value)",
           "error messages show a value from a file or a flag whole",
           ("test_dataset.py", "test_cli.py")),
    Mutant("src/freqsynth/dataset.py",
           '        return f"<{type(value).__name__} too large to show>"', "        raise",
           "an int past str's digit limit fails the error it was to be shown in",
           ("test_dataset.py", "test_cli.py")),
]


def _path(mutant: Mutant, root: str = ROOT) -> str:
    return os.path.join(root, mutant.file)


def occurrences(mutant: Mutant, root: str = ROOT) -> int:
    """How many times the mutant's old text occurs in its file."""
    with open(_path(mutant, root), encoding="utf-8") as f:
        return f.read().count(mutant.old)


def _pytest(tests, root, env) -> int:
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *(os.path.join("tests", t) for t in tests)]
    done = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=900)
    return done.returncode


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as root:
        for name in COPIED:
            if os.path.isdir(os.path.join(ROOT, name)):
                shutil.copytree(os.path.join(ROOT, name), os.path.join(root, name),
                                ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy(os.path.join(ROOT, name), root)
        src = os.path.join(root, "src")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        where = subprocess.run(
            [sys.executable, "-c", "import freqsynth; print(freqsynth.__file__)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        if not where.startswith(src):
            sys.exit(f"freqsynth imports from {where.strip()}, not the copy in {src}")
        for mutant in MUTANTS:
            label = f"{mutant.file}: {mutant.reason}"
            count = occurrences(mutant, root)
            if count != 1:
                print(f"STALE     {label} (old text found {count} times)", flush=True)
                bad += 1
                continue
            path = _path(mutant, root)
            with open(path, encoding="utf-8") as f:
                original = f.read()
            with open(path, "w", encoding="utf-8") as f:
                f.write(original.replace(mutant.old, mutant.new))
            try:
                status = _pytest(mutant.tests, root, env)
            except subprocess.TimeoutExpired:
                status = "timeout"
            finally:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(original)
            if status == 1:
                print(f"killed    {label}", flush=True)
                continue
            bad += 1
            if status == 0:
                print(f"SURVIVED  {label} ({', '.join(mutant.tests)})", flush=True)
            else:  # a mutant that breaks collection tests nothing
                print(f"ERROR     {label} (pytest status {status})", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
