"""Set-up probe: import freqsynth in a fresh interpreter, one tiny call per layer.

``run.py`` times this script from spawn to exit for ``setup_s``; the
calls pay the one-off costs (module import, FFT plan, BLAS thread pool
spin-up, file I/O) that every real run pays before its first result.

Usage: PYTHONPATH=src python3 perfbench/warmup.py <scratch directory>
"""

import os
import sys

import freqsynth as fs


def main(tmpdir: str) -> None:
    ds = fs.synthesize(fs.GeneratorConfig(omega_bar=1 / 8, n=256, d=2, seed=0))
    fs.estimate_fundamental(ds)
    windows, _ = fs.sample_windows([ds], 64, 0, 16, 8, seed=0)
    model = fs.fit_ridge(windows)
    fs.evaluate_zero_shot(model, fs.standardize(ds), 16, (8,))
    path = os.path.join(tmpdir, "warmup.csv")
    fs.save_csv(ds, path)
    fs.load_csv(path)


if __name__ == "__main__":
    main(sys.argv[1])
