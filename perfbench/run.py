"""Run one freqsynth benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

One client runs the workload's iterations back to back (a closed loop)
for about ``--seconds``, and at least twice.  ``--trace 0``
measures the end-to-end metrics with the library untouched; ``--trace 1``
runs half the time untraced (at least twice) and half with spans around
every public call, and reports the per-layer metrics.  Every output is
checked after its iteration's timed region.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with a manifest block (and, when traced, a
JSON-lines span file) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("pipeline", "train", "experiments", "analysis")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
MIN_ITERATIONS = 2
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Iteration:
    index: int
    wall: float
    cpu: float
    attempted: int
    failures: list
    max_rel_err: float
    spans: list | None


def cap_blas_threads() -> None:
    """Keep BLAS/OpenMP pools at or below the cores this process may use.

    Must run before numpy is imported; the set-up probes inherit it.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)


def run_iterations(fn, sizes, seed, first, seconds, min_count, tmpdir, tracer=None,
                   between=None):
    """Iterations back to back for about ``seconds``, and at least ``min_count``.

    Another iteration starts only if, at the median length of the ones
    so far (checks and ``between`` included), it would end nearer the
    deadline than stopping now would: a run lasts ``seconds`` give or
    take half an iteration instead of overrunning by a whole one.
    ``between()``, if given, runs after each iteration's checks.
    """
    from workloads import Ops, iteration_seeds

    if tracer is None:
        wrap = lambda trainer: trainer  # noqa: E731
    else:
        wrap = lambda trainer: tracer.wrap(trainer, "evaluation.train_callback")  # noqa: E731
    done = []
    cycles = []
    deadline = perf_counter() + seconds
    while len(done) < min_count or (
            perf_counter() + statistics.median(cycles) / 2 < deadline):
        start = perf_counter()
        index = first + len(done)
        ops = Ops()
        seeds = iteration_seeds(seed, index)
        if tracer is not None:
            tracer.iteration = index
        gc.collect()  # every iteration starts from the same collector state
        cpu0, t0 = process_time(), perf_counter()
        try:
            fn(ops, sizes, seeds, wrap, tmpdir)
        except Exception as exc:  # counted as a failed operation, run goes on
            ops.aborted(exc)
        wall, cpu = perf_counter() - t0, process_time() - cpu0
        spans = tracer.take() if tracer is not None else None
        failures = ops.verify()
        if tracer is not None:
            tracer.take()  # spans opened by the checks belong to no iteration
        done.append(Iteration(index, wall, cpu, ops.attempted, failures,
                              ops.max_rel_err, spans))
        if between is not None:
            between()
        cycles.append(perf_counter() - start)
    return done


def measure_setup(tmpdir: str, repeats: int) -> list[float]:
    """Wall time of ``repeats`` fresh interpreters running warmup.py."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    probe = [sys.executable, str(Path(__file__).with_name("warmup.py")), tmpdir]
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantize the measurement
        subprocess.run(probe, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def tail_percentile(values: list[float]):
    """(p, value) of the highest percentile with >= 10 samples beyond it."""
    xs = sorted(values)
    k = len(xs) - 11
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(xs), xs[k]


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name.strip() == ref:
                return sha
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def manifest(workload, seed, seconds, trace, sizes) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    return {
        "kind": "manifest",
        "argv": sys.argv,
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas and {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "sizes": sizes,
    }


def unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes") or metric.startswith("dataio.bytes"):
        return "B"
    if metric.endswith("_flops"):
        return "flop"
    return "count"


def run(workload, seed, seconds, trace, sizes, setup_probes=SETUP_PROBES) -> dict:
    """Run one workload; return the result record (see module docstring)."""
    # imported here, not at the top: numpy must see cap_blas_threads first
    import tracing
    from workloads import WORKLOADS as FUNCTIONS

    fn = FUNCTIONS[workload]
    z = sizes[workload]
    OUT.mkdir(parents=True, exist_ok=True)
    detail = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        if trace:
            plain = run_iterations(fn, z, seed, 0, seconds / 2, 2, tmpdir)
            tracer = tracing.Tracer()
            with tracer.instrument():
                traced = run_iterations(fn, z, seed, len(plain), seconds / 2, 1,
                                        tmpdir, tracer)
            metrics = tracing.median_metrics(
                [tracing.iteration_metrics(it.spans, it.wall) for it in traced])
            # The first iteration pays first-touch costs (allocator growth,
            # page faults) that the traced ones, running later, do not.
            warm = plain[1:]
            metrics["process.cpu_s"] = statistics.median(it.cpu for it in warm)
            metrics["trace.overhead_s"] = (
                metrics["trace.wall_s"] - statistics.median(it.wall for it in warm))
            iterations = plain + traced
        else:
            # Probes before the first iteration and after every one: the
            # host's speed drifts over seconds, and the median of probes
            # spread over the whole run follows it less than a burst would.
            setup = measure_setup(tmpdir, setup_probes)
            iterations = run_iterations(
                fn, z, seed, 0, seconds, MIN_ITERATIONS, tmpdir,
                between=lambda: setup.extend(measure_setup(tmpdir, setup_probes)))
            walls = [it.wall for it in iterations]
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_kib / 1024,
            }
            detail = {"wall_s_samples": walls, "wall_s_tail": tail_percentile(walls),
                      "setup_s_samples": setup}

    attempted = sum(it.attempted for it in iterations)
    failures = [(it.index, f) for it in iterations for f in it.failures]
    detail.update({
        "iterations": len(iterations),
        "error_rate": len(failures) / attempted if attempted else 1.0,
        "max_rel_err": max(it.max_rel_err for it in iterations),
        "failures": failures[:20],
    })
    head = manifest(workload, seed, seconds, trace, sizes)
    stem = OUT / f"{workload}-seed{seed}-trace{trace}"
    result = {
        "correct": attempted > 0 and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in sorted(metrics.items())},
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"manifest": head, "detail": detail, "result": result}, f, indent=1)
        f.write("\n")
    if trace:
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as f:
            f.write(json.dumps(head) + "\n")
            for it in iterations:
                for i, span in enumerate(it.spans or ()):
                    f.write(json.dumps({"id": i, **vars(span)}) + "\n")
    return {"result": result, "detail": detail, "file": f"{stem}.json"}


def report(workload, seed, trace, outcome) -> None:
    """Human-readable lines; every metric by name with its unit."""
    result, detail = outcome["result"], outcome["detail"]
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"iterations {detail['iterations']}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not trace:
        tail = detail["wall_s_tail"]
        print(f"  wall_s: median of {len(detail['wall_s_samples'])} samples; "
              + (f"p{tail[0]:.0f} {tail[1]:.6g} s" if tail
                 else "no percentile has 10 samples beyond it"))
        print(f"  setup_s: median of {len(detail['setup_s_samples'])} fresh interpreters")
    print(f"  {'error_rate':32s} {detail['error_rate']:.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(f"  {'max_rel_err':32s} {detail['max_rel_err']:.6g} ratio")
    for index, failure in detail["failures"]:
        print(f"  FAILED (iteration {index}): {failure}")
    print(f"  result file {os.path.relpath(outcome['file'], ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "freqsynth" / "__init__.py").is_file():
        print(f"perfbench: no freqsynth sources under {SRC}", file=sys.stderr)
        return 2
    # numpy reads the thread variables at import, so cap them first.
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    from workloads import SIZES

    outcome = run(args.workload, args.seed, args.seconds, args.trace, SIZES)
    report(args.workload, args.seed, args.trace, outcome)
    print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
