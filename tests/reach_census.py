"""Statements of freqsynth that no non-test caller reaches.

``tests/public_census.py`` reads the callers; this script runs them and
records which lines of ``src/freqsynth`` execute.  The callers are
``tests/cli_digests.py`` for seed 0, every ``demos/*.py`` script, the
python blocks of README's Quickstart (``quickstart()``), and each perfbench workload at its
``TINY`` sizes, once plain and once inside ``tracing.Tracer().instrument()``
(called directly, as ``perfbench/test_perfbench.py`` does, so nothing is
written under ``perfbench/out/``).  Each runs in a temporary directory.
Lines are recorded with ``sys.settrace`` and ``threading.settrace``; no
coverage package is needed.

The script then reads each module with ``ast`` and prints one line per
statement that no caller reached, as ``<file>: <statement text>`` with
whitespace runs collapsed; a compound statement's text is its header,
through the colon.  A statement counts as reached when any line it spans
ran.  A statement inside a listed one is not listed again.  Not counted:
``def``, ``class`` and ``import`` statements, docstrings, ``global`` and
``nonlocal``, ``raise`` statements and every block that ends in one,
the bodies of ``except`` clauses, ``parser.error(...)`` calls and the
methods of exception classes.  They run no code of their own, or build
and handle errors, which the tests pin.

A statement left unreached on purpose is printed with its reason
(``KEPT``); a ``KEPT`` entry that does not name a listed statement is
printed as ``stale``, since the statement it explained has gone or is
reached now.  The script exits 1 when any listed statement has no
recorded reason or any ``KEPT`` entry is stale, e.g.

    PYTHONPATH=src python tests/reach_census.py

This is a script, not a pytest module: the runs take about 15 s on two
cores.  ``tests/test_signatures.py`` checks in tier-1 only that every
``KEPT`` entry names exactly one statement.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import importlib
import io
import os
import re
import runpy
import sys
import tempfile
import threading
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "freqsynth")

# perfbench's check that a perturbed forecast fails its workload.
_PERTURBED = (
    "perfbench/test_perfbench.py::test_forecasts_perturbed_by_1e6_are_caught "
    "patches in `lambda self, X, H=None: real(self, X, H) + 1e-6`, a forecast "
    "with no `out`, so `pytest perfbench` fails without this path"
)

# Statements left unreached on purpose, keyed as the script prints them.
KEPT = {
    "evaluation.py: return lambda X, out: model.forecast(X, h)": (
        "a model whose forecast takes no `out`, which README's Evaluation "
        "section allows a custom model; " + _PERTURBED
    ),
    "forecast.py: out = np.empty((arr.shape[0], H))": (
        "SeasonalNaiveForecaster.forecast without `out`: " + _PERTURBED
    ),
    "dataset.py: return np.empty((0, stop - first))": (
        "the lookbacks and horizons of a zero-window set built from arrays: "
        "its series is shorter than one window, which sliding_window_view "
        "cannot cut"
    ),
    "generator.py: if not pool:": (
        "synthesize's explicit pool: perfbench/tracing.py's _synthesize "
        "counter binds the argument 'pool' (public census); ROADMAP item 4"
    ),
    "generator.py: arrays = [np.array([getattr(s, k) for s in pool]) "
    "for k in (\"amplitude\", \"frequency\", \"phase\")]": (
        "synthesize's explicit pool, as the entry above"
    ),
    "__main__.py: if __name__ == \"__main__\":": (
        "`python -m freqsynth` runs it; the census imports the package and "
        "never runs it as a program"
    ),
    "dataio.py: return True": (
        "_is_number's True answers load_csv's header check only for a header "
        "whose first cell is a number; every caller's header starts with a "
        "name such as `date`, and the check stops at the first non-number"
    ),
}


class Statement(NamedTuple):
    file: str  # the module's file name, e.g. "cli.py"
    key: str  # "<file>: <statement text>"
    first: int  # the first and last line the statement spans
    last: int
    children: tuple  # the counted statements directly inside it


# -- the statements ----------------------------------------------------------

_UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
              ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Raise)

# The expression that ends each compound statement's header.
_HEADS = {ast.If: "test", ast.While: "test", ast.For: "iter"}


def _segment(lines: list[str], first: int, col: int, last: int, end: int) -> str:
    """The source from line ``first`` at byte ``col`` to line ``last`` at
    byte ``end``, as ``ast`` numbers them (lines from 1, UTF-8 offsets)."""
    if first == last:
        return lines[first - 1].encode()[col:end].decode()
    return (lines[first - 1].encode()[col:].decode() + "".join(lines[first : last - 1])
            + lines[last - 1].encode()[:end].decode())


def _text(lines: list[str], node) -> str:
    """A statement's source; a compound statement's through its header's colon."""
    if not hasattr(node, "body"):
        return _segment(lines, node.lineno, node.col_offset, node.end_lineno,
                        node.end_col_offset)
    if isinstance(node, ast.Try):
        return "try:"
    if isinstance(node, ast.With):
        item = node.items[-1]
        last = item.optional_vars or item.context_expr
    else:
        last = getattr(node, _HEADS[type(node)])
    head = _segment(lines, node.lineno, node.col_offset, last.end_lineno,
                    last.end_col_offset)
    body = node.body[0]
    rest = _segment(lines, last.end_lineno, last.end_col_offset, body.lineno,
                    body.col_offset)
    return head + re.match(r"[\s)\\]*:", rest).group(0)


def _counted(node) -> bool:
    """Whether ``node`` runs code of its own that is not error handling."""
    if isinstance(node, _UNCOUNTED):
        return False
    if isinstance(node, ast.Expr):
        value = node.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return False  # a docstring
        func = getattr(value, "func", None)
        if (isinstance(func, ast.Attribute) and func.attr == "error"
                and getattr(func.value, "id", "") == "parser"):
            return False
    return True


def _is_error_class(node, module) -> bool:
    cls = getattr(module, node.name, None)
    return isinstance(cls, type) and issubclass(cls, BaseException)


def _statements(body, file: str, lines: list[str], module) -> tuple:
    """The counted statements of a block, each with those inside it."""
    if body and isinstance(body[-1], ast.Raise):
        return ()  # a block that only builds an error
    out = []
    for node in body:
        if isinstance(node, ast.ClassDef) and _is_error_class(node, module):
            continue
        inner = []
        for field in ("body", "orelse", "finalbody"):
            inner.extend(_statements(getattr(node, field, []), file, lines, module))
        if not _counted(node):
            out.extend(inner)
            continue
        key = f"{file}: {' '.join(_text(lines, node).split())}"
        out.append(Statement(file, key, node.lineno, node.end_lineno, tuple(inner)))
    return tuple(out)


def statements() -> list[Statement]:
    """The counted top-level statements of each module of ``src/freqsynth``,
    each with the counted statements inside it."""
    out = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        file = os.path.basename(path)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        stem = file[:-3]
        module = importlib.import_module(
            "freqsynth" if stem == "__init__" else f"freqsynth.{stem}")
        lines = source.splitlines(keepends=True)
        out.extend(_statements(ast.parse(source).body, file, lines, module))
    return out


def every_key(found) -> list[str]:
    """The keys of ``found`` and of every statement inside them."""
    return [k for s in found for k in (s.key, *every_key(s.children))]


def unreached(found, hits: set[tuple[str, int]]) -> list[str]:
    """Keys of the statements in ``found`` that span no line of ``hits``,
    outermost first: a statement inside an unreached one is left out."""
    out = []
    for s in found:
        if any((s.file, line) in hits for line in range(s.first, s.last + 1)):
            out.extend(unreached(s.children, hits))
        else:
            out.append(s.key)
    return out


# -- the callers ---------------------------------------------------------------

def _tracer(hits: set[tuple[str, int]]):
    """A trace function that adds (file, line) to ``hits`` for each line of
    ``src/freqsynth`` that runs."""
    files: dict[str, str | None] = {}  # co_filename -> module file or None

    def lines(frame, event, arg):
        if event == "line":
            hits.add((files[frame.f_code.co_filename], frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.abspath(name)
            files[name] = os.path.basename(path) if os.path.dirname(path) == SRC else None
        return lines if files[name] else None

    return calls


@contextlib.contextmanager
def _fresh_directory():
    """Run the block in a new temporary directory, which also holds what
    the block's ``tempfile`` calls make."""
    cwd, tempdir = os.getcwd(), tempfile.tempdir
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        tempfile.tempdir = directory
        try:
            yield directory
        finally:
            os.chdir(cwd)
            tempfile.tempdir = tempdir


def quickstart() -> str:
    """The python blocks of README's Quickstart section, joined in order:
    the one definition of that code, which both censuses and
    ``tests/test_demos.py`` read."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        section = f.read().split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    return "\n".join(re.findall(r"```python\n(.*?)```", section, flags=re.S))


def _run_callers() -> None:
    sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]
    import cli_digests  # the first import of freqsynth, so module code is traced

    with contextlib.redirect_stdout(io.StringIO()):
        with _fresh_directory() as directory:
            cli_digests.digests(0, directory)
        for demo in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
            with _fresh_directory():
                runpy.run_path(demo, run_name="__main__")
        with _fresh_directory():
            exec(compile(quickstart(), "README.md (Quickstart)", "exec"),
                 {"__name__": "__main__"})

    import tracing
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        for traced in (False, True):
            ops, tracer = workloads.Ops(), tracing.Tracer()
            with _fresh_directory() as directory, \
                    tracer.instrument() if traced else contextlib.nullcontext():
                wrap = ((lambda t: tracer.wrap(t, "evaluation.train_callback"))
                        if traced else (lambda t: t))
                workload(ops, workloads.TINY[name], workloads.iteration_seeds(0, 0),
                         wrap, directory)
                failures = ops.verify()
            if failures:
                sys.exit(f"workload {name} (traced: {traced}) failed: {failures}")


def reached() -> set[tuple[str, int]]:
    """(file, line) of every line of ``src/freqsynth`` the callers run."""
    if any(name == "freqsynth" or name.startswith("freqsynth.") for name in sys.modules):
        sys.exit("freqsynth is imported already: its module code would not be traced")
    hits: set[tuple[str, int]] = set()
    trace = _tracer(hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        _run_callers()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import freqsynth

    where = os.path.dirname(os.path.abspath(freqsynth.__file__))
    if where != SRC:
        sys.exit(f"freqsynth imports from {where}, not {SRC}")
    return hits


# -- the report ----------------------------------------------------------------

def report(missed: list[str], known: set[str]) -> int:
    """Print each unreached statement and each stale KEPT entry; 1 if a
    statement has no reason or an entry is stale.  ``known`` holds every
    statement's key."""
    unexplained = 0
    for key in missed:
        reason = KEPT.get(key)
        if reason is None:
            unexplained += 1
            print(key)
        else:
            print(f"{key}  kept: {reason}")
    stale = [key for key in KEPT if key not in missed]
    for key in stale:
        why = "a statement that is not listed" if key in known else "no statement"
        print(f"stale: {key}  (a KEPT entry that names {why})")
    print(f"{len(missed)} unreached statements, {unexplained} without a recorded "
          f"reason, {len(stale)} stale KEPT entries", file=sys.stderr)
    return 1 if unexplained or stale else 0


def main() -> int:
    hits = reached()
    found = statements()
    return report(unreached(found, hits), set(every_key(found)))


if __name__ == "__main__":
    raise SystemExit(main())
