"""Statements of freqsynth that no non-test caller reaches, and parameters
that every call leaves at one value.

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

The same run also takes a value census.  It records the argument of
every parameter of every call into a public function or method of
``src/freqsynth`` (a class call is keyed by the class, its ``__init__``
parameters as ``Class(param)``), and the init fields of every dataclass
as its ``__post_init__`` reads them (``Class(field)``), when the value is
a bool, int, float, str or None, or a tuple of these; numpy numbers
count as the Python number they equal.  A parameter that took any other
value in some call took more than one value.  It then prints each
parameter that took exactly one value across every call, as
``value: <qualname>(<param>) = <repr>``: a knob that every caller leaves
at one setting.  A parameter kept so on purpose is printed with its
reason (``KEPT_VALUES``), and a ``KEPT_VALUES`` entry that names no
such parameter as ``stale``; either an unexplained finding or a stale
entry makes the script exit 1.

This is a script, not a pytest module: the runs take about 15 s on two
cores.  ``tests/test_signatures.py`` checks in tier-1 that every
``KEPT`` entry names exactly one statement and every ``KEPT_VALUES``
entry a public parameter or dataclass field, and that both reports
fail on an unexplained finding or a stale entry.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import glob
import importlib
import inspect
import io
import numbers
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


# Parameters that took one value in every call on purpose, keyed as the
# value section prints them.
KEPT_VALUES = {
    "generalization_experiment(target_omega)": (
        "perfbench's experiments workload passes 1/24 positionally, so the "
        "parameter and its --omega flag stay while perfbench/ is unchanged"
    ),
    "size_variates_sweep(seed)": (
        "the census runs cli_digests at seed 0 only; sweep-size --seed "
        "passes the seed of each run"
    ),
    "load_generator_config(path)": (
        "a file path: cli_digests writes one --config file"
    ),
    "save_reports_json(path)": (
        "a file path: cli_digests writes one .json evaluate report"
    ),
    "model_from_json(text)": (
        "a file's text: cli_digests evaluates one saved model file"
    ),
    "WindowSet.block(lo)": (
        "windowset_metrics is its one library caller, and every caller's set "
        "fits in one scoring block, which starts at window 0; a larger set "
        "starts later blocks"
    ),
    "GeneratorConfig(A_prime)": (
        "the paper's amplitude scale A'; a --config file can set it, and "
        "it is part of every config digest"
    ),
    "SplitSpec(train_frac)": (
        "the three fractions come from evaluate --split, which cli_digests "
        "runs once"
    ),
    "SplitSpec(val_frac)": "as SplitSpec(train_frac)",
    "SplitSpec(test_frac)": "as SplitSpec(train_frac)",
    "synthesize(pool)": (
        "None in every call: perfbench/tracing.py's _synthesize counter "
        "binds the argument 'pool' (ROADMAP item 4)"
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

# The value of an argument that is not a bool, int, float, str, None or
# a tuple of these: a parameter that took one took more than one value.
_OTHER = object()


def _scalar(value):
    """``repr`` of a bool, int, float, str or None (numpy numbers as the
    Python number they equal), or of a tuple of these; else _OTHER."""
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, numbers.Integral):
        return repr(int(value))
    if isinstance(value, numbers.Real):
        return repr(float(value))
    if isinstance(value, tuple):
        items = [_scalar(v) for v in value]
        if _OTHER not in items:
            return f"({', '.join(items)}{',' if len(items) == 1 else ''})"
    return _OTHER


def _record(frame, values: dict[str, set]) -> None:
    """Add the arguments of the call that opens ``frame`` to ``values``,
    keyed ``<qualname>(<param>)``.  A method's qualname is its class's and
    its name; ``__init__``'s is its class's, and ``__post_init__`` adds its
    dataclass's init fields under the class's.  A call of a private or
    nested function is skipped; the report keeps only the keys that
    ``public_parameters`` lists."""
    code = frame.f_code
    qualname = code.co_qualname
    owner, _, name = qualname.rpartition(".")
    if name == "__post_init__":
        self = frame.f_locals["self"]
        for f in dataclasses.fields(self):
            if f.init:
                values.setdefault(f"{owner}({f.name})", set()).add(
                    _scalar(getattr(self, f.name)))
        return
    if name == "__init__":
        qualname = owner
    elif name.startswith("_") or "<" in qualname:
        return
    local = frame.f_locals
    for param in code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]:
        values.setdefault(f"{qualname}({param})", set()).add(_scalar(local[param]))


def _tracer(hits: set[tuple[str, int]], values: dict[str, set]):
    """A trace function that adds (file, line) to ``hits`` for each line of
    ``src/freqsynth`` that runs, and each call's arguments to ``values``
    (``_record``)."""
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
        if not files[name]:
            return None
        _record(frame, values)
        return lines

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


def reached() -> tuple[set[tuple[str, int]], dict[str, set]]:
    """(file, line) of every line of ``src/freqsynth`` the callers run, and
    the values each parameter took (``_record``)."""
    if any(name == "freqsynth" or name.startswith("freqsynth.") for name in sys.modules):
        sys.exit("freqsynth is imported already: its module code would not be traced")
    hits: set[tuple[str, int]] = set()
    values: dict[str, set] = {}
    trace = _tracer(hits, values)
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
    return hits, values


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


def _params(fn, skip: int = 0) -> list[str]:
    """The named parameters of ``fn`` after its first ``skip``."""
    params = list(inspect.signature(fn).parameters.values())[skip:]
    return [p.name for p in params
            if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]


def public_parameters() -> set[str]:
    """``<qualname>(<param>)`` of every parameter of a public function or
    method of ``src/freqsynth``, every ``__init__`` parameter of a public
    class and every init field of a public dataclass, as the value census
    keys them; exception classes are left out."""
    out = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        stem = os.path.basename(path)[:-3]
        module = importlib.import_module(
            "freqsynth" if stem == "__init__" else f"freqsynth.{stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out.update(f"{name}({p})" for p in _params(obj))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                if dataclasses.is_dataclass(obj):
                    out.update(f"{name}({f.name})" for f in dataclasses.fields(obj) if f.init)
                elif "__init__" in vars(obj):
                    out.update(f"{name}({p})" for p in _params(obj.__init__, 1))
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        skip, member = int(isinstance(member, classmethod)), member.__func__
                    else:
                        skip = 1
                    if inspect.isfunction(member):
                        out.update(f"{name}.{attr}({p})" for p in _params(member, skip))
    return out


def value_report(values: dict[str, set], known: set[str]) -> int:
    """Print each parameter of ``known`` that took exactly one value in
    ``values``, and each stale KEPT_VALUES entry; 1 if a parameter has no
    reason or an entry is stale."""
    single = {key: next(iter(seen)) for key, seen in sorted(values.items())
              if key in known and len(seen) == 1 and _OTHER not in seen}
    unexplained = 0
    for key, value in single.items():
        line = f"value: {key} = {value if len(value) <= 60 else value[:56] + ' ...'}"
        reason = KEPT_VALUES.get(key)
        if reason is None:
            unexplained += 1
            print(line)
        else:
            print(f"{line}  kept: {reason}")
    stale = [key for key in KEPT_VALUES if key not in single]
    for key in stale:
        why = ("a parameter that took more than one value or none" if key in known
               else "no public parameter")
        print(f"stale: {key}  (a KEPT_VALUES entry that names {why})")
    print(f"{len(single)} parameters that took one value, {unexplained} without a "
          f"recorded reason, {len(stale)} stale KEPT_VALUES entries", file=sys.stderr)
    return 1 if stale or unexplained else 0


def main() -> int:
    hits, values = reached()
    found = statements()
    status = report(unreached(found, hits), set(every_key(found)))
    return max(status, value_report(values, public_parameters()))


if __name__ == "__main__":
    raise SystemExit(main())
