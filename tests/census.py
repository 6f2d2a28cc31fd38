"""What of freqsynth no non-test caller reaches, sets, names or reads.

The callers are the code that ships or documents the API:
``tests/cli_digests.py`` for seed 0, every ``demos/*.py`` script, the
python blocks of README's Quickstart (``quickstart()``) and each perfbench
workload at its ``TINY`` sizes, once plain and once inside
``tracing.Tracer().instrument()`` (called directly, as
``perfbench/test_perfbench.py`` does, so nothing is written under
``perfbench/out/``).  Each runs in a temporary directory, under
``sys.settrace`` and ``threading.settrace``; no coverage package is
needed.  Tests are not callers.  The script prints one line per finding,
of four kinds:

* ``statement <file>: <text>``: a statement of ``src/freqsynth`` that no
  caller reached, with whitespace runs collapsed; a compound statement's
  text is its header, through the colon.  A statement counts as reached
  when any line it spans ran, and one inside a listed statement is not
  listed again.  Not counted: ``def``, ``class`` and ``import``
  statements, docstrings, ``global`` and ``nonlocal``, ``raise``
  statements and every block that ends in one, ``parser.error(...)``
  calls and the methods of exception classes.  They run no code of their
  own, or build errors, which the tests pin.  So the body of a function
  that no caller calls is listed.
* ``value <qualname>(<param>) = <value>``: a parameter of a public
  function or method (a class call is keyed by the class, its
  ``__init__`` parameters as ``Class(param)``), or an init field of a
  public dataclass as its ``__post_init__`` reads it, that took exactly
  one value in every call: a knob that every caller leaves at one
  setting.  A value is a bool, int, float, str or None, or a tuple of
  these (numpy numbers count as the Python number they equal), or the
  parameter's own default object, whatever its type.  Any other value
  differs from every value of another call, so a parameter that no
  caller sets is listed, as its default.
* ``name freqsynth.<module>.<name>``: a public module-level constant or
  class that no caller names.  A trace cannot see a name, so this and
  the next kind read the callers with ``ast``, ``src/freqsynth`` among
  them: a load that resolves through imports and module attributes to
  the object, or a ``getattr(module, name)`` with a constant name or
  one from a loop over constant names.
* ``field freqsynth.<module>.<Class>.<field>``: a field of a public
  dataclass, or a public name that a public class's methods set on
  ``self``, that no caller reads.  A read of ``f`` is a load ``x.f`` or a
  ``getattr(x, "f")``, also with ``"f"`` taken from a loop or
  comprehension over constant names, except a load that is the value of
  a keyword ``f=`` (a copy into a field of the same name, as
  ``rate=ds.rate``), a load inside the body of the class that defines
  ``f``, and a load on a variable that the same function also reads an
  attribute from that the class does not have (``args.rate`` next to
  ``args.omega`` reads a command-line namespace, not a Dataset).

A finding kept on purpose is printed under its reason in ``KEPT``, whose
entries each explain one or more findings; a key of an entry that is not
found is printed as ``stale``, since the code it explained has gone or is
reached or set now.  The script exits 1 when a finding has no recorded
reason or a key is stale, e.g.

    PYTHONPATH=src python tests/census.py

It takes about 10 s on two cores.  It must be the first import of
freqsynth in its process, so that module code is traced: tier-1 runs it
in a subprocess (``tests/test_signatures.py``).
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
import textwrap
import threading
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "freqsynth")

# Findings kept on purpose: each entry's keys are findings as the script
# keys them (a value without its " = <value>"), and its reason explains all.
KEPT = {
    ("value synthesize(pool)",
     "statement generator.py: names = (\"amplitudes\", \"frequencies\", \"phases\")",
     "statement generator.py: if len(pool) != 3:",
     "statement generator.py: amps, freqs, phases = arrays = [_freeze(a, k, 1) "
     "for a, k in zip(pool, names)]",
     "statement generator.py: in_range = (amps > 0, (freqs > 0) & (freqs < 0.5), "
     "(phases >= 0) & (phases < 2 * np.pi))",
     "statement generator.py: for name, a, ok, rule in zip(names, arrays, in_range, "
     "(\"> 0\", \"in (0, 0.5)\", \"in [0, 2*pi)\")):",
     "statement generator.py: return arrays"): (
        "synthesize's explicit pool, None in every call and so never checked "
        "or turned into arrays: perfbench/tracing.py's _synthesize counter "
        "binds the argument 'pool', so the traced benchmark runs need the "
        "parameter (ROADMAP item 4)"
    ),
    ("statement evaluation.py: return lambda X, out: model.forecast(X, h)",
     "statement forecast.py: out = np.empty((arr.shape[0], H))"): (
        "a forecast without `out`, which README's Evaluation section allows a "
        "custom model: perfbench/test_perfbench.py::"
        "test_forecasts_perturbed_by_1e6_are_caught patches in `lambda self, "
        "X, H=None: real(self, X, H) + 1e-6`, so `pytest perfbench` fails "
        "without these paths"
    ),
    ("statement dataset.py: return np.empty((0, stop - first))",): (
        "the lookbacks and horizons of a zero-window set built from arrays: "
        "its series is shorter than one window, which sliding_window_view "
        "cannot cut"
    ),
    ("statement __main__.py: if __name__ == \"__main__\":",): (
        "`python -m freqsynth` runs it; the census imports the package and "
        "never runs it as a program"
    ),
    ("statement dataio.py: return True",): (
        "_is_number's True answers load_csv's header check only for a header "
        "whose first cell is a number; every caller's header starts with a "
        "name such as `date`, and the check stops at the first non-number"
    ),
    ("value generalization_experiment(target_omega)",): (
        "perfbench's experiments workload passes 1/24 positionally, so the "
        "parameter stays while perfbench/ is unchanged"
    ),
    ("value size_variates_sweep(seed)",): (
        "the census runs cli_digests at seed 0 only; sweep-size --seed "
        "passes the seed of each run"
    ),
    ("value load_generator_config(path)", "value save_reports_json(path)",
     "value model_from_json(text)"): (
        "one file of each kind: cli_digests writes one --config file and one "
        ".json evaluate report, and evaluates one saved model file"
    ),
    ("value WindowSet.block(lo)",): (
        "windowset_metrics is its one library caller, and every caller's set "
        "fits in one scoring block, which starts at window 0; a larger set "
        "starts later blocks"
    ),
    ("value GeneratorConfig(A_prime)",): (
        "the paper's amplitude scale A'; a --config file can set it, and "
        "it is part of every config digest"
    ),
    ("value split(train_frac)", "value split(val_frac)"): (
        "the fractions come from evaluate --split, which cli_digests runs "
        "with one split, 0.7,0.1,0.2; the test segment takes the rest"
    ),
}


# -- the statements ----------------------------------------------------------

class Statement(NamedTuple):
    file: str  # the module's file name, e.g. "cli.py"
    key: str  # "statement <file>: <statement text>"
    first: int  # the first and last line the statement spans
    last: int
    children: tuple  # the counted statements directly inside it


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


def _statements(body, file: str, lines: list[str], module) -> tuple:
    """The counted statements of a block, each with those inside it."""
    if body and isinstance(body[-1], ast.Raise):
        return ()  # a block that only builds an error
    out = []
    for node in body:
        if isinstance(node, ast.ClassDef) and _is_error(getattr(module, node.name, None)):
            continue
        inner = []
        for field in ("body", "orelse", "finalbody"):
            inner.extend(_statements(getattr(node, field, []), file, lines, module))
        if not _counted(node):
            out.extend(inner)
            continue
        key = f"statement {file}: {' '.join(_text(lines, node).split())}"
        out.append(Statement(file, key, node.lineno, node.end_lineno, tuple(inner)))
    return tuple(out)


def _is_error(obj) -> bool:
    return inspect.isclass(obj) and issubclass(obj, BaseException)


def _sources():
    """(path, module) of each module of ``src/freqsynth``, imported."""
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        stem = os.path.basename(path)[:-3]
        yield path, importlib.import_module(
            "freqsynth" if stem == "__init__" else f"freqsynth.{stem}")


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


def unreached_statements(hits: set[tuple[str, int]]) -> list[str]:
    found = []
    for path, module in _sources():
        source = _read_file(path)
        lines = source.splitlines(keepends=True)
        found.extend(_statements(ast.parse(source).body, os.path.basename(path),
                                 lines, module))
    return unreached(found, hits)


# -- the traced run ------------------------------------------------------------

def _value(value):
    """``repr`` of a bool, int, float, str or None (numpy numbers as the
    Python number they equal), or of a tuple of these; else the object's
    id.  A parameter's default lives as long as its function, so an id
    equals the default's only for the default object itself."""
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, numbers.Integral):
        return repr(int(value))
    if isinstance(value, numbers.Real):
        return repr(float(value))
    if isinstance(value, tuple):
        items = [_value(v) for v in value]
        if all(isinstance(item, str) for item in items):
            return f"({', '.join(items)}{',' if len(items) == 1 else ''})"
    return id(value)


def _record(frame, values: dict[str, set]) -> None:
    """Add the arguments of the call that opens ``frame`` to ``values``,
    keyed ``<qualname>(<param>)``.  A method's qualname is its class's and
    its name; ``__init__``'s is its class's, and ``__post_init__`` adds its
    dataclass's init fields under the class's.  A call of a private or
    nested function is skipped; the report keeps only public parameters."""
    code = frame.f_code
    qualname = code.co_qualname
    owner, _, name = qualname.rpartition(".")
    if name == "__post_init__":
        self = frame.f_locals["self"]
        for f in dataclasses.fields(self):
            if f.init:
                values.setdefault(f"{owner}({f.name})", set()).add(
                    _value(getattr(self, f.name)))
        return
    if name == "__init__":
        qualname = owner
    elif name.startswith("_") or "<" in qualname:
        return
    local = frame.f_locals
    for param in code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]:
        values.setdefault(f"{qualname}({param})", set()).add(_value(local[param]))


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
    the one definition of that code, which the census and
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


# -- the values ----------------------------------------------------------------

def _defaults(fn, skip: int = 0) -> dict[str, object]:
    """The named parameters of ``fn`` after its first ``skip``, each with
    its default (``inspect.Parameter.empty`` for none)."""
    params = list(inspect.signature(fn).parameters.values())[skip:]
    return {p.name: p.default for p in params
            if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)}


def public_parameters() -> dict[str, object]:
    """``<qualname>(<param>)`` of every parameter of a public function or
    method of ``src/freqsynth``, every ``__init__`` parameter of a public
    class and every init field of a public dataclass, as ``_record`` keys
    them, each with its default (a sentinel that no call passes when it
    has none); exception classes are left out."""
    out = {}
    for _, module in _sources():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = []  # (key prefix, function, leading parameters to skip)
            if inspect.isfunction(obj):
                members.append((name, obj, 0))
            elif inspect.isclass(obj) and not _is_error(obj):
                if dataclasses.is_dataclass(obj):
                    out.update((f"{name}({f.name})", f.default)
                               for f in dataclasses.fields(obj) if f.init)
                elif "__init__" in vars(obj):
                    members.append((name, obj.__init__, 1))
                for attr, member in vars(obj).items():
                    skip = 1
                    if isinstance(member, (staticmethod, classmethod)):
                        skip, member = int(isinstance(member, classmethod)), member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        members.append((f"{name}.{attr}", member, skip))
            for prefix, fn, skip in members:
                out.update((f"{prefix}({p})", d) for p, d in _defaults(fn, skip).items())
    return out


def one_values(values: dict[str, set], defaults: dict[str, object]) -> dict[str, str]:
    """``value <key>`` -> `` = <value>`` for each public parameter that took
    exactly one value: a scalar, or its default object."""
    out = {}
    for key, seen in sorted(values.items()):
        if key not in defaults or len(seen) != 1:
            continue
        (value,) = seen
        if not isinstance(value, str):
            if value != id(defaults[key]):
                continue
            value = repr(defaults[key])
        out[f"value {key}"] = f" = {value if len(value) <= 60 else value[:56] + ' ...'}"
    return out


# -- names and fields ----------------------------------------------------------

def _loop_constants(loop, var: str) -> list[str] | None:
    """Constant strings ``var`` takes in a for loop or comprehension
    generator over a literal tuple or list (unpacking included), or None
    when ``loop`` does not bind ``var``."""
    target, it = loop.target, loop.iter
    if not any(isinstance(n, ast.Name) and n.id == var for n in ast.walk(target)):
        return None
    if isinstance(it, ast.Call) and getattr(it.func, "id", "") == "enumerate" and it.args:
        if isinstance(target, ast.Tuple) and len(target.elts) == 2:
            target = target.elts[1]
        it = it.args[0]
    items = it.elts if isinstance(it, (ast.Tuple, ast.List)) else []
    hits = [_unpacked(target, item, var) for item in items]
    return [h.value for h in hits
            if isinstance(h, ast.Constant) and isinstance(h.value, str)]


def _unpacked(target, value, var: str):
    """The part of ``value`` that assigning it to ``target`` binds to ``var``."""
    if isinstance(target, ast.Name):
        return value if target.id == var else None
    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) \
            and len(target.elts) == len(value.elts):
        for t, v in zip(target.elts, value.elts):
            hit = _unpacked(t, v, var)
            if hit is not None:
                return hit
    return None


class Looping(ast.NodeVisitor):
    """Keeps the for loops and comprehension generators around a node."""

    def __init__(self):
        self.loops: list[ast.AST] = []

    def _looped(self, node, loops):
        self.loops.extend(loops)
        self.generic_visit(node)
        del self.loops[len(self.loops) - len(loops):]

    def visit_For(self, node):
        self._looped(node, [node])

    def _comprehension(self, node):
        self._looped(node, node.generators)

    visit_ListComp = visit_SetComp = visit_DictComp = _comprehension
    visit_GeneratorExp = _comprehension

    def constants(self, node) -> list[str]:
        """The constant string ``node`` is, or the constant strings a loop
        variable runs over, innermost loop first."""
        if isinstance(node, ast.Constant):
            return [node.value]
        if not isinstance(node, ast.Name):
            return []
        for loop in reversed(self.loops):
            found = _loop_constants(loop, node.id)
            if found is not None:
                return found
        return []


class SelfStores(Looping):
    """Names a class body sets on ``self``: ``self.f = ...``, and
    ``setattr(self, name, ...)`` or ``object.__setattr__(self, name, ...)``
    with a constant name or one from a loop over constants."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Store) and getattr(node.value, "id", "") == "self":
            self.names.append(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node):
        func, args = node.func, node.args
        if (getattr(func, "id", getattr(func, "attr", "")) in ("setattr", "__setattr__")
                and len(args) == 3 and getattr(args[0], "id", "") == "self"):
            self.names.extend(self.constants(args[1]))
        self.generic_visit(node)


class Uses(Looping):
    """The library names one caller file uses and the attributes it reads."""

    def __init__(self, tree, module, used: set, reads: list):
        super().__init__()
        self.tree = tree
        self.module = module  # the freqsynth module the file is, or None
        self.used = used  # (name, id of its object)
        self.reads = reads  # (receiver key, attribute, owner classes)
        self.aliases: dict[str, object] = {}  # local name -> module or object
        self.origins: dict[str, str] = {}  # local name -> imported name
        self.scopes: list[ast.AST] = []
        self.copies: set[int] = set()  # ids of the loads x.f passed as f=

    def visit_Import(self, node):
        for a in node.names:
            if a.name.split(".")[0] == "freqsynth":
                target = importlib.import_module(a.name)
                self.aliases[a.asname or "freqsynth"] = (
                    target if a.asname else sys.modules["freqsynth"])

    def visit_ImportFrom(self, node):
        if node.level:
            base = "freqsynth" + (f".{node.module}" if node.module else "")
        elif node.module and node.module.split(".")[0] == "freqsynth":
            base = node.module
        else:
            return
        owner = importlib.import_module(base)
        for a in node.names:
            value = getattr(owner, a.name, None)
            if value is None:
                value = importlib.import_module(f"{base}.{a.name}")
            self.aliases[a.asname or a.name] = value
            self.origins[a.asname or a.name] = a.name

    def _scoped(self, node):
        self.scopes.append(node)
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped
    visit_Lambda = _scoped

    def lookup(self, node):
        """The object a Name or module attribute stands for, or None."""
        if isinstance(node, ast.Name):
            if node.id in self.aliases:
                return self.aliases[node.id]
            return getattr(self.module, node.id, None) if self.module else None
        if isinstance(node, ast.Attribute):
            owner = self.lookup(node.value)
            if inspect.ismodule(owner):
                return getattr(owner, node.attr, None)
        return None

    def _use(self, name: str, obj) -> None:
        if obj is not None:
            self.used.add((name, id(obj)))

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(self.origins.get(node.id, node.id), self.lookup(node))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.attr, self.lookup(node))
            if id(node) not in self.copies:
                self._read(node.value, node.attr)
        self.generic_visit(node)

    def visit_Call(self, node):
        self.copies.update(id(k.value) for k in node.keywords
                           if isinstance(k.value, ast.Attribute) and k.value.attr == k.arg)
        args = node.args
        if getattr(node.func, "id", "") == "getattr" and len(args) >= 2:
            owner = self.lookup(args[0])
            for attr in self.constants(args[1]):
                if inspect.ismodule(owner):
                    self._use(attr, getattr(owner, attr, None))
                self._read(args[0], attr)
        self.generic_visit(node)

    def _read(self, receiver, attr: str) -> None:
        """A read of ``attr`` on ``receiver``, keyed by the variable it is
        read from, with the library classes whose body it sits in."""
        if isinstance(receiver, ast.Name):
            function = next((s for s in reversed(self.scopes) if isinstance(
                s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))), self.tree)
            key = (id(function), receiver.id)
        else:
            key = id(receiver)
        owners = {getattr(self.module, s.name, None) for s in self.scopes
                  if isinstance(s, ast.ClassDef)} if self.module else set()
        self.reads.append((key, attr, owners))


def _callers():
    """(path, source text, freqsynth module or None) of each caller file."""
    for path, module in _sources():
        yield path, _read_file(path), module
    for folder in ("perfbench", "demos"):
        for path in sorted(glob.glob(os.path.join(ROOT, folder, "*.py"))):
            if not os.path.basename(path).startswith(("test_", "conftest")):
                yield path, _read_file(path), None
    yield os.path.join(ROOT, "README.md") + " (Quickstart)", quickstart(), None


def _read_file(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _fields(cls) -> list[str]:
    """Public fields of a dataclass, or the public names that a class's
    methods set on ``self``."""
    if dataclasses.is_dataclass(cls):
        names = [f.name for f in dataclasses.fields(cls)]
    else:
        finder = SelfStores()
        finder.visit(ast.parse(textwrap.dedent(inspect.getsource(cls))))
        names = list(dict.fromkeys(finder.names))
    return [n for n in names if not n.startswith("_")]


def unnamed_and_unread() -> list[str]:
    """``name`` findings for the public constants and classes no caller
    names, then ``field`` findings for the public fields no caller reads."""
    used: set[tuple[str, int]] = set()
    reads: list[tuple] = []
    for path, text, module in _callers():
        tree = ast.parse(text, filename=path)
        Uses(tree, module, used, reads).visit(tree)
    names, classes = [], []
    for _, module in _sources():
        if module.__name__ in ("freqsynth", "freqsynth.__main__"):
            continue
        for name, obj in vars(module).items():
            if (name.startswith("_") or inspect.ismodule(obj) or inspect.isfunction(obj)
                    or getattr(obj, "__module__", module.__name__) != module.__name__):
                continue
            if (name, id(obj)) not in used:
                names.append(f"name {module.__name__}.{name}")
            if inspect.isclass(obj) and not _is_error(obj):
                classes.append(obj)
    attrs: dict = {}  # receiver key -> attributes read from it
    for key, attr, _ in reads:
        attrs.setdefault(key, set()).add(attr)
    fields = []
    for cls in classes:
        own = _fields(cls)
        known = set(dir(cls)) | set(own)
        for field in own:
            if not any(attr == field and cls not in owners and attrs[key] <= known
                       for key, attr, owners in reads):
                fields.append(f"field {cls.__module__}.{cls.__qualname__}.{field}")
    return names + fields


# -- the report ----------------------------------------------------------------

def report(findings: dict[str, str], kept=KEPT) -> int:
    """Print each finding, key and detail, those without a reason in
    ``kept`` first, then each entry's reason over the findings it keeps,
    then each stale key; 1 if a finding has no reason or a key is stale."""
    reasons = {key: reason for keys, reason in kept.items() for key in keys}
    unexplained = [key for key in findings if key not in reasons]
    for key in unexplained:
        print(f"{key}{findings[key]}")
    for keys, reason in kept.items():
        found = [key for key in keys if key in findings]
        if found:
            print(f"kept: {reason}")
            print("".join(f"    {key}{findings[key]}\n" for key in found), end="")
    stale = [key for key in reasons if key not in findings]
    for key in stale:
        print(f"stale: {key}  (a KEPT key that is not found)")
    print(f"{len(findings)} findings, {len(unexplained)} without a recorded reason, "
          f"{len(stale)} stale KEPT keys", file=sys.stderr)
    return 1 if unexplained or stale else 0


def main() -> int:
    hits, values = reached()
    findings = dict.fromkeys(unreached_statements(hits), "")
    findings.update(one_values(values, public_parameters()))
    findings.update(dict.fromkeys(unnamed_and_unread(), ""))
    return report(findings)


if __name__ == "__main__":
    raise SystemExit(main())
