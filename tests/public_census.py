"""Public parameters and names of freqsynth that no non-test code uses.

The callers are the code that ships or documents the API: the library
itself (``src/freqsynth``), the benchmark (``perfbench/``, its
``test_*.py`` files excluded), ``demos/`` and the python blocks of
README's Quickstart (``reach_census.quickstart()``).  Tests are not callers.  The script reads those
files with ``ast`` and prints one line per

* public parameter that no caller sets: a parameter of a function or
  class in ``freqsynth.__all__``, or of a public method of such a class;
* public name that no caller uses: a public module-level name of a
  ``freqsynth`` module, or a public method or property of a public class;
* public field that no caller reads: a field of a public dataclass, or a
  public name that a public class's methods set on ``self``.

A finding kept on purpose is printed with its reason (``KEPT``); a
``KEPT`` entry that matches no finding is printed as ``stale``, since the
code it explained has gone.  The script exits 1 when any finding has no
recorded reason or any ``KEPT`` entry is stale, e.g.

    PYTHONPATH=src python tests/public_census.py

This is a script, not a pytest module.

What counts as setting a parameter:

* a positional or keyword argument at a call site; a ``*args`` spread
  sets every positional parameter from its place on;
* a ``**kw`` spread sets the keys of the ``dict(...)``, ``{...}`` or
  constant-keyed comprehension that ``kw`` is bound to in the calling
  function; a spread of the caller's own ``**kwargs`` forwards the extra
  keywords of the caller's callers; any other spread sets every
  parameter;
* an argument that is a parameter of the calling library function,
  never reassigned there, sets the callee's parameter only if the
  caller's own parameter is set (a pass-through of a default is not a
  setting).

What counts as reading a field ``f``: a load ``x.f`` or a
``getattr(x, "f")``, also with ``"f"`` taken from a loop or comprehension
over constant names, except

* a load that is the value of a keyword ``f=`` (a copy into a field of
  the same name, as ``rate=ds.rate``);
* a load inside the body of the class that defines ``f``;
* a load on a variable that the same function also reads an attribute
  from that the class does not have (``args.rate`` next to
  ``args.omega`` reads a command-line namespace, not a Dataset).

Calls are resolved through imports and module attributes, through
perfbench's ``ops(fn, *args)`` wrapper, through ``getattr(module, name)``
inside a loop over constant names, and through a subscript of a dict
literal of functions (the CLI's variant table).  A method call
``x.name(...)`` counts for every public class with a method ``name``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import os
import sys
import textwrap

import freqsynth
from reach_census import quickstart

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Findings kept on purpose, keyed as the script prints them.
KEPT = {
    "parameter freqsynth.generator.synthesize(pool)": (
        "perfbench/tracing.py's _synthesize counter binds the argument "
        "'pool', so the traced benchmark runs need the parameter"
    ),
    "field freqsynth.evaluation.SplitSpec.test_frac": (
        "the three fractions are the split's specification: __post_init__ "
        "checks that they sum to 1, split gives the test segment the "
        "remaining n - n_train - n_val steps, and the CLI's --split passes "
        "all three"
    ),
}

SET = True  # a binding that sets its parameter unconditionally


def sources() -> list[tuple[str, str, str | None]]:
    """(path, source text, freqsynth module name or None) of each caller."""
    out = []
    src = os.path.join(ROOT, "src", "freqsynth")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            stem = name[:-3]
            module = "freqsynth" if stem == "__init__" else f"freqsynth.{stem}"
            out.append((os.path.join(src, name), _read(os.path.join(src, name)), module))
    for folder in ("perfbench", "demos"):
        base = os.path.join(ROOT, folder)
        for name in sorted(os.listdir(base)):
            if name.endswith(".py") and not name.startswith(("test_", "conftest")):
                out.append((os.path.join(base, name), _read(os.path.join(base, name)), None))
    out.append((os.path.join(ROOT, "README.md") + " (Quickstart)", quickstart(), None))
    return out


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _key(obj) -> str:
    return f"{obj.__module__}.{obj.__qualname__}"


def public_classes() -> list[type]:
    """Public classes defined in freqsynth modules, exceptions excluded."""
    out = []
    for module in library_modules():
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__
                    and not issubclass(obj, BaseException)):
                out.append(obj)
    return out


def library_modules():
    src = os.path.join(ROOT, "src", "freqsynth")
    names = sorted(n[:-3] for n in os.listdir(src) if n.endswith(".py"))
    return [importlib.import_module(f"freqsynth.{n}") for n in names
            if n not in ("__init__", "__main__")]


def public_members(cls) -> dict[str, object]:
    """Public methods and properties defined in cls's body."""
    return {name: obj for name, obj in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or isinstance(obj, property))}


def instance_fields(cls) -> list[str]:
    """Public fields of a dataclass, or the public names that a class's
    methods set on ``self``."""
    if dataclasses.is_dataclass(cls):
        names = [f.name for f in dataclasses.fields(cls)]
    else:
        finder = SelfStores()
        finder.visit(ast.parse(textwrap.dedent(inspect.getsource(cls))))
        names = list(dict.fromkeys(finder.names))
    return [n for n in names if not n.startswith("_")]


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

    def _loop_constants(self, node) -> list[str]:
        """Constant strings a loop variable runs over, innermost loop first."""
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
            if isinstance(args[1], ast.Constant):
                self.names.append(args[1].value)
            else:
                self.names.extend(self._loop_constants(args[1]))
        self.generic_visit(node)


class Scan(Looping):
    """Call bindings and used identifiers of one caller file."""

    def __init__(self, census: "Census", module: str | None):
        super().__init__()
        self.census = census
        self.module = importlib.import_module(module) if module else None
        self.aliases: dict[str, object] = {}  # local name -> module or object
        self.origins: dict[str, str] = {}  # local name -> imported name
        self.scopes: list[ast.AST] = []
        self.copies: set[int] = set()  # ids of the loads x.f passed as f=

    # -- imports and scopes --------------------------------------------

    def visit_Import(self, node):
        for a in node.names:
            if a.name == "freqsynth" or a.name.startswith("freqsynth."):
                target = importlib.import_module(a.name)
                self.aliases[a.asname or a.name.split(".")[0]] = (
                    target if a.asname else freqsynth)

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

    # -- uses ----------------------------------------------------------

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(self.origins.get(node.id, node.id), self.lookup(node))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.census.used_attrs.add(node.attr)
            self._use(node.attr, self.lookup(node))
            if id(node) not in self.copies:
                self._read(node.value, node.attr)
        self.generic_visit(node)

    def _read(self, receiver, attr: str) -> None:
        """A read of ``attr`` on ``receiver``, keyed by the variable it is
        read from, with the library classes whose body it sits in."""
        if isinstance(receiver, ast.Name):
            key = (id(self._function() or self.census.trees[-1]), receiver.id)
        else:
            key = id(receiver)
        owners = {getattr(self.module, s.name, None) for s in self.scopes
                  if isinstance(s, ast.ClassDef)} if self.module else set()
        self.census.reads.append((key, attr, owners))

    def _use(self, name: str, obj) -> None:
        """A library name is used where a load resolves to its object."""
        if obj is not None:
            self.census.used.add((name, id(obj)))

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node):
        func, args = node.func, list(node.args)
        self.copies.update(id(k.value) for k in node.keywords
                           if isinstance(k.value, ast.Attribute) and k.value.attr == k.arg)
        if getattr(func, "id", "") == "getattr" and len(args) >= 2:
            name = args[1]
            for attr in ([name.value] if isinstance(name, ast.Constant)
                         else self._loop_constants(name)):
                self._read(args[0], attr)
        if isinstance(func, ast.Name) and func.id == "ops" and args:
            func, args = args[0], args[1:]  # perfbench's ops(fn, *args)
        for target in self.resolve(func):
            self.bind(target, args, node.keywords, method=self._is_method(func))
        self.generic_visit(node)

    def _is_method(self, func) -> bool:
        return (isinstance(func, ast.Attribute)
                and not inspect.ismodule(self.lookup(func.value)))

    def lookup(self, node):
        """The object a Name or module attribute stands for, or None."""
        if isinstance(node, ast.Name):
            if node.id in self.aliases:
                return self.aliases[node.id]
            if self.module is not None:
                return getattr(self.module, node.id, None)
            return None
        if isinstance(node, ast.Attribute):
            owner = self.lookup(node.value)
            if inspect.ismodule(owner):
                return getattr(owner, node.attr, None)
        return None

    def resolve(self, func) -> list:
        """Library functions and classes a call's callee may be."""
        if isinstance(func, ast.Call) and isinstance(func.func, ast.Name) \
                and func.func.id == "getattr" and len(func.args) == 2:
            owner = self.lookup(func.args[0])
            names = self._loop_constants(func.args[1])
            found = [(n, getattr(owner, n)) for n in names
                     if inspect.ismodule(owner) and hasattr(owner, n)]
            for n, obj in found:
                self._use(n, obj)
            return [obj for _, obj in found]
        if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
            table = self._assigned(func.value.id)
            if isinstance(table, ast.Dict):
                return [t for v in table.values for t in self.resolve(v)]
            return []
        if self._is_method(func):
            return [member for cls in self.census.classes
                    for name, member in public_members(cls).items()
                    if name == func.attr and inspect.isfunction(member)]
        obj = self.lookup(func)
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and \
                getattr(obj, "__module__", "").startswith("freqsynth"):
            return [obj]
        return []

    def _function(self):
        for scope in reversed(self.scopes):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return scope
        return None

    def _assigned(self, name: str):
        """The value last assigned to ``name`` in the enclosing function."""
        scope = self._function() or self.census.trees[-1]
        value = None
        for n in ast.walk(scope):
            if isinstance(n, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == name for t in n.targets):
                value = n.value
        return value

    def _dependency(self, value):
        """SET, or (function key, parameter) for a library pass-through."""
        fn = self._function()
        if (self.module is None or not isinstance(value, ast.Name)
                or not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))):
            return SET
        params = {a.arg for a in (*fn.args.posonlyargs, *fn.args.args,
                                  *fn.args.kwonlyargs)}
        stored = any(isinstance(n, ast.Name) and n.id == value.id
                     and isinstance(n.ctx, ast.Store) for n in ast.walk(fn))
        if value.id not in params or stored:
            return SET
        return (self._scope_key(), value.id)

    def _scope_key(self) -> str:
        parts = []
        for scope in self.scopes:
            if isinstance(scope, ast.Lambda):
                parts.append("<lambda>")
            else:
                parts.append(scope.name)
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                parts.append("<locals>")
        if parts and parts[-1] == "<locals>":
            parts.pop()
        return f"{self.module.__name__}.{'.'.join(parts)}"

    def bind(self, target, args, keywords, method: bool) -> None:
        try:
            sig = inspect.signature(target)
        except (TypeError, ValueError):
            return
        params = list(sig.parameters.values())
        if method and params and params[0].name == "self":
            params = params[1:]
        key = _key(target)
        positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY,
                                                      p.POSITIONAL_OR_KEYWORD)]
        named = {p.name for p in params if p.kind not in (p.VAR_POSITIONAL,
                                                          p.VAR_KEYWORD)}
        var_kw = any(p.kind is p.VAR_KEYWORD for p in params)
        add = self.census.add
        for i, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                for p in positional[i:]:
                    add(key, p.name, SET)
                break
            if i < len(positional):
                add(key, positional[i].name, self._dependency(arg))
        for kw in keywords:
            if kw.arg is not None:
                if kw.arg in named:
                    add(key, kw.arg, self._dependency(kw.value))
                elif var_kw:
                    self.census.extras.setdefault(key, []).append(
                        (kw.arg, self._dependency(kw.value)))
                continue
            keys = self._spread_keys(kw.value)
            if keys is None:
                for name in named:
                    add(key, name, SET)
            elif isinstance(keys, str):  # the caller's own **kwargs
                self.census.forwards.add((key, keys))
            else:
                for name in keys:
                    add(key, name, SET)

    def _spread_keys(self, value):
        """Keys of a ``**value`` spread: a list, the caller's key when it
        forwards its own ``**kwargs``, or None when unknown."""
        if not isinstance(value, ast.Name):
            return None
        fn = self._function()
        if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and fn.args.kwarg is not None and fn.args.kwarg.arg == value.id
                and self.module is not None):
            return self._scope_key()
        bound = self._assigned(value.id)
        if isinstance(bound, ast.Dict) and all(
                isinstance(k, ast.Constant) for k in bound.keys):
            return [k.value for k in bound.keys]
        if isinstance(bound, ast.Call) and getattr(bound.func, "id", "") == "dict" \
                and not bound.args:
            return [k.arg for k in bound.keywords if k.arg is not None] \
                if all(k.arg for k in bound.keywords) else None
        if isinstance(bound, ast.DictComp) and len(bound.generators) == 1:
            it = bound.generators[0].iter
            if isinstance(it, (ast.Tuple, ast.List)) and all(
                    isinstance(e, ast.Constant) for e in it.elts):
                return [e.value for e in it.elts]
        return None


class Census:
    def __init__(self):
        self.classes = public_classes()
        self.bindings: dict[tuple[str, str], list] = {}
        self.extras: dict[str, list] = {}  # **kwargs keywords, per function
        self.forwards: set[tuple[str, str]] = set()  # (callee, forwarding caller)
        self.used: set[tuple[str, int]] = set()  # (name, id of its object)
        self.used_attrs: set[str] = set()
        self.reads: list[tuple] = []  # (receiver key, attribute, owner classes)
        self.trees: list[ast.AST] = []

    def add(self, key: str, name: str, dependency) -> None:
        self.bindings.setdefault((key, name), []).append(dependency)

    def scan(self) -> None:
        for path, text, module in sources():
            tree = ast.parse(text, filename=path)
            self.trees.append(tree)
            Scan(self, module).visit(tree)
        changed = True
        while changed:  # forwarded **kwargs reach the functions they feed
            changed = False
            for callee, caller in self.forwards:
                for name, dep in self.extras.get(caller, []):
                    if dep not in self.bindings.get((callee, name), []):
                        self.add(callee, name, dep)
                        changed = True

    def is_set(self, key: str, name: str, seen=frozenset()) -> bool:
        if (key, name) in seen:
            return False
        for dep in self.bindings.get((key, name), []):
            if dep is SET or self.is_set(*dep, seen | {(key, name)}):
                return True
        return False

    def unset_parameters(self, unused: list[str]) -> list[str]:
        """Unset parameters of the API, except of names in ``unused``."""
        out = []
        for label, obj in self._api():
            if f"name {label}" in unused:
                continue
            try:
                params = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):
                continue
            for p in params:
                if p.name == "self" or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
                    continue
                if not self.is_set(_key(obj), p.name):
                    out.append(f"parameter {label}({p.name})")
        return out

    def _api(self):
        for name in freqsynth.__all__:
            obj = getattr(freqsynth, name)
            if inspect.isfunction(obj) or (
                    inspect.isclass(obj) and not issubclass(obj, BaseException)):
                yield f"{obj.__module__}.{obj.__qualname__}", obj
            if inspect.isclass(obj) and not issubclass(obj, BaseException):
                for member in public_members(obj).values():
                    if inspect.isfunction(member):
                        yield _key(member), member

    def unused_names(self) -> list[str]:
        out = []
        for module in library_modules():
            for name, obj in vars(module).items():
                if name.startswith("_") or inspect.ismodule(obj):
                    continue
                if getattr(obj, "__module__", module.__name__) != module.__name__:
                    continue  # imported from elsewhere
                if (name, id(obj)) not in self.used:
                    out.append(f"name {module.__name__}.{name}")
        for cls in self.classes:
            for name in public_members(cls):
                if name not in self.used_attrs:
                    out.append(f"name {cls.__module__}.{cls.__qualname__}.{name}")
        return out

    def unread_fields(self) -> list[str]:
        attrs: dict = {}  # receiver key -> attributes read from it
        for key, attr, _ in self.reads:
            attrs.setdefault(key, set()).add(attr)
        out = []
        for cls in self.classes:
            fields = instance_fields(cls)
            known = set(dir(cls)) | set(fields)
            for field in fields:
                if not any(attr == field and cls not in owners and attrs[key] <= known
                           for key, attr, owners in self.reads):
                    out.append(f"field {_key(cls)}.{field}")
        return out


def main() -> int:
    census = Census()
    census.scan()
    unused = census.unused_names()
    findings = census.unset_parameters(unused) + unused + census.unread_fields()
    unexplained = 0
    for line in findings:
        reason = KEPT.get(line)
        if reason is None:
            unexplained += 1
            print(line)
        else:
            print(f"{line}  kept: {reason}")
    stale = sorted(set(KEPT) - set(findings))
    for line in stale:
        print(f"stale: {line}  (a KEPT entry that matches no finding)")
    print(f"{len(findings)} findings, {unexplained} without a recorded reason, "
          f"{len(stale)} stale KEPT entries", file=sys.stderr)
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
