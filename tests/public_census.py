"""Public parameters and names of freqsynth that no non-test code uses.

The callers are the code that ships or documents the API: the library
itself (``src/freqsynth``), the benchmark (``perfbench/``, its
``test_*.py`` files excluded), ``demos/`` and the python block of
README's Quickstart.  Tests are not callers.  The script reads those
files with ``ast`` and prints one line per

* public parameter that no caller sets: a parameter of a function or
  class in ``freqsynth.__all__``, or of a public method of such a class;
* public name that no caller uses: a public module-level name of a
  ``freqsynth`` module, or a public method or property of a public class.

A finding kept on purpose is printed with its reason (``KEPT``).  The
script exits 1 when any finding has no recorded reason, e.g.

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

Calls are resolved through imports and module attributes, through
perfbench's ``ops(fn, *args)`` wrapper, through ``getattr(module, name)``
inside a loop over constant names, and through a subscript of a dict
literal of functions (the CLI's variant table).  A method call
``x.name(...)`` counts for every public class with a method ``name``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import re
import sys

import freqsynth

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Findings kept on purpose, keyed as the script prints them.
KEPT = {
    "parameter freqsynth.generator.synthesize(pool)": (
        "perfbench/tracing.py's _synthesize counter binds the argument "
        "'pool', so the traced benchmark runs need the parameter"
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
    readme = os.path.join(ROOT, "README.md")
    section = _read(readme).split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    out.append((readme + " (Quickstart)", "\n".join(blocks), None))
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


class Scan(ast.NodeVisitor):
    """Call bindings and used identifiers of one caller file."""

    def __init__(self, census: "Census", module: str | None):
        self.census = census
        self.module = importlib.import_module(module) if module else None
        self.aliases: dict[str, object] = {}  # local name -> module or object
        self.origins: dict[str, str] = {}  # local name -> imported name
        self.scopes: list[ast.AST] = []
        self.loops: list[ast.For] = []

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

    def visit_For(self, node):
        self.loops.append(node)
        self.generic_visit(node)
        self.loops.pop()

    # -- uses ----------------------------------------------------------

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(self.origins.get(node.id, node.id), self.lookup(node))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.census.used_attrs.add(node.attr)
            self._use(node.attr, self.lookup(node))
        self.generic_visit(node)

    def _use(self, name: str, obj) -> None:
        """A library name is used where a load resolves to its object."""
        if obj is not None:
            self.census.used.add((name, id(obj)))

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node):
        func, args = node.func, list(node.args)
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

    def _loop_constants(self, node) -> list[str]:
        """Constant strings a loop variable runs over, innermost loop first."""
        if not isinstance(node, ast.Name):
            return []
        for loop in reversed(self.loops):
            bound = [n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)]
            if node.id in bound:
                it = loop.iter
                if isinstance(it, ast.Call) and getattr(it.func, "id", "") == "enumerate":
                    it = it.args[0]
                if isinstance(it, (ast.Tuple, ast.List)):
                    return [e.value for e in it.elts if isinstance(e, ast.Constant)]
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


def main() -> int:
    census = Census()
    census.scan()
    unused = census.unused_names()
    findings = census.unset_parameters(unused) + unused
    unexplained = 0
    for line in findings:
        reason = KEPT.get(line)
        if reason is None:
            unexplained += 1
            print(line)
        else:
            print(f"{line}  kept: {reason}")
    print(f"{len(findings)} findings, {unexplained} without a recorded reason",
          file=sys.stderr)
    return 1 if unexplained else 0


if __name__ == "__main__":
    raise SystemExit(main())
