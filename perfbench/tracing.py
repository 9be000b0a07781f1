"""Layer spans and counters recorded from outside the program.

``Tracer.install`` wraps every public function of the decompspace modules
and rebinds the wrapper in every decompspace module namespace that binds
the original, so calls made through ``from .sset import validate`` are
seen as well as calls made through ``sset.validate``.  Nothing in the
program's sources changes.

A span opens when a wrapped function is entered and closes when it
returns.  Spans are folded into per-layer totals as they close instead of
being stored, because a traced direct-sweep run closes about a million of
them.  A layer's self time is the duration of its spans minus the time
covered by their child spans.  Counter bookkeeping runs outside every
span and is charged to no layer.

A traced run calls ``start_pass`` before each pass of a workload, and
every figure is reported per traced pass, so it does not depend on how
many passes fit in the run.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
import weakref
from collections import Counter, defaultdict

#: Module -> layer of its public functions.
MODULE_LAYERS = {
    "decompspace.cli": "cli",
    "decompspace.serialize": "serialize",
    "decompspace.builders": "builders",
    "decompspace.operators": "operators",
    "decompspace.criteria": "criteria",
    "decompspace.delta": "delta",
    "decompspace.sset": "sset",
}

#: Functions of sset that form a layer of their own.
FUNCTION_LAYERS = {
    ("decompspace.sset", "validate"): "validate",
    ("decompspace.sset", "induced_map"): "induced_map",
    ("decompspace.sset", "is_pullback_square"): "pullback",
}


class _PerObject:
    """A set of keys per live object, keyed by identity.

    An entry whose object has died is reset when its id is reused, so
    distinct counts never merge two objects.
    """

    def __init__(self) -> None:
        self._refs: dict[int, object] = {}
        self._keys: dict[int, set] = {}
        self.objects = 0

    def reset(self) -> None:
        """Forget the objects seen so far; ``objects`` keeps counting."""
        self._refs.clear()
        self._keys.clear()

    def keys(self, obj) -> set:
        oid = id(obj)
        ref = self._refs.get(oid)
        if ref is None or ref() is not obj:
            try:
                self._refs[oid] = weakref.ref(obj)
            except TypeError:
                self._refs[oid] = lambda obj=obj: obj
            self._keys[oid] = set()
            self.objects += 1
        return self._keys[oid]


def _is_identity(table) -> bool:
    items = table.items() if hasattr(table, "items") else enumerate(table)
    return all(a == b for a, b in items)


def _pullback_args(args, kwargs):
    return [args[i] if i < len(args) else kwargs[n] for i, n in enumerate("fgpq")]


class Tracer:
    """Per-layer self time and counters, recorded while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.passes = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._child = [0.0]
        self._restore: list[tuple[object, str, object]] = []
        self._validated = _PerObject()
        self._induced = _PerObject()

    def start_pass(self) -> None:
        """Begin a pass: objects seen by earlier passes count anew."""
        self.passes += 1
        self._induced.reset()
        self._validated.reset()

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap the public functions of every decompspace module."""
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "decompspace" or name.startswith("decompspace.")
        }
        wrappers: dict[int, object] = {}
        for mod_name, layer in MODULE_LAYERS.items():
            mod = modules.get(mod_name)
            if mod is None:
                continue
            for name, fn in vars(mod).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod_name
                ):
                    continue
                fn_layer = FUNCTION_LAYERS.get((mod_name, name), layer)
                wrappers[id(fn)] = self._wrap(fn_layer, fn, self._after(fn_layer, name))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._restore):
            setattr(mod, name, value)
        self._restore.clear()

    # -- spans --------------------------------------------------------
    def _wrap(self, layer: str, fn, after):
        clock = time.perf_counter
        stack = self._child
        self_s = self.self_s
        counts = self.counts
        calls_key = layer + ".calls"

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[layer] += duration - stack.pop()
                counts[calls_key] += 1
                stack[-1] += duration
            if after is not None:
                begin = clock()
                after(args, kwargs, result)
                stack[-1] += clock() - begin
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # -- counters -----------------------------------------------------
    def _after(self, layer: str, name: str):
        counts = self.counts
        if layer == "serialize" and name in ("read_file", "write_file"):
            def after(args, kwargs, result):
                path = args[0] if args else kwargs["path"]
                counts["serialize.bytes"] += os.path.getsize(path)
            return after
        if layer == "builders":
            def after(args, kwargs, result):
                cells = getattr(result, "cells", None)
                if cells is not None and hasattr(result, "level"):
                    counts["builders.cells"] += sum(len(c) for c in cells)
            return after
        if layer == "validate":
            def after(args, kwargs, result):
                self._validated.keys(args[0] if args else kwargs["X"])
            return after
        if layer == "induced_map":
            def after(args, kwargs, result):
                X = args[0] if args else kwargs["X"]
                alpha = args[1] if len(args) > 1 else kwargs["alpha"]
                seen = self._induced.keys(X)
                if alpha not in seen:
                    seen.add(alpha)
                    counts["induced_map.distinct"] += 1
            return after
        if layer == "pullback":
            def after(args, kwargs, result):
                f, g, p, q = _pullback_args(args, kwargs)
                counts["pullback.domain_cells"] += len(f)
                if (_is_identity(f) and _is_identity(q)) or (
                    _is_identity(g) and _is_identity(p)
                ):
                    counts["pullback.identity_leg"] += 1
            return after
        if layer == "criteria":
            def after(args, kwargs, result):
                counts["criteria.squares"] += getattr(result, "squares_checked", 0)
            return after
        return None

    def metrics(self) -> dict[str, float]:
        """Per-layer figures per traced pass, under the names BENCHMARK.json
        lists.  ``validate.per_input`` is a ratio and is not divided."""
        c, t = self.counts, self.self_s
        objects = self._validated.objects
        per_pass = {
            "cli.calls": c["cli.calls"],
            "serialize.self_s": t["serialize"],
            "serialize.bytes": c["serialize.bytes"],
            "builders.self_s": t["builders"],
            "builders.cells": c["builders.cells"],
            "operators.self_s": t["operators"],
            "validate.calls": c["validate.calls"],
            "validate.self_s": t["validate"],
            "induced_map.calls": c["induced_map.calls"],
            "induced_map.distinct": c["induced_map.distinct"],
            "induced_map.self_s": t["induced_map"],
            "delta.calls": c["delta.calls"],
            "delta.self_s": t["delta"],
            "pullback.calls": c["pullback.calls"],
            "pullback.identity_leg": c["pullback.identity_leg"],
            "pullback.domain_cells": c["pullback.domain_cells"],
            "pullback.self_s": t["pullback"],
            "criteria.self_s": t["criteria"],
            "criteria.squares": c["criteria.squares"],
        }
        passes = max(self.passes, 1)
        out = {name: value / passes for name, value in per_pass.items()}
        out["validate.per_input"] = c["validate.calls"] / objects if objects else 0.0
        return out
