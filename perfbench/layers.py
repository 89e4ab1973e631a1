"""Per-layer call counts and self time, from ``cProfile``.

The profiler is enabled only around the operation phase of a traced
round, so untraced runs pay nothing and no file under ``src/`` changes.
Every profiled function is attributed to a layer by the file its code
lives in:

* ``src/repro/<pkg>/...`` -> ``<pkg>`` when it is one of :data:`LAYERS`,
  otherwise ``other`` (``types``, ``lang``, ...);
* this benchmark's own files (workload code, handlers) -> ``other``;
* anything else (the standard library) inherits the layer of the caller
  it spent most time under, so ``random`` work done for ``net`` is net
  time.

Builtins are not profiled separately: their time is self time of the
Python function that called them.  Calls are counted only for
repro-owned code, which makes the counts deterministic.
"""

from __future__ import annotations

import cProfile
import os
from typing import Dict, List

__all__ = ["LAYERS", "LayerProfile"]

#: The src/repro packages on the hot path, in table order.
LAYERS = (
    "sim",
    "net",
    "streams",
    "entities",
    "core",
    "concurrency",
    "encoding",
    "graph",
    "rt",
    "obs",
)
OTHER = "other"


class LayerProfile:
    """A ``cProfile`` session summarised per layer."""

    def __init__(self, src_root: str, bench_root: str) -> None:
        self._repro = os.path.join(os.path.abspath(src_root), "repro") + os.sep
        self._bench = os.path.abspath(bench_root) + os.sep
        self._profile = cProfile.Profile(builtins=False)
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: code object -> number of calls, for every profiled function.
        self.call_counts: Dict[object, int] = {}

    def __enter__(self) -> "LayerProfile":
        self._profile.enable()
        return self

    def __exit__(self, *_exc) -> None:
        self._profile.disable()
        self._summarise(self._profile.getstats())

    def _own_layer(self, code):
        """The layer a function belongs to, or None if it inherits one."""
        filename = os.path.abspath(code.co_filename)
        if filename.startswith(self._repro):
            package = filename[len(self._repro):].split(os.sep, 1)[0]
            return package if package in LAYERS else OTHER
        if filename.startswith(self._bench):
            return OTHER
        return None

    def _summarise(self, entries) -> None:
        own: Dict[object, object] = {}
        callers: Dict[object, List] = {}
        for entry in entries:
            code = entry.code
            if isinstance(code, str):
                continue
            own[code] = self._own_layer(code)
            self.call_counts[code] = entry.callcount
            for sub in entry.calls or ():
                callers.setdefault(sub.code, []).append((entry.code, sub.inlinetime))

        resolved: Dict[object, str] = {}

        def layer_of(code, depth=0) -> str:
            layer = own.get(code)
            if layer is not None:
                return layer
            if code in resolved:
                return resolved[code]
            resolved[code] = OTHER  # guards recursion through the stdlib
            heaviest = max(callers.get(code, ()), key=lambda c: c[1], default=None)
            if heaviest is not None and depth < 32 and not isinstance(heaviest[0], str):
                resolved[code] = layer_of(heaviest[0], depth + 1)
            return resolved[code]

        calls = {name: 0 for name in LAYERS + (OTHER,)}
        self_s = {name: 0.0 for name in LAYERS + (OTHER,)}
        for entry in entries:
            code = entry.code
            if isinstance(code, str):
                continue
            if own[code] is not None:
                calls[own[code]] += entry.callcount
                self_s[own[code]] += entry.inlinetime
                continue
            # Standard-library time: split by the caller it ran under.
            split = callers.get(code)
            if not split:
                self_s[OTHER] += entry.inlinetime
                continue
            for caller, seconds in split:
                target = OTHER if isinstance(caller, str) else layer_of(caller)
                self_s[target] += seconds
        self.calls = calls
        self.self_s = self_s

    def count(self, function) -> int:
        """How many times *function* was called while profiling."""
        return self.call_counts.get(function.__code__, 0)

    def table(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": n, "self_s": t}}`` for the named layers."""
        return {
            name: {"calls": self.calls[name], "self_s": self.self_s[name]}
            for name in LAYERS
        }
