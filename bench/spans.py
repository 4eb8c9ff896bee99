"""Span timers around the public functions of the mshoa layers.

The benchmark's traced worker installs a :class:`Tracer` before it loads the
configuration.  Each public function defined in a layer module is replaced,
in every ``mshoa`` module namespace that binds it, by a wrapper that records
calls, inclusive time and self time (inclusive time minus the time of spans
it encloses).  Patching every binding matters: ``runner`` from-imports
``reconstruct_field`` and ``regularization_search``, and ``scatter``,
``fields``, ``translation`` and ``scene`` from-import ``basis`` functions, so
patching only the defining module would miss those calls.  Library code is
not changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time

LAYERS = ("translation", "scatter", "encode", "fields", "basis", "matio", "config", "runner")
ROOT_SPAN = "runner.run_experiment"
MATIO_WRITERS = ("matio.write_field_csv", "matio.write_real_csv", "matio.export_matrix")


class Tracer:
    """In-memory span statistics for one traced experiment."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, inclusive s, self s]
        self.top: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counters = {"basis_entries": 0, "bytes_written": 0}
        self.sr_displacements: set = set()
        self._stack: list[list] = []  # [key, seconds covered by child spans]
        self._active: dict[str, int] = {}
        self._hooks = {
            "fields.reconstruct_field": self._count_basis_entries,
            "translation.sr_translation": self._record_displacement,
            **{key: self._count_bytes for key in MATIO_WRITERS},
        }

    def wrap(self, key: str, fn):
        """Return ``fn`` wrapped in a span named ``key`` (``<layer>.<function>``)."""
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        layer = key.split(".", 1)[0]
        hook = self._hooks.get(key)
        signature = inspect.signature(fn) if hook else None
        stack, active, top, clock = self._stack, self._active, self.top, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [key, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            active[key] = active.get(key, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[key] -= 1
                stats[0] += 1
                stats[2] += dt - frame[1]
                if not active[key]:  # count recursive calls once in inclusive time
                    stats[1] += dt
                if parent is not None:
                    parent[1] += dt
                    if parent[0] == ROOT_SPAN:
                        top[layer] += dt
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments)
            return result

        return span

    def install(self) -> None:
        """Wrap every public layer function in every ``mshoa`` module that binds it."""
        pkg = importlib.import_module("mshoa")
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"mshoa.{info.name}")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"mshoa.{layer}"]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mshoa" and not mod_name.startswith("mshoa."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])

    def report(self) -> dict:
        """Plain-data summary of every span, top-level layer time and counter."""
        return {
            "spans": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in self.stats.items()},
            "top": dict(self.top),
            "counters": {**self.counters, "sr_distinct": len(self.sr_displacements)},
        }

    # counters measured where the work happens

    def _count_basis_entries(self, args):
        rows, cols = args["spec"].shape
        self.counters["basis_entries"] += rows * cols * (args["coeffs"].n_max + 1) ** 2

    def _record_displacement(self, args):
        t = [round(float(c), 9) + 0.0 for c in args["t"]]
        nonzero = next((c for c in t if c != 0.0), 0.0)
        self.sr_displacements.add(tuple(-c + 0.0 for c in t) if nonzero < 0 else tuple(t))

    def _count_bytes(self, args):
        self.counters["bytes_written"] += os.path.getsize(args["path"])
