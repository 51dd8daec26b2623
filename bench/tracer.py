"""Spans around the public functions of a package, for the traced run.

``Tracer.install`` replaces every public function defined in the package at
every module namespace that binds it (``strata_bounds.simulation`` binds
``sandwich_report`` as well as ``strata_bounds.variance``), so calls made
through module globals are caught too. Each call records a span
[name, start, end, parent, op] in memory; ``op`` is the id of the benchmark
round the call belongs to. The parent is the innermost open span, which is
right only while the program runs on one thread. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
import types


def _public_functions(module, package_name: str):
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        # plain functions, and functools.lru_cache wrappers around them
        if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
            continue
        if getattr(obj, "__module__", "").startswith(package_name + "."):
            yield attr, obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.names: set[str] = set()  # "<module>.<function>" of each wrapped

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self, package) -> None:
        """Wrap the package's public functions in every one of its modules."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, fn in _public_functions(module, package.__name__):
                if id(fn) not in wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    self.names.add(name)
                    wrappers[id(fn)] = self._wrap(name, fn)
                self._patches.append((module, attr, fn, wrappers[id(fn)]))
        self.enable()

    def enable(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def totals(self, rounds: int) -> dict[str, dict[str, float]]:
        """Per function: self time in seconds and call count, per round.

        Spans of set-up (op < 0) count once; the others are summed and
        divided by ``rounds``, the number of traced rounds.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        sums: dict[str, list[float]] = {}  # set-up s, set-up calls, round s, round calls
        for i, (name, start, end, _, op) in enumerate(self.spans):
            entry = sums.setdefault(name, [0.0, 0, 0.0, 0])
            at = 0 if op < 0 else 2
            entry[at] += end - start - child[i]
            entry[at + 1] += 1
        return {name: {"self_s": s0 + s1 / rounds, "calls": c0 + c1 / rounds}
                for name, (s0, c0, s1, c1) in sums.items()}

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
