"""Outside-in tracer: spans around every public function of a package.

The program is not changed.  ``Tracer.install`` wraps each public
function defined in a ``trivolve.*`` module and rebinds every
``trivolve.*`` namespace attribute that holds the same function object,
since modules import functions by name.  Deferred imports inside
functions read the defining module at call time, so they get the
wrapper too.  ``Subspace.__post_init__`` is wrapped as
``algebra.Subspace``, which counts subspace constructions.

Spans (name, start, end, parent) are kept in memory and aggregated when
the run ends.  Self time is a span's duration minus the part of it
covered by its child spans; calls are strictly nested, so that part is
the sum of the children's durations.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

MB = float(1 << 20)
PACKAGE = "trivolve"


class Tracer:
    """Records one span per call of a wrapped function.

    Functions named in ``memory`` also get the peak of ``tracemalloc``
    memory above the call's start, which includes numpy buffers.
    ``tracemalloc`` runs only inside those calls, and is started and
    stopped outside their clock readings, so the other spans keep their
    speed.
    """

    def __init__(self, clock=time.perf_counter, memory: frozenset[str] = frozenset()):
        self.clock = clock
        self.memory = memory
        self.spans: list[tuple] = []  # (name, start, end, parent index, peak bytes)
        self._stack: list[int] = []   # indices of the open spans
        self._memory_stack: list[list[int]] = []  # [base bytes, highest bytes seen]
        self._restore: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _modules(self) -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        memory_stack = self._memory_stack
        sized = name in self.memory

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            started = False
            if sized:
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                    started = True
                current, peak = tracemalloc.get_traced_memory()
                if memory_stack:
                    memory_stack[-1][1] = max(memory_stack[-1][1], peak)
                tracemalloc.reset_peak()
                frame = [current, current]
                memory_stack.append(frame)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                peak_bytes = 0
                if sized:
                    memory_stack.pop()
                    frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
                    peak_bytes = frame[1] - frame[0]
                    if memory_stack:
                        memory_stack[-1][1] = max(memory_stack[-1][1], frame[1])
                        tracemalloc.reset_peak()
                    if started:
                        tracemalloc.stop()
                spans[index] = (name, start, end, parent, peak_bytes)

        return traced

    def install(self) -> None:
        modules = self._modules()
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        subspace = sys.modules[f"{PACKAGE}.algebra"].Subspace
        self._restore.append((subspace, "__post_init__", subspace.__post_init__))
        subspace.__post_init__ = self.wrap("algebra.Subspace", subspace.__post_init__)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines, one ``[name, start, end, parent, peak]`` each."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def aggregate(spans: list[tuple]) -> dict[str, dict]:
    """Per name: calls, total and self seconds, and peak MB over its calls."""
    self_time = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                "self_s": 0.0, "peak_mb": 0.0})
    for (name, start, end, _, peak), own in zip(spans, self_time):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
        entry["peak_mb"] = max(entry["peak_mb"], peak / MB)
    return dict(out)


def by_layer(functions: dict[str, dict]) -> dict[str, dict]:
    """Sum calls and self time over the functions of each module."""
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for name, entry in functions.items():
        layer = out[name.partition(".")[0]]
        layer["calls"] += entry["calls"]
        layer["self_s"] += entry["self_s"]
    return dict(out)
