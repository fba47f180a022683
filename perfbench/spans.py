"""In-memory spans and counts recorded around satreach's layer boundaries.

The benchmark does not edit the program.  It replaces the module
attributes each layer is called through (``satreach.cli.simulate_ensemble``,
``satreach.montecarlo.saturate`` and so on) with wrappers that record a
span per call, and puts the originals back afterwards.  A span is
``[name, parent span or None, start, end]``; its parent is the innermost
open span of the calling thread, or of the installing thread when the
caller is a worker thread with no span of its own.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Wrappers that record spans and counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack: list | None = None
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, module, attr: str, name: str | None, on_call=None, on_result=None) -> None:
        """Record calls of ``module.attr`` as spans named ``name``.

        ``name=None`` records no span and only runs the hooks.
        ``on_call(tracer, args, kwargs)`` runs before the call and
        ``on_result(tracer, args, result)`` after it returns.
        """
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            if name is None:
                result = original(*args, **kwargs)
            else:
                stack = tracer._stack()
                home = tracer._home_stack
                parent = stack[-1] if stack else (home[-1] if home else None)
                record = [name, parent, time.perf_counter(), None]
                stack.append(record)
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[3] = time.perf_counter()
                    stack.pop()
                    tracer.spans.append(record)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        self._patches.append((module, attr, original, wrapper))

    @contextmanager
    def installed(self):
        """Swap every wrapper in for the duration of the block."""
        self._home_stack = self._stack()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in reversed(self._patches):
                setattr(module, attr, original)
            self._home_stack = None

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s``, ``self_s`` and ``min_self_s``.

        Busy time sums span durations.  Self time is a span's duration
        minus the part of its interval that its children cover; children
        running in parallel threads are counted once where they overlap.
        """
        children = defaultdict(list)
        for record in self.spans:
            if record[1] is not None:
                children[id(record[1])].append(record)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "min_self_s": float("inf")}
        )
        for record in self.spans:
            name, _, start, end = record
            covered = 0.0
            reach = start
            for _, _, c_start, c_end in sorted(
                children.get(id(record), ()), key=lambda r: r[2]
            ):
                lo, hi = max(c_start, reach), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += (end - start) - covered
            entry["min_self_s"] = min(entry["min_self_s"], (end - start) - covered)
        return dict(out)
