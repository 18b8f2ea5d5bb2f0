"""In-memory spans and counters recorded around calls into diracver.

The traced run replaces module attributes such as
``diracver.dispersion.char_poly`` or ``MultiPoly.__mul__`` with wrappers
built here, so every layer is timed from the benchmark's own files and
nothing under ``src/`` changes.  A span holds a name, start, end, the span
that was open when it started (its parent) and the id of the benchmark
operation it belongs to.  A span's self time is its duration minus the
time its direct children cover; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT_SPAN = "op"


class Tracer:
    """Span and counter store plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_op = -1
        # per-operation counters: op id -> counter name -> value
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrap(self, fn: Callable, name: str, outcome: Callable[[object], str] | None = None) -> Callable:
        """Return ``fn`` recording one span per call.

        With ``outcome`` the span is named ``name.<outcome(result)>``, or
        ``name.raised`` when the call raises, so one layer's branches get
        separate self times.
        """
        tracer = self
        base_id = self._intern(name)
        raised_id = self._intern(f"{name}.raised") if outcome is not None else base_id

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.name_id.append(raised_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if outcome is None:
                tracer.name_id[idx] = base_id
            else:
                tracer.name_id[idx] = tracer._intern(f"{name}.{outcome(result)}")
            return result

        return traced

    def counter(self, fn: Callable, name: str, measure: Callable[[object], int] | None = None) -> Callable:
        """Return ``fn`` adding 1, or ``measure(result)``, to counter ``name`` per call."""
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.counts[tracer.current_op][name] += 1 if measure is None else measure(result)
            return result

        return counted

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run_op(self, op_id: int, fn: Callable[[], object]) -> tuple[object, float]:
        """Run one benchmark operation under a root span; return its result and duration."""
        self.current_op = op_id
        idx = len(self.start)
        try:
            result = self.wrap(fn, ROOT_SPAN)()
        finally:
            self.current_op = -1
        return result, self.end[idx] - self.start[idx]

    # -- analysis ----------------------------------------------------------

    def per_op(self) -> tuple[dict, dict, dict]:
        """Self time, inclusive time (seconds) and calls per operation and span name.

        Inclusive time skips spans directly inside a span of the same name,
        so a recursive call is not counted twice.
        """
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        self_time: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        inclusive: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        calls: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for i in range(n):
            op, name_id, p = self.op[i], self.name_id[i], self.parent[i]
            name = self.names[name_id]
            self_time[op][name] += duration[i] - covered[i]
            if p < 0 or self.name_id[p] != name_id:
                inclusive[op][name] += duration[i]
            calls[op][name] += 1
        return self_time, inclusive, calls

    def write(self, path: Path) -> int:
        """Write every span as gzipped CSV (times in microseconds); return the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span,parent,op,name,start_us,end_us\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.parent[i]},{self.op[i]},{self.names[self.name_id[i]]},"
                    f"{(self.start[i] - origin) * 1e6:.3f},{(self.end[i] - origin) * 1e6:.3f}\n"
                )
        return len(self.start)


def median_where_present(per_op: dict[int, dict[str, float]], key: str) -> float:
    """Median over operations that entered ``key``; 0 when none did."""
    values = [d[key] for d in per_op.values() if key in d]
    return statistics.median(values) if values else 0
