"""Spans recorded around calls into the pipeline's modules.

A span is (name, start, end, parent, op id), kept in memory and summarized
when the run ends. A layer's self time is its span's duration minus the
durations of its child spans; the root span of each op is named ``op`` and
its self time is the part of the op that no other span covers. Spans
named in ``memory`` also record their peak allocation: ``tracemalloc``
runs only inside them, so the rest of the op is not slowed by it.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field


class NoTracer:
    """Tracing off: spans and counters cost one call each and record nothing."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: int) -> None:
        pass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op_id: int = 0
    children_s: float = 0.0
    peak_mb: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


@dataclass
class Tracer:
    """Records spans and per-op counters; set ``op_id`` before each op."""

    memory: tuple[str, ...] = ()
    spans: list[Span] = field(default_factory=list)
    # counters per op id: name -> value
    counts: dict[int, dict[str, int]] = field(default_factory=dict)
    op_id: int = 0
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        traced = name in self.memory
        if traced:
            tracemalloc.start()
        s = Span(name, time.perf_counter(), parent=parent, op_id=self.op_id)
        self.spans.append(s)
        self._open.append(index)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if traced:
                s.peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
            if parent >= 0:
                self.spans[parent].children_s += s.end - s.start

    def count(self, name: str, value: int) -> None:
        ops = self.counts.setdefault(self.op_id, {})
        ops[name] = ops.get(name, 0) + value

    def self_times(self, scale: list[float]) -> dict[str, float]:
        """Median over ops of each span name's summed self time per op,
        the spans of op ``i`` scaled by ``scale[i]``."""
        per_op: dict[int, dict[str, float]] = {}
        for s in self.spans:
            names = per_op.setdefault(s.op_id, {})
            names[s.name] = names.get(s.name, 0.0) + s.self_s * scale[s.op_id]
        names = {n for ops in per_op.values() for n in ops}
        return {n: statistics.median(ops.get(n, 0.0) for ops in per_op.values()) for n in names}

    def dump(self, path) -> None:
        """Write every span to ``path`` as a JSON list."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh, indent=0)

    def peaks(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = max(out.get(s.name, 0.0), s.peak_mb)
        return out


@contextmanager
def wrapped(tracer: Tracer, targets):
    """Replace module attributes with span-recording wrappers for the
    duration of the block. ``targets`` holds (module, attribute, span
    name, counter) tuples; ``counter`` maps a result to counts or is None."""
    saved = []
    try:
        for module, attr, name, counter in targets:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, name, fn, counter))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            for key, value in counter(result).items():
                tracer.count(key, value)
        return result

    return call
