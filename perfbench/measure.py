"""Set up one workload, run its ops for a fixed time and compute its metrics.

Tracing off, every op runs bare and gives the end-to-end metrics. Tracing
on, untraced and traced ops alternate, so the traced run reports its own
overhead (traced minus untraced median op time), and one last op runs with
``tracemalloc`` inside the kggen stages for their memory peaks, which would
distort every time if it were on for the timed ops.

Every time reported, set-up and per-layer times included, is stated at a
fixed host speed: ``hostspeed`` probes the host before the first set-up
and after each set-up and op, and each is scaled by the probes around it.
The raw wall times are printed beside them.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import hostspeed, pipeline
from .tracing import NoTracer, Tracer, wrapped
from .workloads import Workload, build_fixture

# fewest ops a run makes, however short --seconds is; a traced run needs two
MIN_OPS = 3
# set-ups per run; setup_s is their median
SETUPS = 3
# samples past the high percentile printed beside the median
TAIL = 10

# name -> unit. ok_ratio is 1 - failed_ratio: a regression bound is a share
# of the median, which needs a metric that is never 0; failed_ratio is
# printed beside it
END_TO_END = {
    "pipeline_s": "s",
    "triples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "kg_mb": "MB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}

LAYER_TIMES = (
    "tabular.load", "tabular.subsample", "ontology.parse", "mapping.parse",
    "reshape.schema", "reshape.schema_io", "kggen.generate", "kggen.serialize",
    "kggen.read", "metrics.report", "metrics.depth", "bench.experiment", "bench.render",
)
LAYER_COUNTS = {
    "tabular.cells": "count", "ontology.classes": "count", "reshape.classes": "count",
    "reshape.edges": "count", "reshape.dummy_classes": "count", "kggen.entities": "count",
    "kggen.dummies": "count", "kggen.bytes": "B", "bench.cells": "count",
}
LAYER_PEAKS = ("kggen.generate", "kggen.serialize", "kggen.read")


@dataclass
class Outcome:
    """Every op attempted in a run; ``None`` for an op that raised."""

    results: list[pipeline.OpResult | None] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    # wall time of each attempt, checks included
    walls: list[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r is None or r.problems)

    def done(self) -> list[pipeline.OpResult]:
        return [r for r in self.results if r is not None]

    def room_for_another(self, deadline: float) -> bool:
        """True while fewer than MIN_OPS ops ran or at least half of one
        more fits before ``deadline``, so a run measures about as long as
        asked."""
        if len(self.results) < MIN_OPS:
            return True
        return time.perf_counter() + statistics.median(self.walls) / 2 <= deadline

    def attempt(self, run) -> pipeline.OpResult | None:
        start = time.perf_counter()
        gc.collect()
        try:
            result = run()
        except Exception as exc:  # an op that raises is counted as failed, the run goes on
            self.errors.append(f"op {len(self.results)}: {type(exc).__name__}: {exc}")
            result = None
        else:
            self.errors += [f"op {len(self.results)}: {p}" for p in result.problems]
        self.results.append(result)
        self.walls.append(time.perf_counter() - start)
        return result


def setup(w: Workload, seed: int, work: Path):
    """Fixture generation, writing it, and the CLI reference run, which
    also serves as warm-up: it imports and runs every stage once.
    Returns (fixture, reference, op output directory, seconds)."""
    start = time.perf_counter()
    fx = build_fixture(w, seed, work / "fixture")
    ref = pipeline.cli_reference(w, fx, work / "cli")
    out = work / "op"
    out.mkdir(parents=True, exist_ok=True)
    return fx, ref, out, time.perf_counter() - start


def run_workload(
    w: Workload, seed: int, seconds: float, trace: bool, work: Path, spans_out: Path | None = None
) -> tuple[dict, list[str]]:
    """Return (result object as printed, human-readable lines). A traced
    run writes its spans to ``spans_out`` when one is given."""
    probes = [hostspeed.probe()]
    setups = []
    for i in range(SETUPS):
        setups.append(setup(w, seed, work / f"setup{i}"))
        probes.append(hostspeed.probe())
    fx, ref, out, _ = setups[-1]
    setup_raw = [s[-1] for s in setups]
    setup_s = [t * k for t, k in zip(setup_raw, hostspeed.scales(probes))]
    op = pipeline.grid_op if w.approach == "grid" else pipeline.file_op
    outcome = Outcome()
    tracer = Tracer()
    traced_ids = set()
    probes = probes[-1:]
    deadline = time.perf_counter() + seconds
    while outcome.room_for_another(deadline):
        if trace and len(outcome.results) % 2 == 1:
            tracer.op_id = len(outcome.results)
            traced_ids.add(tracer.op_id)
            with wrapped(tracer, pipeline.traced_calls(w)):
                outcome.attempt(lambda: op(w, fx, out, ref, tracer))
        else:
            outcome.attempt(lambda: op(w, fx, out, ref, NoTracer()))
        probes.append(hostspeed.probe())
    scale = hostspeed.scales(probes)
    # op index -> op seconds at the reference host speed
    norm = {i: r.seconds * scale[i] for i, r in enumerate(outcome.results) if r is not None}

    if trace:
        memory = Tracer(memory=LAYER_PEAKS)
        with wrapped(memory, pipeline.traced_calls(w)):
            outcome.attempt(lambda: op(w, fx, out, ref, memory))
    if not outcome.done():
        raise RuntimeError("no op completed: " + "; ".join(outcome.errors[:3]))

    lines = [f"workload {w.name}: seed {seed}, {len(outcome.results)} ops, {outcome.failed} failed"]
    lines.append("  op seconds: " + " ".join("raised" if r is None else f"{r.seconds:.3f}" for r in outcome.results))
    lines += outcome.errors[:10]
    if trace:
        lines[1] += "  (the last one with tracemalloc on)"
        if spans_out is not None:
            tracer.dump(spans_out)
            lines.append(f"  spans written to {spans_out}")
        traced = [t for i, t in norm.items() if i in traced_ids]
        untraced = [t for i, t in norm.items() if i not in traced_ids]
        metrics, more = _layer_metrics(tracer, scale, memory, traced, untraced)
    else:
        metrics, more = _end_to_end(outcome, list(norm.values()), setup_s, setup_raw, probes)
    lines += more
    result = {
        "correct": outcome.failed == 0,
        "attempted": len(outcome.results),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return result, lines


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _spread(times: list[float]) -> str:
    """Median, the highest percentile with TAIL samples past it when that
    is above the median, and count."""
    times = sorted(times)
    out = f"median {statistics.median(times):.4g}"
    if len(times) > 2 * TAIL + 1:
        k = len(times) - TAIL - 1
        out += f", p{100 * (k + 1) // len(times)} {times[k]:.4g}"
    return out + f" of {len(times)}"


def _end_to_end(
    outcome: Outcome, norm: list[float], setup_s: list[float], setup_raw: list[float], probes: list[float]
) -> tuple[dict, list[str]]:
    done = outcome.done()
    attempted = len(outcome.results)
    pipeline_s = statistics.median(norm)
    values = {
        "pipeline_s": pipeline_s,
        "triples_per_s": statistics.median(r.lines for r in done) / pipeline_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kg_mb": statistics.median(r.kg_bytes for r in done) / 1e6,
        "ok_ratio": (attempted - outcome.failed) / attempted,
        "setup_s": statistics.median(setup_s),
    }
    lines = [f"  {name:<14} {values[name]:>14.6g} {unit:<5}" for name, unit in END_TO_END.items()]
    lines[0] += f"  {_spread(norm)} ops; wall {_spread([r.seconds for r in done])}"
    lines[-1] += f"  {_spread(setup_s)} set-ups; wall {_spread(setup_raw)}"
    lines.append(f"  host probe {_spread(probes)}, {hostspeed.REFERENCE_S} s at the reference speed")
    lines.append(f"  {'failed_ratio':<14} {outcome.failed / attempted:>14.6g} ratio  {outcome.failed} of {attempted} ops")
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}, lines


def _layer_metrics(
    tracer: Tracer, scale: list[float], memory: Tracer, traced: list[float], untraced: list[float]
) -> tuple[dict, list[str]]:
    self_s = tracer.self_times(scale)
    out = {f"{name}_s": _metric(self_s.get(name, 0.0), "s") for name in LAYER_TIMES}
    counts = tracer.counts[max(tracer.counts)] if tracer.counts else {}
    out |= {name: _metric(counts.get(name, 0), unit) for name, unit in LAYER_COUNTS.items()}
    peaks = memory.peaks()
    out |= {f"{name}_peak_mb": _metric(peaks.get(name, 0.0), "MB") for name in LAYER_PEAKS}
    out["trace.uncovered_s"] = _metric(self_s.get("op", 0.0), "s")
    overhead = statistics.median(traced) - statistics.median(untraced) if traced and untraced else 0.0
    out["trace.overhead_s"] = _metric(overhead, "s")

    total = sum(v for n, v in self_s.items() if n != "check")
    lines = [f"  self time per op, median of {len(traced)} traced ops (share of {total:.4g} s):"]
    for name in sorted(LAYER_TIMES + ("op",), key=lambda n: -self_s.get(n, 0.0)):
        if name in self_s:
            label = "(uncovered)" if name == "op" else name
            lines.append(f"    {label:<20} {self_s[name]:>10.4g} s  {100 * self_s[name] / total:5.1f} %")
    by_module: dict[str, float] = {}
    for name, value in self_s.items():
        if name not in ("op", "check"):
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + value
    lines.append("  self time by module: " + ", ".join(
        f"{m} {100 * v / total:.1f} %" for m, v in sorted(by_module.items(), key=lambda kv: -kv[1])
    ))
    lines += [f"  {name:<24} {m['value']:>14.6g} {m['unit']}" for name, m in out.items()]
    return out, lines
