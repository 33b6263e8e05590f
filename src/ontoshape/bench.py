"""Experiment harness: repeated sub-sampling, paired runs, aggregation.

Every (attribute count, repetition) cell draws its own attribute sample,
seeded with the base seed plus the repetition index, and both approaches
run on that same sample. Every cell runs in this process, one after the
other, so no run is timed while another runs beside it. Timing covers
schema building, materialization and triples serialization; loading the
shared inputs is excluded. The storage space is the UTF-8 size of the
N-Triples document, counted chunk by chunk as the serializer writes it, so
no run builds the document. An ASCII chunk, as is every chunk without a
non-ASCII literal, takes one byte per character, so its length is its
size; only the other chunks are encoded. All non-timing metrics are
deterministic, so a rerun reproduces them exactly.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

from . import kggen, metrics
from .mapping import MappingSet, UserInfo
from .ontology import Ontology
from .reshape import baseline_schema, identifier_stem, reshape
from .tabular import Dataset, subsample_attributes

APPROACHES = ("baseline", "reshape")

Inputs = tuple[Ontology, Dataset, MappingSet, UserInfo]


@dataclass(frozen=True)
class ExperimentConfig:
    attribute_counts: tuple[int, ...] = (10, 20, 30, 40, 50, 60)
    repetitions: int = 10
    seed: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.attribute_counts or any(
            b <= a for a, b in zip(self.attribute_counts, self.attribute_counts[1:])
        ):
            raise ValueError("attribute_counts must be nonempty and strictly increasing")


@dataclass(frozen=True)
class RunResult:
    approach: str
    attribute_count: int
    repetition: int
    report: metrics.MetricsReport


def key_attributes(m: MappingSet, d: Dataset) -> set[str]:
    """Main-table attributes whose mapped class name marks an identifier."""
    out = set()
    for attr in d.main.attributes:
        cls = m.attribute_map.get((d.main_table, attr))
        if cls is not None and identifier_stem(cls) is not None:
            out.add(attr)
    return out


class _ByteCount:
    """A text sink that keeps only the UTF-8 size of what is written to it:
    the length of an ASCII chunk, the encoded length of any other."""

    def __init__(self) -> None:
        self.size = 0

    def write(self, chunk: str) -> None:
        self.size += len(chunk) if chunk.isascii() else len(chunk.encode("utf-8"))


def run_one(approach: str, o: Ontology, d: Dataset, m: MappingSet, u: UserInfo) -> metrics.MetricsReport:
    """Run one approach end to end on an already-sampled dataset."""
    start = time.perf_counter()
    if approach == "reshape":
        schema = reshape(o, d, m, u)
    else:
        schema = baseline_schema(o, d, m, u.main_class)
    graph = kggen.generate_kg(schema, d, m, u.main_class)
    storage = _ByteCount()
    kggen.serialize_ntriples(graph, out=storage)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return metrics.build_report(
        graph, schema, d, m, u.main_class,
        time_cost_ms=elapsed_ms,
        storage_bytes=storage.size,
    )


def run_experiment(cfg: ExperimentConfig, inputs: Inputs, jobs: int = 1) -> list[RunResult]:
    """Run every (count, repetition, approach) combination in this process.

    Each (count, repetition) cell draws its sample once and runs every
    approach of ``APPROACHES`` on it. Results come back ordered by count,
    repetition, then ``APPROACHES``. ``jobs`` accepts only 1, the value
    ``perfbench/pipeline.py`` passes.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}: every cell runs in this process")
    o, d, m, u = inputs
    retained = key_attributes(m, d)
    available = len(d.main.attributes) - len(retained & set(d.main.attributes))
    if max(cfg.attribute_counts) > available:
        raise ValueError(
            f"insufficient attributes: need {max(cfg.attribute_counts)}, have {available} non-key"
        )
    results = []
    for count in cfg.attribute_counts:
        for rep in range(cfg.repetitions):
            sample = subsample_attributes(d, count, retained, cfg.seed + rep)
            results += [RunResult(ap, count, rep, run_one(ap, o, sample, m, u)) for ap in APPROACHES]
    return results


def aggregate_runs(results: list[RunResult]) -> dict[tuple[str, int], dict[str, float]]:
    """Mean/max aggregation per (approach, attribute count).

    Each value dict is ``metrics.row_values`` over the group's reports: the
    report rows plus the mean data coverage, which is kept for inspection
    but not rendered in the report table.
    """
    if not results:
        raise ValueError("no results to aggregate")
    groups: dict[tuple[str, int], list[metrics.MetricsReport]] = {}
    for r in results:
        groups.setdefault((r.approach, r.attribute_count), []).append(r.report)
    return {key: metrics.row_values(reports) for key, reports in groups.items()}


def render_report(agg: dict[tuple[str, int], dict[str, float]]) -> tuple[str, str]:
    """Render aggregates as (CSV document, aligned text table).

    ``agg`` holds every (approach, count) cell of a ``run_experiment``
    grid. Columns are Set 1..Set N in ascending attribute-count order; rows
    use the fixed metric labels, one block per approach of ``APPROACHES``.
    The text report ends with the per-set time ratio, "-" where the reshape
    time is zero.
    """
    counts = sorted({count for _, count in agg})
    set_headers = [f"Set {i + 1}" for i in range(len(counts))]
    fmt = metrics.format_value
    cells = {
        (approach, label): [fmt(agg[approach, count][label]) for count in counts]
        for approach in APPROACHES
        for label in metrics.ROW_LABELS
    }

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["approach", "metric"] + set_headers)
    for (approach, label), row in cells.items():
        writer.writerow([approach, label] + row)
    csv_doc = buf.getvalue()

    label_width = max(len(label) for label in metrics.ROW_LABELS) + 2
    col_width = max(12, max(len(h) for h in set_headers) + 2)
    lines = []
    for approach in APPROACHES:
        lines.append(f"== {approach} ==")
        lines.append(" " * label_width + "".join(h.rjust(col_width) for h in set_headers))
        for section, labels in (
            ("Efficiency metrics", metrics.EFFICIENCY_LABELS),
            ("Simplicity metrics", metrics.SIMPLICITY_LABELS),
        ):
            lines.append(section)
            for label in labels:
                row = "".join(c.rjust(col_width) for c in cells[approach, label])
                lines.append(label.ljust(label_width) + row)
        lines.append("")
    ratios = []
    for count in counts:
        b, r = agg["baseline", count]["time cost (sec)"], agg["reshape", count]["time cost (sec)"]
        ratios.append(("-" if r == 0 else fmt(b / r)).rjust(col_width))
    lines.append("time ratio (baseline / reshape)".ljust(label_width) + "".join(ratios))
    lines.append("")
    return csv_doc, "\n".join(lines)
