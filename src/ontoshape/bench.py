"""Experiment harness: repeated sub-sampling, paired runs, aggregation.

Every (attribute count, repetition) cell draws its own attribute sample,
seeded with the base seed plus the repetition index, and both approaches
run on that same sample. Timing covers schema building, materialization
and triples serialization; loading the shared inputs is excluded. The
storage space is the UTF-8 size of the N-Triples document, counted chunk
by chunk as the serializer writes it, so no run builds the document. All
non-timing metrics are deterministic, so a rerun or a reshuffled schedule
reproduces them exactly.
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
    approaches: tuple[str, ...] = APPROACHES

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.attribute_counts or any(
            b <= a for a, b in zip(self.attribute_counts, self.attribute_counts[1:])
        ):
            raise ValueError("attribute_counts must be nonempty and strictly increasing")
        unknown = set(self.approaches) - set(APPROACHES)
        if unknown or not self.approaches:
            raise ValueError(f"approaches must be a nonempty subset of {APPROACHES}")


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
    """A text sink that keeps only the UTF-8 size of what is written to it."""

    def __init__(self) -> None:
        self.size = 0

    def write(self, chunk: str) -> None:
        self.size += len(chunk.encode("utf-8"))


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


def _run_cell(args: tuple[Inputs, tuple[str, ...], set[str], int, int, int]) -> list[RunResult]:
    inputs, approaches, retained, count, rep, seed = args
    o, d, m, u = inputs
    sample = subsample_attributes(d, count, retained, seed + rep)
    return [RunResult(ap, count, rep, run_one(ap, o, sample, m, u)) for ap in approaches]


def run_experiment(cfg: ExperimentConfig, inputs: Inputs, jobs: int = 1) -> list[RunResult]:
    """Run every (count, repetition, approach) combination.

    Results come back ordered by count, repetition, then the configured
    approach order, regardless of the worker count.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    o, d, m, u = inputs
    retained = key_attributes(m, d)
    available = len(d.main.attributes) - len(retained & set(d.main.attributes))
    if max(cfg.attribute_counts) > available:
        raise ValueError(
            f"insufficient attributes: need {max(cfg.attribute_counts)}, have {available} non-key"
        )
    cells = [
        (inputs, cfg.approaches, retained, count, rep, cfg.seed)
        for count in cfg.attribute_counts
        for rep in range(cfg.repetitions)
    ]
    if jobs > 1:
        # imported here: multiprocessing adds about 1.8 MB of RSS to every process that loads it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(_run_cell, cells))
    else:
        batches = map(_run_cell, cells)
    return [result for batch in batches for result in batch]


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

    Columns are Set 1..Set N in ascending attribute-count order; rows use
    the fixed metric labels, one block per approach. A set an approach did
    not run is empty in the CSV and "-" in the text. When both approaches
    are present the text report ends with the per-set time ratio.
    """
    approaches = [ap for ap in APPROACHES if any(k[0] == ap for k in agg)]
    counts = sorted({count for _, count in agg})
    set_headers = [f"Set {i + 1}" for i in range(len(counts))]
    fmt = metrics.format_value
    cells = {
        (approach, label): [
            fmt(agg[approach, count][label]) if (approach, count) in agg else None
            for count in counts
        ]
        for approach in approaches
        for label in metrics.ROW_LABELS
    }

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["approach", "metric"] + set_headers)
    for (approach, label), row in cells.items():
        writer.writerow([approach, label] + ["" if c is None else c for c in row])
    csv_doc = buf.getvalue()

    label_width = max(len(label) for label in metrics.ROW_LABELS) + 2
    col_width = max(12, max(len(h) for h in set_headers) + 2)
    lines = []
    for approach in approaches:
        lines.append(f"== {approach} ==")
        lines.append(" " * label_width + "".join(h.rjust(col_width) for h in set_headers))
        for section, labels in (
            ("Efficiency metrics", metrics.EFFICIENCY_LABELS),
            ("Simplicity metrics", metrics.SIMPLICITY_LABELS),
        ):
            lines.append(section)
            for label in labels:
                row = "".join(("-" if c is None else c).rjust(col_width) for c in cells[approach, label])
                lines.append(label.ljust(label_width) + row)
        lines.append("")
    if "baseline" in approaches and "reshape" in approaches:
        ratios = []
        for count in counts:
            b = agg.get(("baseline", count))
            r = agg.get(("reshape", count))
            if b is None or r is None or r["time cost (sec)"] == 0:
                ratios.append("-".rjust(col_width))
            else:
                ratios.append(fmt(b["time cost (sec)"] / r["time cost (sec)"]).rjust(col_width))
        lines.append("time ratio (baseline / reshape)".ljust(label_width) + "".join(ratios))
        lines.append("")
    return csv_doc, "\n".join(lines)
