"""Experiment harness: sampling schedule, aggregation, rendering."""

from __future__ import annotations

import csv
import dataclasses
import io
import re
from collections import Counter
from types import SimpleNamespace

import pytest

from ontoshape import ontology as ontology_module
from ontoshape import reshape as reshape_module
from ontoshape.bench import (
    ExperimentConfig,
    RunResult,
    aggregate_runs,
    key_attributes,
    render_report,
    run_experiment,
    run_one,
)
from ontoshape.kggen import generate_kg, serialize_ntriples
from ontoshape.mapping import MappingSet
from ontoshape.metrics import ROW_LABELS, ROWS, MetricsReport, format_value, report_text
from ontoshape.reshape import baseline_schema, reshape
from ontoshape.syndata import SynthConfig, generate_synthetic
from ontoshape.tabular import Dataset, Table

SMALL = SynthConfig(n_attributes=6, n_rows=12, chain_depth=2, n_entity_classes=1)


@pytest.fixture(scope="module")
def small_inputs():
    return generate_synthetic(SMALL)


def test_config_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(attribute_counts=(10, 10))
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(attribute_counts=())
    with pytest.raises(ValueError, match="repetitions"):
        ExperimentConfig(repetitions=0)


def test_key_attributes(small_inputs):
    o, d, m, u = small_inputs
    assert key_attributes(m, d) == {"operation_id", "program_id"}


def test_key_attributes_need_a_stem_before_the_suffix():
    t = Table("t", ["a", "b", "c", "d"], [])
    m = MappingSet({}, {("t", "a"): "ID", ("t", "b"): "Name", ("t", "c"): "ToolName", ("t", "d"): "Value"})
    assert key_attributes(m, Dataset({"t": t}, "t")) == {"c"}


def test_run_count_and_order(small_inputs):
    cfg = ExperimentConfig(attribute_counts=(2, 4), repetitions=2, seed=5)
    results = run_experiment(cfg, small_inputs)
    assert len(results) == 8
    schedule = [(r.attribute_count, r.repetition, r.approach) for r in results]
    assert schedule == [
        (2, 0, "baseline"), (2, 0, "reshape"),
        (2, 1, "baseline"), (2, 1, "reshape"),
        (4, 0, "baseline"), (4, 0, "reshape"),
        (4, 1, "baseline"), (4, 1, "reshape"),
    ]


def test_runs_are_deterministic_except_time(small_inputs):
    cfg = ExperimentConfig(attribute_counts=(2, 3), repetitions=2, seed=11)
    a = run_experiment(cfg, small_inputs)
    b = run_experiment(cfg, small_inputs)
    for ra, rb in zip(a, b):
        da, db = dict(vars(ra.report)), dict(vars(rb.report))
        da.pop("time_cost_ms")
        db.pop("time_cost_ms")
        assert da == db


def test_both_approaches_share_the_sample(small_inputs):
    # paired runs must see the same attribute subset: equal data-prop counts
    cfg = ExperimentConfig(attribute_counts=(3,), repetitions=4, seed=2)
    results = run_experiment(cfg, small_inputs)
    by_rep = {}
    for r in results:
        by_rep.setdefault(r.repetition, {})[r.approach] = r.report
    for reports in by_rep.values():
        assert reports["baseline"].data_prop_count == reports["reshape"].data_prop_count


@pytest.mark.parametrize("jobs", [0, -3, 2])
def test_jobs_other_than_one_is_rejected(small_inputs, jobs):
    cfg = ExperimentConfig(attribute_counts=(2,), repetitions=1)
    with pytest.raises(ValueError, match="jobs must be 1"):
        run_experiment(cfg, small_inputs, jobs=jobs)


def test_storage_bytes_are_the_utf8_size_of_the_document(small_inputs):
    o, d, m, u = small_inputs
    main = d.main
    rows = [dict(row) for row in main.rows]
    attr = next(a for a in main.attributes if a not in key_attributes(m, d))
    rows[0][attr] = "grüße ✓"
    d = Dataset({**d.tables, main.name: Table(main.name, main.attributes, rows)}, d.main_table)
    for approach, schema in (("baseline", baseline_schema(o, d, m, u.main_class)), ("reshape", reshape(o, d, m, u))):
        document = serialize_ntriples(generate_kg(schema, d, m, u.main_class))
        assert run_one(approach, o, d, m, u).storage_bytes == len(document.encode("utf-8")) > len(document)


# a baseline graph of about 4,000 lines, so the writer sends it in three chunks
THREE_CHUNKS = SynthConfig(n_attributes=6, n_rows=120, chain_depth=2, n_entity_classes=1)


def test_storage_bytes_count_an_ascii_chunk_by_its_length_and_encode_the_others():
    o, d, m, u = generate_synthetic(THREE_CHUNKS)
    main = d.main
    rows = [dict(row) for row in main.rows]
    rows[57]["attr000"] = "grüße ✓"
    d = Dataset({**d.tables, main.name: Table(main.name, main.attributes, rows)}, d.main_table)
    chunks = []
    graph = generate_kg(baseline_schema(o, d, m, u.main_class), d, m, u.main_class)
    serialize_ntriples(graph, out=SimpleNamespace(write=chunks.append))
    assert len(chunks) == 3 and sum(not chunk.isascii() for chunk in chunks) == 1
    document = "".join(chunks)
    assert run_one("baseline", o, d, m, u).storage_bytes == len(document.encode("utf-8")) > len(document)


def test_storage_bytes_of_an_ascii_document_are_its_length():
    o, d, m, u = generate_synthetic(THREE_CHUNKS)
    for approach, schema in (("baseline", baseline_schema(o, d, m, u.main_class)), ("reshape", reshape(o, d, m, u))):
        document = serialize_ntriples(generate_kg(schema, d, m, u.main_class))
        assert document.isascii()
        assert run_one(approach, o, d, m, u).storage_bytes == len(document)


def test_experiment_runs_at_most_one_bfs_per_class(monkeypatch):
    # fresh inputs: the module-scoped ones already hold distance maps
    inputs = generate_synthetic(SMALL)
    o = inputs[0]
    calls = []  # every other BFS run, as (adjacency, sources)
    owner_runs = []  # the seeds of each BFS reshape runs over the ontology's neighbours
    held = []  # every adjacency counted stays alive, so no id is reused
    real = ontology_module._bfs

    def counted(adj, *sources):
        held.append(adj)
        calls.append((id(adj), sources))
        return real(adj, *sources)

    def counted_in_reshape(adj, *sources):
        if adj is o._und:
            owner_runs.append(sources)
            return real(adj, *sources)
        return counted(adj, *sources)

    # reshape imports _bfs by name, so both modules are patched
    monkeypatch.setattr(ontology_module, "_bfs", counted)
    monkeypatch.setattr(reshape_module, "_bfs", counted_in_reshape)
    cfg = ExperimentConfig(attribute_counts=(2, 4), repetitions=2, seed=5)
    run_experiment(cfg, inputs)
    assert {sources for adj_id, sources in calls if adj_id == id(o._succ)}
    assert {sources for adj_id, sources in calls if adj_id == id(o._und)}
    assert all(len(sources) == 1 for _, sources in calls)
    assert max(Counter(calls).values()) == 1
    # one owner BFS per reshape call, the main class among its seeds
    assert len(owner_runs) == len(cfg.attribute_counts) * cfg.repetitions
    assert all(inputs[3].main_class in sources for sources in owner_runs)


def test_insufficient_attributes(small_inputs):
    cfg = ExperimentConfig(attribute_counts=(99,))
    with pytest.raises(ValueError, match="insufficient attributes"):
        run_experiment(cfg, small_inputs)


def _report(**overrides) -> MetricsReport:
    values = dict(
        data_coverage=1.0, time_cost_ms=10.0, storage_bytes=1000,
        class_count=3, object_prop_count=5, data_prop_count=4,
        entity_count=6, dummy_count=0, root_to_leaf_depth=1, global_depth=2,
    )
    values.update(overrides)
    return MetricsReport(**values)


def test_aggregate_mean_and_max():
    results = [
        RunResult("reshape", 10, 0, _report(root_to_leaf_depth=1, global_depth=1)),
        RunResult("reshape", 10, 1, _report(root_to_leaf_depth=3, global_depth=3)),
    ]
    agg = aggregate_runs(results)
    cell = agg[("reshape", 10)]
    assert cell["avg. root to leaf depth"] == 2.0
    assert cell["max. root to leaf depth"] == 3.0
    assert cell["avg. global depth"] == 2.0
    assert cell["max. global depth"] == 3.0


def test_aggregate_takes_max_for_max_rows_and_mean_for_the_rest():
    first = _report(
        data_coverage=0.5, time_cost_ms=10.0, storage_bytes=1000, class_count=3,
        object_prop_count=5, data_prop_count=4, entity_count=6, dummy_count=0,
        root_to_leaf_depth=1, global_depth=2,
    )
    second = _report(
        data_coverage=1.0, time_cost_ms=40.0, storage_bytes=4000, class_count=8,
        object_prop_count=9, data_prop_count=11, entity_count=13, dummy_count=7,
        root_to_leaf_depth=4, global_depth=6,
    )
    for f in dataclasses.fields(MetricsReport):
        assert getattr(first, f.name) != getattr(second, f.name)
    # every field but data coverage is shown in some row
    shown = {field for _, field, _, _ in ROWS}
    assert shown == {f.name for f in dataclasses.fields(MetricsReport)} - {"data_coverage"}

    runs = [RunResult("baseline", 5, 0, first), RunResult("baseline", 5, 1, second)]
    cell = aggregate_runs(runs)[("baseline", 5)]
    assert cell["data coverage"] == 0.75
    for label, field, divisor, _ in ROWS:
        a, b = getattr(first, field), getattr(second, field)
        if label.startswith(("#max.", "max.")):
            assert cell[label] == max(a, b) / divisor, label
        else:
            assert cell[label] == (a + b) / 2 / divisor, label


def test_report_text_lines_match_single_run_aggregate():
    r = _report(data_coverage=0.8, time_cost_ms=1234.5678, storage_bytes=123456, dummy_count=7)
    cell = aggregate_runs([RunResult("reshape", 1, 0, r)])[("reshape", 1)]
    lines = report_text(r).splitlines()
    assert len(lines) == len(cell) == 1 + len(ROW_LABELS)
    for line in lines:
        label, value = re.split(r" {2,}", line)
        assert value == format_value(cell[label]), label


def test_aggregate_single_run_is_identity():
    agg = aggregate_runs([RunResult("baseline", 20, 0, _report(dummy_count=7))])
    cell = agg[("baseline", 20)]
    assert cell["#avg. dummy entities"] == 7.0
    assert cell["#max. dummy entities"] == 7.0
    assert cell["time cost (sec)"] == 0.01


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError, match="no results"):
        aggregate_runs([])


def test_render_report_layout(small_inputs):
    cfg = ExperimentConfig(attribute_counts=(2, 4), repetitions=2, seed=1)
    agg = aggregate_runs(run_experiment(cfg, small_inputs))
    csv_doc, text = render_report(agg)

    rows = list(csv.reader(io.StringIO(csv_doc)))
    assert rows[0] == ["approach", "metric", "Set 1", "Set 2"]
    assert len(rows) == 1 + 2 * len(ROW_LABELS)
    for approach in ("baseline", "reshape"):
        labels = [r[1] for r in rows[1:] if r[0] == approach]
        assert labels == ROW_LABELS

    assert "== baseline ==" in text
    assert "== reshape ==" in text
    assert "Efficiency metrics" in text
    assert "Simplicity metrics" in text
    assert "time ratio (baseline / reshape)" in text


def test_render_csv_matches_aggregate_values(small_inputs):
    cfg = ExperimentConfig(attribute_counts=(3,), repetitions=1, seed=4)
    agg = aggregate_runs(run_experiment(cfg, small_inputs))
    csv_doc, _ = render_report(agg)
    rows = list(csv.reader(io.StringIO(csv_doc)))
    for row in rows[1:]:
        approach, label, value = row[0], row[1], row[2]
        assert value == f"{agg[(approach, 3)][label]:.4f}"
