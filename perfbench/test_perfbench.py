"""The benchmark on tiny inputs: every workload passes its checks, and a
corrupted output is counted as a failed op."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ontoshape import kggen
from perfbench import hostspeed, measure, run
from perfbench.workloads import WORKLOADS, build_fixture, expected

TINY = {
    name: dataclasses.replace(w, attrs=4, rows=12, shared_values=3 if w.shared_values else 0,
                              counts=(1, 2, 3, 4) if w.counts else ())
    for name, w in WORKLOADS.items()
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("seed", [1, 7])
def test_workload_passes_its_checks(name, seed, tmp_path):
    result, lines = measure.run_workload(TINY[name], seed, 0, False, tmp_path)
    assert result["failed"] == 0, lines
    assert result["correct"] and result["attempted"] == measure.MIN_OPS
    assert set(result["metrics"]) == set(measure.END_TO_END)
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer(name, tmp_path):
    spans = tmp_path / "spans.json"
    result, lines = measure.run_workload(TINY[name], 3, 0, True, tmp_path / "work", spans)
    assert result["failed"] == 0, lines
    recorded = json.loads(spans.read_text(encoding="utf-8"))
    assert {s["name"] for s in recorded if s["parent"] < 0} == {"op"}
    layer = result["metrics"]
    expected_names = {f"{n}_s" for n in measure.LAYER_TIMES} | set(measure.LAYER_COUNTS)
    expected_names |= {f"{n}_peak_mb" for n in measure.LAYER_PEAKS}
    expected_names |= {"trace.uncovered_s", "trace.overhead_s"}
    assert set(layer) == expected_names
    assert layer["kggen.generate_s"]["value"] > 0 and layer["metrics.depth_s"]["value"] > 0
    assert layer["kggen.serialize_peak_mb"]["value"] > 0
    if name == "paper_grid":
        assert layer["bench.experiment_s"]["value"] > 0 and layer["tabular.subsample_s"]["value"] > 0
    else:
        assert layer["reshape.schema_io_s"]["value"] > 0 and layer["kggen.read_s"]["value"] > 0


def test_dropped_line_counts_as_failure(tmp_path, monkeypatch):
    serialize = kggen.serialize_ntriples

    def drop_first_line(g, *args):
        return serialize(g, *args).split("\n", 1)[1]

    monkeypatch.setattr(kggen, "serialize_ntriples", drop_first_line)
    result, lines = measure.run_workload(TINY["baseline_chain"], 1, 0, False, tmp_path)
    assert result["failed"] == result["attempted"] == measure.MIN_OPS
    assert not result["correct"]
    assert any("N-Triples lines" in line for line in lines)


def test_shared_keys_fixture_shares_entities(tmp_path):
    w = WORKLOADS["shared_keys"]
    fx = build_fixture(w, 5, tmp_path)
    assert fx.key_values == (w.shared_values, w.shared_values)
    exp = expected(w.approach, w.attrs, w.rows, w.depth, fx.key_values)
    assert exp.depths is None and exp.entities < expected(w.approach, w.attrs, w.rows, w.depth, (w.rows,) * 2).entities


def test_fixture_depends_on_seed_only(tmp_path):
    w = TINY["shared_keys"]
    tables = []
    for seed, sub in ((2, "a"), (2, "b"), (3, "c")):
        build_fixture(w, seed, tmp_path / sub)
        tables.append((tmp_path / sub / "data" / "operation.csv").read_bytes())
    assert tables[0] == tables[1] != tables[2]


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "shared_keys",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_scaled_by_the_probes_around_them():
    ref = hostspeed.REFERENCE_S
    # a span between probes of 1x and 3x the reference time ran at half speed
    assert hostspeed.scales([ref, 3 * ref, ref]) == pytest.approx([0.5, 0.5])
    assert hostspeed.probe() > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    per_layer = {f"{n}_s": "s" for n in measure.LAYER_TIMES} | measure.LAYER_COUNTS
    per_layer |= {f"{n}_peak_mb": "MB" for n in measure.LAYER_PEAKS}
    per_layer |= {"trace.uncovered_s": "s", "trace.overhead_s": "s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
