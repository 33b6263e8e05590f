"""``tools/stage_pairs.py`` at a tiny size: the counts of each family are
the closed-form ones of ``perfbench.workloads.expected``, and a round of
both sides gives one summary row per family, size and stage."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("stage_pairs", ROOT / "tools" / "stage_pairs.py")
stage_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_pairs)


@pytest.fixture()
def perfbench_importable(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import expected

    return expected


def _check_run(run, exp):
    assert (run["entities"], run["object_triples"], run["literals"]) == (exp.entities, exp.objects, exp.literal_lines)
    assert list(run["stages"]) == list(stage_pairs.STAGES)
    for stage in run["stages"].values():
        assert stage["ms"] > 0 and stage["raw_ms"] > 0 and stage["peak_mb"] > 0
        assert stage["us_per_entity"] == pytest.approx(1e3 * stage["ms"] / exp.entities)


@pytest.mark.parametrize("rows", [1, 3])
def test_a_run_counts_what_the_closed_form_gives(perfbench_importable, rows):
    exp = perfbench_importable("baseline", stage_pairs.ATTRIBUTES, rows, 4, (rows, rows))
    run = stage_pairs._measure("forest", rows, best=2)
    assert run["key_values"] == [rows, rows]
    _check_run(run, exp)


@pytest.mark.parametrize("rows", [3, 40])
def test_a_shared_key_run_counts_what_the_closed_form_gives_for_the_drawn_keys(perfbench_importable, tmp_path, rows):
    from perfbench.workloads import WORKLOADS, build_fixture

    w = WORKLOADS["shared_keys"]
    drawn = build_fixture(dataclasses.replace(w, rows=rows), stage_pairs.SHARED_KEYS_SEED, tmp_path).key_values
    exp = perfbench_importable("baseline", w.attrs, rows, w.depth, drawn)
    run = stage_pairs._measure("shared_keys", rows, best=2)
    assert run["key_values"] == list(drawn)
    # at 40 rows, keys drawn from 10 values repeat, so rows share entities
    assert rows < 40 or max(drawn) < rows
    _check_run(run, exp)


def test_a_round_gives_each_stage_both_sides_and_a_ratio(tmp_path, capsys):
    out = tmp_path / "stages.json"
    assert stage_pairs.main(["--parent", str(ROOT), "--change", str(ROOT), "--rows", "2",
                             "--rounds", "1", "--best", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert [(r["family"], r["side"], r["first"]) for r in doc["runs"]] == [
        (family, side, side == "parent") for family in stage_pairs.FAMILIES for side in ("parent", "change")
    ]
    assert list(doc["summary"]) == list(stage_pairs.FAMILIES)
    forest = doc["summary"]["forest"]["2"]
    assert (forest["entities"], forest["object_triples"], forest["literals"]) == (490, 488, 124)
    for sizes in doc["summary"].values():
        for name in stage_pairs.STAGES:
            assert set(sizes["2"][name]) == {"parent", "change", "change_over_parent"}
            assert sizes["2"][name]["change_over_parent"]["median"] > 0
    runs, stages = 2 * len(stage_pairs.FAMILIES), len(stage_pairs.FAMILIES) * len(stage_pairs.STAGES)
    assert len(capsys.readouterr().out.splitlines()) == runs + stages
