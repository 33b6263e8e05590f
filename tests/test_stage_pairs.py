"""``tools/stage_pairs.py`` at a tiny size: its counts are the closed-form
ones of ``perfbench.workloads.expected``, and a round of both sides gives
one summary row per stage."""

from __future__ import annotations

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


@pytest.mark.parametrize("rows", [1, 3])
def test_a_run_counts_what_the_closed_form_gives(perfbench_importable, rows):
    exp = perfbench_importable("baseline", stage_pairs.ATTRIBUTES, rows, 4, (rows, rows))
    run = stage_pairs._measure(rows, best=2)
    assert (run["entities"], run["object_triples"], run["literals"]) == (exp.entities, exp.objects, exp.literal_lines)
    assert list(run["stages"]) == list(stage_pairs.STAGES)
    for stage in run["stages"].values():
        assert stage["ms"] > 0 and stage["raw_ms"] > 0 and stage["peak_mb"] > 0
        assert stage["us_per_entity"] == pytest.approx(1e3 * stage["ms"] / exp.entities)


def test_a_round_gives_each_stage_both_sides_and_a_ratio(tmp_path, capsys):
    out = tmp_path / "stages.json"
    assert stage_pairs.main(["--parent", str(ROOT), "--change", str(ROOT), "--rows", "2",
                             "--rounds", "1", "--best", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert [(r["side"], r["first"]) for r in doc["runs"]] == [("parent", True), ("change", False)]
    size = doc["summary"]["2"]
    assert (size["entities"], size["object_triples"], size["literals"]) == (490, 488, 124)
    for name in stage_pairs.STAGES:
        assert set(size[name]) == {"parent", "change", "change_over_parent"}
        assert size[name]["change_over_parent"]["median"] > 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + len(stage_pairs.STAGES)
