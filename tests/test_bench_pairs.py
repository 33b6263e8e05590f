"""Summary arithmetic of ``tools/bench_pairs.py``: spreads, win counts,
verdicts and the closing table."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "pipeline_s", "better": "lower", "bound": 0.2},
    {"name": "triples_per_s", "better": "higher", "bound": 0.2},
]


def _run(seed, side, pipeline_s, triples_per_s, workload="w", failed=0):
    values = {"pipeline_s": pipeline_s, "triples_per_s": triples_per_s}
    return {
        "workload": workload,
        "seed": seed,
        "side": side,
        "result": {"failed": failed, "metrics": {k: {"value": v} for k, v in values.items()}},
    }


def test_one_pair_has_its_values_as_median_and_quartiles():
    runs = [_run(811, "change", 1.5, 90.0), _run(811, "parent", 2.0, 80.0)]
    rows = bench_pairs._summary(runs, METRICS)["w"]
    assert rows["pipeline_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert rows["pipeline_s"]["change"] == {"median": 1.5, "q1": 1.5, "q3": 1.5}
    assert (rows["pipeline_s"]["change_won"], rows["pipeline_s"]["change_lost"]) == (1, 0)


def test_several_pairs_give_inclusive_quartiles():
    runs = []
    for seed, parent, change in [(1, 1.0, 0.5), (2, 2.0, 2.5), (3, 3.0, 3.0), (4, 4.0, 1.0), (5, 5.0, 4.0)]:
        runs += [_run(seed, "parent", parent, 10.0), _run(seed, "change", change, 10.0)]
    row = bench_pairs._summary(runs, METRICS)["w"]["pipeline_s"]
    assert row["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert row["change"] == {"median": 2.5, "q1": 1.0, "q3": 3.0}
    # lower is better: seeds 1, 4 and 5 won, seed 2 lost, seed 3 tied
    assert (row["change_won"], row["change_lost"], row["tied"]) == (3, 1, 1)


def test_higher_is_better_counts_a_larger_value_as_a_win():
    runs = []
    for seed, parent, change in [(1, 80.0, 90.0), (2, 80.0, 70.0), (3, 80.0, 95.0), (4, 60.0, 60.0)]:
        runs += [_run(seed, "parent", 1.0, parent), _run(seed, "change", 1.0, change)]
    rows = bench_pairs._summary(runs, METRICS)["w"]
    row = rows["triples_per_s"]
    assert (row["change_won"], row["change_lost"], row["tied"]) == (2, 1, 1)
    assert rows["pipeline_s"]["tied"] == 4


def test_workloads_are_summarised_apart():
    runs = [_run(1, "parent", 2.0, 1.0, "a"), _run(1, "change", 1.0, 1.0, "a"),
            _run(7, "parent", 1.0, 1.0, "b"), _run(7, "change", 2.0, 1.0, "b")]
    summary = bench_pairs._summary(runs, METRICS)
    assert list(summary) == ["a", "b"]
    assert summary["a"]["pipeline_s"]["change_won"] == 1
    assert summary["b"]["pipeline_s"]["change_lost"] == 1


def test_table_has_one_line_per_workload_and_metric():
    runs = [_run(1, "parent", 0.097, 80.0, "a"), _run(1, "change", 0.0852, 90.0, "a"),
            _run(2, "change", 0.09, 70.0, "a"), _run(2, "parent", 0.08, 80.0, "a"),
            _run(7, "parent", 1.5, 10.0, "b"), _run(7, "change", 1.5, 12.5, "b")]
    assert bench_pairs._table(bench_pairs._summary(runs, METRICS)) == [
        "a pipeline_s: parent 0.0885 change 0.0876 won 1 lost 1 failed 0/0 held",
        "a triples_per_s: parent 80 change 80 won 1 lost 1 failed 0/0 held",
        "b pipeline_s: parent 1.5 change 1.5 won 0 lost 0 failed 0/0 held",
        "b triples_per_s: parent 10 change 12.5 won 1 lost 0 failed 0/0 gain",
    ]


def _checkouts(tmp_path):
    """A parent and a change checkout, each declaring workload "w" and
    naming its side in ``src/side``."""
    bench = {"workloads": [{"name": "w"}], "end_to_end": METRICS}
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
        (tmp_path / side / "src" / "side").write_text(side)
        (tmp_path / side / "perfbench").mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--seconds", "1"]


def _side(checkout):
    """The side whose files a run directory holds."""
    return (checkout / "src" / "side").read_text()


def test_main_ends_with_the_table(tmp_path, monkeypatch, capsys):
    speed = {"parent": 2.0, "change": 1.0}
    monkeypatch.setattr(
        bench_pairs, "_run",
        lambda checkout, workload, seed, seconds: _run(seed, _side(checkout), speed[_side(checkout)], 5.0)["result"],
    )
    out = tmp_path / "pairs.json"
    argv = _checkouts(tmp_path) + ["--runs", "w=1-2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["w pipeline_s: parent 2 change 1 won 2 lost 0 failed 0/0 gain",
                          "w triples_per_s: parent 5 change 5 won 0 lost 0 failed 0/0 held"]
    assert json.loads(out.read_text())["summary"]["w"]["pipeline_s"]["change_won"] == 2


# (parent, change) pipeline_s per seed 1..10; triples_per_s stays 5 on both sides
VERDICT_CASES = {
    # 9 of 10 won, medians 1.0 vs 0.9 and the parent's q3 - q1 is 0
    "gain": [(1.0, 0.9)] * 9 + [(1.0, 1.1)],
    # 9 of 10 won, but both medians are 1.015; the parent's q3 - q1 of 0.025 is
    # inside the bound of 0.2 * 1.015
    "held": [(1.0 + 0.01 * (i % 6), 0.995 + 0.01 * (i % 6)) for i in range(9)] + [(1.0, 1.1)],
    # 9 of 10 won, but the parent's q3 - q1 of 0.25 is wider than the bound of 0.2 * 1.15
    "unresolved": [(1.0 + 0.1 * (i % 6), 0.95 + 0.1 * (i % 6)) for i in range(9)] + [(1.0, 1.1)],
    # a median 25 % past the parent's, beyond the bound of 20 %
    "worse": [(1.0, 1.25)] * 10,
}


@pytest.mark.parametrize("verdict", sorted(VERDICT_CASES))
def test_each_pipeline_line_ends_with_its_verdict(verdict, tmp_path, monkeypatch, capsys):
    values = dict(enumerate(VERDICT_CASES[verdict], start=1))
    monkeypatch.setattr(
        bench_pairs, "_run",
        lambda checkout, workload, seed, seconds: _run(
            seed, _side(checkout), values[seed][_side(checkout) == "change"], 5.0)["result"],
    )
    argv = _checkouts(tmp_path) + ["--runs", "w=1-10", "--out", str(tmp_path / "pairs.json")]
    assert bench_pairs.main(argv) == 0
    pipeline, triples = capsys.readouterr().out.splitlines()[-2:]
    assert pipeline.startswith("w pipeline_s:") and pipeline.endswith(f" {verdict}")
    assert triples.endswith(" held")


def test_nine_wins_in_ten_pairs_is_the_least_gain():
    def row(won, lost):
        return {"parent": {"median": 1.0, "q1": 1.0, "q3": 1.0}, "change": {"median": 0.5},
                "change_won": won, "change_lost": lost, "tied": 10 - won - lost,
                "change_beat_every_parent_run": False, "failed": {"parent": 0, "change": 0}}

    assert bench_pairs._verdict(row(9, 1), -1, 0.2) == "gain"
    assert bench_pairs._verdict(row(8, 0), -1, 0.2) == "held"  # two ties count for neither side


def test_a_change_that_failed_more_ops_gets_no_gain():
    runs = []
    for seed in range(1, 11):
        runs += [_run(seed, "parent", 1.0, 5.0), _run(seed, "change", 0.5, 5.0, failed=int(seed == 4))]
    summary = bench_pairs._summary(runs, METRICS)
    row = summary["w"]["pipeline_s"]
    assert row["change_won"] == 10 and row["failed"] == {"parent": 0, "change": 1}
    assert row["verdict"] == "held"
    assert bench_pairs._table(summary)[0] == "w pipeline_s: parent 1 change 0.5 won 10 lost 0 failed 0/1 held"


def test_a_wide_parent_spread_is_held_only_when_every_change_run_is_better():
    # the parent's q3 - q1 of 1.0 is wider than the bound of 0.2 * 1.5
    parent = [1.0] * 5 + [2.0] * 5
    for change, verdict in [(0.99, "held"), (1.01, "unresolved")]:
        runs = []
        for seed, value in enumerate(parent):
            runs += [_run(seed, "parent", value, 5.0), _run(seed, "change", change, 5.0)]
        row = bench_pairs._summary(runs, METRICS)["w"]["pipeline_s"]
        # the medians differ by less than that spread, so neither is a gain
        assert (row["parent"]["q3"] - row["parent"]["q1"], row["verdict"]) == (1.0, verdict)


def test_unknown_workload_is_rejected_before_the_first_run(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(bench_pairs, "_run", lambda *args: calls.append(args))
    out = tmp_path / "pairs.json"
    argv = _checkouts(tmp_path) + ["--runs", "w=1-2", "typo=1-2", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "unknown workload 'typo'; BENCHMARK.json declares w" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("spec", ["w=5-3", "w", "w=one-2"])
def test_bad_seed_range_is_rejected_before_the_first_run(spec, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(bench_pairs, "_run", lambda *args: calls.append(args))
    out = tmp_path / "pairs.json"
    argv = _checkouts(tmp_path) + ["--runs", "w=1-2", spec, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert f"{spec!r} is not WORKLOAD=FIRST-LAST with FIRST <= LAST" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_a_seed_given_twice_for_one_workload_is_rejected_before_the_first_run(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(bench_pairs, "_run", lambda *args: calls.append(args))
    out = tmp_path / "pairs.json"
    argv = _checkouts(tmp_path) + ["--runs", "w=1-2", "w=2-3", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "w seed 2 is given twice; pairs are matched by seed" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_pairs_done_before_a_failing_run_are_written(tmp_path, monkeypatch):
    def run(checkout, workload, seed, seconds):
        if seed == 3:
            raise subprocess.CalledProcessError(1, "perfbench/run.py")
        return _run(seed, _side(checkout), 1.0, 5.0)["result"]

    monkeypatch.setattr(bench_pairs, "_run", run)
    out = tmp_path / "pairs.json"
    argv = _checkouts(tmp_path) + ["--runs", "w=1-3", "--out", str(out)]
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.main(argv)
    doc = json.loads(out.read_text())
    assert [(r["seed"], r["side"]) for r in doc["runs"]] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent")]
    assert doc["summary"]["w"]["pipeline_s"]["tied"] == 2


def test_each_side_runs_from_fresh_copies_in_both_directories(tmp_path, monkeypatch):
    ran = []

    def run(checkout, workload, seed, seconds):
        side = _side(checkout)
        # a copy made for this run: nothing a run leaves behind is seen by the next
        assert not (checkout / "perfbench" / "left_behind").exists()
        (checkout / "perfbench" / "left_behind").write_text(side)
        assert json.loads((checkout / "BENCHMARK.json").read_text())["workloads"] == [{"name": "w"}]
        ran.append((side, checkout))
        return _run(seed, side, 1.0, 5.0)["result"]

    monkeypatch.setattr(bench_pairs, "_run", run)
    out = tmp_path / "pairs.json"
    argv = _checkouts(tmp_path) + ["--runs", "w=1-4", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    given = {tmp_path / "parent", tmp_path / "change"}
    assert not given & {checkout for _, checkout in ran}
    places = {checkout for _, checkout in ran}
    assert len(places) == 2
    for side in ("parent", "change"):
        assert {checkout for s, checkout in ran if s == side} == places
    # the directories alternate pair by pair, and the record names them
    doc = json.loads(out.read_text())
    parent_dirs = [r["dir"] for r in doc["runs"] if r["side"] == "parent"]
    assert parent_dirs == ["a", "b", "a", "b"]
    assert not any((place / "perfbench").exists() for place in places)  # removed at the end
