"""``tools/bench_pairs.py``: the summary arithmetic of end-to-end pairs
(spreads, win counts, verdicts and the closing table), the one pair loop
both modes share, and the stage grid at a tiny size, whose counts for each
family are the closed-form ones of ``perfbench.workloads.expected``."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
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
        "b triples_per_s: parent 10 change 12.5 won 1 lost 0 failed 0/0 held",
    ]


def _sides(tmp_path):
    """A parent and a change checkout, each declaring workload "w" and
    naming its side in ``src/side``."""
    bench = {"workloads": [{"name": "w"}], "end_to_end": METRICS}
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
        (tmp_path / side / "src" / "side").write_text(side)
        (tmp_path / side / "perfbench").mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]


def _checkouts(tmp_path):
    return _sides(tmp_path) + ["--seconds", "1"]


def _side(checkout):
    """The side whose files a run directory holds."""
    return (checkout / "src" / "side").read_text()


def _seed(argv):
    """The seed a perfbench run is given."""
    return int(argv[argv.index("--seed") + 1])


def test_main_ends_with_the_table(tmp_path, monkeypatch, capsys):
    speed = {"parent": 2.0, "change": 1.0}
    monkeypatch.setattr(
        bench_pairs, "_run",
        lambda checkout, argv, env: _run(_seed(argv), _side(checkout), speed[_side(checkout)], 5.0)["result"],
    )
    out = tmp_path / "pairs.json"
    argv = _checkouts(tmp_path) + ["--runs", "w=1-2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["w pipeline_s: parent 2 change 1 won 2 lost 0 failed 0/0 held",
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
        lambda checkout, argv, env: _run(
            _seed(argv), _side(checkout), values[_seed(argv)][_side(checkout) == "change"], 5.0)["result"],
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


def test_three_wins_in_three_pairs_are_too_few_for_a_gain():
    runs = []
    for seed in range(1, 4):
        runs += [_run(seed, "parent", 1.0, 5.0), _run(seed, "change", 0.5, 5.0)]
    row = bench_pairs._summary(runs, METRICS)["w"]["pipeline_s"]
    assert (row["change_won"], row["change_beat_every_parent_run"]) == (3, True)
    assert row["verdict"] == "held"


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
    def run(checkout, argv, env):
        seed = _seed(argv)
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


def _stage_result(argv):
    """What a stage run of ``argv`` prints, every time 1 ms."""
    family, rows = argv[argv.index("--measure") + 1:argv.index("--measure") + 3]
    stage = {"ms": 1.0, "raw_ms": 1.0, "us_per_entity": 100.0, "peak_mb": 1.0}
    return {"family": family, "rows": int(rows), "key_values": [1, 1], "entities": 10, "object_triples": 9,
            "literals": 3, "stages": {name: dict(stage) for name in bench_pairs.STAGES}}


@pytest.mark.parametrize(
    "mode", [["--runs", "w=1-4", "--seconds", "1"], ["--stages", "2", "--rounds", "4"]], ids=["runs", "stages"]
)
def test_each_side_runs_from_fresh_copies_in_both_directories(mode, tmp_path, monkeypatch):
    ran = []

    def run(checkout, argv, env):
        side = _side(checkout)
        # a copy made for this run: nothing a run leaves behind is seen by the next
        assert not (checkout / "perfbench" / "left_behind").exists()
        (checkout / "perfbench" / "left_behind").write_text(side)
        assert json.loads((checkout / "BENCHMARK.json").read_text())["workloads"] == [{"name": "w"}]
        ran.append((side, checkout))
        if "--measure" in argv:
            # the stage child is this tool's own file, run in the copy
            assert argv[0] == str(ROOT / "tools" / "bench_pairs.py")
            return _stage_result(argv)
        return _run(_seed(argv), side, 1.0, 5.0)["result"]

    monkeypatch.setattr(bench_pairs, "_run", run)
    out = tmp_path / "pairs.json"
    argv = _sides(tmp_path) + mode + ["--out", str(out)]
    assert bench_pairs.main(argv) == 0
    given = {tmp_path / "parent", tmp_path / "change"}
    assert not given & {checkout for _, checkout in ran}
    places = {checkout for _, checkout in ran}
    assert len(places) == 2
    for side in ("parent", "change"):
        assert {checkout for s, checkout in ran if s == side} == places
    # the directories and the first side alternate pair by pair within each
    # workload or family and size, and the record names them
    doc = json.loads(out.read_text())
    groups = {(r.get("workload"), r.get("family"), r.get("rows")) for r in doc["runs"]}
    assert len(groups) == (1 if mode[0] == "--runs" else len(bench_pairs.FAMILIES))
    for group in groups:
        runs = [r for r in doc["runs"] if (r.get("workload"), r.get("family"), r.get("rows")) == group]
        parent_dirs = [r["dir"] for r in runs if r["side"] == "parent"]
        assert parent_dirs == ["a", "b", "a", "b"]
        assert [r["side"] for r in runs if r["first"]] == ["parent", "change", "parent", "change"]
    assert not any((place / "perfbench").exists() for place in places)  # removed at the end


def test_seconds_default_to_the_run_seconds_of_the_change_s_benchmark(tmp_path, monkeypatch):
    sides = _sides(tmp_path)
    for side, run_seconds in (("parent", 9), ("change", 7)):
        path = tmp_path / side / "BENCHMARK.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "run_seconds": run_seconds}))
    given = []

    def run(checkout, argv, env):
        given.append(argv[argv.index("--seconds") + 1])
        return _run(_seed(argv), _side(checkout), 1.0, 5.0)["result"]

    monkeypatch.setattr(bench_pairs, "_run", run)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(sides + ["--runs", "w=1-2", "--out", str(out)]) == 0
    assert given == ["7.0"] * 4
    assert json.loads(out.read_text())["seconds"] == 7.0


def test_a_stage_summary_keeps_both_sides_counts_where_they_differ(tmp_path, monkeypatch, capsys):
    def run(checkout, argv, env):
        result = _stage_result(argv)
        if _side(checkout) == "change":
            result["entities"] = 12  # a change that alters the graph
        return result

    monkeypatch.setattr(bench_pairs, "_run", run)
    out = tmp_path / "stages.json"
    assert bench_pairs.main(_sides(tmp_path) + ["--stages", "2", "--rounds", "2", "--out", str(out)]) == 0
    for size in json.loads(out.read_text())["summary"].values():
        # the counts both sides share stay one number
        assert {key: size["2"][key] for key in bench_pairs.COUNTS} == {
            "entities": {"parent": 10, "change": 12}, "object_triples": 9, "literals": 3}
    table = capsys.readouterr().out.splitlines()[-len(bench_pairs.FAMILIES) * (1 + len(bench_pairs.STAGES)):]
    assert [line for line in table if line.endswith(" differ")] == [
        f"{family} 2 rows entities: parent 10 change 12 differ" for family in bench_pairs.FAMILIES]


def test_a_size_given_twice_is_rejected_before_the_first_run(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(bench_pairs, "_run", lambda *args: calls.append(args))
    out = tmp_path / "stages.json"
    argv = _sides(tmp_path) + ["--stages", "2", "4", "2", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "size 2 is given twice; pairs are matched by round" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--runs", "w=1", "--stages", "2"], "argument --stages: not allowed with argument --runs"),
    (["--stages", "2", "--seconds", "1"], "--seconds goes only with --runs"),
    (["--runs", "w=1", "--rounds", "2"], "--rounds goes only with --stages"),
    (["--runs", "w=1", "--best", "2"], "--best goes only with --stages or --measure"),
    (["--stages", "2", "--rounds", "0"], "--stages, --rounds and --best must be positive"),
])
def test_the_two_modes_exclude_each_other_and_each_others_options(extra, message, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(bench_pairs, "_run", lambda *args: calls.append(args))
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(_sides(tmp_path) + extra + ["--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.fixture()
def perfbench_importable(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import expected

    return expected


def _check_run(run, exp):
    assert (run["entities"], run["object_triples"], run["literals"]) == (exp.entities, exp.objects, exp.literal_lines)
    assert list(run["stages"]) == list(bench_pairs.STAGES)
    for stage in run["stages"].values():
        assert stage["ms"] > 0 and stage["raw_ms"] > 0 and stage["peak_mb"] > 0
        assert stage["us_per_entity"] == pytest.approx(1e3 * stage["ms"] / exp.entities)


@pytest.mark.parametrize("rows", [1, 3])
def test_a_run_counts_what_the_closed_form_gives(perfbench_importable, rows):
    exp = perfbench_importable("baseline", bench_pairs.ATTRIBUTES, rows, 4, (rows, rows))
    run = bench_pairs._measure("forest", rows, best=2)
    assert run["key_values"] == [rows, rows]
    _check_run(run, exp)


@pytest.mark.parametrize("rows", [3, 40])
def test_a_shared_key_run_counts_what_the_closed_form_gives_for_the_drawn_keys(perfbench_importable, tmp_path, rows):
    from perfbench.workloads import WORKLOADS, build_fixture

    w = WORKLOADS["shared_keys"]
    drawn = build_fixture(dataclasses.replace(w, rows=rows), bench_pairs.SHARED_KEYS_SEED, tmp_path).key_values
    exp = perfbench_importable("baseline", w.attrs, rows, w.depth, drawn)
    run = bench_pairs._measure("shared_keys", rows, best=2)
    assert run["key_values"] == list(drawn)
    # at 40 rows, keys drawn from 10 values repeat, so rows share entities
    assert rows < 40 or max(drawn) < rows
    _check_run(run, exp)


def test_a_round_gives_each_stage_both_sides_and_a_ratio(tmp_path, capsys):
    out = tmp_path / "stages.json"
    assert bench_pairs.main(["--parent", str(ROOT), "--change", str(ROOT), "--stages", "2",
                             "--rounds", "1", "--best", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert [(r["family"], r["side"], r["first"]) for r in doc["runs"]] == [
        (family, side, side == "parent") for family in bench_pairs.FAMILIES for side in ("parent", "change")
    ]
    assert list(doc["summary"]) == list(bench_pairs.FAMILIES)
    forest = doc["summary"]["forest"]["2"]
    assert (forest["entities"], forest["object_triples"], forest["literals"]) == (490, 488, 124)
    for sizes in doc["summary"].values():
        for name in bench_pairs.STAGES:
            assert set(sizes["2"][name]) == {"parent", "change", "change_over_parent"}
            assert sizes["2"][name]["change_over_parent"]["median"] > 0
    runs, stages = 2 * len(bench_pairs.FAMILIES), len(bench_pairs.FAMILIES) * len(bench_pairs.STAGES)
    assert len(capsys.readouterr().out.splitlines()) == runs + stages


def test_a_stage_run_fails_when_it_would_import_another_checkout(tmp_path):
    # a copy of the checkout, run with a PYTHONPATH naming the original
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    argv = [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--measure", "forest", "1", "--best", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: ontoshape would be imported from {ROOT / 'src' / 'ontoshape' / '__init__.py'},"
        f" not from {tmp_path.resolve() / 'src' / 'ontoshape'}"
    ]
    # the copy's own src/ and the copy, but perfbench from elsewhere
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path / "src"), str(ROOT)])
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
        f"error: perfbench would be imported from {ROOT / 'perfbench' / '__init__.py'},"
        f" not from {tmp_path.resolve() / 'perfbench'}"
    ]
