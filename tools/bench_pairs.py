"""Run perfbench on two checkouts in alternating pairs and keep every result.

From the repository root, with the commit to compare against checked out
in another directory:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --runs baseline_chain=201-212 reshape_wide=301-303 --out BENCH_x.json

For each workload and each seed of its range, both sides run
``perfbench/run.py --trace 0`` once, each in a fresh process. No run starts
from the checkout it was given: before each run, the side's ``src/``,
``perfbench/`` and ``BENCHMARK.json`` are copied afresh into one of two
directories made for this comparison, and the run starts there. From one
pair to the next, which side runs first alternates, and so does which of
the two directories holds which side, so neither side keeps the older or
the better-placed files. The output file holds the
last JSON line of every run and, per workload and end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles, how many pairs the
change won, lost and tied, whether every change run beat every parent run,
and each side's failed ops; it is rewritten after every pair, so a run that
fails keeps the pairs before it. A workload that ``BENCHMARK.json`` does
not declare, a seed range that is empty or not numeric, or a seed given
twice for one workload (pairs are matched by seed), is rejected before the
first run. At the end it prints one line per workload and
end-to-end metric: both medians, the pairs won and lost, the ops each side
failed over all its runs (parent/change), and a verdict:

- ``gain`` when at least 10 pairs ran, the change won at least 9 of every
  10 of them, the medians differ, in its favour, by more than the parent's
  q3 - q1, and the change failed no more ops than the parent;
- ``worse`` when the change's median is past the parent's by more than the
  metric's ``BENCHMARK.json`` bound, a share of the parent's median;
- ``unresolved`` when the parent's q3 - q1 is wider than that bound, so the
  runs cannot show a move within it, unless every run of the change beat
  every run of the parent;
- ``held`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# what a run needs of a checkout, copied afresh for each run
_COPIED = ("src", "perfbench", "BENCHMARK.json")


def _run_spec(spec: str) -> tuple[str, list[int]]:
    """``WORKLOAD=FIRST-LAST`` or ``WORKLOAD=SEED`` as the workload and its seeds."""
    workload, eq, span = spec.partition("=")
    first, _, last = span.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        seeds = []
    if not (workload and eq and seeds):
        raise argparse.ArgumentTypeError(f"{spec!r} is not WORKLOAD=FIRST-LAST with FIRST <= LAST")
    return workload, seeds


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _fresh_copy(checkout: Path, place: Path) -> Path:
    """``place`` emptied, then holding a new copy of ``_COPIED`` from ``checkout``."""
    shutil.rmtree(place, ignore_errors=True)
    place.mkdir()
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for name in _COPIED:
        if (checkout / name).is_dir():
            shutil.copytree(checkout / name, place / name, ignore=skip)
        else:
            shutil.copy2(checkout / name, place / name)
    return place


def _spread(values: list[float]) -> dict:
    if len(values) == 1:  # quantiles() needs two points
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _verdict(row: dict, sign: int, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``held`` for one summary row,
    by the rules the module docstring gives; ``sign`` is 1 when higher is
    better, else -1."""
    parent, change = row["parent"], row["change"]
    better_by = sign * (change["median"] - parent["median"])
    spread, allowed = parent["q3"] - parent["q1"], bound * abs(parent["median"])
    pairs = row["change_won"] + row["change_lost"] + row["tied"]
    no_more_failed = row["failed"]["change"] <= row["failed"]["parent"]
    if pairs >= 10 and 10 * row["change_won"] >= 9 * pairs and better_by > spread and no_more_failed:
        return "gain"
    if -better_by > allowed:
        return "worse"
    if spread > allowed and not row["change_beat_every_parent_run"]:
        return "unresolved"
    return "held"


def _summary(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        failed = {"parent": 0, "change": 0}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
                failed[r["side"]] += r["result"]["failed"]
        rows = {}
        for m in metrics:
            name, sign = m["name"], (1 if m["better"] == "higher" else -1)
            parent = [p["parent"][name]["value"] for p in pairs.values()]
            change = [p["change"][name]["value"] for p in pairs.values()]
            diffs = [sign * (c - p) for p, c in zip(parent, change)]
            row = rows[name] = {
                "parent": _spread(parent),
                "change": _spread(change),
                "change_won": sum(d > 0 for d in diffs),
                "change_lost": sum(d < 0 for d in diffs),
                "tied": sum(d == 0 for d in diffs),
                "change_beat_every_parent_run": min(sign * c for c in change) > max(sign * p for p in parent),
                "failed": failed,
            }
            row["verdict"] = _verdict(row, sign, m["bound"])
        out[workload] = rows
    return out


def _table(summary: dict) -> list[str]:
    return [
        f"{workload} {name}: parent {row['parent']['median']:.6g} change {row['change']['median']:.6g}"
        f" won {row['change_won']} lost {row['change_lost']}"
        f" failed {row['failed']['parent']}/{row['failed']['change']} {row['verdict']}"
        for workload, rows in summary.items()
        for name, row in rows.items()
    ]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--runs", nargs="+", required=True, type=_run_spec, metavar="WORKLOAD=FIRST-LAST")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    given: set[tuple[str, int]] = set()
    for workload, seeds in args.runs:
        if workload not in known:
            p.error(f"unknown workload {workload!r}; BENCHMARK.json declares {', '.join(known)}")
        for seed in seeds:
            if (workload, seed) in given:
                p.error(f"{workload} seed {seed} is given twice; pairs are matched by seed")
            given.add((workload, seed))
    doc = {"seconds": args.seconds, "runs": [], "summary": {}}
    pair = 0
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        places = [Path(tmp) / "a", Path(tmp) / "b"]
        for workload, seeds in args.runs:
            for seed in seeds:
                order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
                # the parent runs from a on even pairs, from b on odd ones
                place = dict(zip(["parent", "change"], places if pair % 2 == 0 else places[::-1]))
                for side in order:
                    result = _run(_fresh_copy(sides[side], place[side]), workload, seed, args.seconds)
                    doc["runs"].append({"workload": workload, "seed": seed, "side": side,
                                        "first": side == order[0], "dir": place[side].name,
                                        "result": result})
                    print(workload, seed, side, json.dumps(result["metrics"]), flush=True)
                pair += 1
                doc["summary"] = _summary(doc["runs"], bench["end_to_end"])
                args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print("\n".join(_table(doc["summary"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
