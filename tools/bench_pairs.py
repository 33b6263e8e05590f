"""Run two checkouts in alternating pairs, end to end or stage by stage, and keep every result.

From the repository root, with the commit to compare against checked out
in another directory:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --runs baseline_chain=201-212 reshape_wide=301-303 --out BENCH_x.json
    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --stages 250 500 1000 --rounds 5 --best 3 --out BENCH_x_stages.json

Both modes run pairs one way. A pair runs each side once, each in a fresh
process. No run starts from the checkout it was given: before each run,
the side's ``src/``, ``perfbench/`` and ``BENCHMARK.json`` are copied
afresh into one of two directories made for this comparison, and the run
starts there. From one pair of a workload, or of a family and size, to its
next, which side runs first alternates, and so does which of the two
directories holds which side, so neither side keeps the older or the
better-placed files. The output file holds the last JSON line of every run,
with its side, whether it ran first and its directory, and a summary; it
is rewritten after every pair, so a run that fails keeps the pairs before
it. At the end one line per summary row is printed.

**End to end**, ``--runs WORKLOAD=FIRST-LAST ... --seconds S`` (default
the ``run_seconds`` of the change's ``BENCHMARK.json``, so pairs run as
long as the benchmark's runs): for each workload and each seed of its
range, a pair runs ``perfbench/run.py --trace 0``. The summary gives, per
workload and end-to-end metric of ``BENCHMARK.json``, each side's median
and quartiles, how many pairs the change won, lost and tied, whether every
change run beat every parent run, and each side's failed ops. A workload
that ``BENCHMARK.json`` does not declare, a seed range that is empty or not
numeric, or a seed given twice for one workload (pairs are matched by
seed), is rejected before the first run. Each printed line gives both
medians, the pairs won and lost, the ops each side failed over all its runs
(parent/change), and a verdict:

- ``gain`` when at least 10 pairs ran, the change won at least 9 of every
  10 of them, the medians differ, in its favour, by more than the parent's
  q3 - q1, and the change failed no more ops than the parent;
- ``worse`` when the change's median is past the parent's by more than the
  metric's ``BENCHMARK.json`` bound, a share of the parent's median;
- ``unresolved`` when the parent's q3 - q1 is wider than that bound, so the
  runs cannot show a move within it, unless every run of the change beat
  every run of the parent;
- ``held`` otherwise.

**Stage by stage**, ``--stages ROWS ... --rounds R --best K`` (defaults 5
and 3): the baseline schema on two families of tables, at each ``n`` of
``ROWS``:

- ``forest``: ``SynthConfig(60, n)``, a forest of ``245 n`` entities,
  ``244 n`` object triples and ``62 n`` literals;
- ``shared_keys``: the ``shared_keys`` fixture of
  ``perfbench.workloads`` at ``n`` rows, 10 attributes whose program and
  machine keys are drawn from 10 values with a fixed seed, so rows share
  entities and the graph is no forest.

Each round runs one pair per family and size. A run is this file with
``--measure FAMILY ROWS --best K``, started in the copy with
``PYTHONPATH`` naming the copy's ``src/`` and the copy, so both sides are
measured by the same code; it fails with one ``error:`` line if it would
import ``ontoshape`` or ``perfbench`` from anywhere else. It builds the
graph and its document, then, for each stage of ``STAGES`` in turn, makes
``K`` calls and keeps the fastest. That time is scaled to the host's
reference speed with ``perfbench.hostspeed.probe()``, taken just before
and just after the stage's calls, and also given in µs per entity. Each
stage then runs once more under ``tracemalloc``, started just before the
call, for its peak of traced memory. The run also records the distinct
values of each key column and the graph's entity and triple counts, which
do not depend on the host. The summary gives, per family and size, those
counts, both sides' where they differ (then the two sides did different
work, and a printed line says so), and per stage each side's median over
the rounds of the scaled time, of µs per entity and of the peak, and the
median and quartiles over the rounds of change / parent time. A size given
twice (pairs are matched by round) is rejected before the first run.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

# what a run needs of a checkout, copied afresh for each run
_COPIED = ("src", "perfbench", "BENCHMARK.json")
# the stages timed, in run order; each reads what the ones before made
STAGES = ("generate_kg", "serialize_ntriples", "load_ntriples", "depth_metrics")
FAMILIES = ("forest", "shared_keys")
# what a stage run counts of its graph
COUNTS = ("entities", "object_triples", "literals")
ATTRIBUTES = 60
# the shared-key family's fixture seed: the draw is the same on both sides
SHARED_KEYS_SEED = 1


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


def _inputs(family: str, rows: int):
    """The ontology, dataset, mappings and user info of ``family`` at ``rows``."""
    from ontoshape import syndata
    from ontoshape.mapping import parse_mappings, parse_userinfo
    from ontoshape.ontology import parse_ontology
    from ontoshape.tabular import load_dataset
    from perfbench.workloads import WORKLOADS, build_fixture

    if family == "forest":
        return syndata.generate_synthetic(syndata.SynthConfig(ATTRIBUTES, rows))
    w = dataclasses.replace(WORKLOADS["shared_keys"], rows=rows)
    with tempfile.TemporaryDirectory() as tmp:
        fx = build_fixture(w, SHARED_KEYS_SEED, Path(tmp))
        return (parse_ontology(fx.ontology.read_text(encoding="utf-8")),
                load_dataset(fx.data, syndata.MAIN_TABLE),
                parse_mappings(fx.mappings.read_text(encoding="utf-8")),
                parse_userinfo(fx.userinfo.read_text(encoding="utf-8")))


def _measure(family: str, rows: int, best: int) -> dict:
    """One run of ``family`` at ``rows`` rows in this process: counts, then
    per stage the scaled best-of-``best`` time and the traced peak."""
    from ontoshape.kggen import generate_kg, load_ntriples, serialize_ntriples
    from ontoshape.metrics import depth_metrics
    from ontoshape.reshape import baseline_schema
    from perfbench.hostspeed import REFERENCE_S, probe
    from perfbench.workloads import ENTITY_KEYS

    o, d, m, u = _inputs(family, rows)
    mc = u.main_class
    key_values = [len({row[key] for row in d.main.rows}) for key in ENTITY_KEYS]
    s = baseline_schema(o, d, m, mc)
    g = generate_kg(s, d, m, mc)
    text = serialize_ntriples(g)
    back = load_ntriples(text)
    calls = {
        "generate_kg": lambda: generate_kg(s, d, m, mc),
        "serialize_ntriples": lambda: serialize_ntriples(g),
        "load_ntriples": lambda: load_ntriples(text),
        "depth_metrics": lambda: depth_metrics(back, mc),
    }
    entities = len(g.entities)
    stages = {}
    for name in STAGES:
        before = probe()
        fastest = float("inf")
        for _ in range(best):
            gc.collect()
            start = time.perf_counter()
            calls[name]()
            fastest = min(fastest, time.perf_counter() - start)
        scaled = fastest * 2 * REFERENCE_S / (before + probe())
        stages[name] = {"ms": 1e3 * scaled, "raw_ms": 1e3 * fastest,
                        "us_per_entity": 1e6 * scaled / entities if entities else 0.0}
    for name in STAGES:
        gc.collect()
        tracemalloc.start()
        calls[name]()
        stages[name]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
    return {"family": family, "rows": rows, "key_values": key_values, "entities": entities,
            "object_triples": len(g.object_triples), "literals": len(g.literals), "stages": stages}


def _run(checkout: Path, argv: list[str], env: dict[str, str] | None) -> dict:
    """The last line ``argv``, run by this Python in ``checkout``, prints, as JSON."""
    out = subprocess.run([sys.executable, *argv], cwd=checkout, env=env,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
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


def _pairs(sides: dict[str, Path], pairs: list, env: dict[str, str] | None, doc: dict, out: Path, summary) -> None:
    """Run each ``(group, record, argv)`` of ``pairs`` on both sides, as the
    module docstring describes, adding each run to ``doc["runs"]`` and
    rewriting ``doc["summary"]`` and ``out`` after every pair."""
    done: dict[tuple, int] = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        places = [Path(tmp) / "a", Path(tmp) / "b"]
        for group, record, argv in pairs:
            flip = done.setdefault(group, 0) % 2
            done[group] += 1
            # the parent runs first, and from a, on a group's even pairs
            order = ["change", "parent"] if flip else ["parent", "change"]
            place = dict(zip(["parent", "change"], places[::-1] if flip else places))
            for side in order:
                result = _run(_fresh_copy(sides[side], place[side]), argv, env)
                doc["runs"].append({**record, "side": side, "first": side == order[0],
                                    "dir": place[side].name, "result": result})
                print(*record.values(), side, json.dumps(result), flush=True)
            doc["summary"] = summary(doc["runs"])
            out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _paired(runs: list[dict], group: tuple[str, ...], pair: str) -> dict[tuple, list[dict[str, dict]]]:
    """Per value of the ``group`` fields of ``runs``, in first-run order, the
    results by side of each pair with both sides, matched by the ``pair`` field."""
    by_group: dict[tuple, dict] = {}
    for r in runs:
        by_group.setdefault(tuple(r[k] for k in group), {}).setdefault(r[pair], {})[r["side"]] = r["result"]
    complete = {key: [p for p in by_pair.values() if len(p) == 2] for key, by_pair in by_group.items()}
    return {key: pairs for key, pairs in complete.items() if pairs}


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
    for (workload,), pairs in _paired(runs, ("workload",), "seed").items():
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
        rows = {}
        for m in metrics:
            name, sign = m["name"], (1 if m["better"] == "higher" else -1)
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
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


def _stage_summary(runs: list[dict]) -> dict:
    out: dict = {}
    for (family, rows), pairs in _paired(runs, ("family", "rows"), "round").items():
        size = out.setdefault(family, {})[str(rows)] = {}
        for key in COUNTS:
            parent, change = pairs[0]["parent"][key], pairs[0]["change"][key]
            size[key] = change if parent == change else {"parent": parent, "change": change}
        for name in STAGES:
            row = size[name] = {}
            for side in ("parent", "change"):
                stage = [p[side]["stages"][name] for p in pairs]
                row[side] = {key: statistics.median(s[key] for s in stage)
                             for key in ("ms", "us_per_entity", "peak_mb")}
            ratios = [p["change"]["stages"][name]["ms"] / p["parent"]["stages"][name]["ms"] for p in pairs]
            row["change_over_parent"] = _spread(ratios)
    return out


def _stage_table(summary: dict) -> list[str]:
    lines = []
    for family, sizes in summary.items():
        for rows, size in sizes.items():
            lines += [f"{family} {rows} rows {key}: parent {count['parent']} change {count['change']} differ"
                      for key in COUNTS if isinstance(count := size[key], dict)]
            lines += [
                f"{family} {rows} rows {name}: parent {row['parent']['ms']:.1f} ms"
                f" ({row['parent']['us_per_entity']:.2f} us/entity, {row['parent']['peak_mb']:.1f} MB) change {row['change']['ms']:.1f} ms"
                f" ({row['change']['us_per_entity']:.2f} us/entity, {row['change']['peak_mb']:.1f} MB)"
                f" change/parent {row['change_over_parent']['median']:.3f}"
                for name in STAGES
                for row in [size[name]]
            ]
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path)
    p.add_argument("--change", type=Path)
    p.add_argument("--out", type=Path)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--runs", nargs="+", type=_run_spec, metavar="WORKLOAD=FIRST-LAST")
    mode.add_argument("--stages", nargs="+", type=int, metavar="ROWS")
    mode.add_argument("--measure", nargs=2, metavar=("FAMILY", "ROWS"),
                      help="make one stage run in this process and print it")
    p.add_argument("--seconds", type=float, help="with --runs; default BENCHMARK.json's run_seconds")
    p.add_argument("--rounds", type=int, help="with --stages; default 5")
    p.add_argument("--best", type=int, help="with --stages or --measure; default 3")
    args = p.parse_args(argv)
    for option, modes in (("seconds", ("runs",)), ("rounds", ("stages",)), ("best", ("stages", "measure"))):
        if getattr(args, option) is not None and all(getattr(args, m) is None for m in modes):
            p.error(f"--{option} goes only with " + " or ".join(f"--{m}" for m in modes))
    best = 3 if args.best is None else args.best
    if args.measure is not None:
        family, rows = args.measure
        if family not in FAMILIES:
            p.error(f"--measure FAMILY must be one of {', '.join(FAMILIES)}")
        # the run measures the checkout it runs in, or nothing
        for name, home in (("ontoshape", Path("src", "ontoshape")), ("perfbench", Path("perfbench"))):
            spec = importlib.util.find_spec(name)
            origin = spec and spec.origin
            if not origin or Path(origin).resolve().parent != home.resolve():
                print(f"error: {name} would be imported from {origin}, not from {home.resolve()}", file=sys.stderr)
                return 2
        print(json.dumps(_measure(family, int(rows), best)))
        return 0
    if args.parent is None or args.change is None or args.out is None:
        p.error("--parent, --change and --out are required")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.runs is not None:
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
        seconds = float(bench["run_seconds"]) if args.seconds is None else args.seconds
        doc = {"seconds": seconds, "runs": [], "summary": {}}
        pairs = [((workload,), {"workload": workload, "seed": seed},
                  ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"])
                 for workload, seeds in args.runs for seed in seeds]
        env, summary, table = None, partial(_summary, metrics=bench["end_to_end"]), _table
    else:
        rounds = 5 if args.rounds is None else args.rounds
        if rounds < 1 or best < 1 or min(args.stages) < 1:
            p.error("--stages, --rounds and --best must be positive")
        for i, rows in enumerate(args.stages):
            if rows in args.stages[:i]:
                p.error(f"size {rows} is given twice; pairs are matched by round")
        doc = {"families": list(FAMILIES), "best": best, "runs": [], "summary": {}}
        child = str(Path(__file__).resolve())
        pairs = [((family, rows), {"round": round_, "family": family, "rows": rows},
                  [child, "--measure", family, str(rows), "--best", str(best)])
                 for round_ in range(rounds) for family in FAMILIES for rows in args.stages]
        # the child imports the copy it runs in: its src/ and its perfbench/
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "."]), "PYTHONDONTWRITEBYTECODE": "1"}
        summary, table = _stage_summary, _stage_table
    _pairs(sides, pairs, env, doc, args.out, summary)
    print("\n".join(table(doc["summary"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
