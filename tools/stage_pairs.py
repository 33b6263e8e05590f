"""Time the graph stages of two checkouts in alternating rounds, at several sizes.

From the repository root, with the commit to compare against checked out
in another directory:

    python3 tools/stage_pairs.py --parent ../parent --change . \\
        --rows 250 500 1000 --rounds 5 --out BENCH_x_stages.json

The input is the baseline schema on two families of tables, at each
``n`` of ``--rows``:

- ``forest``: ``SynthConfig(60, n)``, a forest of ``245 n`` entities,
  ``244 n`` object triples and ``62 n`` literals;
- ``shared_keys``: the ``shared_keys`` fixture of
  ``perfbench.workloads`` at ``n`` rows, 10 attributes whose program and
  machine keys are drawn from 10 values with a fixed seed, so rows share
  entities and the graph is no forest.

Each round runs both sides once per family and size, each run in a fresh
process that imports the side's ``src/`` and ``perfbench/``; which side
runs first alternates from one round to the next.

A run builds the graph and its document, then, for each stage of
``STAGES`` in turn, makes ``--best`` calls and keeps the fastest. That
time is scaled to the host's reference speed with
``perfbench.hostspeed.probe()``, taken just before and just after the
stage's calls, and also given in µs per entity. Each stage then runs once
more under ``tracemalloc``, started just before the call, for its peak of
traced memory. The run also records the distinct values of each key
column and the graph's entity and triple counts, which do not depend on
the host.

The output file holds every run and, per family, size and stage, each side's
median over the rounds of the scaled time, of µs per entity and of the
peak, and the median and quartiles over the rounds of change / parent
time. It is rewritten after every round. At the end one line per family,
size and stage is printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# the stages timed, in run order; each reads what the ones before made
STAGES = ("generate_kg", "serialize_ntriples", "load_ntriples", "depth_metrics")
FAMILIES = ("forest", "shared_keys")
ATTRIBUTES = 60
# the shared-key family's fixture seed: the draw is the same on both sides
SHARED_KEYS_SEED = 1


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


def _run(checkout: Path, family: str, rows: int, best: int) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(checkout / "src"), str(checkout)]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, str(Path(__file__).resolve()), "--measure", family, str(rows), "--best", str(best)]
    out = subprocess.run(argv, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _spread(values: list[float]) -> dict:
    if len(values) == 1:  # quantiles() needs two points
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _summary(runs: list[dict]) -> dict:
    out: dict = {}
    for family, rows in dict.fromkeys((r["family"], r["rows"]) for r in runs):
        rounds: dict[int, dict[str, dict]] = {}
        for r in runs:
            if (r["family"], r["rows"]) == (family, rows):
                rounds.setdefault(r["round"], {})[r["side"]] = r["result"]
        paired = [p for p in rounds.values() if len(p) == 2]
        if not paired:
            continue
        first = paired[0]["change"]
        size = out.setdefault(family, {})[str(rows)] = {
            key: first[key] for key in ("entities", "object_triples", "literals")
        }
        for name in STAGES:
            row = size[name] = {}
            for side in ("parent", "change"):
                stage = [p[side]["stages"][name] for p in paired]
                row[side] = {key: statistics.median(s[key] for s in stage)
                             for key in ("ms", "us_per_entity", "peak_mb")}
            ratios = [p["change"]["stages"][name]["ms"] / p["parent"]["stages"][name]["ms"] for p in paired]
            row["change_over_parent"] = _spread(ratios)
    return out


def _table(summary: dict) -> list[str]:
    return [
        f"{family} {rows} rows {name}: parent {row['parent']['ms']:.1f} ms"
        f" ({row['parent']['us_per_entity']:.2f} us/entity, {row['parent']['peak_mb']:.1f} MB) change {row['change']['ms']:.1f} ms"
        f" ({row['change']['us_per_entity']:.2f} us/entity, {row['change']['peak_mb']:.1f} MB)"
        f" change/parent {row['change_over_parent']['median']:.3f}"
        for family, sizes in summary.items()
        for rows, size in sizes.items()
        for name in STAGES
        for row in [size[name]]
    ]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path)
    p.add_argument("--change", type=Path)
    p.add_argument("--rows", nargs="+", type=int, default=[250, 500, 1000])
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--best", type=int, default=3)
    p.add_argument("--out", type=Path)
    p.add_argument("--measure", nargs=2, metavar=("FAMILY", "ROWS"),
                   help="make one run in this process and print it")
    args = p.parse_args(argv)
    if args.measure is not None:
        family, rows = args.measure
        if family not in FAMILIES:
            p.error(f"--measure FAMILY must be one of {', '.join(FAMILIES)}")
        print(json.dumps(_measure(family, int(rows), args.best)))
        return 0
    if args.parent is None or args.change is None or args.out is None:
        p.error("--parent, --change and --out are required")
    if args.rounds < 1 or args.best < 1 or min(args.rows) < 1:
        p.error("--rows, --rounds and --best must be positive")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"families": list(FAMILIES), "best": args.best, "runs": [], "summary": {}}
    for round_ in range(args.rounds):
        order = ["parent", "change"] if round_ % 2 == 0 else ["change", "parent"]
        for family in FAMILIES:
            for rows in args.rows:
                for side in order:
                    result = _run(sides[side], family, rows, args.best)
                    doc["runs"].append({"round": round_, "family": family, "rows": rows, "side": side,
                                        "first": side == order[0], "result": result})
                    print(round_, family, rows, side, json.dumps(result["stages"]), flush=True)
        doc["summary"] = _summary(doc["runs"])
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print("\n".join(_table(doc["summary"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
