"""Time the graph stages of two checkouts in alternating rounds, at several sizes.

From the repository root, with the commit to compare against checked out
in another directory:

    python3 tools/stage_pairs.py --parent ../parent --change . \\
        --rows 250 500 1000 --rounds 5 --out BENCH_x_stages.json

The input is the baseline schema on ``SynthConfig(60, n)`` for each ``n``
of ``--rows``: a forest of ``245 n`` entities, ``244 n`` object triples
and ``62 n`` literals. Each round runs both sides once per size, each run
in a fresh process that imports the side's ``src/`` and ``perfbench/``;
which side runs first alternates from one round to the next.

A run builds the graph and its document, then, for each stage of
``STAGES`` in turn, makes ``--best`` calls and keeps the fastest. That
time is scaled to the host's reference speed with
``perfbench.hostspeed.probe()``, taken just before and just after the
stage's calls, and also given in µs per entity. Each stage then runs once
more under ``tracemalloc``, started just before the call, for its peak of
traced memory. The run also records the graph's entity and
triple counts, which do not depend on the host.

The output file holds every run and, per size and stage, each side's
median over the rounds of the scaled time, of µs per entity and of the
peak, and the median and quartiles over the rounds of change / parent
time. It is rewritten after every round. At the end one line per size and
stage is printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# the stages timed, in run order; each reads what the ones before made
STAGES = ("generate_kg", "serialize_ntriples", "load_ntriples", "depth_metrics")
ATTRIBUTES = 60


def _measure(rows: int, best: int) -> dict:
    """One run at ``rows`` rows in this process: counts, then per stage the
    scaled best-of-``best`` time and the traced peak."""
    from ontoshape.kggen import generate_kg, load_ntriples, serialize_ntriples
    from ontoshape.metrics import depth_metrics
    from ontoshape.reshape import baseline_schema
    from ontoshape.syndata import SynthConfig, generate_synthetic
    from perfbench.hostspeed import REFERENCE_S, probe

    o, d, m, u = generate_synthetic(SynthConfig(ATTRIBUTES, rows))
    mc = u.main_class
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
    return {"rows": rows, "entities": entities, "object_triples": len(g.object_triples),
            "literals": len(g.literals), "stages": stages}


def _run(checkout: Path, rows: int, best: int) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(checkout / "src"), str(checkout)]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, str(Path(__file__).resolve()), "--measure", str(rows), "--best", str(best)]
    out = subprocess.run(argv, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _spread(values: list[float]) -> dict:
    if len(values) == 1:  # quantiles() needs two points
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _summary(runs: list[dict]) -> dict:
    out: dict = {}
    for rows in dict.fromkeys(r["rows"] for r in runs):
        rounds: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["rows"] == rows:
                rounds.setdefault(r["round"], {})[r["side"]] = r["result"]
        paired = [p for p in rounds.values() if len(p) == 2]
        if not paired:
            continue
        first = paired[0]["change"]
        size = out[str(rows)] = {key: first[key] for key in ("entities", "object_triples", "literals")}
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
        f"{rows} rows {name}: parent {row['parent']['ms']:.1f} ms ({row['parent']['us_per_entity']:.2f} us/entity,"
        f" {row['parent']['peak_mb']:.1f} MB) change {row['change']['ms']:.1f} ms"
        f" ({row['change']['us_per_entity']:.2f} us/entity, {row['change']['peak_mb']:.1f} MB)"
        f" change/parent {row['change_over_parent']['median']:.3f}"
        for rows, size in summary.items()
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
    p.add_argument("--measure", type=int, metavar="ROWS", help="make one run in this process and print it")
    args = p.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(_measure(args.measure, args.best)))
        return 0
    if args.parent is None or args.change is None or args.out is None:
        p.error("--parent, --change and --out are required")
    if args.rounds < 1 or args.best < 1 or min(args.rows) < 1:
        p.error("--rows, --rounds and --best must be positive")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"attributes": ATTRIBUTES, "best": args.best, "runs": [], "summary": {}}
    for round_ in range(args.rounds):
        order = ["parent", "change"] if round_ % 2 == 0 else ["change", "parent"]
        for rows in args.rows:
            for side in order:
                result = _run(sides[side], rows, args.best)
                doc["runs"].append({"round": round_, "rows": rows, "side": side,
                                    "first": side == order[0], "result": result})
                print(round_, rows, side, json.dumps(result["stages"]), flush=True)
        doc["summary"] = _summary(doc["runs"])
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print("\n".join(_table(doc["summary"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
