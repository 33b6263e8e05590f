"""Benchmark the ontoshape pipeline on one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload baseline_chain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones and keeps the spans in ``.perfbench_work/spans-<workload>-seed<n>.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same numbers for people. ``--workload all`` runs every workload in
turn, each in a fresh process. The package is imported from ``src/`` of
the checkout this file sits in; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("baseline_chain", "reshape_wide", "shared_keys", "paper_grid")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        worst = max(worst, proc.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    src = ROOT / "src"
    if not (src / "ontoshape" / "__init__.py").is_file():
        print(f"error: no ontoshape package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import ontoshape

    if Path(ontoshape.__file__).resolve().parent != (src / "ontoshape").resolve():
        print(f"error: imported ontoshape from {ontoshape.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench.measure import run_workload
    from perfbench.workloads import WORKLOADS

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    spans = work_root / f"spans-{args.workload}-seed{args.seed}.json"
    try:
        result, lines = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work, spans
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
