"""Workload definitions, seeded fixtures and closed-form expected outputs.

Every fixture starts from ``syndata.write_fixture_tree``. The benchmark
then rewrites the main table itself: rows are shuffled, and on
``shared_keys`` the two entity-key columns are redrawn from a few values
so that rows share entities. The seed drives every random choice, and the
expected counts below follow from the workload shape alone, so they hold
for every seed.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

from ontoshape import syndata

# the two entity-key columns syndata writes with n_entity_classes=2
ENTITY_KEYS = ("program_id", "machine_id")


@dataclass(frozen=True)
class Workload:
    name: str
    # "baseline" or "reshape" for the CLI file pipeline; "grid" runs
    # bench.run_experiment with both approaches
    approach: str
    attrs: int
    rows: int
    depth: int = 4
    # 0: every key value is unique per row; n: keys drawn from n values
    shared_values: int = 0
    counts: tuple[int, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("baseline_chain", "baseline", attrs=60, rows=100),
        Workload("reshape_wide", "reshape", attrs=400, rows=20),
        Workload("shared_keys", "baseline", attrs=10, rows=100, shared_values=10),
        Workload("paper_grid", "grid", attrs=60, rows=30, counts=(10, 20, 30, 40, 50, 60)),
    )
}


@dataclass(frozen=True)
class Fixture:
    root: Path
    # distinct values per entity-key column, in ENTITY_KEYS order
    key_values: tuple[int, ...]
    grid_seed: int

    @property
    def ontology(self) -> Path:
        return self.root / "ontology.osf"

    @property
    def mappings(self) -> Path:
        return self.root / "mappings.csv"

    @property
    def userinfo(self) -> Path:
        return self.root / "userinfo.json"

    @property
    def data(self) -> Path:
        return self.root / "data"


def build_fixture(w: Workload, seed: int, directory: Path) -> Fixture:
    """Write the workload's input files under ``directory``."""
    rng = random.Random(seed)
    cfg = syndata.SynthConfig(w.attrs, w.rows, w.depth, len(ENTITY_KEYS))
    syndata.write_fixture_tree(cfg, directory)
    table = directory / "data" / f"{syndata.MAIN_TABLE}.csv"
    with open(table, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    key_cols = [header.index(k) for k in ENTITY_KEYS]
    if w.shared_values:
        # one draw per row for both columns: rows that share a program also
        # share its machine, so the entity graph splits into one component
        # per drawn value instead of a single one over all rows
        for row in rows:
            v = rng.randrange(w.shared_values)
            for c in key_cols:
                row[c] = f"{header[c][0]}{v}"
    rng.shuffle(rows)
    with open(table, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    key_values = tuple(len({row[c] for row in rows}) for c in key_cols)
    return Fixture(directory, key_values, rng.randrange(2**31))


@dataclass(frozen=True)
class Expected:
    """What one graph must contain, derived from the workload shape."""

    classes: int
    entities: int  # dummies included
    dummies: int
    objects: int
    literal_lines: int  # distinct (subject, property, value) triples
    depths: tuple[int, int] | None  # (root-to-leaf, global), None when not closed form

    @property
    def lines(self) -> int:
        return self.entities + self.objects + self.literal_lines


def expected(approach: str, attrs: int, rows: int, depth: int, key_values: tuple[int, ...]) -> Expected:
    """Closed-form graph size for ``attrs`` value columns on ``rows`` rows.

    Baseline: each row has its main entity, one dummy per entity class and
    per chain connector, one keyed leaf per value attribute, and each
    distinct key value is one identifier entity with one literal. Reshape:
    each row has its main entity and one edge per entity class; each
    distinct key value is one entity with one literal.
    """
    e = len(key_values)
    keyed = sum(key_values)
    branches = [depth] * attrs + [2] * e if approach == "baseline" else [1] * e
    depths = None
    # with unique keys every row is its own tree: a star of the branches
    if rows and all(k == rows for k in key_values):
        depths = (max(branches, default=0), sum(sorted(branches)[-2:]))
    if approach == "baseline":
        return Expected(
            classes=1 + 2 * e + attrs * depth,
            entities=rows * (1 + e + attrs * depth) + keyed,
            dummies=rows * (e + attrs * (depth - 1)),
            objects=rows * (2 * e + attrs * depth),
            literal_lines=rows * attrs + keyed,
            depths=depths,
        )
    return Expected(
        classes=1 + e,
        entities=rows + keyed,
        dummies=0,
        objects=rows * e,
        literal_lines=rows * attrs + keyed,
        depths=depths,
    )
