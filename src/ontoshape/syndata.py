"""Seeded generator of synthetic inputs shaped like factory telemetry.

The generated ontology hangs ``n_attributes`` value classes off the main
class "Operation" at the end of chains ``chain_depth`` edges long, plus
``n_entity_classes`` satellite classes each carrying an identifier leaf
class. The dataset is one main table whose cells are short deterministic
strings, unique per row so that instance components never merge across
rows. Realism is irrelevant here; the point is a controllable shape.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .mapping import MappingSet, UserInfo, serialize_mappings, serialize_userinfo
from .ontology import Ontology, serialize_ontology
from .tabular import Dataset, Table

MAIN_CLASS = "Operation"
MAIN_TABLE = "operation"
_ENTITY_NAMES = ("Program", "Machine", "Sensor", "Robot", "Station", "Tool")


@dataclass(frozen=True)
class SynthConfig:
    n_attributes: int
    n_rows: int
    chain_depth: int = 4
    n_entity_classes: int = 2

    def __post_init__(self):
        if self.n_attributes < 0 or self.n_rows < 0 or self.n_entity_classes < 0:
            raise ValueError("counts must be nonnegative")
        if self.chain_depth < 1:
            raise ValueError("chain_depth must be at least 1")


def _entity_name(i: int) -> str:
    if i < len(_ENTITY_NAMES):
        return _ENTITY_NAMES[i]
    return f"Unit{i}"


def generate_synthetic(c: SynthConfig) -> tuple[Ontology, Dataset, MappingSet, UserInfo]:
    """Build (ontology, dataset, mappings, user info) for a configuration.

    The layout is fully determined by the configuration, so equal configs
    give equal outputs; nothing in it is random.
    """
    classes = {MAIN_CLASS}
    objprops: set[tuple[str, str, str]] = set()
    attribute_map: dict[tuple[str, str], str] = {}
    attributes = ["operation_id"]
    # deliberately not a declared class: the identifier of the main class
    # is recovered from the name alone
    attribute_map[(MAIN_TABLE, "operation_id")] = MAIN_CLASS + "ID"

    entity_attrs = []
    for i in range(c.n_entity_classes):
        name = _entity_name(i)
        id_class = name + "ID"
        classes.add(name)
        classes.add(id_class)
        objprops.add((f"has{name}", MAIN_CLASS, name))
        objprops.add((f"has{id_class}", name, id_class))
        attr = f"{name.lower()}_id"
        attributes.append(attr)
        attribute_map[(MAIN_TABLE, attr)] = id_class
        entity_attrs.append(attr)

    value_attrs = []
    for j in range(c.n_attributes):
        prev = MAIN_CLASS
        for level in range(1, c.chain_depth):
            node = f"Chain{j:03d}L{level}"
            classes.add(node)
            objprops.add((f"step{j:03d}_{level}", prev, node))
            prev = node
        leaf = f"Value{j:03d}"
        classes.add(leaf)
        objprops.add((f"step{j:03d}_{c.chain_depth}", prev, leaf))
        attr = f"attr{j:03d}"
        attributes.append(attr)
        attribute_map[(MAIN_TABLE, attr)] = leaf
        value_attrs.append(attr)

    rows = []
    for r in range(c.n_rows):
        row = {"operation_id": f"op{r}"}
        for i, attr in enumerate(entity_attrs):
            row[attr] = f"k{r}_{i}"
        for j, attr in enumerate(value_attrs):
            row[attr] = f"v{r}_{j}"
        rows.append(row)

    ontology = Ontology(frozenset(classes), frozenset(objprops), frozenset())
    dataset = Dataset({MAIN_TABLE: Table(MAIN_TABLE, attributes, rows)}, MAIN_TABLE)
    mappings = MappingSet({MAIN_TABLE: MAIN_CLASS}, attribute_map)
    userinfo = UserInfo(MAIN_CLASS)
    return ontology, dataset, mappings, userinfo


def write_fixture_tree(c: SynthConfig, directory: str | Path) -> None:
    """Write a generated fixture to disk: ontology.osf, mappings.csv,
    userinfo.json and data/<main table>.csv."""
    ontology, dataset, mappings, userinfo = generate_synthetic(c)
    directory = Path(directory)
    (directory / "data").mkdir(parents=True, exist_ok=True)
    (directory / "ontology.osf").write_text(serialize_ontology(ontology), encoding="utf-8")
    (directory / "mappings.csv").write_text(serialize_mappings(mappings), encoding="utf-8")
    (directory / "userinfo.json").write_text(serialize_userinfo(userinfo), encoding="utf-8")
    main = dataset.main
    with open(directory / "data" / f"{main.name}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(main.attributes)
        for row in main.rows:
            writer.writerow([row[a] for a in main.attributes])
