"""``generate_kg`` against a reference copy of its three-branch version.

``_reference_generate_kg`` mints a row's entities in three places: the
anchor with its own empty-key check and warning, the other keyed classes
in a second loop that sets a skip flag, and the row-numbered classes in a
third loop that only the main table reaches. The package's version mints
every entry of one per-table plan of (class, key column or None) in one
loop. On random schemas over one to three tables, with empty cells,
repeated keys, joins that match and joins that do not, the main class's
key on a secondary table, unkeyed classes mapped to secondary tables,
several classes mapped to one table, keys on tables no class maps to and
sources missing from the dataset, both must build the same graph, in the
same entity order, or raise the same error, and must skip or leave
free-standing the same rows. The reference keeps one literal per source
row; its distinct triples and (table, attribute) sources are compared
with the package's.
"""

from __future__ import annotations

import logging

from hypothesis import given, settings
from hypothesis import strategies as st

from test_ntriples import _kept

from ontoshape.errors import DatasetError, SchemaError
from ontoshape.kggen import KnowledgeGraph, generate_kg, mint_entity_id, serialize_ntriples
from ontoshape.mapping import MappingSet
from ontoshape.reshape import KGSchema
from ontoshape.tabular import Dataset, Table

log = logging.getLogger("ontoshape.kggen")


def _reference_check_schema_sources(s: KGSchema, d: Dataset) -> None:
    columns = {tname: set(t.attributes) for tname, t in d.tables.items()}
    for cls, tname in s.class_tables.items():
        if tname not in columns:
            raise DatasetError(f"schema maps {cls} to table {tname!r} missing from the dataset")
    for cls, (tname, attr) in s.class_keys.items():
        if tname not in columns:
            raise DatasetError(f"key of {cls} names table {tname!r} missing from the dataset")
        if attr not in columns[tname]:
            raise DatasetError(f"key of {cls} names attribute {tname}.{attr} missing from the dataset")
    for prop, _, (tname, attr) in s.data_attachments:
        if tname not in columns:
            raise DatasetError(f"attachment {prop} names table {tname!r} missing from the dataset")
        if attr not in columns[tname]:
            raise DatasetError(f"attachment {prop} names attribute {tname}.{attr} missing from the dataset")


def _reference_generate_kg(s: KGSchema, d: Dataset, m: MappingSet, mc: str) -> KnowledgeGraph:
    if mc not in s.classes:
        raise SchemaError(f"main class {mc!r} is not part of the schema")
    _reference_check_schema_sources(s, d)
    main_name = d.main_table

    entities: dict[str, tuple[str, bool]] = {}
    objects: set[tuple[str, str, str]] = set()
    literals: list[tuple[str, str, str, tuple[str, str, int]]] = []
    key_sources: set[tuple[str, str]] = set()
    mc_id_by_key: dict[str, str] = {}

    mc_key = s.class_keys.get(mc)
    if mc_key is not None and mc_key[0] != main_name:
        log.warning("key of %s comes from table %s, not the main table; using row numbers", mc, mc_key[0])
        mc_key = None
    unkeyed = sorted(c for c in s.classes if c != mc and c not in s.class_keys)
    main_numbered = [c for c in unkeyed if s.class_tables.get(c) == main_name]
    main_dummies = [c for c in unkeyed if c not in s.class_tables]
    dummy_set = set(main_dummies)
    attach_by_table: dict[str, list[tuple[str, str, str]]] = {}
    for prop, owner, (tname, attr) in sorted(s.data_attachments):
        attach_by_table.setdefault(tname, []).append((prop, owner, attr))
    edge_list = sorted(s.edges)
    kinds = {cls: (cls, cls in dummy_set) for cls in {*s.classes, *s.class_tables, *s.class_keys}}
    secondary = {t: cls for cls, t in s.class_tables.items() if t != main_name}

    for tname, anchor in [(main_name, mc), *sorted(secondary.items())]:
        table = d.tables[tname]
        on_main = tname == main_name
        keyed = {cls: attr for cls, (ktab, attr) in sorted(s.class_keys.items()) if ktab == tname}
        anchor_key = keyed.pop(anchor, None)
        keyed.pop(mc, None)  # main entities come from the main table or the join
        key_sources.update((tname, attr) for attr in keyed.values())
        if anchor_key is not None:
            key_sources.add((tname, anchor_key))
        numbered = main_numbered if on_main else []
        dummies = main_dummies if on_main else []
        join = mc_key[1] if mc_key and not on_main and mc_key[1] in table.attributes else None
        present = {anchor, *keyed, *numbered, *dummies}
        if join is not None:
            present.add(mc)
        attaches = [a for a in attach_by_table.get(tname, ()) if a[1] in present]
        edges = [e for e in edge_list if e[1] in present and e[2] in present]
        prefix = "row" if on_main else f"{tname}_row"

        for j, row in enumerate(table.rows):
            number = f"{prefix}{j}"
            if anchor_key is None:
                value = number
            else:
                value = row[anchor_key]
                if not value:
                    log.warning("%s row %d: empty key %s; row skipped", tname, j, anchor_key)
                    continue
            ids = {anchor: mint_entity_id(anchor, value)}
            skip = False
            for cls, attr in keyed.items():
                key = row[attr]
                if not key:
                    log.warning("%s row %d: empty key %s for %s; row skipped", tname, j, attr, cls)
                    skip = True
                    break
                ids[cls] = mint_entity_id(cls, key)
            if skip:
                continue
            for cls in numbered:
                ids[cls] = mint_entity_id(cls, number)
            for cls in dummies:
                ids[cls] = f"_:dummy_{cls}_{number}"
            if on_main:
                mc_id_by_key[value] = ids[mc]
            elif join is not None:
                mcid = mc_id_by_key.get(row[join])
                if mcid is None:
                    log.warning(
                        "%s row %d: no main entity matches %s=%r; free-standing entity",
                        tname, j, join, row[join],
                    )
                else:
                    ids[mc] = mcid
                    key_sources.add((tname, join))
            for cls, eid in ids.items():
                if eid not in entities:
                    entities[eid] = kinds[cls]
            for prop, owner, attr in attaches:
                sid = ids.get(owner)
                if sid is None:
                    continue
                value = row[attr]
                if value:
                    literals.append((sid, prop, value, (tname, attr, j)))
            for rel, f, t in edges:
                sf = ids.get(f)
                st = ids.get(t)
                if sf is not None and st is not None:
                    objects.add((sf, rel, st))

    return KnowledgeGraph(entities, objects, set(literals), frozenset(key_sources))


_TABLES = ["t0", "t1", "t2"]
_COLUMNS = ["k", "x", "y"]
_CLASSES = ["A", "B", "C", "M"]
# few values, so keys repeat and joins match; "" is an empty cell
_VALUES = ["", "a", "b", "a b"]


@st.composite
def _inputs(draw) -> tuple[KGSchema, Dataset, str]:
    names = _TABLES[: draw(st.integers(1, 3))]
    tables = {}
    for name in names:
        columns = [c for c in _COLUMNS if draw(st.integers(0, 3))]
        rows = draw(st.lists(st.fixed_dictionaries({c: st.sampled_from(_VALUES) for c in columns}), max_size=5))
        tables[name] = Table(name, columns, rows)
    main = draw(st.sampled_from(names))
    d = Dataset(tables, main)

    classes = draw(st.sets(st.sampled_from(_CLASSES), min_size=1))
    # mostly a schema class; "Z" is none, so generate_kg raises SchemaError
    mc = draw(st.sampled_from(sorted(classes) * 8 + ["Z"]))
    # "Ghost" is outside the schema's classes; table "t9" and column "w" are
    # missing from every dataset, so the source check raises DatasetError
    named = st.sampled_from(sorted(classes) + ["Ghost"])
    table = st.sampled_from(names * 20 + ["t9"])
    present = [(t, c) for t in names for c in tables[t].attributes]
    source = st.sampled_from(present * 20 + [("t9", "k"), (main, "w")])
    class_tables = draw(st.dictionaries(named, table, max_size=4))
    class_keys = draw(st.dictionaries(named, source, max_size=4))
    if "k" in tables[main].attributes and draw(st.booleans()):
        class_keys[mc] = (main, "k")  # secondary tables with a "k" column join
    attachments = draw(st.sets(st.tuples(st.sampled_from(["p", "q"]), named, source), max_size=6))
    edges = draw(st.sets(st.tuples(st.sampled_from(["r", "s"]), named, named), max_size=6))
    return KGSchema(mc, classes, edges, attachments, class_keys, class_tables), d, mc


class _Records(logging.Handler):
    """Collects each warning as the rows it skips or leaves free-standing,
    by its args, and any other warning as its text."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.events = []

    def emit(self, record):
        if record.msg.endswith("row skipped"):
            self.events.append(("skipped", *record.args[:3]))
        elif record.msg.endswith("free-standing entity"):
            self.events.append(("free-standing", *record.args))
        else:
            self.events.append(("other", record.getMessage()))


def _projected_reference(s, d, m, mc) -> KnowledgeGraph:
    """The reference's graph, whose literals carry their (table, attribute,
    row), as the package keeps one."""
    return _kept(_reference_generate_kg(s, d, m, mc))


def _run(generate, s, d, mc):
    handler = _Records()
    log.addHandler(handler)
    try:
        g = generate(s, d, MappingSet({}, {}), mc)
    except (DatasetError, SchemaError) as exc:
        return (type(exc), str(exc)), handler.events
    finally:
        log.removeHandler(handler)
    graph = (
        list(g.entities.items()), g.object_triples, g.literals, g.key_sources, g.literal_sources,
        serialize_ntriples(g),
    )
    return graph, handler.events


@settings(max_examples=800, deadline=None)
@given(inputs=_inputs())
def test_generate_matches_three_branch_reference(inputs):
    s, d, mc = inputs
    expected, expected_events = _run(_projected_reference, s, d, mc)
    got, events = _run(generate_kg, s, d, mc)
    assert got == expected
    assert events == expected_events
