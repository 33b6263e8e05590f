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
free-standing the same rows. The reference keeps each object triple with
the (table, row) that first makes it, one literal per source row, with
its (table, attribute, row), and the key columns it consumed. Its
distinct triples are compared with the package's graph, which must list
them in the order of the rows that first make them, and its key and
literal sources with the (table, attribute) pairs that the metrics' plan
walk covers, which must log nothing. On the same inputs, the report on a
generated graph and on its N-Triples read-back must agree in every field.
"""

from __future__ import annotations

import logging

from hypothesis import given, settings
from hypothesis import strategies as st

from ontoshape.errors import DatasetError, SchemaError
from ontoshape.kggen import KnowledgeGraph, generate_kg, load_ntriples, mint_entity_id, serialize_ntriples
from ontoshape.mapping import MappingSet
from ontoshape.metrics import _covered, build_report
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


def _reference_generate_kg(
    s: KGSchema, d: Dataset, m: MappingSet, mc: str
) -> tuple[KnowledgeGraph, frozenset[tuple[str, str]]]:
    """The graph, whose object triples map to the (table, row) that first
    makes them and whose literals are (subject, property, value, (table,
    attribute, row)), one per source row, and the (table, attribute) key
    columns consumed."""
    if mc not in s.classes:
        raise SchemaError(f"main class {mc!r} is not part of the schema")
    _reference_check_schema_sources(s, d)
    main_name = d.main_table

    entities: dict[str, tuple[str, bool]] = {}
    objects: dict[tuple[str, str, str], tuple[str, int]] = {}
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
                    objects.setdefault((sf, rel, st), (tname, j))

    return KnowledgeGraph(entities, objects, dict.fromkeys(literals)), frozenset(key_sources)


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
    """The reference's graph as the package keeps one: its distinct
    triples."""
    g, _ = _reference_generate_kg(s, d, m, mc)
    return KnowledgeGraph(g.entities, dict.fromkeys(g.object_triples), dict.fromkeys(t[:3] for t in g.literals))


def _reference_covered(s, d, mc) -> frozenset[tuple[str, str]]:
    """The reference's key sources plus the sources of its literals."""
    g, key_sources = _reference_generate_kg(s, d, MappingSet({}, {}), mc)
    return key_sources | {src[:2] for *_, src in g.literals}


def _walk_covered(s, d, mc) -> frozenset[tuple[str, str]]:
    """The pairs the plan walk covers; the family's schemas name ``mc`` as
    their main class, which the walk reads."""
    return frozenset(_covered(s, d))


def _outcome(call, *args):
    """What ``call(*args)`` returns or raises, and the warnings it logs."""
    handler = _Records()
    log.addHandler(handler)
    try:
        return call(*args), handler.events
    except (DatasetError, SchemaError) as exc:
        return (type(exc), str(exc)), handler.events
    finally:
        log.removeHandler(handler)


def _run(generate, s, d, mc):
    g, events = _outcome(generate, s, d, MappingSet({}, {}), mc)
    if isinstance(g, tuple):  # the error
        return g, events
    return (list(g.entities.items()), g.object_triples, g.literals, serialize_ntriples(g)), events


@settings(max_examples=800, deadline=None)
@given(inputs=_inputs())
def test_generate_matches_three_branch_reference(inputs):
    s, d, mc = inputs
    expected, expected_events = _run(_projected_reference, s, d, mc)
    got, events = _run(generate_kg, s, d, mc)
    assert got == expected
    assert events == expected_events
    covered, walk_events = _outcome(_walk_covered, s, d, mc)
    assert covered == _outcome(_reference_covered, s, d, mc)[0]
    assert walk_events == []


@settings(max_examples=800, deadline=None)
@given(inputs=_inputs())
def test_report_on_the_read_back_equals_the_report_on_the_generated_graph(inputs):
    s, d, mc = inputs
    m = MappingSet({}, {})
    try:
        g = generate_kg(s, d, m, mc)
    except (DatasetError, SchemaError):
        return
    back = load_ntriples(serialize_ntriples(g))
    assert build_report(back, s, d, m, mc) == build_report(g, s, d, m, mc)


def _row_ranks(made) -> dict[tuple[str, str, str], int]:
    """Each distinct triple of the reference's (triple, source) pairs
    ``made``, with the rank, in materialization order, of the first row
    that makes it."""
    rows: dict[tuple[str, int], int] = {}
    ranks: dict[tuple[str, str, str], int] = {}
    for triple, (tname, *_, j) in made:
        ranks.setdefault(triple, rows.setdefault((tname, j), len(rows)))
    return ranks


@settings(max_examples=300, deadline=None)
@given(inputs=_inputs())
def test_triples_keep_the_order_of_the_rows_that_first_make_them(inputs):
    s, d, mc = inputs
    m = MappingSet({}, {})
    try:
        g = generate_kg(s, d, m, mc)
    except (DatasetError, SchemaError):
        return
    ref, _ = _reference_generate_kg(s, d, m, mc)
    literals = [(t[:3], t[3]) for t in ref.literals]
    for got, made in ((g.object_triples, ref.object_triples.items()), (g.literals, literals)):
        ranks = _row_ranks(made)
        order = [ranks[triple] for triple in got]
        assert order == sorted(order)
