"""Schema extraction: shrink a class graph onto the data it has to carry.

Domain ontologies are written to organize knowledge, so a single record of
raw data can fan out over long chains of classes that exist purely for
conceptual hygiene. Materializing a knowledge graph straight from such an
ontology buries the data under placeholder entities. The builders in this
module produce the graph schema that materialization works from:

``reshape``
    Keeps only classes witnessed by the data: the main class, classes
    mapped from table names, and entity classes recovered from
    identifier-like attributes (``...ID`` / ``...Name`` suffixes or
    explicit user rules). Relations between the survivors are copied from
    the ontology where a direct property exists, minted toward the main
    class where only an indirect path exists, and every attribute is
    attached as a data property to the nearest surviving class.

``baseline_schema``
    The naive contrast: keeps every mapped class plus every class sitting
    on a shortest connecting path between two of them. Those connector
    classes carry no data and materialize as placeholder ("dummy")
    entities downstream.

Both builders are pure: they never mutate their inputs.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from urllib.parse import quote, unquote

from .errors import ParseError, SchemaError
from .mapping import MappingSet, UserInfo
from .ontology import (
    _IDENT, _NAME, Ontology, _bfs, _check_ident, directed_reach, shortest_walks, undirected_distances,
)
from .tabular import Dataset, list_attributes

log = logging.getLogger(__name__)


def identifier_stem(class_name: str) -> str | None:
    """The class an identifier-like class name points at: ``FooID`` and
    ``FooName`` (suffix case-insensitive) give ``Foo``. None when the name
    has neither suffix or nothing precedes it."""
    upper = class_name.upper()
    for suffix in ("ID", "NAME"):
        if upper.endswith(suffix) and len(class_name) > len(suffix):
            return class_name[: -len(suffix)]
    return None


def _main_table_first(d: Dataset) -> list[tuple[str, str]]:
    """``list_attributes(d)`` with the main table's columns moved first: the
    order in which attributes claim class keys, so a secondary table that
    repeats an id column never keys the class over the main table."""
    return sorted(list_attributes(d), key=lambda ta: ta[0] != d.main_table)


def _claim_key(class_keys: dict[str, tuple[str, str]], cls: str, src: tuple[str, str]) -> None:
    """Key ``cls`` by the attribute ``src`` unless an earlier one claimed it;
    callers offer attributes in ``_main_table_first`` order."""
    if cls in class_keys:
        log.warning("%s already keyed by %s.%s; %s.%s will only attach", cls, *class_keys[cls], *src)
    else:
        class_keys[cls] = src


@dataclass
class KGSchema:
    """Compact graph schema driving materialization.

    ``edges`` holds (relation, from, to) triples. ``data_attachments``
    holds (property, owner class, (table, attribute)) triples saying which
    class carries which raw attribute. ``class_keys`` names the attribute
    whose value identifies an entity of a class; ``class_tables`` records
    which table a class was mapped from. Classes with neither a key nor a
    table (and that are not the main class) materialize as dummies.
    """

    main_class: str
    classes: set[str]
    edges: set[tuple[str, str, str]]
    data_attachments: set[tuple[str, str, tuple[str, str]]] = field(default_factory=set)
    class_keys: dict[str, tuple[str, str]] = field(default_factory=dict)
    class_tables: dict[str, str] = field(default_factory=dict)


def identify_entity_class(cp: str, candidates: frozenset[str], u: UserInfo) -> str | None:
    """The entity class an attribute class identifies, or None.

    User rules take precedence. Failing those, a class whose name ends in
    ``ID`` or ``Name`` (case-insensitive) identifies the class named by the
    rest, provided that class is among the entity ``candidates``: the
    ontology classes no attribute maps onto.
    """
    for rule in u.entity_rules:
        if rule.attribute_class == cp:
            return rule.entity_class
    stem = identifier_stem(cp)
    return stem if stem in candidates else None


def _link_relation(c: str, u: UserInfo) -> str:
    """Relation name for a minted link toward class ``c``: that of the first
    entity rule naming ``c``, in user-info order, else the fallback prefix
    plus ``c``."""
    for rule in u.entity_rules:
        if rule.entity_class == c:
            return rule.relation
    return u.fallback_relation_prefix + c


def connect_classes(s: KGSchema, o: Ontology, u: UserInfo) -> set[tuple[str, str, str]]:
    """The edges that wire up the classes of a schema, ``s.edges``
    included, using the ontology as the guide.

    Each declared class, in sorted order, visits the other declared
    classes it reaches along edge direction, in sorted order; no other
    pair can get an edge. A pair already linked (either direction) is
    skipped; a direct ontology relation is copied. Without one, a matching
    user connection rule is used, or else both ends hang off the main class.
    Classes that finish with no relation at all are linked by a rule that
    names them or to the main class. Last, each part of the schema the main
    class cannot reach over its edges is linked through its smallest class.
    """
    mc = s.main_class
    if mc not in s.classes:
        raise SchemaError(f"main class {mc!r} is not part of the schema")
    edges = set(s.edges)
    linked = {frozenset((f, t)) for _, f, t in edges}

    usable_rules = []
    for rule in u.connection_rules:
        if rule.from_class in s.classes and rule.to_class in s.classes:
            usable_rules.append(rule)
        else:
            log.warning(
                "connection rule %s(%s -> %s) names a class not in the schema; skipped",
                rule.relation,
                rule.from_class,
                rule.to_class,
            )
    rule_for: dict[tuple[str, str], str] = {}
    for rule in usable_rules:
        rule_for.setdefault((rule.from_class, rule.to_class), rule.relation)

    def add(rel: str, f: str, t: str) -> None:
        edges.add((rel, f, t))
        linked.add(frozenset((f, t)))

    def ensure_mc_link(c: str) -> None:
        if c != mc and frozenset((mc, c)) not in linked:
            add(_link_relation(c, u), mc, c)

    names = sorted(s.classes)
    for ci in names:
        if ci not in o.classes:
            continue
        for cj in sorted(directed_reach(o, ci) & s.classes):
            if ci == cj or frozenset((ci, cj)) in linked:
                continue
            rel = o._direct.get((ci, cj)) or rule_for.get((ci, cj))
            if rel:
                add(rel, ci, cj)
            else:
                ensure_mc_link(ci)
                ensure_mc_link(cj)

    # link every class that still touches no relation
    touched = {f for _, f, _ in edges} | {t for _, _, t in edges}
    for c in names:
        if c == mc or c in touched:
            continue
        for rule in usable_rules:
            if c in (rule.from_class, rule.to_class):
                add(rule.relation, rule.from_class, rule.to_class)
                touched |= {rule.from_class, rule.to_class}
                break
        else:
            add(_link_relation(c, u), mc, c)
            touched |= {mc, c}

    # a disconnected source graph can leave whole clusters unreachable from
    # the main class; stitch them in so the schema stays one piece. Classes
    # are visited in sorted order, so each cluster starts at its smallest.
    adj: dict[str, set[str]] = {c: set() for c in names}
    for _, f, t in edges:
        if f in adj and t in adj:
            adj[f].add(t)
            adj[t].add(f)
    reached = _bfs(adj, mc)
    for rep in names:
        if rep not in reached:
            comp = _bfs(adj, rep)
            reached.update(comp)
            log.warning("classes %s cannot reach %s through the ontology; linking %s", sorted(comp), mc, rep)
            add(_link_relation(rep, u), mc, rep)
    return edges


def assign_data_properties(
    s: KGSchema, o: Ontology, m: MappingSet, d: Dataset
) -> set[tuple[str, str, tuple[str, str]]]:
    """The attachment of every mapped attribute of ``d`` to a schema class.

    Attributes recorded in ``s.class_keys`` identify entities: the one
    keying the main class is consumed by entity ids and gets no attachment,
    the others attach to their entity class. Every other attribute mapped
    to an ontology class attaches to the schema class nearest to it
    (undirected distance in ``o``; ties prefer the main class, then the
    lexicographically smallest name), found by one BFS from every schema
    class. Attributes mapped to names the ontology does not declare, or
    that no schema class reaches, fall back to the main class with a warning.
    """
    attachments = set()
    key_owner = {src: cls for cls, src in s.class_keys.items()}
    mc = s.main_class
    # each class the BFS reaches takes the least (c != mc, c) of its neighbours
    # one hop closer: its nearest schema classes are the union of theirs
    near = {c: (c != mc, c) for c in sorted(s.classes) if c in o.classes}
    dist = _bfs(o._und, *near)
    for c, k in dist.items():
        if c not in near:
            near[c] = min(near[n] for n in o._und[c] if dist[n] == k - 1)

    for table, attr in list_attributes(d):
        cp = m.attribute_map.get((table, attr))
        if cp is None:
            continue
        keyed_class = key_owner.get((table, attr))
        if keyed_class is not None and keyed_class in s.classes:
            if keyed_class != mc:
                attachments.add(("has" + cp, keyed_class, (table, attr)))
            continue
        if cp not in near:  # near holds declared classes only
            why = "no schema class can reach" if cp in o.classes else "is not a declared class"
            log.warning("attribute %s.%s maps to %s which %s; attaching to %s", table, attr, cp, why, mc)
        attachments.add(("has" + cp, near.get(cp, (True, mc))[1], (table, attr)))
    return attachments


def reshape(
    o: Ontology,
    d: Dataset,
    m: MappingSet,
    u: UserInfo,
    include_unmapped: bool = False,
) -> KGSchema:
    """Build the compact data-oriented schema for ``d`` under ``o``.

    The main class seeds the schema. Table-mapped classes join it, then
    every identifier-like attribute contributes its entity class together
    with the key recording which attribute names its entities; the first
    such attribute keys the class, the main table's columns before the
    others. The classes
    are wired up through the ontology and every attribute is attached to
    its owner. The result is connected and free of dummy-producing
    classes.

    ``include_unmapped=True`` additionally attaches attributes that have no
    mapping at all to the main class, as the fallback relation prefix plus
    the column name; a ``SchemaError`` names the first such attribute whose
    property would not be an identifier. By default they are only reported.
    """
    mc = u.main_class
    if mc not in o.classes:
        raise SchemaError(f"main class {mc!r} is not declared in the ontology")
    # entity candidates: the ontology classes no attribute maps onto
    candidates = o.classes - {m.attribute_map.get(ta) for ta in list_attributes(d)}

    classes = {mc}
    class_tables: dict[str, str] = {}
    class_keys: dict[str, tuple[str, str]] = {}

    for tname in sorted(d.tables):
        c = m.table_map.get(tname)
        if c is None:
            continue
        if c == mc or c in candidates:
            classes.add(c)
            class_tables.setdefault(c, tname)
        elif c not in o.classes:
            log.warning("table %s maps to undeclared class %s; ignored", tname, c)
        else:
            log.warning("table %s maps to %s, which an attribute also maps to; table dropped", tname, c)

    unmapped = []
    for table, attr in _main_table_first(d):
        cp = m.attribute_map.get((table, attr))
        if cp is None:
            unmapped.append((table, attr))
            continue
        entity_class = identify_entity_class(cp, candidates, u)
        if entity_class is None:
            continue
        classes.add(entity_class)
        _claim_key(class_keys, entity_class, (table, attr))

    s = KGSchema(mc, classes, set(), set(), class_keys, class_tables)
    s.edges = connect_classes(s, o, u)
    attachments = assign_data_properties(s, o, m, d)
    for table, attr in unmapped:
        if include_unmapped:
            prop = u.fallback_relation_prefix + attr
            if not _IDENT.match(prop):
                raise SchemaError(
                    f"unmapped attribute {table}.{attr} would attach as {prop!r}, "
                    f"which is not an identifier ({_NAME}); map it or rename the column"
                )
            attachments.add((prop, mc, (table, attr)))
        else:
            log.warning("attribute %s.%s has no mapping and is not represented", table, attr)
    s.data_attachments = attachments
    return s


def baseline_schema(o: Ontology, d: Dataset, m: MappingSet, mc: str) -> KGSchema:
    """Build the naive schema: every mapped class plus connecting classes.

    All classes with a correspondence to the raw data survive, and for each
    pair of them every class on one shortest undirected ontology path is
    pulled in as well. Ontology relations among the selected classes are
    kept as-is. Attribute-mapped classes carry their own value through a
    single ``hasValue`` attachment and are keyed by their first attribute,
    the main table's columns before the others; the connector classes
    carry nothing and will materialize as dummies.
    """
    if mc not in o.classes:
        raise SchemaError(f"main class {mc!r} is not declared in the ontology")

    attr_classes = []
    for table, attr in _main_table_first(d):
        cls = m.attribute_map.get((table, attr))
        if cls is not None and cls in o.classes:
            attr_classes.append((table, attr, cls))
    table_classes: dict[str, str] = {}
    for tname in sorted(d.tables):
        cls = m.table_map.get(tname)
        if cls is not None and cls in o.classes:
            table_classes.setdefault(cls, tname)

    names = sorted({mc} | {cls for _, _, cls in attr_classes} | set(table_classes))
    classes = set(names)
    unconnected = []
    for i, ci in enumerate(names):
        dist = undirected_distances(o, ci)
        unconnected += [(ci, cj) for cj in names[i + 1 :] if cj not in dist]
        classes |= shortest_walks(o, ci, names[i + 1 :])
    if unconnected:
        log.warning("no path connects %d mapped class pairs, first %s; the schema stays disconnected",
                    len(unconnected), unconnected[:3])

    edges = {
        (rel, dom, rng)
        for rel, dom, rng in o.object_properties
        if dom in classes and rng in classes
    }

    attachments = set()
    class_keys: dict[str, tuple[str, str]] = {}
    for table, attr, cls in attr_classes:
        attachments.add(("hasValue", cls, (table, attr)))
        _claim_key(class_keys, cls, (table, attr))

    if mc not in class_keys:
        for table, attr in _main_table_first(d):
            cp = m.attribute_map.get((table, attr))
            if cp is not None and cp not in o.classes and identifier_stem(cp) == mc:
                class_keys[mc] = (table, attr)
                break

    return KGSchema(mc, classes, edges, attachments, class_keys, dict(table_classes))


# ---------------------------------------------------------------------------
# schema text format

# the text quote(text, safe="") returns unchanged; _percent_encode is the
# one encoding of entity keys and schema tokens
_PLAIN = re.compile(r"[A-Za-z0-9_.\-~]*\Z")


def _percent_encode(text: str) -> str:
    return text if _PLAIN.match(text) else quote(text, safe="")


def _enc(token: str) -> str:
    return _percent_encode(token).replace(".", "%2E")  # "." ends a source token's table


def serialize_schema(s: KGSchema) -> str:
    """Render a schema to text. The format extends the ontology format with
    ``main``, ``attach``, ``key`` and ``table`` lines so a schema file can
    be inspected and loaded back losslessly."""
    lines = [f"main {s.main_class}"]
    lines += sorted(f"class {c}" for c in s.classes)
    lines += sorted(f"objprop {r} {f} {t}" for r, f, t in s.edges)
    lines += sorted(
        f"attach {_enc(p)} {owner} {_enc(tb)}.{_enc(at)}" for p, owner, (tb, at) in s.data_attachments
    )
    lines += sorted(f"key {c} {_enc(tb)}.{_enc(at)}" for c, (tb, at) in s.class_keys.items())
    lines += sorted(f"table {c} {_enc(tb)}" for c, tb in s.class_tables.items())
    return "".join(line + "\n" for line in lines)


def _split_source(token: str, lineno: int) -> tuple[str, str]:
    table, sep, attr = token.partition(".")
    if not sep or not table or not attr:
        raise ParseError(f"expected <table>.<attribute>, got {token!r}", lineno)
    return unquote(table), unquote(attr)


def parse_schema(text: str) -> KGSchema:
    """Parse a schema document written by :func:`serialize_schema`.

    Every name that goes into an IRI, that is each ``main``, ``class`` and
    ``objprop`` name and each percent-decoded ``attach`` property, must be
    an identifier (``[A-Za-z_][A-Za-z0-9_]*``); any other raises
    :class:`ParseError` with its line. Table and attribute tokens may name
    anything."""
    main_class = None
    classes: set[str] = set()
    edges: set[tuple[str, str, str]] = set()
    attachments: set[tuple[str, str, tuple[str, str]]] = set()
    class_keys: dict[str, tuple[str, str]] = {}
    class_tables: dict[str, str] = {}
    table_class: dict[str, str] = {}  # class_tables inverted, to reject a table named twice
    # (class, line) of every class an objprop, attach, key or table line
    # names; classes may be declared after the lines that use them
    used: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "main" and len(parts) == 2:
            if main_class is not None:
                raise ParseError("duplicate main declaration", lineno)
            _check_ident(parts[1], lineno)
            main_class = parts[1]
        elif parts[0] == "class" and len(parts) == 2:
            _check_ident(parts[1], lineno)
            classes.add(parts[1])
        elif parts[0] == "objprop" and len(parts) == 4:
            for name in parts[1:]:
                _check_ident(name, lineno)
            edges.add((parts[1], parts[2], parts[3]))
            used += [(parts[2], lineno), (parts[3], lineno)]
        elif parts[0] == "attach" and len(parts) == 4:
            prop = unquote(parts[1])
            _check_ident(prop, lineno)
            attachments.add((prop, parts[2], _split_source(parts[3], lineno)))
            used.append((parts[2], lineno))
        elif parts[0] == "key" and len(parts) == 3:
            if parts[1] in class_keys:
                raise ParseError(f"duplicate key line for {parts[1]}", lineno)
            class_keys[parts[1]] = _split_source(parts[2], lineno)
            used.append((parts[1], lineno))
        elif parts[0] == "table" and len(parts) == 3:
            if parts[1] in class_tables:
                raise ParseError(f"duplicate table line for {parts[1]}", lineno)
            table = unquote(parts[2])
            if table in table_class:
                raise ParseError(f"table {table!r} is already mapped to {table_class[table]}", lineno)
            class_tables[parts[1]] = table
            table_class[table] = parts[1]
            used.append((parts[1], lineno))
        else:
            raise ParseError(f"unrecognized directive {line!r}", lineno)
    if main_class is None:
        raise ParseError("missing main declaration")
    if main_class not in classes:
        raise ParseError(f"main class {main_class} is not declared")
    for name, lineno in used:
        if name not in classes:
            raise ParseError(f"undeclared class {name}", lineno)
    return KGSchema(main_class, classes, edges, attachments, class_keys, class_tables)
