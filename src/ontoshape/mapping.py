"""Correspondences between tables/attributes and classes, plus user guidance.

Two small input documents live here. The mapping CSV declares which class a
table or an attribute corresponds to:

    kind,table,attribute,class
    table,welding_operation,,WeldingOperation
    attribute,welding_operation,current_mean,CurrentMeanValue

The user-info JSON carries what only a person can know: the main class the
data revolves around, optional entity identification rules, optional
connection rules, and the prefix used when relation names have to be made
up.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .errors import ParseError
from .ontology import _IDENT, _NAME
from .tabular import _csv_records

MAPPING_HEADER = ["kind", "table", "attribute", "class"]


@dataclass
class MappingSet:
    table_map: dict[str, str]
    attribute_map: dict[tuple[str, str], str]


def parse_mappings(text: str) -> MappingSet:
    """Parse the mapping CSV. Malformed quoting, duplicate keys, class
    cells that are empty or not identifiers, and unknown kinds are rejected
    with the line the offending record starts on, which is later than its
    row number once a quoted cell spans lines."""
    records = _csv_records(io.StringIO(text), lambda msg, _, line: ParseError(msg, line))
    _, _, header = next(records, (1, 1, None))
    if header != MAPPING_HEADER:
        raise ParseError(f"mapping header must be {','.join(MAPPING_HEADER)}", 1)
    table_map: dict[str, str] = {}
    attribute_map: dict[tuple[str, str], str] = {}
    for _, lineno, record in records:
        if not record:
            continue
        if len(record) != 4:
            raise ParseError(f"expected 4 cells, got {len(record)}", lineno)
        kind, table, attribute, cls = (c.strip() for c in record)
        if not cls:
            raise ParseError("empty class cell", lineno)
        if not _IDENT.match(cls):
            raise ParseError(f"class {cls!r} is not an identifier ({_NAME})", lineno)
        if kind == "table":
            if attribute:
                raise ParseError("table mapping must leave the attribute cell empty", lineno)
            if table in table_map:
                raise ParseError(f"duplicate table mapping for {table!r}", lineno)
            table_map[table] = cls
        elif kind == "attribute":
            if not attribute:
                raise ParseError("attribute mapping needs an attribute name", lineno)
            key = (table, attribute)
            if key in attribute_map:
                raise ParseError(f"duplicate attribute mapping for {table}.{attribute}", lineno)
            attribute_map[key] = cls
        else:
            raise ParseError(f"unknown kind {kind!r}", lineno)
    return MappingSet(table_map, attribute_map)


def serialize_mappings(m: MappingSet) -> str:
    """Render a mapping set back to CSV, rows sorted for determinism."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MAPPING_HEADER)
    for table in sorted(m.table_map):
        writer.writerow(["table", table, "", m.table_map[table]])
    for table, attribute in sorted(m.attribute_map):
        writer.writerow(["attribute", table, attribute, m.attribute_map[(table, attribute)]])
    return buf.getvalue()


@dataclass(frozen=True)
class EntityRule:
    """Marks an attribute class as the identifier of an entity class."""

    attribute_class: str
    entity_class: str
    relation: str


@dataclass(frozen=True)
class ConnectionRule:
    """Names the relation to use between two schema classes."""

    from_class: str
    to_class: str
    relation: str


@dataclass
class UserInfo:
    main_class: str
    entity_rules: tuple[EntityRule, ...] = ()
    connection_rules: tuple[ConnectionRule, ...] = ()
    fallback_relation_prefix: str = "has"


def parse_userinfo(text: str) -> UserInfo:
    """Parse the user-info JSON document. ``main_class`` is mandatory."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("user info must be a JSON object")
    main_class = doc.get("main_class")
    if not isinstance(main_class, str) or not main_class:
        raise ParseError("main_class required")
    entity_rules = _rules(doc, "entity_rules", ("attribute_class", "entity_class", "relation"), EntityRule)
    first: dict[str, int] = {}
    for i, rule in enumerate(entity_rules):
        _check_name(rule.entity_class, f"entity_rules[{i}] entity_class")
        _check_name(rule.relation, f"entity_rules[{i}] relation")
        j = first.setdefault(rule.attribute_class, i)
        if j != i:
            raise ParseError(
                f"entity_rules[{i}] repeats attribute_class {rule.attribute_class!r} of entity_rules[{j}]"
            )
    connection_rules = _rules(doc, "connection_rules", ("from", "to", "relation"), ConnectionRule)
    for i, rule in enumerate(connection_rules):
        _check_name(rule.relation, f"connection_rules[{i}] relation")
    prefix = doc.get("fallback_relation_prefix", "has")
    if not isinstance(prefix, str):
        raise ParseError("fallback_relation_prefix must be a string")
    _check_name(prefix, "fallback_relation_prefix")
    return UserInfo(main_class, entity_rules, connection_rules, prefix)


def _check_name(value: str, field: str) -> None:
    """Reject a name that would not survive a schema file: it must be an
    identifier under the ontology format's rule."""
    if not _IDENT.match(value):
        raise ParseError(f"{field} {value!r} is not an identifier ({_NAME})")


def _rules(doc: dict, key: str, fields: tuple[str, str, str], rule_type: type) -> tuple:
    """The rules listed under ``key``: one ``rule_type`` per entry, built from
    the entry's ``fields``, each of which must be a nonempty string."""
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise ParseError(f"{key} must be a list")
    rules = []
    for i, entry in enumerate(raw):
        values = [entry.get(f) for f in fields] if isinstance(entry, dict) else [None]
        if not all(isinstance(v, str) and v for v in values):
            raise ParseError(f"{key}[{i}] needs {fields[0]}, {fields[1]} and {fields[2]} as nonempty strings")
        rules.append(rule_type(*values))
    return tuple(rules)


def serialize_userinfo(u: UserInfo) -> str:
    doc: dict = {"main_class": u.main_class}
    if u.entity_rules:
        doc["entity_rules"] = [
            {
                "attribute_class": r.attribute_class,
                "entity_class": r.entity_class,
                "relation": r.relation,
            }
            for r in u.entity_rules
        ]
    if u.connection_rules:
        doc["connection_rules"] = [
            {"from": r.from_class, "to": r.to_class, "relation": r.relation}
            for r in u.connection_rules
        ]
    if u.fallback_relation_prefix != "has":
        doc["fallback_relation_prefix"] = u.fallback_relation_prefix
    return json.dumps(doc, indent=2) + "\n"
