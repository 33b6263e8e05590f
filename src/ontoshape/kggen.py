"""Materialize entity graphs from tables under a schema; read and write N-Triples.

Materialization runs the main table first, then, in name order, every
other table a schema class is mapped to. A plan built once per table lists
what each row yields as (class, key column or none): the anchor, which is
the main class on the main table and the table's class elsewhere; then the
other classes keyed by a column of this table, in name order, the main
class left out; then, on the main table, the unkeyed classes mapped to it.
One rule mints each entry: ``<Class>/<key>`` from the key cell, shared by
every row with that key, or, with no column, ``<Class>/row<i>`` on the
main table and ``<Class>/<table>_row<j>`` elsewhere. So every class a row
yields, other than dummies and the joined main entity, is keyed by a
column of this table or else numbered by the row. Besides the plan:

- on the main table, a dummy ``_:dummy_<Class>_row<i>`` for each class
  with neither key nor table;
- elsewhere, when the table has the main class's key column, the main
  entity with that key (the join). It takes the anchor's place on a table
  mapped to the main class.

The first empty key cell in plan order skips the row with one warning; a
row whose join value matches no main entity keeps its entities
free-standing. Attribute values become literal triples on their owner's
entity, and every schema edge whose two endpoint entities exist for the
row becomes an object triple.

A graph is a set of triples, as RDF defines it, so a literal that several
rows give is stored once; beside the literals the graph keeps the
(table, attribute) pairs that gave any, not which row gave which.

In N-Triples, literals are escaped by one rule, the ``str.translate``
table ``_ESCAPES``; a literal is translated only when it holds one of that
table's characters. A surrogate code point is no character and no UTF-8
file can hold it: the writer rejects a literal that holds one, and the
reader rejects an escape that names one.

Both directions can stream. The writer returns the document, or, given a
text sink, writes the sorted lines to it a few thousand at a time and never
builds the whole document. The reader takes the document or an open text
file 64k characters at a time, cut after their last newline, so it never
holds the lines of the whole text, and never holds an open file whole.
"""

from __future__ import annotations

import logging
import re
import string
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from typing import Protocol, TextIO

from .errors import DatasetError, ParseError, SchemaError
from .mapping import MappingSet
from .reshape import KGSchema, _percent_encode
from .tabular import Dataset

log = logging.getLogger(__name__)

RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
DEFAULT_BASE_IRI = "http://example.org/kg#"


@dataclass
class KnowledgeGraph:
    """Entities plus object and literal triples.

    ``entities`` maps an entity id to its (class, dummy flag).
    ``literals`` holds each distinct (subject, property, value) once, one
    per N-Triples literal line. ``literal_sources`` records the
    (table, attribute) pairs that gave at least one literal, and
    ``key_sources`` those whose values were consumed as entity keys, which
    are represented in entity ids rather than literals. A graph read back
    from a triples file without a schema has neither.
    """

    entities: dict[str, tuple[str, bool]]
    object_triples: set[tuple[str, str, str]]
    literals: set[tuple[str, str, str]]
    key_sources: frozenset[tuple[str, str]] = frozenset()
    literal_sources: frozenset[tuple[str, str]] = frozenset()

    @property
    def literal_triples(self) -> Iterator[tuple[str, str, str, None]]:
        """Each literal as (subject, property, value, None): the 4-field
        form that ``perfbench/pipeline.py`` unpacks. The package reads
        ``literals``."""
        return ((subj, prop, value, None) for subj, prop, value in self.literals)


def mint_entity_id(class_name: str, key: str) -> str:
    """Build the deterministic id ``<Class>/<percent-encoded key>`` of a
    regular entity. Dummies are blank nodes ``_:dummy_<Class>_row<i>``,
    minted by :func:`generate_kg` itself."""
    if not key:
        raise ValueError("entity key material must be nonempty")
    return f"{class_name}/{_percent_encode(key)}"


def _check_schema_sources(s: KGSchema, d: Dataset) -> None:
    """Raise ``DatasetError`` for the first table, key or attachment of ``s``
    missing from ``d``. Each source is looked up in its table's set of
    column names, so the check is linear in the schema's sources."""
    columns = {tname: set(t.attributes) for tname, t in d.tables.items()}
    for cls, tname in s.class_tables.items():
        if tname not in columns:
            raise DatasetError(f"schema maps {cls} to table {tname!r} missing from the dataset")
    sources = [(f"key of {cls}", src) for cls, src in s.class_keys.items()]
    sources += [(f"attachment {prop}", src) for prop, _, src in s.data_attachments]
    for label, (tname, attr) in sources:
        if tname not in columns:
            raise DatasetError(f"{label} names table {tname!r} missing from the dataset")
        if attr not in columns[tname]:
            raise DatasetError(f"{label} names attribute {tname}.{attr} missing from the dataset")


def generate_kg(s: KGSchema, d: Dataset, m: MappingSet, mc: str) -> KnowledgeGraph:
    """Materialize ``d`` under schema ``s`` with ``mc`` as the main class,
    table by table as the module docstring describes. Skipped rows and
    unmatched joins are logged as warnings.
    """
    if mc not in s.classes:
        raise SchemaError(f"main class {mc!r} is not part of the schema")
    _check_schema_sources(s, d)
    main_name = d.main_table

    entities: dict[str, tuple[str, bool]] = {}
    objects: set[tuple[str, str, str]] = set()
    literals: set[tuple[str, str, str]] = set()
    literal_sources: set[tuple[str, str]] = set()
    key_sources: set[tuple[str, str]] = set()
    mc_id_by_key: dict[str, str] = {}

    mc_key = s.class_keys.get(mc)
    if mc_key is not None and mc_key[0] != main_name:
        log.warning("key of %s comes from table %s, not the main table; using row numbers", mc, mc_key[0])
        mc_key = None
    unkeyed = sorted(c for c in s.classes if c != mc and c not in s.class_keys)
    main_dummies = [c for c in unkeyed if c not in s.class_tables]
    attach_list = sorted(s.data_attachments)
    edge_list = sorted(s.edges)
    kinds = {cls: (cls, False) for cls in {*s.classes, *s.class_tables, *s.class_keys}}
    kinds.update((cls, (cls, True)) for cls in main_dummies)
    secondary = {t: cls for cls, t in s.class_tables.items() if t != main_name}

    for tname, anchor in [(main_name, mc), *sorted(secondary.items())]:
        table = d.tables[tname]
        on_main = tname == main_name
        # the plan: (class, key column of this table, or None for the row number)
        keyed = {cls: attr for cls, (ktab, attr) in s.class_keys.items() if ktab == tname}
        plan = [(anchor, keyed.get(anchor))]
        plan += sorted((cls, attr) for cls, attr in keyed.items() if cls not in (anchor, mc))
        if on_main:
            plan += [(cls, None) for cls in unkeyed if s.class_tables.get(cls) == tname]
        key_sources.update((tname, attr) for _, attr in plan if attr is not None)
        dummies = main_dummies if on_main else []
        join = mc_key[1] if mc_key and not on_main and mc_key[1] in table.attributes else None
        present = {cls for cls, _ in plan}.union(dummies)
        if join is not None:
            present.add(mc)
        attaches = [(prop, owner, src[1], src) for prop, owner, src in attach_list
                    if src[0] == tname and owner in present]
        edges = [e for e in edge_list if e[1] in present and e[2] in present]
        prefix = "row" if on_main else f"{tname}_row"

        for j, row in enumerate(table.rows):
            number = f"{prefix}{j}"
            ids = {}
            for cls, attr in plan:
                key = number if attr is None else row[attr]
                if not key:
                    log.warning("%s row %d: empty key %s for %s; row skipped", tname, j, attr, cls)
                    break
                ids[cls] = mint_entity_id(cls, key)
            if len(ids) < len(plan):
                continue
            for cls in dummies:
                ids[cls] = f"_:dummy_{cls}_{number}"
            if join is not None:
                mcid = mc_id_by_key.get(row[join])
                if mcid is None:
                    log.warning(
                        "%s row %d: no main entity matches %s=%r; free-standing entity",
                        tname, j, join, row[join],
                    )
                else:
                    ids[mc] = mcid
                    key_sources.add((tname, join))
            elif on_main and mc_key is not None:
                mc_id_by_key[row[mc_key[1]]] = ids[mc]
            for cls, eid in ids.items():
                if eid not in entities:
                    entities[eid] = kinds[cls]
            for prop, owner, attr, src in attaches:
                sid = ids.get(owner)
                if sid is None:
                    continue
                value = row[attr]
                if value:
                    literals.add((sid, prop, value))
                    literal_sources.add(src)
            for rel, f, t in edges:
                sf = ids.get(f)
                st = ids.get(t)
                if sf is not None and st is not None:
                    objects.add((sf, rel, st))

    return KnowledgeGraph(entities, objects, literals, frozenset(key_sources), frozenset(literal_sources))


# the one escaping rule for literals: N-Triples' short escapes for
# backslash, quote, newline, return and tab, and \uXXXX for every other
# control character and for the characters str.splitlines treats as line
# breaks, which must not appear raw or the file would not survive
# line-oriented reading
_ESCAPES = str.maketrans({
    **{chr(c): f"\\u{c:04X}" for c in [*range(0x20), 0x85, 0x2028, 0x2029]},
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t",
})
# what sends a literal off the plain path: a character of the table, or a
# surrogate, which the writer rejects
_NEEDS_ESCAPE = re.compile(f"[{re.escape(''.join(map(chr, _ESCAPES)))}\ud800-\udfff]")
_SURROGATE = re.compile("[\ud800-\udfff]")
# what N-Triples forbids in an IRI besides "<" and ">": controls, space, "{}|^`
# and the backslash, which would start an escape the writer never writes
_IRI_FORBIDDEN = re.compile(r'[\x00-\x20"{}|^`\\]')


# N-Triples' ECHAR set; \u and \U are decoded separately
_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
# one escape: \u or \U with the characters its code takes, or any other
# character, which must be an ECHAR
_ESCAPE = re.compile(r"\\(u.{0,4}|U.{0,8}|.)", re.DOTALL)


def _unescape_literal(value: str, lineno: int) -> str:
    def one(escape: re.Match) -> str:
        body = escape[1]
        if body[0] in "uU":
            code = body[1:]
            # a surrogate is no character, and no UTF-8 file can hold it
            if (
                len(code) < (4 if body[0] == "u" else 8)
                or not all(c in string.hexdigits for c in code)
                or int(code, 16) > sys.maxunicode
                or 0xD800 <= int(code, 16) <= 0xDFFF
            ):
                raise ParseError(f"bad escape {escape[0]!r} in literal", lineno)
            return chr(int(code, 16))
        if body not in _ECHARS:
            raise ParseError(f"bad escape {escape[0]!r} in literal", lineno)
        return _ECHARS[body]

    return _ESCAPE.sub(one, value)


# lines joined into one string per write to a sink
_CHUNK_LINES = 2048


class TextSink(Protocol):
    """What :func:`serialize_ntriples` writes to: an open text file, a
    ``StringIO`` or anything else with ``write(str)``."""

    def write(self, chunk: str, /) -> object: ...


def serialize_ntriples(
    g: KnowledgeGraph, base_iri: str = DEFAULT_BASE_IRI, out: TextSink | None = None
) -> str | None:
    """Write the graph as N-Triples, one triple per line, lines sorted.

    Entity and property IRIs are the base IRI plus the local name; dummy
    entities keep their blank-node labels. Each entity, object triple and
    literal is one line, and each entity's term is formatted once. The
    output is byte stable for a given graph. A literal holding a surrogate
    code point, which UTF-8 cannot encode, raises ``ValueError`` naming its
    subject and property before anything is returned or written, as does a
    base IRI that N-Triples forbids or that ends in neither ``#`` nor ``/``.

    Without ``out`` the document is returned. With ``out``, the same text
    goes to ``out.write`` in chunks of up to ``_CHUNK_LINES`` whole lines,
    each ending in a newline, and None is returned; the document is never
    built, and an empty graph writes nothing.
    """
    if not base_iri.endswith(("#", "/")):
        raise ValueError("base IRI must end with '#' or '/'")
    if _IRI_FORBIDDEN.search(base_iri) or "<" in base_iri or ">" in base_iri:
        raise ValueError(f"base IRI {base_iri!r} holds a character N-Triples forbids in an IRI")

    def term(local: str) -> str:
        if local.startswith("_:"):
            return local
        return f"<{base_iri}{local}>"

    terms = {eid: term(eid) for eid in g.entities}
    type_pred = f"<{RDF_TYPE_IRI}>"
    lines = [f"{terms[eid]} {type_pred} <{base_iri}{cls}> ." for eid, (cls, _) in g.entities.items()]
    for subj, rel, obj in g.object_triples:
        lines.append(f"{terms.get(subj) or term(subj)} <{base_iri}{rel}> {terms.get(obj) or term(obj)} .")
    needs_escape = _NEEDS_ESCAPE.search
    for subj, prop, value in g.literals:
        if needs_escape(value):
            if _SURROGATE.search(value):
                raise ValueError(
                    f"literal of {subj!r} {prop!r} holds a surrogate code point, which UTF-8 cannot encode"
                )
            value = value.translate(_ESCAPES)
        lines.append(f'{terms.get(subj) or term(subj)} <{base_iri}{prop}> "{value}" .')
    lines.sort()
    if out is None:
        lines.append("")  # the final newline, without copying the joined text again
        return "\n".join(lines)
    for start in range(0, len(lines), _CHUNK_LINES):
        chunk = lines[start:start + _CHUNK_LINES]
        chunk.append("")
        out.write("\n".join(chunk))
    return None


_NT_LINE = re.compile(
    r'\s*(<[^>]*>|_:\S+)\s+(<[^>]*>)\s+(<[^>]*>|_:\S+|"[^"\\]*(?:\\.[^"\\]*)*")\s*\.\s*\Z'
)
_TYPE_TERM = f"<{RDF_TYPE_IRI}>"
# the characters taken from a document, or read from a file, per piece when reading
_READ_CHARS = 1 << 16


def _blocks(source: str | TextIO) -> Iterator[str]:
    """``source`` in pieces of ``_READ_CHARS`` characters, each cut after
    its last newline, the rest carried into the next block. A cut after a
    newline is a ``str.splitlines`` boundary and keeps a CRLF whole. The
    carried parts are joined once, so a source without newlines is copied
    once, not once per piece."""
    if isinstance(source, str):
        pieces = (source[i:i + _READ_CHARS] for i in range(0, len(source), _READ_CHARS))
    else:
        pieces = iter(partial(source.read, _READ_CHARS), "")
    carried: list[str] = []
    for piece in pieces:
        if cut := piece.rfind("\n") + 1:
            yield "".join([*carried, piece[:cut]])
            carried = []
        carried.append(piece[cut:])
    yield "".join(carried)


def load_ntriples(
    source: str | TextIO, base_iri: str = DEFAULT_BASE_IRI, schema: KGSchema | None = None
) -> KnowledgeGraph:
    """Read a graph back from N-Triples written by :func:`serialize_ntriples`.

    ``source`` is the document or a text file open for reading, read in
    ``_blocks`` and split into lines as ``str.splitlines`` splits the whole
    document, whose list of lines is never built.

    Literal provenance is not stored in the triples. With a schema, each
    distinct (property, owner class) among the literals is credited to the
    first of the schema's attachments for it, in sorted order, and
    ``key_sources`` is taken from the schema's key declarations of the
    classes present. Without a schema both source sets stay empty. Raises
    :class:`ParseError` with the line number on a line that is not a
    triple, on an IRI holding a character N-Triples forbids there (a
    control, a space, a backquote, a backslash or one of ``<>"{}|^``), on a
    blank node as a class, or on a literal with an escape N-Triples does
    not define or that names a surrogate.
    """
    # one string per name, one tuple per class and per source, however many lines repeat it
    names: dict[str, str] = {}
    # the IRI terms first named in this block
    fresh: list[str] = []

    def name(term: str) -> str:
        if term[0] == "<":
            fresh.append(term)
        names[term] = got = term if term[0] == "_" else term[1:-1].removeprefix(base_iri)
        return got

    kinds: dict[tuple[str, bool], tuple[str, bool]] = {}
    entities: dict[str, tuple[str, bool]] = {}
    objects: set[tuple[str, str, str]] = set()
    literals: set[tuple[str, str, str]] = set()
    lineno = 0
    for lines in map(str.splitlines, _blocks(source)):
        start = lineno + 1
        try:
            for lineno, raw in enumerate(lines, start):
                match = _NT_LINE.match(raw)
                if match is None:
                    line = raw.strip()
                    if not line:
                        continue
                    raise ParseError(f"not a recognized triple: {line!r}", lineno)
                subj_t, pred_t, obj_t = match.groups()
                subj = names.get(subj_t) or name(subj_t)
                if obj_t[0] == '"':
                    value = obj_t[1:-1]
                    if "\\" in value:
                        value = _unescape_literal(value, lineno)
                    literals.add((subj, names.get(pred_t) or name(pred_t), value))
                elif pred_t == _TYPE_TERM:
                    if obj_t[0] == "_":
                        raise ParseError(f"blank node {obj_t} cannot be a class", lineno)
                    key = (obj_t, subj_t[0] == "_")
                    if key not in kinds:
                        kinds[key] = (names.get(obj_t) or name(obj_t), key[1])
                    entities[subj] = kinds[key]
                else:
                    objects.add((subj, names.get(pred_t) or name(pred_t), names.get(obj_t) or name(obj_t)))
        finally:
            # one search over the block's new IRIs, also before another error in it;
            # no term holds ">", so a "<" past each term's first is a fault
            if _IRI_FORBIDDEN.search(joined := "".join(fresh)) or joined.count("<") != len(fresh):
                bad = next(term for term in fresh if _IRI_FORBIDDEN.search(term) or term.count("<") > 1)
                # the first line holding it as a term named it: each line before named all its terms
                matches = (_NT_LINE.match(raw) for raw in lines)
                line = next(n for n, m in enumerate(matches, start) if m and bad in m.groups())
                raise ParseError(f"IRI {bad!r} holds a character N-Triples forbids", line)
            fresh.clear()

    if schema is None:
        return KnowledgeGraph(entities, objects, literals)
    sources: dict[tuple[str, str], tuple[str, str]] = {}
    for prop, owner, src in sorted(schema.data_attachments):
        sources.setdefault((prop, owner), src)
    no_kind = ("", False)
    owned = {(prop, entities.get(subj, no_kind)[0]) for subj, prop, _ in literals}
    literal_sources = frozenset(sources[key] for key in owned & sources.keys())
    present = {cls for cls, _ in entities.values()}
    key_sources = frozenset(src for cls, src in schema.class_keys.items() if cls in present)
    return KnowledgeGraph(entities, objects, literals, key_sources, literal_sources)
