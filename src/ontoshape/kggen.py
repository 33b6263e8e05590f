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
builds the whole document. The reader takes the document or any iterable
of lines, such as an open text file, and splits either one block at a
time: about 64k characters of the document, cut after a newline, or a few
hundred lines of the file. So it never holds the lines of the whole text,
and an open file is never held whole.
"""

from __future__ import annotations

import logging
import re
import string
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, islice
from typing import Protocol
from urllib.parse import quote

from .errors import DatasetError, ParseError, SchemaError
from .mapping import MappingSet
from .reshape import KGSchema
from .tabular import Dataset

log = logging.getLogger(__name__)

RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
DEFAULT_BASE_IRI = "http://example.org/kg#"

_PLAIN_KEY = re.compile(r"[A-Za-z0-9_.\-~]+\Z")


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
    if _PLAIN_KEY.match(key):
        return f"{class_name}/{key}"
    return f"{class_name}/{quote(key, safe='')}"


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
    subject and property before anything is returned or written.

    Without ``out`` the document is returned. With ``out``, the same text
    goes to ``out.write`` in chunks of up to ``_CHUNK_LINES`` whole lines,
    each ending in a newline, and None is returned; the document is never
    built, and an empty graph writes nothing.
    """
    if not base_iri.endswith(("#", "/")):
        raise ValueError("base IRI must end with '#' or '/'")

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
# file lines joined into one string per split when reading: a few thousand
# split no faster, and blocks of a few hundred kB left the process's peak
# RSS about 1 MB higher after reading a 5.6 MB file
_READ_LINES = 256
# the least number of characters of a document split at once when reading
_READ_CHARS = 1 << 16


def _text_blocks(text: str) -> Iterator[str]:
    """``text`` cut after the first newline at least ``_READ_CHARS``
    characters into each block; a text with no newline there is one block.
    A cut after a newline is a line boundary for ``str.splitlines``, and
    keeps a CRLF whole."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _READ_CHARS - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _file_blocks(source: Iterable[str]) -> Iterator[str]:
    """Blocks of ``_READ_LINES`` lines of ``source``, joined. ``source``
    must yield whole lines that keep their line ends, as a text file does,
    so that no break is cut in two."""
    source = iter(source)
    while block := "".join(islice(source, _READ_LINES)):
        yield block


def load_ntriples(
    source: str | Iterable[str], base_iri: str = DEFAULT_BASE_IRI, schema: KGSchema | None = None
) -> KnowledgeGraph:
    """Read a graph back from N-Triples written by :func:`serialize_ntriples`.

    ``source`` is the document or an iterable of its lines that keep their
    line ends, such as a text file open for reading. Either way it is split
    into lines as ``str.splitlines`` splits the document, so the graph and
    the line numbers are the same, one block at a time: the document is cut
    after the first newline at least ``_READ_CHARS`` characters into each
    block, or read whole when it has no newline there, and a file is read
    ``_READ_LINES`` lines at a time. No list of the document's lines is
    built.

    Literal provenance is not stored in the triples. With a schema, each
    distinct (property, owner class) among the literals is credited to the
    first of the schema's attachments for it, in sorted order, and
    ``key_sources`` is taken from the schema's key declarations of the
    classes present. Without a schema both source sets stay empty. Raises
    :class:`ParseError` with the line number on a line that is not a
    triple, on a blank node as a class, or on a literal with an escape
    N-Triples does not define or that names a surrogate.
    """
    blocks = _text_blocks(source) if isinstance(source, str) else _file_blocks(source)
    lines = chain.from_iterable(map(str.splitlines, blocks))

    def local(iri: str) -> str:
        return iri[len(base_iri):] if iri.startswith(base_iri) else iri

    # one string per name, one tuple per class and per source, however many lines repeat it
    names: dict[str, str] = {}

    def name(term: str) -> str:
        names[term] = got = term if term[0] == "_" else local(term[1:-1])
        return got

    kinds: dict[tuple[str, bool], tuple[str, bool]] = {}
    entities: dict[str, tuple[str, bool]] = {}
    objects: set[tuple[str, str, str]] = set()
    literals: set[tuple[str, str, str]] = set()
    for lineno, raw in enumerate(lines, start=1):
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
