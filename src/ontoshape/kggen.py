"""Materialize entity graphs from tables under a schema; read and write N-Triples.

Materialization runs the main table first, then, in name order, every
other table a schema class is mapped to. A plan, built once per table, lists
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

A row's entities fill a list of slots whose layout is fixed once per
plan: the entries, then the dummies, then, unless the joined main entity
takes the anchor's slot, one slot for it. Each schema edge and attachment
is resolved to its slots once per plan, so a row finds its entities by
index. A row whose join misses leaves out the edges and attachments of
the join's own slot; on a table mapped to the main class its anchor keeps
the row-numbered main entity. An id names one class, so an entity minted
again keeps its kind and its first place.

``_plans`` is the one definition of the plans, the empty-key rule
included; ``generate_kg`` materializes them and ``metrics.data_coverage``
walks them over the same tables. A graph holds each distinct triple once,
as RDF defines it, so a literal that several rows give is stored once, and
it keeps no record of which table or row gave what. Its triples stay in
the order they were first made, or first read, so that whatever reads them
next walks them in row order; two graphs with the same triples are equal
whatever their order.

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
from typing import NamedTuple, Protocol, TextIO

from .errors import DatasetError, ParseError, SchemaError
from .mapping import MappingSet
from .ontology import _IDENT
from .reshape import KGSchema, _percent_encode
from .tabular import Dataset

log = logging.getLogger(__name__)

RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
DEFAULT_BASE_IRI = "http://example.org/kg#"


@dataclass
class KnowledgeGraph:
    """Entities plus object and literal triples, and nothing else: a
    generated graph and its N-Triples read-back are equal.

    ``entities`` maps an entity id to its (class, dummy flag).
    ``object_triples`` and ``literals`` are ordered sets, dicts whose
    values are all None: each distinct (subject, relation, object) or
    (subject, property, value) is a key once, in the order it was first
    made or read, and a literal is one N-Triples literal line. Equality
    ignores that order, as dict equality does. Which table or row gave what
    is not kept; ``metrics.data_coverage`` derives it from the schema and
    the tables.
    """

    entities: dict[str, tuple[str, bool]]
    object_triples: dict[tuple[str, str, str], None]
    literals: dict[tuple[str, str, str], None]

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


class _Plan(NamedTuple):
    """One table's plan: (class, key column or None) ``entries`` in plan order, the
    classes ``present`` in its rows, and the (property, owner, column) ``attaches``."""

    name: str
    rows: list[dict[str, str]]
    entries: list[tuple[str, str | None]]
    dummies: list[str]
    join: str | None
    present: set[str]
    attaches: list[tuple[str, str, str]]

    def kept_rows(self, warn: bool = False) -> Iterator[tuple[int, dict[str, str]]]:
        """(j, row) of every row whose plan keys are all nonempty; the first
        empty key in plan order skips the row, with a warning if ``warn``."""
        keyed = [(cls, attr) for cls, attr in self.entries if attr is not None]
        attrs = [attr for _, attr in keyed]
        for j, row in enumerate(self.rows):
            if all(map(row.__getitem__, attrs)):
                yield j, row
            elif warn:
                cls, attr = next((cls, attr) for cls, attr in keyed if not row[attr])
                log.warning("%s row %d: empty key %s for %s; row skipped", self.name, j, attr, cls)


def _plans(s: KGSchema, d: Dataset, mc: str) -> list[_Plan]:
    """The plan of each table materialization reads, the main table's first,
    with main class ``mc``; logs nothing. Raises ``SchemaError`` if ``mc`` is
    no schema class, ``DatasetError`` for the first source missing from ``d``."""
    if mc not in s.classes:
        raise SchemaError(f"main class {mc!r} is not part of the schema")
    columns = {tname: set(t.attributes) for tname, t in d.tables.items()}
    for cls, tname in s.class_tables.items():
        if tname not in columns:
            raise DatasetError(f"schema maps {cls} to table {tname!r} missing from the dataset")
    sources = [("key of", cls, src) for cls, src in s.class_keys.items()]
    sources += [("attachment", prop, src) for prop, _, src in s.data_attachments]
    for kind, name, (tname, attr) in sources:
        if tname not in columns:
            raise DatasetError(f"{kind} {name} names table {tname!r} missing from the dataset")
        if attr not in columns[tname]:
            raise DatasetError(f"{kind} {name} names attribute {tname}.{attr} missing from the dataset")

    main_name = d.main_table
    # the main class's key column; a key on another table leaves it row-numbered
    mc_table, mc_key = s.class_keys.get(mc, (main_name, None))
    mc_key = mc_key if mc_table == main_name else None
    unkeyed = s.classes - s.class_keys.keys() - {mc}
    main_dummies = sorted(unkeyed - s.class_tables.keys())
    secondary = {t: cls for cls, t in s.class_tables.items() if t != main_name}
    plans = []
    for tname, anchor in [(main_name, mc), *sorted(secondary.items())]:
        table = d.tables[tname]
        on_main = tname == main_name
        keyed = {cls: attr for cls, (ktab, attr) in s.class_keys.items() if ktab == tname}
        entries = [(anchor, keyed.get(anchor))]
        entries += sorted((cls, attr) for cls, attr in keyed.items() if cls not in (anchor, mc))
        if on_main:
            entries += sorted((cls, None) for cls, t in s.class_tables.items()
                              if t == tname and cls in unkeyed)
        dummies = main_dummies if on_main else []
        join = mc_key if mc_key and not on_main and mc_key in table.attributes else None
        present = {cls for cls, _ in entries}.union(dummies, [mc] if join else [])
        # attachment order is free: it orders only a row's literals, which the
        # writer sorts and graph equality ignores
        attaches = [(prop, owner, src[1]) for prop, owner, src in s.data_attachments
                    if src[0] == tname and owner in present]
        plans.append(_Plan(tname, table.rows, entries, dummies, join, present, attaches))
    return plans


def generate_kg(s: KGSchema, d: Dataset, m: MappingSet, mc: str) -> KnowledgeGraph:
    """Materialize ``d`` under schema ``s`` with ``mc`` as the main class,
    table by table as the module docstring describes. Skipped rows and
    unmatched joins are logged as warnings.
    """
    plans = _plans(s, d, mc)
    main_key = plans[0].entries[0][1]  # None when rows number the main class
    if mc in s.class_keys and main_key is None:
        log.warning("key of %s comes from table %s, not the main table; using row numbers",
                    mc, s.class_keys[mc][0])

    entities: dict[str, tuple[str, bool]] = {}
    objects: dict[tuple[str, str, str], None] = {}
    literals: dict[tuple[str, str, str], None] = {}
    mc_id_by_key: dict[str, str] = {}

    for p in plans:
        on_main = p is plans[0]
        prefix = "row" if on_main else f"{p.name}_row"
        # a row's slots: the entries, the dummies, then the joined main entity,
        # unless it takes the anchor's slot on a table mapped to the main class
        slot = {cls: i for i, (cls, _) in enumerate(p.entries)}
        slot.update((cls, len(slot)) for cls in p.dummies)
        kinds = [(cls, False) for cls, _ in p.entries] + [(cls, True) for cls in p.dummies]
        heads = [f"_:dummy_{cls}_" for cls in p.dummies]
        own_slot = p.join is not None and p.entries[0][0] != mc
        if p.join is not None:
            slot.setdefault(mc, len(slot))
        edges = [(rel, slot[f], slot[t]) for rel, f, t in s.edges if f in p.present and t in p.present]
        attaches = [(prop, slot[owner], attr) for prop, owner, attr in p.attaches]
        # a row whose join misses leaves out what reads the join's own slot
        missed = len(kinds)
        missed_edges = [e for e in edges if e[1] != missed and e[2] != missed] if own_slot else edges
        missed_attaches = [a for a in attaches if a[1] != missed] if own_slot else attaches
        for j, row in p.kept_rows(warn=True):
            number = f"{prefix}{j}"
            ids = [mint_entity_id(cls, number if attr is None else row[attr]) for cls, attr in p.entries]
            ids += [head + number for head in heads]
            row_edges, row_attaches = edges, attaches
            if p.join is not None:
                mcid = mc_id_by_key.get(row[p.join])
                if mcid is None:
                    log.warning("%s row %d: no main entity matches %s=%r; free-standing entity",
                                p.name, j, p.join, row[p.join])
                    row_edges, row_attaches = missed_edges, missed_attaches
                elif own_slot:
                    ids.append(mcid)
                else:
                    ids[0] = mcid
            elif main_key is not None and on_main:
                mc_id_by_key[row[main_key]] = ids[0]
            # an id names one class, so writing one again keeps its kind and its place
            entities.update(zip(ids, kinds))
            for prop, i, attr in row_attaches:
                if value := row[attr]:
                    literals[ids[i], prop, value] = None
            for rel, f, t in row_edges:
                objects[ids[f], rel, ids[t]] = None

    return KnowledgeGraph(entities, objects, literals)


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
# what N-Triples forbids in an IRI: controls, space, <>"{}|^` and the
# backslash, which would start an escape the writer never writes
_IRI_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')


def _check_base_iri(base_iri: str) -> None:
    """Raise ``ValueError`` unless ``base_iri`` ends in ``#`` or ``/`` and
    holds no character N-Triples forbids in an IRI: the one rule for the
    writer and the reader."""
    if not base_iri.endswith(("#", "/")):
        raise ValueError(f"base IRI {base_iri!r} must end with '#' or '/'")
    if _IRI_FORBIDDEN.search(base_iri):
        raise ValueError(f"base IRI {base_iri!r} holds a character N-Triples forbids in an IRI")


# N-Triples' ECHAR set; \u and \U are decoded separately
_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
# one escape: \u or \U with the characters its code takes, or any other
# character, which must be an ECHAR
_ESCAPE = re.compile(r"\\(u.{0,4}|U.{0,8}|.)", re.DOTALL)


class _Fault(Exception):
    """A read fault, with its message only; ``load_ntriples`` adds the line."""


def _unescape_literal(value: str) -> str:
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
                raise _Fault(f"bad escape {escape[0]!r} in literal")
            return chr(int(code, 16))
        if body not in _ECHARS:
            raise _Fault(f"bad escape {escape[0]!r} in literal")
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
    _check_base_iri(base_iri)

    def term(local: str) -> str:
        return local if local.startswith("_:") else f"<{base_iri}{local}>"

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


# BLANK_NODE_LABEL; the lookbehind gives back a last dot without retrying every length
_PN_CHARS_U = (
    "A-Za-z_:\u00c0-\u00d6\u00d8-\u00f6\u00f8-\u02ff\u0370-\u037d\u037f-\u1fff\u200c\u200d"
    "\u2070-\u218f\u2c00-\u2fef\u3001-\ud7ff\uf900-\ufdcf\ufdf0-\ufffd\U00010000-\U000effff"
)
_PN_CHARS = _PN_CHARS_U + "0-9\\-\u00b7\u0300-\u036f\u203f\u2040"
_BLANK = f"_:[{_PN_CHARS_U}0-9][{_PN_CHARS}.]*(?<!\\.)"
# one triple line; compiled on the first read, not at import, whose classes
# take milliseconds, and kept after it by ``re.compile``'s own cache
_NT_LINE = rf'\s*(<[^>]*>|{_BLANK})\s+(<[^>]*>)\s+(<[^>]*>|{_BLANK}|"[^"\\]*(?:\\.[^"\\]*)*")\s*\.\s*\Z'
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

    Entities and triples keep the order of their first line. The graph
    read back equals the one written; ``schema`` is ignored, and
    kept for ``perfbench/pipeline.py``, which passes it. Raises
    :class:`ParseError` with the line number on a line that is not a
    triple (a blank-node label N-Triples' ``BLANK_NODE_LABEL`` does not
    match makes none), on an IRI holding a character N-Triples forbids
    there (a control, a space, a backquote, a backslash or one of
    ``<>"{}|^``), on an IRI that does not start with ``base_iri`` (the
    ``rdf:type`` predicate of a class line is not a name, so it is exempt),
    on a blank node as a class or a class whose name is no identifier (the
    sign of a base IRI cut short, such as ``http://a.org/`` for a file
    written with ``http://a.org/x#``), or on a literal with an escape
    N-Triples does not define or that names a surrogate. Each IRI is
    checked where a line first names it, so the first fault in line and
    naming order is the one raised, whatever the size of the blocks: on a
    line, the subject's IRI, then the literal's escapes, then the
    predicate's IRI, then the object's. A ``base_iri`` the writer would
    reject raises ``ValueError`` before anything is read.
    """
    _check_base_iri(base_iri)
    head, forbidden = "<" + base_iri, _IRI_FORBIDDEN.search
    # one string per name and one tuple per class, however many lines repeat it
    names: dict[str, str] = {}

    def name(term: str) -> str:
        """The local name of a term first met, once its IRI passes both checks."""
        if term[0] == "_":
            got = term
        # the base passed _check_base_iri, so only the local name needs the search
        elif term.startswith(head) and not forbidden(term, len(head), len(term) - 1):
            got = term[len(head):-1]
        elif forbidden(term, 1, len(term) - 1):
            raise _Fault(f"IRI {term!r} holds a character N-Triples forbids")
        else:
            raise _Fault(f"IRI {term!r} does not start with the base IRI {base_iri!r}")
        names[term] = got
        return got

    kinds: dict[tuple[str, bool], tuple[str, bool]] = {}
    entities: dict[str, tuple[str, bool]] = {}
    objects: dict[tuple[str, str, str], None] = {}
    literals: dict[tuple[str, str, str], None] = {}
    match_line = re.compile(_NT_LINE).match
    lineno = 0
    try:
        for lines in map(str.splitlines, _blocks(source)):
            for lineno, raw in enumerate(lines, lineno + 1):
                match = match_line(raw)
                if match is None:
                    line = raw.strip()
                    if not line:
                        continue
                    raise _Fault(f"not a recognized triple: {line!r}")
                subj_t, pred_t, obj_t = match.groups()
                subj = names.get(subj_t) or name(subj_t)
                if obj_t[0] == '"':
                    value = obj_t[1:-1]
                    if "\\" in value:
                        value = _unescape_literal(value)
                    literals[subj, names.get(pred_t) or name(pred_t), value] = None
                elif pred_t == _TYPE_TERM:
                    if obj_t[0] == "_":
                        raise _Fault(f"blank node {obj_t} cannot be a class")
                    key = (obj_t, subj_t[0] == "_")
                    if key not in kinds:
                        cls = names.get(obj_t) or name(obj_t)
                        if not _IDENT.match(cls):
                            raise _Fault(f"class {obj_t} is not the base IRI {base_iri!r} plus an identifier")
                        kinds[key] = (cls, key[1])
                    entities[subj] = kinds[key]
                else:
                    objects[subj, names.get(pred_t) or name(pred_t), names.get(obj_t) or name(obj_t)] = None
    except _Fault as fault:
        raise ParseError(str(fault), lineno) from None

    return KnowledgeGraph(entities, objects, literals)
