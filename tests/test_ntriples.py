"""N-Triples writer and reader against straightforward reference copies.

``_reference_serialize`` and ``_reference_load`` are the plain versions of
``serialize_ntriples`` and ``load_ntriples``: a per-character escaper, a
set of every line then ``sorted``, and a reader that strips the base IRI
from every term it meets and rejects a term without it. The package's
versions format each entity once, escape through one translate table only
the literals that need it, and keep one string per local name; on every
graph here they must write the same bytes and read back an equal graph,
with its entities and triples in the same order, the order of their first
lines, and the same ``ParseError`` line. A graph equals one with the same
entities and triples in any other order.

The reader is given a schema in some tests and none in others: it reads
the same graph either way, the reference's.

The streaming forms are checked against the plain ones: what the writer
sends to a sink joins to the returned document, and the reader gives the
same graph or the same error from an open file as from the file's text.

Drawn literals may hold a lone surrogate, which no UTF-8 document can; a
test that serializes a drawn graph expects the writer to reject it.
"""

from __future__ import annotations

import re
import string
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_golden import CASES

from ontoshape import kggen
from ontoshape.errors import ParseError
from ontoshape.kggen import (
    _CHUNK_LINES,
    _ESCAPES,
    _NEEDS_ESCAPE,
    DEFAULT_BASE_IRI,
    RDF_TYPE_IRI,
    KnowledgeGraph,
    generate_kg,
    load_ntriples,
    mint_entity_id,
    serialize_ntriples,
)
from ontoshape.reshape import KGSchema

_REF_NEEDS_U_ESCAPE = set("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def _reference_escape(value: str) -> str:
    out = []
    for ch in value:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ch in _REF_NEEDS_U_ESCAPE or ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def _reference_serialize(g: KnowledgeGraph, base_iri: str = DEFAULT_BASE_IRI) -> str:
    def term(local: str) -> str:
        if local.startswith("_:"):
            return local
        return f"<{base_iri}{local}>"

    type_pred = f"<{RDF_TYPE_IRI}>"
    lines = set()
    for eid, (cls, _) in g.entities.items():
        lines.add(f"{term(eid)} {type_pred} <{base_iri}{cls}> .")
    for subj, rel, obj in g.object_triples:
        lines.add(f"{term(subj)} <{base_iri}{rel}> {term(obj)} .")
    for subj, prop, value, _ in g.literal_triples:
        lines.add(f'{term(subj)} <{base_iri}{prop}> "{_reference_escape(value)}" .')
    return "".join(line + "\n" for line in sorted(lines))


_REF_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def _reference_unescape(value: str, lineno: int) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt in "uU":
                end = i + (6 if nxt == "u" else 10)
                escape = value[i:end]
                if (
                    end > len(value)
                    or not all(c in string.hexdigits for c in escape[2:])
                    or int(escape[2:], 16) > sys.maxunicode
                ):
                    raise ParseError(f"bad escape {escape!r} in literal", lineno)
                out.append(chr(int(escape[2:], 16)))
                i = end
                continue
            if nxt not in _REF_ECHARS:
                raise ParseError(f"bad escape {value[i:i + 2]!r} in literal", lineno)
            out.append(_REF_ECHARS[nxt])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


_REF_NT_LINE = re.compile(
    r"(<[^>]*>|_:\S+)\s+<([^>]*)>\s+(<[^>]*>|_:\S+|\"(?:[^\"\\]|\\.)*\")\s*\.\s*\Z"
)

# N-Triples' PN_CHARS_BASE as code point ranges, and what PN_CHARS adds to
# PN_CHARS_BASE besides "_" and ":"
_REF_PN_BASE = [(0x41, 0x5A), (0x61, 0x7A), (0xC0, 0xD6), (0xD8, 0xF6), (0xF8, 0x2FF), (0x370, 0x37D),
                (0x37F, 0x1FFF), (0x200C, 0x200D), (0x2070, 0x218F), (0x2C00, 0x2FEF), (0x3001, 0xD7FF),
                (0xF900, 0xFDCF), (0xFDF0, 0xFFFD), (0x10000, 0xEFFFF)]
_REF_PN_MORE = [(0x2D, 0x2D), (0x30, 0x39), (0xB7, 0xB7), (0x300, 0x36F), (0x203F, 0x2040)]


def _ref_in(ranges, ch: str) -> bool:
    return any(lo <= ord(ch) <= hi for lo, hi in ranges)


def _ref_blank_label_ok(term: str) -> bool:
    """Whether ``term`` is ``_:`` and a BLANK_NODE_LABEL: a PN_CHARS_U
    (PN_CHARS_BASE, "_" or ":") or digit first, PN_CHARS or "." after it,
    and no "." last."""
    label = term[2:]
    if not label or label[-1] == ".":
        return False

    def pn_chars_u(ch: str) -> bool:
        return ch in "_:" or _ref_in(_REF_PN_BASE, ch)

    first, rest = label[0], label[1:]
    return (pn_chars_u(first) or first.isascii() and first.isdigit()) and all(
        ch == "." or pn_chars_u(ch) or _ref_in(_REF_PN_MORE, ch) for ch in rest
    )


# what N-Triples' IRIREF forbids: #x00-#x20 and <>"{}|^`\ (no UCHAR is written)
_REF_IRI_FORBIDDEN = {chr(c) for c in range(0x21)} | set('<>"{}|^`\\')


_REF_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _reference_load(text: str, base_iri: str = DEFAULT_BASE_IRI) -> KnowledgeGraph:
    if not base_iri.endswith(("#", "/")):
        raise ValueError(f"base IRI {base_iri!r} must end with '#' or '/'")
    if _REF_IRI_FORBIDDEN.intersection(base_iri):
        raise ValueError(f"base IRI {base_iri!r} holds a character N-Triples forbids in an IRI")

    def local(iri: str) -> str:
        name = iri[1:-1]
        if _REF_IRI_FORBIDDEN.intersection(name):
            raise ParseError(f"IRI {iri!r} holds a character N-Triples forbids", lineno)
        if not name.startswith(base_iri):
            raise ParseError(f"IRI {iri!r} does not start with the base IRI {base_iri!r}", lineno)
        return name[len(base_iri):]

    entities: dict[str, tuple[str, bool]] = {}
    objects: dict[tuple[str, str, str], None] = {}
    literals: dict[tuple[str, str, str], None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        match = _REF_NT_LINE.match(line)
        blanks = [term for term in match.groups() if term.startswith("_:")] if match else []
        if match is None or not all(map(_ref_blank_label_ok, blanks)):
            raise ParseError(f"not a recognized triple: {line!r}", lineno)
        subj_t, pred_iri, obj_t = match.groups()
        subj = subj_t if subj_t.startswith("_:") else local(subj_t)
        if obj_t.startswith('"'):
            value = _reference_unescape(obj_t[1:-1], lineno)
            literals[subj, local(f"<{pred_iri}>"), value] = None
        elif pred_iri == RDF_TYPE_IRI:
            if obj_t.startswith("_:"):
                raise ParseError(f"blank node {obj_t} cannot be a class", lineno)
            cls = local(obj_t)
            if not _REF_IDENT.match(cls):
                raise ParseError(f"class {obj_t} is not the base IRI {base_iri!r} plus an identifier", lineno)
            entities[subj] = (cls, subj.startswith("_:"))
        else:
            pred = local(f"<{pred_iri}>")
            objects[subj, pred, obj_t if obj_t.startswith("_:") else local(obj_t)] = None
    return KnowledgeGraph(entities, objects, literals)


_CLASSES = st.sampled_from(["A", "B", "Main"])
_NAMES = st.sampled_from(["p", "q", "hasValue000", "rel_1"])
# characters that need a \u escape or a short one, and some that need none
_SPECIALS = ["\x85", "\u2028", "\u2029", "\x00", "\x0b", "\x0c", "\x1c", "\x1f", "\x7f",
             "\n", "\r", "\t", "\\", '"', "'", " "]
_VALUES = st.text() | st.text(st.characters() | st.sampled_from(_SPECIALS))
# endpoints no entity line declares
_MISSING = ["Gone/x", "A/not%20declared", "_:dummy_Gone_row1", "_:dummy_Gone_row10"]
_BASES = st.sampled_from([DEFAULT_BASE_IRI, "http://example.org/other/"])
_SCHEMA = KGSchema(
    "Main",
    {"A", "B", "Main"},
    set(),
    {("p", "A", ("t", "a")), ("p", "B", ("t", "b")), ("q", "Main", ("t", "c"))},
    {"A": ("t", "key"), "B": ("u", "key")},
)


@st.composite
def _graphs(draw) -> KnowledgeGraph:
    entities: dict[str, tuple[str, bool]] = {}
    for cls, key in draw(st.lists(st.tuples(_CLASSES, st.text(min_size=1)), max_size=8)):
        entities[mint_entity_id(cls, key)] = (cls, False)
    # row numbers whose blank-node labels are prefixes of each other
    for cls, row in draw(st.lists(st.tuples(_CLASSES, st.sampled_from([1, 10, 100, 2, 21])), max_size=6)):
        entities[f"_:dummy_{cls}_row{row}"] = (cls, True)
    ends = [*entities, *draw(st.lists(st.sampled_from(_MISSING), max_size=2))]
    if not ends:
        return KnowledgeGraph(entities, {}, {})
    end = st.sampled_from(ends)
    objects = draw(st.lists(st.tuples(end, _NAMES, end), max_size=12, unique=True))
    literals = draw(st.lists(st.tuples(end, _NAMES, _VALUES), max_size=10, unique=True))
    return KnowledgeGraph(entities, dict.fromkeys(objects), dict.fromkeys(literals))


def _holds_surrogate(value: str) -> bool:
    return any(0xD800 <= ord(c) <= 0xDFFF for c in value)


def _document(g: KnowledgeGraph, base: str = DEFAULT_BASE_IRI) -> str | None:
    """The document of ``g``, or None once the writer has rejected a
    literal of ``g`` that holds a surrogate, naming its subject and
    property."""
    bad = {(subj, prop) for subj, prop, value in g.literals if _holds_surrogate(value)}
    if not bad:
        return serialize_ntriples(g, base)
    with pytest.raises(ValueError, match="holds a surrogate code point") as info:
        serialize_ntriples(g, base)
    assert any(f"literal of {subj!r} {prop!r} " in str(info.value) for subj, prop in bad)
    return None


@settings(max_examples=300, deadline=None)
@given(g=_graphs(), base=_BASES)
@example(g=KnowledgeGraph({}, {}, {}), base=DEFAULT_BASE_IRI)
def test_serializer_matches_reference(g, base):
    document = _document(g, base)
    if document is not None:
        assert document == _reference_serialize(g, base)


def test_serializer_escapes_line_breaks_and_controls():
    g = KnowledgeGraph({}, {}, {("C/x", "p", "\x85\u2028\u2029\x00\x1f\x7f\t\"\\"): None})
    line = (
        '<http://example.org/kg#C/x> <http://example.org/kg#p> '
        '"\\u0085\\u2028\\u2029\\u0000\\u001F\x7f\\t\\"\\\\" .\n'
    )
    assert serialize_ntriples(g) == line == _reference_serialize(g)
    assert len(serialize_ntriples(g).splitlines()) == 1


def test_escape_class_matches_the_translate_table():
    chars = map(chr, [*range(0xD800), *range(0xE000, sys.maxunicode + 1)])
    wrong = [c for c in chars if bool(_NEEDS_ESCAPE.search(c)) != (c.translate(_ESCAPES) != c)]
    assert wrong == []


def _assert_same_read(text: str, base: str, schema: KGSchema | None) -> None:
    try:
        want = _reference_load(text, base)
    except (ParseError, ValueError) as err:
        with pytest.raises(type(err)) as info:
            load_ntriples(text, base, schema)
        assert (getattr(info.value, "line", None), str(info.value)) == (getattr(err, "line", None), str(err))
        return
    got = load_ntriples(text, base, schema)
    assert got == want
    assert list(got.entities) == list(want.entities)
    assert list(got.object_triples) == list(want.object_triples)
    assert list(got.literals) == list(want.literals)


@settings(max_examples=200, deadline=None)
@given(g=_graphs(), base=_BASES, schema=st.sampled_from([None, _SCHEMA]))
def test_loader_matches_reference(g, base, schema):
    text = _document(g, base)
    if text is None:
        return
    _assert_same_read(text, base, schema)
    back = load_ntriples(text, base, schema)
    assert back.entities == g.entities
    assert back.object_triples == g.object_triples
    assert back.literals == g.literals


def test_loader_keeps_document_order():
    lines = [
        '<http://example.org/kg#B/2> <http://example.org/kg#p> "z" .',
        "<http://example.org/kg#B/2> <http://example.org/kg#rel> <http://example.org/kg#A/1> .",
        '<http://example.org/kg#A/1> <http://example.org/kg#p> "a" .',
        "<http://example.org/kg#A/1> <http://example.org/kg#rel> _:dummy_C_row0 .",
        '<http://example.org/kg#B/2> <http://example.org/kg#p> "z" .',
        "<http://example.org/kg#B/2> <http://example.org/kg#rel> <http://example.org/kg#A/1> .",
        '_:dummy_C_row0 <http://example.org/kg#q> "m" .',
    ]
    back = load_ntriples("\n".join(lines) + "\n")
    # a repeated line keeps the place of its first
    assert list(back.object_triples) == [("B/2", "rel", "A/1"), ("A/1", "rel", "_:dummy_C_row0")]
    assert list(back.literals) == [("B/2", "p", "z"), ("A/1", "p", "a"), ("_:dummy_C_row0", "q", "m")]


@settings(max_examples=100, deadline=None)
@given(g=_graphs())
def test_graph_equals_its_read_back_and_its_reversed_copy(g):
    document = _document(g)
    if document is not None:
        assert load_ntriples(document) == g
    reversed_copy = KnowledgeGraph(
        dict(reversed(g.entities.items())),
        dict.fromkeys(reversed(g.object_triples)),
        dict.fromkeys(reversed(g.literals)),
    )
    assert reversed_copy == g


_GAPS = st.sampled_from([" ", "\t", "  ", " \t "])


@settings(max_examples=200, deadline=None)
@given(
    g=_graphs(),
    schema=st.sampled_from([None, _SCHEMA]),
    data=st.data(),
    line_end=st.sampled_from(["\n", "\r\n"]),
    bad_line=st.booleans(),
)
def test_loader_matches_reference_on_edited_files(g, schema, data, line_end, bad_line):
    document = _document(g)
    if document is None:
        return
    edge = st.sampled_from(["", " ", "\t"])
    lines = []
    for line in document.splitlines():
        # subject and predicate hold no space, and every line ends " ."
        subj, pred, rest = line.split(" ", 2)
        obj = rest[:-2]
        lead, gap1, gap2, gap3, trail = (data.draw(s) for s in (edge, _GAPS, _GAPS, edge, edge))
        lines.append(f"{lead}{subj}{gap1}{pred}{gap2}{obj}{gap3}.{trail}")
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(["", "  ", "\t"])))
    if bad_line:
        lines.insert(data.draw(st.integers(0, len(lines))), "<http://example.org/kg#C/x> not a triple .")
    text = line_end.join(lines) + line_end
    _assert_same_read(text, DEFAULT_BASE_IRI, schema)
    if bad_line:
        with pytest.raises(ParseError):
            load_ntriples(text, DEFAULT_BASE_IRI, schema)


@pytest.mark.parametrize("escape", [r"\uD800", r"\udfff", r"\U0000DC00", r"\U0000dbff"])
def test_load_rejects_surrogate_escape(escape):
    text = (
        "<http://example.org/kg#C/x> <http://example.org/kg#p> \"ok\" .\n"
        f"<http://example.org/kg#C/x> <http://example.org/kg#q> \"a{escape}b\" .\n"
    )
    with pytest.raises(ParseError, match="line 2: bad escape") as info:
        load_ntriples(text)
    assert info.value.line == 2


def test_load_rejects_blank_class():
    text = (
        "<http://example.org/kg#C/x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/kg#C> .\n"
        "_:x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> _:abc .\n"
    )
    with pytest.raises(ParseError, match="line 2: blank node _:abc cannot be a class"):
        load_ntriples(text)
    _assert_same_read(text, DEFAULT_BASE_IRI, None)


# every character IRIREF forbids that can stand inside a term of one line:
# line breaks would split it, and ">" would end it
_FORBIDDEN_IN_A_TERM = [c for c in _REF_IRI_FORBIDDEN if c != ">" and len(f"a{c}b".splitlines()) == 1]
_TYPE_LINE = "<http://example.org/kg#A/x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/kg#A> ."
_IRI_LINES = [
    "<http://example.org/kg#A/a{}b> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/kg#A> .",
    "<http://example.org/kg#A/y> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/kg#A{}> .",
    "<http://example.org/kg#A/x> <http://example.org/kg#re{}l> <http://example.org/kg#A/x> .",
    "<http://example.org/kg#A/x> <http://example.org/kg#rel> <http://example.org/kg#A/{}x> .",
    '<http://example.org/kg#A/x> <http://example.org/kg#p{}> "v" .',
]


@pytest.mark.parametrize("char", sorted(_FORBIDDEN_IN_A_TERM))
@pytest.mark.parametrize("template", _IRI_LINES)
def test_load_rejects_an_iri_holding_a_character_n_triples_forbids(template, char):
    text = f"{_TYPE_LINE}\n{template.format(char)}\n{_TYPE_LINE}\n"
    with pytest.raises(ParseError, match="^line 2: IRI .* holds a character N-Triples forbids$") as info:
        load_ntriples(text)
    assert info.value.line == 2
    assert repr(char)[1:-1] in str(info.value)
    _assert_same_read(text, DEFAULT_BASE_IRI, _SCHEMA)


_BLANK_LINES = [
    "{} <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/kg#A> .",
    "<http://example.org/kg#A/x> <http://example.org/kg#rel> {} .",
    '{} <http://example.org/kg#p> "v" .',
    "{} <http://example.org/kg#rel> {} .",
]


@pytest.mark.parametrize(
    "label", ['_:a{b"c', "_:a.", "_:.a", "_:-a", "_:", "_:a×b", "_:a~", "_:a/b", "_:a%20", "_:a\\u0041"]
)
@pytest.mark.parametrize("template", _BLANK_LINES)
def test_load_rejects_a_blank_node_label_n_triples_forbids(template, label):
    text = f"{_TYPE_LINE}\n{template.format(label, label)}\n{_TYPE_LINE}\n"
    with pytest.raises(ParseError, match="^line 2: not a recognized triple") as info:
        load_ntriples(text)
    assert info.value.line == 2
    _assert_same_read(text, DEFAULT_BASE_IRI, None)


@pytest.mark.parametrize(
    "label", ["_:dummy_WeldingProgram_row12", "_:a.b", "_:é", "_:0", "_:a:b", "_:_x-y", "_:a·́", "_:\U00010000"]
)
@pytest.mark.parametrize("template", _BLANK_LINES)
def test_load_keeps_a_blank_node_label_n_triples_allows(template, label):
    text = f"{_TYPE_LINE}\n{template.format(label, label)}\n"
    back = load_ntriples(text)
    assert label in {*back.entities, *(s for s, _, _ in back.literals), *(o for *_, o in back.object_triples)}
    _assert_same_read(text, DEFAULT_BASE_IRI, None)


_OTHER_ERRORS = [
    "<http://example.org/kg#A/x> not a triple .",
    "<http://example.org/kg#A/x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> _:c .",
    '<http://example.org/kg#A/x> <http://example.org/kg#p> "\\q" .',
    # both faults on one line: the subject is named before the literal is
    # decoded, the predicate after it
    '<http://example.org/kg#A/a b> <http://example.org/kg#p> "\\q" .',
    '<http://example.org/kg#A/x> <http://example.org/kg#p q> "\\q" .',
]


@pytest.mark.parametrize("per_block", [1, kggen._READ_CHARS])
@pytest.mark.parametrize("other", _OTHER_ERRORS)
def test_load_reports_the_first_of_an_iri_error_and_another_error(monkeypatch, other, per_block):
    # the first fault in line and naming order wins, whatever the block
    # size: an IRI fault and another fault, on lines 2 and 3 in either order,
    # give line 2's, whether each line is a block or both share one
    monkeypatch.setattr(kggen, "_READ_CHARS", per_block)
    bad_iri = _IRI_LINES[0].format(" ")
    for first, second in ((bad_iri, other), (other, bad_iri)):
        text = f"{_TYPE_LINE}\n{first}\n{second}\n"
        with pytest.raises(ParseError) as info:
            load_ntriples(text)
        assert info.value.line == 2
        _assert_same_read(text, DEFAULT_BASE_IRI, _SCHEMA)


def test_load_names_the_line_of_a_forbidden_iri_not_a_literal_holding_its_text():
    bad_iri = "<http://example.org/kg#A/a b>"
    text = (
        f"{_TYPE_LINE}\n"
        f'<http://example.org/kg#A/x> <http://example.org/kg#p> "{bad_iri}" .\n'
        f"{bad_iri} <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/kg#A> .\n"
    )
    with pytest.raises(ParseError, match="^line 3: IRI .* holds a character N-Triples forbids$"):
        load_ntriples(text)
    _assert_same_read(text, DEFAULT_BASE_IRI, _SCHEMA)


_RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_RDF_TYPE_LINE = f"<{_RDF}A/x> <{_RDF}type> <{_RDF}A> ."


@pytest.mark.parametrize("per_block", [1, kggen._READ_CHARS])
def test_load_with_the_rdf_namespace_as_base_keeps_rdf_type_exempt_on_class_lines(monkeypatch, per_block):
    # with this base, rdf:type is a name too: class lines stay class lines,
    # with their checks, and only a literal under it reads as the property "type"
    monkeypatch.setattr(kggen, "_READ_CHARS", per_block)
    text = "\n".join([
        _RDF_TYPE_LINE,
        f'<{_RDF}A/x> <{_RDF}type> "v" .',
        f"_:dummy_B_row0 <{_RDF}type> <{_RDF}B> .",
        f"<{_RDF}A/x> <{_RDF}rel> _:dummy_B_row0 .",
    ]) + "\n"
    back = load_ntriples(text, _RDF)
    assert back.entities == {"A/x": ("A", False), "_:dummy_B_row0": ("B", True)}
    assert list(back.literals) == [("A/x", "type", "v")]
    assert list(back.object_triples) == [("A/x", "rel", "_:dummy_B_row0")]
    _assert_same_read(text, _RDF, None)
    for bad, message in [
        (f"<{_RDF}A/y> <{_RDF}type> _:c .", "blank node _:c cannot be a class"),
        (f"<{_RDF}A/y> <{_RDF}type> <{_RDF}A/y> .", f"class <{_RDF}A/y> is not the base IRI '{_RDF}' plus an identifier"),
    ]:
        text = f"{_RDF_TYPE_LINE}\n{bad}\n"
        with pytest.raises(ParseError) as info:
            load_ntriples(text, _RDF)
        assert (info.value.line, str(info.value)) == (2, f"line 2: {message}")
        _assert_same_read(text, _RDF, None)


_OFF_BASE_LINES = [
    "<http://other.org/kg#A/x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/kg#A> .",
    "<http://example.org/kg#A/x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://other.org/kg#A> .",
    "<http://example.org/kg#A/x> <http://other.org/kg#rel> <http://example.org/kg#A/x> .",
    "<http://example.org/kg#A/x> <http://example.org/kg#rel> <http://other.org/kg#A/x> .",
    '<http://example.org/kg#A/x> <http://other.org/kg#p> "v" .',
    # the base IRI must start the term, not just appear in it
    "<http://example.org/kg#A/x> <http://example.org/kg#rel> <urn:http://example.org/kg#A/x> .",
]


@pytest.mark.parametrize("per_block", [1, kggen._READ_CHARS])
@pytest.mark.parametrize("template", _OFF_BASE_LINES)
def test_load_rejects_an_iri_off_the_base_iri(monkeypatch, template, per_block):
    monkeypatch.setattr(kggen, "_READ_CHARS", per_block)
    text = f"{_TYPE_LINE}\n{template}\n{_TYPE_LINE}\n"
    message = "^line 2: IRI '<(http://other.org|urn:).*>' does not start with the base IRI 'http://example.org/kg#'$"
    with pytest.raises(ParseError, match=message) as info:
        load_ntriples(text)
    assert info.value.line == 2
    _assert_same_read(text, DEFAULT_BASE_IRI, _SCHEMA)


_FORBIDDEN_BASES = ["http://x y/", "http://example.org/{kg}#", "http://example.org/kg\\#", "http://ex\tample/", "http://x/<kg>#"]


@pytest.mark.parametrize("base", _FORBIDDEN_BASES)
def test_writer_rejects_a_base_iri_n_triples_forbids(base):
    g = KnowledgeGraph({"A/1": ("A", False)}, {}, {})
    with pytest.raises(ValueError, match="holds a character N-Triples forbids in an IRI"):
        serialize_ntriples(g, base)
    chunks: list[str] = []
    with pytest.raises(ValueError, match="holds a character N-Triples forbids in an IRI"):
        serialize_ntriples(g, base, out=SimpleNamespace(write=chunks.append))
    assert chunks == []


@pytest.mark.parametrize("base", [*_FORBIDDEN_BASES, "http://example.org/kg", "http://a.org/x", ""])
def test_load_rejects_a_base_iri_the_writer_rejects_before_reading(base):
    with pytest.raises(ValueError, match="^base IRI ") as info:
        load_ntriples(f"{_TYPE_LINE}\nnot a triple\n", base)
    with pytest.raises(ValueError) as writer:
        serialize_ntriples(KnowledgeGraph({}, {}, {}), base)
    assert str(info.value) == str(writer.value)
    _assert_same_read(_TYPE_LINE + "\n", base, None)


@pytest.mark.parametrize("per_block", [1, kggen._READ_CHARS])
@pytest.mark.parametrize("base", ["http://example.org/", "http://", "http:/"])
def test_load_rejects_a_class_read_with_a_base_cut_short(monkeypatch, base, per_block):
    # read with a base that the written one extends, a class name keeps the
    # rest of the written base, "kg#A", and is no identifier
    monkeypatch.setattr(kggen, "_READ_CHARS", per_block)
    g = KnowledgeGraph({"A/x": ("A", False), "_:dummy_B_row0": ("B", True)}, {("A/x", "rel", "_:dummy_B_row0"): None}, {})
    text = serialize_ntriples(g)
    first = next(n for n, line in enumerate(text.splitlines(), 1) if RDF_TYPE_IRI in line)
    with pytest.raises(ParseError, match=f"^line {first}: class <http://example.org/kg#[AB]> is not the base IRI") as info:
        load_ntriples(text, base)
    assert info.value.line == first
    _assert_same_read(text, base, None)


def test_load_decodes_escapes_next_to_the_surrogate_range():
    text = r'<http://example.org/kg#C/x> <http://example.org/kg#p> "\uD7FF\uE000\U0001F600" .' + "\n"
    back = load_ntriples(text)
    (value,) = {v for _, _, v in back.literals}
    assert value == "\ud7ff\ue000\U0001f600"
    assert value.encode("utf-8")


_LITERAL_LINE = '<http://example.org/kg#A/x> <http://example.org/kg#p> "{}" .'


@settings(max_examples=300, deadline=None)
@given(
    bodies=st.lists(st.text('"\\ua ', max_size=12), min_size=1, max_size=4),
    schema=st.sampled_from([None, _SCHEMA]),
)
@example(bodies=["\\"], schema=None)  # a lone trailing backslash
@example(bodies=["a\\\\\\\\", "\\\\\\"], schema=None)  # even, then odd, backslash runs
@example(bodies=['\\"a\\"', 'a\\\\"'], schema=_SCHEMA)  # escaped quotes, then an escaped backslash
@example(bodies=["\\uaaaa", "\\u"], schema=None)
def test_loader_matches_reference_on_quote_and_backslash_literals(bodies, schema):
    lines = [_LITERAL_LINE.format(body) for body in bodies]
    text = "<http://example.org/kg#A/x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/kg#A> .\n"
    _assert_same_read(text + "\n".join(lines) + "\n", DEFAULT_BASE_IRI, schema)


# str.strip and the pattern's \s both take these for whitespace
_ODD_SPACES = st.text(" \t\x1f\xa0\u3000", max_size=3)


@settings(max_examples=200, deadline=None)
@given(g=_graphs(), schema=st.sampled_from([None, _SCHEMA]), data=st.data(), bad_line=st.booleans())
def test_loader_matches_reference_on_lines_padded_with_unicode_spaces(g, schema, data, bad_line):
    document = _document(g)
    if document is None:
        return
    lines = [data.draw(_ODD_SPACES) + line + data.draw(_ODD_SPACES) for line in document.splitlines()]
    lines.insert(data.draw(st.integers(0, len(lines))), data.draw(_ODD_SPACES))
    if bad_line:
        lines.insert(data.draw(st.integers(0, len(lines))), "\u3000<http://example.org/kg#C/x> no .\xa0\x1f")
    _assert_same_read("\n".join(lines) + "\n", DEFAULT_BASE_IRI, schema)


def test_loader_keeps_one_object_per_name_and_class():
    entities = {"A/1": ("A", False), "A/2": ("A", False), "B/1": ("B", False), "_:dummy_A_row1": ("A", True)}
    objects = dict.fromkeys([("A/1", "rel", "B/1"), ("A/2", "rel", "B/1"), ("_:dummy_A_row1", "rel", "A/1")])
    literals = {(subj, prop, f"{subj} {prop}"): None for subj in entities for prop in ("p", "q")}
    back = load_ntriples(serialize_ntriples(KnowledgeGraph(entities, objects, literals)), DEFAULT_BASE_IRI, _SCHEMA)
    assert back.literals == literals
    groups = {
        "predicates": [p for _, p, _ in back.literals] + [r for _, r, _ in back.object_triples],
        "classes": [cls for cls, _ in back.entities.values()],
        "kinds": list(back.entities.values()),
        "names": [*back.entities, *(s for s, _, _ in back.literals), *(o for _, _, o in back.object_triples)],
    }
    for label, values in groups.items():
        assert len({id(v) for v in values}) == len(set(values)), label


def _streamed(g: KnowledgeGraph, base: str = DEFAULT_BASE_IRI) -> list[str]:
    """Every string the writer sends to a sink, one per write."""
    chunks: list[str] = []
    assert serialize_ntriples(g, base, out=SimpleNamespace(write=chunks.append)) is None
    return chunks


def _assert_whole_chunks(chunks: list[str], most: int) -> None:
    for chunk in chunks:
        assert chunk.endswith("\n")
        assert 1 <= chunk.count("\n") <= most


@pytest.mark.parametrize("name", sorted(CASES))
def test_sink_gets_the_document_bytes_on_golden_cases(name):
    s, d, m, mc = CASES[name]()
    g = generate_kg(s, d, m, mc)
    chunks = _streamed(g)
    assert b"".join(c.encode("utf-8") for c in chunks) == serialize_ntriples(g).encode("utf-8")
    _assert_whole_chunks(chunks, _CHUNK_LINES)


@settings(max_examples=200, deadline=None)
@given(g=_graphs(), base=_BASES, per_chunk=st.sampled_from([1, 2, 5]))
@example(
    g=KnowledgeGraph({"A/0": ("A", False), "A/00": ("A", False)}, {}, {("A/0", "p", "\ud800"): None}),
    base=DEFAULT_BASE_IRI,
    per_chunk=1,
)
def test_sink_gets_the_document_in_chunks_of_whole_lines(g, base, per_chunk):
    document = _document(g, base)
    saved = kggen._CHUNK_LINES
    kggen._CHUNK_LINES = per_chunk
    try:
        if document is None:
            chunks: list[str] = []
            with pytest.raises(ValueError, match="holds a surrogate code point"):
                serialize_ntriples(g, base, out=SimpleNamespace(write=chunks.append))
            assert chunks == []
            return
        chunks = _streamed(g, base)
    finally:
        kggen._CHUNK_LINES = saved
    assert "".join(chunks).encode("utf-8") == document.encode("utf-8")
    _assert_whole_chunks(chunks, per_chunk)
    assert len(chunks) == -(-document.count("\n") // per_chunk)


def test_sink_gets_no_more_than_one_chunk_per_write():
    entities = {f"A/{i}": ("A", False) for i in range(2 * _CHUNK_LINES + 7)}
    chunks = _streamed(KnowledgeGraph(entities, {}, {}))
    assert [c.count("\n") for c in chunks] == [_CHUNK_LINES, _CHUNK_LINES, 7]


def test_sink_of_an_empty_graph_gets_no_write():
    assert _streamed(KnowledgeGraph({}, {}, {})) == []


def test_sink_chunks_count_bytes_not_characters():
    g = KnowledgeGraph({"A/x": ("A", False)}, {}, {("A/x", "p", "grüße ✓ \U0001F600"): None})
    document = serialize_ntriples(g)
    size = sum(len(c.encode("utf-8")) for c in _streamed(g))
    assert size == len(document.encode("utf-8")) == len(document) + 1 + 1 + 2 + 3  # ü, ß, ✓, 😀


def _same_read_from_file(
    path, base: str = DEFAULT_BASE_IRI, schema: KGSchema | None = None, newline: str | None = None
) -> None:
    """The graph or the error from the open file equals the one from its text."""
    text = path.read_text(encoding="utf-8-sig")
    try:
        want = load_ntriples(text, base, schema)
    except ParseError as err:
        with pytest.raises(ParseError) as info, open(path, encoding="utf-8-sig", newline=newline) as fh:
            load_ntriples(fh, base, schema)
        assert (info.value.line, str(info.value)) == (err.line, str(err))
        return
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        got = load_ntriples(fh, base, schema)
    assert got == want
    assert list(got.entities) == list(want.entities)


@pytest.mark.parametrize("name", sorted(CASES))
def test_loader_reads_golden_files_as_their_text(name, tmp_path):
    s, d, m, mc = CASES[name]()
    path = tmp_path / "kg.nt"
    path.write_text(serialize_ntriples(generate_kg(s, d, m, mc)), encoding="utf-8")
    _same_read_from_file(path, schema=s)


# characters str.splitlines breaks at but a text file's line iterator does not
_SPLITLINES_ONLY = ["\v", "\x1c", "\x85", "\u2028"]


@settings(max_examples=200, deadline=None)
@given(
    g=_graphs(),
    schema=st.sampled_from([None, _SCHEMA]),
    data=st.data(),
    bom=st.booleans(),
)
def test_loader_reads_drawn_files_as_their_text(tmp_path_factory, g, schema, data, bom):
    document = _document(g)
    if document is None:
        return
    breaks = st.sampled_from(["\n", "\r\n", "\r", *_SPLITLINES_ONLY])
    lines = document.splitlines()
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(["", " ", "\t"])))
    if lines and data.draw(st.booleans()):
        # a raw break inside a line splits it into two that are no triples
        i = data.draw(st.integers(0, len(lines) - 1))
        cut = data.draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:cut] + data.draw(st.sampled_from(_SPLITLINES_ONLY)) + lines[i][cut:]
    text = "".join(line + data.draw(breaks) for line in lines)
    if data.draw(st.booleans()):
        text = text.rstrip("\n\r\v\x1c\x85\u2028")  # no final line break
    path = tmp_path_factory.mktemp("drawn") / "kg.nt"
    path.write_bytes((("\ufeff" if bom else "") + text).encode("utf-8"))
    _same_read_from_file(path, schema=schema)


def test_loader_reads_a_large_file_in_less_memory_than_the_file(tmp_path):
    entities = {f"A/{i:06d}": ("A", False) for i in range(6000)}
    objects = {(f"A/{i:06d}", "next", f"A/{i + 1:06d}"): None for i in range(5999)}
    literals = {(eid, prop, f"{prop} of {eid} ✓"): None for eid in entities for prop in ("p", "q")}
    g = KnowledgeGraph(entities, objects, literals)
    path = tmp_path / "kg.nt"
    path.write_text(serialize_ntriples(g).replace("\n", "\r\n"), encoding="utf-8", newline="")
    size = path.stat().st_size
    assert size >= 1_000_000
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8-sig") as fh:
            back = load_ntriples(fh)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < size
    assert (back.entities, back.object_triples) == (entities, objects)
    assert back.literals == literals


def test_loader_reads_a_large_text_in_less_memory_than_the_text():
    # the text twin of the test above: the document is held by the caller,
    # and the read must not add a list of all its lines beside it
    entities = {f"A/{i:06d}": ("A", False) for i in range(6000)}
    objects = {(f"A/{i:06d}", "next", f"A/{i + 1:06d}"): None for i in range(5999)}
    literals = {(eid, prop, f"{prop} of {eid} ✓"): None for eid in entities for prop in ("p", "q")}
    g = KnowledgeGraph(entities, objects, literals)
    text = serialize_ntriples(g).replace("\n", "\r\n")
    size = len(text.encode("utf-8"))
    assert size >= 1_000_000
    tracemalloc.start()
    try:
        back = load_ntriples(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < size
    assert (back.entities, back.object_triples) == (entities, objects)
    assert back.literals == literals


@pytest.mark.parametrize("value", ["\ud800", "a\udfffb", "\n\ud800\\"])
def test_writer_rejects_a_surrogate_before_writing_anything(value):
    entities = {f"A/{i}": ("A", False) for i in range(2 * _CHUNK_LINES)}
    g = KnowledgeGraph(entities, {}, dict.fromkeys([("A/1", "p", "fine"), ("A/7", "q", value)]))
    message = "literal of 'A/7' 'q' holds a surrogate code point"
    with pytest.raises(ValueError, match=message):
        serialize_ntriples(g)
    chunks: list[str] = []
    with pytest.raises(ValueError, match=message):
        serialize_ntriples(g, out=SimpleNamespace(write=chunks.append))
    assert chunks == []


@settings(max_examples=200, deadline=None)
@given(
    g=_graphs(),
    schema=st.sampled_from([None, _SCHEMA]),
    data=st.data(),
    per_block=st.sampled_from([1, 2, 3, kggen._READ_CHARS]),
)
def test_loader_splits_text_in_blocks_as_its_lines(tmp_path_factory, g, schema, data, per_block):
    # the text, and the file of its bytes read both ways: small blocks make
    # every line longer than a block, and put cuts right after a CRLF, a
    # lone CR or a break only str.splitlines knows; newline="" keeps "\r\n"
    # and a lone "\r" as they are, newline=None turns both into "\n"
    document = _document(g)
    if document is None:
        return
    breaks = st.sampled_from(["\n", "\r\n", "\r", *_SPLITLINES_ONLY])
    lines = document.splitlines()
    for _ in range(data.draw(st.integers(0, 3))):
        filler = st.sampled_from(["", " ", "\t", "not a triple"])
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(filler))
    if lines and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(lines) - 1))
        cut = data.draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:cut] + data.draw(st.sampled_from(_SPLITLINES_ONLY)) + lines[i][cut:]
    text = "".join(line + data.draw(breaks) for line in lines)
    if data.draw(st.booleans()):
        text = text.rstrip("\n\r\v\x1c\x85\u2028")  # no final line break
    path = tmp_path_factory.mktemp("blocks") / "kg.nt"
    path.write_bytes(text.encode("utf-8"))
    saved = kggen._READ_CHARS
    kggen._READ_CHARS = per_block
    try:
        _assert_same_read(text, DEFAULT_BASE_IRI, schema)
        for newline in (None, ""):
            _same_read_from_file(path, schema=schema, newline=newline)
    finally:
        kggen._READ_CHARS = saved
