"""Every document the writer produces is N-Triples, checked by a recogniser
written from the W3C grammar.

The grammar is section 7 of RDF 1.1 N-Triples (W3C Recommendation,
25 February 2014); the numbers in brackets are its production numbers.
The recogniser scans characters by hand. It uses no regular expression and
nothing from ``kggen``, so a fault that the writer and the package's reader
share cannot hide from it. It runs over the document of every golden case
and of the graphs that ``tests/test_ntriples.py`` draws.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from test_golden import CASES
from test_ntriples import _BASES, _document, _graphs

from ontoshape.kggen import generate_kg, serialize_ntriples

_HEX = frozenset("0123456789ABCDEFabcdef")
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_ALNUM = _LETTERS | _DIGITS
_WS = frozenset(" \t")
# [153s] ECHAR ::= '\' [tbnrf"'\]
_ECHAR = frozenset("tbnrf\"'\\")
# what [8] IRIREF forbids unescaped: #x00-#x20 and <>"{}|^`\
_IRI_FORBIDDEN = frozenset(map(chr, range(0x21))) | frozenset('<>"{}|^`\\')
# [157s] PN_CHARS_BASE
_PN_CHARS_BASE = (
    (0x41, 0x5A), (0x61, 0x7A), (0xC0, 0xD6), (0xD8, 0xF6), (0xF8, 0x2FF), (0x370, 0x37D),
    (0x37F, 0x1FFF), (0x200C, 0x200D), (0x2070, 0x218F), (0x2C00, 0x2FEF), (0x3001, 0xD7FF),
    (0xF900, 0xFDCF), (0xFDF0, 0xFFFD), (0x10000, 0xEFFFF),
)


def _pn_chars_u(ch: str) -> bool:
    """[158s] PN_CHARS_U ::= PN_CHARS_BASE | '_' | ':'"""
    return ch in "_:" or any(lo <= ord(ch) <= hi for lo, hi in _PN_CHARS_BASE)


def _pn_chars(ch: str) -> bool:
    """[160s] PN_CHARS ::= PN_CHARS_U | '-' | [0-9] | #x00B7 | [#x0300-#x036F]
    | [#x203F-#x2040]"""
    return (_pn_chars_u(ch) or ch == "-" or ch in _DIGITS or ch == "\u00b7"
            or "\u0300" <= ch <= "\u036f" or "\u203f" <= ch <= "\u2040")


# Each reader below takes the line and a position, and returns the position
# just past the production it reads there, or None where it does not start.

def _uchar(s: str, i: int) -> int | None:
    """[10] UCHAR ::= '\\u' HEX HEX HEX HEX | '\\U' HEX HEX HEX HEX HEX HEX HEX HEX"""
    width = {"\\u": 4, "\\U": 8}.get(s[i:i + 2])
    if width is None:
        return None
    digits = s[i + 2:i + 2 + width]
    return i + 2 + width if len(digits) == width and all(c in _HEX for c in digits) else None


def _iriref(s: str, i: int) -> int | None:
    """[8] IRIREF ::= '<' ([^#x00-#x20<>"{}|^`\\] | UCHAR)* '>', holding an
    absolute IRI (section 2.1): a scheme, a letter then letters, digits,
    "+", "-" or ".", before the first ":"."""
    if s[i:i + 1] != "<":
        return None
    start = i = i + 1
    while i < len(s) and s[i] != ">":
        if s[i] == "\\":
            i = _uchar(s, i)
            if i is None:
                return None
        elif s[i] in _IRI_FORBIDDEN:
            return None
        else:
            i += 1
    if i == len(s):
        return None
    scheme, colon, _ = s[start:i].partition(":")
    absolute = colon and scheme[:1] in _LETTERS and all(c in _ALNUM or c in "+-." for c in scheme)
    return i + 1 if absolute else None


def _blank_node_label(s: str, i: int) -> int | None:
    """[141s] BLANK_NODE_LABEL ::= '_:' (PN_CHARS_U | [0-9]) ((PN_CHARS | '.')* PN_CHARS)?

    The label ends at its last PN_CHARS, so a "." right after it is the
    triple's end."""
    if s[i:i + 2] != "_:" or i + 2 == len(s):
        return None
    i += 2
    if not (_pn_chars_u(s[i]) or s[i] in _DIGITS):
        return None
    end = i = i + 1
    while i < len(s) and (s[i] == "." or _pn_chars(s[i])):
        i += 1
        if s[i - 1] != ".":
            end = i
    return end


def _string_literal_quote(s: str, i: int) -> int | None:
    """[9] STRING_LITERAL_QUOTE ::= '"' ([^#x22#x5C#xA#xD] | ECHAR | UCHAR)* '"'"""
    if s[i:i + 1] != '"':
        return None
    i += 1
    while i < len(s) and s[i] != '"':
        if s[i] == "\\":
            if s[i + 1:i + 2] and s[i + 1] in _ECHAR:
                i += 2
            else:
                i = _uchar(s, i)
                if i is None:
                    return None
        elif s[i] in "\n\r":
            return None
        else:
            i += 1
    return i + 1 if i < len(s) else None


def _langtag(s: str, i: int) -> int | None:
    """[144s] LANGTAG ::= '@' [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*"""
    if s[i:i + 1] != "@":
        return None
    i += 1
    part = _LETTERS
    while True:
        start = i
        while i < len(s) and s[i] in part:
            i += 1
        if i == start:
            return None
        if s[i:i + 1] != "-" or not s[i + 1:i + 2] or s[i + 1] not in _ALNUM:
            return i
        i, part = i + 1, _ALNUM


def _literal(s: str, i: int) -> int | None:
    """[6] literal ::= STRING_LITERAL_QUOTE ('^^' IRIREF | LANGTAG)?"""
    i = _string_literal_quote(s, i)
    if i is None:
        return None
    if s[i:i + 2] == "^^":
        return _iriref(s, i + 2)
    return _langtag(s, i) or i


def _first(s: str, i: int, *readers) -> int | None:
    for read in readers:
        end = read(s, i)
        if end is not None:
            return end
    return None


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i] in _WS:
        i += 1
    return i


def _triples_in_line(s: str) -> int:
    """1 if ``s`` is one triple, 0 if it is blank or a comment, and an
    AssertionError naming the position otherwise:
    [2] triple ::= subject predicate object '.', with
    [3] subject ::= IRIREF | BLANK_NODE_LABEL, [4] predicate ::= IRIREF and
    [5] object ::= IRIREF | BLANK_NODE_LABEL | literal; white space (space
    or tab) may stand between terms, and a "#" outside a term starts a
    comment that runs to the end of the line."""
    i = _skip_ws(s, 0)
    if i == len(s) or s[i] == "#":
        return 0
    for readers in ((_iriref, _blank_node_label), (_iriref,), (_iriref, _blank_node_label, _literal)):
        end = _first(s, i, *readers)
        assert end is not None, f"no term at column {i + 1} of {s!r}"
        i = _skip_ws(s, end)
    assert s[i:i + 1] == ".", f"no '.' at column {i + 1} of {s!r}"
    i = _skip_ws(s, i + 1)
    assert i == len(s) or s[i] == "#", f"text after the triple at column {i + 1} of {s!r}"
    return 1


def _triples(document: str) -> int:
    """The number of triples in ``document``, asserting that it is an
    N-Triples document: [1] ntriplesDoc ::= triple? (EOL triple)* EOL?,
    with [7] EOL ::= [#xD#xA]+, where a line may also be blank or a
    comment."""
    return sum(_triples_in_line(line) for line in document.replace("\r", "\n").split("\n"))


def _assert_one_triple_per_line(document: str) -> None:
    """The writer's own form: one triple on each line, each line ended by
    a line feed."""
    assert _triples(document) == document.count("\n")
    assert document == "" or document.endswith("\n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_documents_are_n_triples(name):
    s, d, m, mc = CASES[name]()
    _assert_one_triple_per_line(serialize_ntriples(generate_kg(s, d, m, mc)))


@settings(max_examples=200, deadline=None)
@given(g=_graphs(), base=_BASES)
def test_drawn_documents_are_n_triples(g, base):
    document = _document(g, base)
    if document is not None:
        _assert_one_triple_per_line(document)


@pytest.mark.parametrize(
    "line",
    [
        '<http://e/s> <http://e/p> <http://e/o> .',
        '<http://e/s><http://e/p><http://e/o>.',
        '\t_:b1 <http://e/p> _:b2.\t# trailing comment',
        '_:a.b <http://e/p> _:0-x .',
        '_:a <http://e/p> _:b.',
        '<http://e/\\u00E9\\U0001F600> <http://e/p> "a\\tb\\"c\\\\ \\u0000 \\U0010FFFF" .',
        '<http://e/s> <http://e/p> "x"^^<http://www.w3.org/2001/XMLSchema#string> .',
        '<http://e/s> <http://e/p> "chat"@fr-CA .',
        '<urn:x-a.b+c:1> <http://e/p> "grüße ✓ #not a comment" .',
        "<http://e/s> <http://e/p> \"\x7f\x85 \" .",
    ],
)
def test_recogniser_accepts_what_the_grammar_allows(line):
    assert _triples_in_line(line) == 1


@pytest.mark.parametrize(
    "line",
    [
        '<http://e/a b> <http://e/p> <http://e/o> .',
        '<http://e/{x}> <http://e/p> <http://e/o> .',
        '<http://e/\\u00E> <http://e/p> <http://e/o> .',
        '<http://e/\\n> <http://e/p> <http://e/o> .',
        '<relative> <http://e/p> <http://e/o> .',
        '<1http://e/s> <http://e/p> <http://e/o> .',
        '_:b <http://e/p> <http://e/o>',
        '_:-b <http://e/p> <http://e/o> .',
        '_: <http://e/p> <http://e/o> .',
        '_:b _:p <http://e/o> .',
        '"s" <http://e/p> <http://e/o> .',
        '<http://e/s> <http://e/p> "a\\qb" .',
        '<http://e/s> <http://e/p> "a\\u12" .',
        '<http://e/s> <http://e/p> "a"b" .',
        '<http://e/s> <http://e/p> "open .',
        '<http://e/s> <http://e/p> "x"@ .',
        '<http://e/s> <http://e/p> "x"@en- .',
        '<http://e/s> <http://e/p> "x"^^"y" .',
        '<http://e/s> <http://e/p> <http://e/o> . <http://e/t>',
    ],
)
def test_recogniser_rejects_what_the_grammar_forbids(line):
    with pytest.raises(AssertionError):
        _triples_in_line(line)


def test_a_line_break_in_a_literal_splits_the_triple():
    with pytest.raises(AssertionError):
        _triples('<http://e/s> <http://e/p> "a\rb" .\n')
