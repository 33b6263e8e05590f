"""Mapping CSV and user-info JSON parsing."""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

from conftest import MAPPINGS_WX, USERINFO_RULE
from ontoshape import mapping
from ontoshape.errors import ParseError
from ontoshape.mapping import (
    ConnectionRule,
    EntityRule,
    UserInfo,
    parse_mappings,
    parse_userinfo,
    serialize_mappings,
    serialize_userinfo,
)
from ontoshape.ontology import parse_ontology
from ontoshape.reshape import reshape, serialize_schema
from ontoshape.syndata import SynthConfig, generate_synthetic

README = Path(__file__).resolve().parents[1] / "README.md"


def test_parse_fixture_mappings():
    m = parse_mappings(MAPPINGS_WX)
    assert m.table_map == {"welding_operation": "WeldingOperation"}
    assert len(m.attribute_map) == 4
    assert m.attribute_map[("welding_operation", "program_id")] == "WeldingProgramID"


def test_header_only_is_empty():
    m = parse_mappings("kind,table,attribute,class\n")
    assert m.table_map == {}
    assert m.attribute_map == {}


def test_bad_header_rejected():
    with pytest.raises(ParseError, match="line 1"):
        parse_mappings("kind,table,attr,class\n")


def test_duplicate_attribute_mapping():
    text = (
        "kind,table,attribute,class\n"
        "attribute,t,a,X\n"
        "attribute,t,a,Y\n"
    )
    with pytest.raises(ParseError, match=r"line 3.*duplicate attribute mapping"):
        parse_mappings(text)


def test_duplicate_table_mapping():
    text = "kind,table,attribute,class\ntable,t,,X\ntable,t,,Y\n"
    with pytest.raises(ParseError, match="duplicate table mapping"):
        parse_mappings(text)


def test_empty_class_cell():
    with pytest.raises(ParseError, match="empty class cell"):
        parse_mappings("kind,table,attribute,class\nattribute,t,a,\n")


def test_unknown_kind():
    with pytest.raises(ParseError, match="unknown kind 'column'"):
        parse_mappings("kind,table,attribute,class\ncolumn,t,a,X\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ('attribute,t,a,X\ntable,"t,,Y\nattribute,t,b,Z\n', "line 3: malformed CSV: unexpected end of data"),
        ('attribute,t,a,"X"Y\n', "line 2: malformed CSV: ',' expected after '\"'"),
    ],
    ids=["unterminated", "after-closing-quote"],
)
def test_malformed_quoting_names_its_row(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_mappings("kind,table,attribute,class\n" + text)


@pytest.mark.parametrize(
    "text, message",
    [
        ('attribute,t,"a\nb",X\nattribute,t,c,\n', "line 4: empty class cell"),
        ('attribute,t,"a\n\nb",X\n\ntable,"t,,Y\n', "line 6: malformed CSV: unexpected end of data"),
    ],
    ids=["empty-class", "unterminated"],
)
def test_errors_name_the_line_a_record_starts_on(text, message):
    # a quoted cell spanning lines puts later records on a line past their row number
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_mappings("kind,table,attribute,class\n" + text)


@pytest.mark.parametrize("cls", ["my class", "9Lives", "A.B", "Prog-Ram", "Ä"])
def test_class_cell_must_be_an_identifier(cls):
    for row in (f"attribute,t,a,{cls}", f"table,t,,{cls}"):
        with pytest.raises(ParseError, match=re.escape(f"line 3: class {cls!r} is not an identifier")):
            parse_mappings(f"kind,table,attribute,class\nattribute,t,ok,Fine\n{row}\n")


def test_table_row_with_attribute_cell_rejected():
    with pytest.raises(ParseError, match="attribute cell empty"):
        parse_mappings("kind,table,attribute,class\ntable,t,oops,X\n")


def test_mapping_lookups(mappings_wx):
    assert mappings_wx.table_map.get("welding_operation") == "WeldingOperation"
    assert mappings_wx.table_map.get("unknown_table") is None
    assert mappings_wx.attribute_map.get(("welding_operation", "program_id")) == "WeldingProgramID"
    assert mappings_wx.attribute_map.get(("welding_operation", "operation_id")) == "WeldingOperationID"
    assert mappings_wx.attribute_map.get(("welding_operation", "nope")) is None


def test_serialize_mappings_round_trip(mappings_wx):
    text = serialize_mappings(mappings_wx)
    again = parse_mappings(text)
    assert again == mappings_wx
    assert serialize_mappings(again) == text


def test_parse_userinfo_minimal():
    u = parse_userinfo('{"main_class": "WeldingOperation"}')
    assert u == UserInfo("WeldingOperation")
    assert u.entity_rules == ()
    assert u.fallback_relation_prefix == "has"


def test_parse_userinfo_entity_rule():
    u = parse_userinfo(USERINFO_RULE)
    assert u.entity_rules == (EntityRule("SensorChannelCode", "SensorChannel", "hasCode"),)


def test_parse_userinfo_connection_rule():
    u = parse_userinfo(
        '{"main_class": "M", "connection_rules": '
        '[{"from": "A", "to": "B", "relation": "linksTo"}]}'
    )
    assert u.connection_rules == (ConnectionRule("A", "B", "linksTo"),)


def test_userinfo_missing_main_class():
    with pytest.raises(ParseError, match="main_class required"):
        parse_userinfo("{}")


def test_userinfo_malformed_rule():
    with pytest.raises(ParseError, match=r"entity_rules\[0\]"):
        parse_userinfo('{"main_class": "M", "entity_rules": [{"attribute_class": "X"}]}')


@pytest.mark.parametrize("rules, message", [
    ('"entity_rules": 5', "entity_rules must be a list"),
    ('"connection_rules": null', "connection_rules must be a list"),
    ('"entity_rules": [{"attribute_class": "X", "entity_class": ["x"], "relation": "r"}]',
     r"entity_rules\[0\] needs .* as nonempty strings"),
    ('"connection_rules": [{"from": "A", "to": "", "relation": "r"}]',
     r"connection_rules\[0\] needs .* as nonempty strings"),
    ('"connection_rules": ["A"]', r"connection_rules\[0\]"),
])
def test_userinfo_rules_must_be_lists_of_string_fields(rules, message):
    with pytest.raises(ParseError, match=message):
        parse_userinfo('{"main_class": "M", ' + rules + "}")


_RULE = {"attribute_class": "ProgramID", "entity_class": "Program", "relation": "hasProgram"}


@pytest.mark.parametrize("fields, message", [
    ({"entity_rules": [{**_RULE, "entity_class": "Prog Ram"}]},
     r"^entity_rules\[0\] entity_class 'Prog Ram' is not an identifier"),
    ({"entity_rules": [_RULE, {**_RULE, "attribute_class": "Other", "relation": "has prog"}]},
     r"^entity_rules\[1\] relation 'has prog' is not an identifier"),
    ({"entity_rules": [{**_RULE, "entity_class": "Grüße"}]},
     r"^entity_rules\[0\] entity_class 'Grüße' is not an identifier"),
    ({"connection_rules": [{"from": "A", "to": "B", "relation": "links-to"}]},
     r"^connection_rules\[0\] relation 'links-to' is not an identifier"),
    ({"fallback_relation_prefix": "has "}, r"^fallback_relation_prefix 'has ' is not an identifier"),
    ({"fallback_relation_prefix": "9has"}, r"^fallback_relation_prefix '9has' is not an identifier"),
    ({"fallback_relation_prefix": ""}, r"^fallback_relation_prefix '' is not an identifier"),
    ({"fallback_relation_prefix": 5}, r"^fallback_relation_prefix must be a string$"),
])
def test_userinfo_names_written_to_a_schema_must_be_identifiers(fields, message):
    with pytest.raises(ParseError, match=message):
        parse_userinfo(json.dumps({"main_class": "M", **fields}))


def test_userinfo_attribute_and_connected_classes_are_not_checked_as_names():
    doc = {"main_class": "M", "fallback_relation_prefix": "_rel2",
           "entity_rules": [{**_RULE, "attribute_class": "program id"}],
           "connection_rules": [{"from": "a b", "to": "c-d", "relation": "feeds_1"}]}
    u = parse_userinfo(json.dumps(doc))
    assert u.entity_rules == (EntityRule("program id", "Program", "hasProgram"),)
    assert u.connection_rules == (ConnectionRule("a b", "c-d", "feeds_1"),)
    assert u.fallback_relation_prefix == "_rel2"


def test_userinfo_rejects_a_second_entity_rule_for_one_attribute_class():
    rules = [
        {"attribute_class": "Code", "entity_class": "A", "relation": "viaA"},
        {"attribute_class": "Other", "entity_class": "B", "relation": "viaB"},
        {"attribute_class": "Code", "entity_class": "B", "relation": "viaB"},
    ]
    doc = json.dumps({"main_class": "M", "entity_rules": rules})
    message = r"^entity_rules\[2\] repeats attribute_class 'Code' of entity_rules\[0\]$"
    with pytest.raises(ParseError, match=message):
        parse_userinfo(doc)


def test_userinfo_invalid_json():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_userinfo("{nope")


def test_serialize_userinfo_round_trip():
    u = UserInfo(
        "M",
        (EntityRule("AID", "A", "hasA"),),
        (ConnectionRule("A", "B", "feeds"),),
        fallback_relation_prefix="rel",
    )
    assert parse_userinfo(serialize_userinfo(u)) == u


def test_readme_userinfo_example_parses():
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    u = parse_userinfo(block)
    assert u.main_class == "WeldingOperation"
    assert u.entity_rules == (EntityRule("SensorChannelCode", "SensorChannel", "hasCode"),)
    assert u.connection_rules == (
        ConnectionRule("WeldingOperation", "SensorChannel", "recordedBy"),
    )


def test_readme_ontology_example_parses():
    readme = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"\*\*Ontology\*\*.*?```\n(.*?)```", readme, re.S)
    o = parse_ontology(block)
    assert o.classes == {"WeldingOperation", "WeldingProgram"}
    assert o.object_properties == {("executes", "WeldingOperation", "WeldingProgram")}
    assert o.data_properties == {("hasTimestamp", "WeldingOperation")}


def test_module_mapping_example_parses():
    # the README describes the mapping CSV in prose; the example lives here
    indented = [line for line in mapping.__doc__.splitlines() if line.startswith("    ")]
    m = parse_mappings(textwrap.dedent("\n".join(indented)) + "\n")
    assert m.table_map == {"welding_operation": "WeldingOperation"}
    assert m.attribute_map == {("welding_operation", "current_mean"): "CurrentMeanValue"}


def test_readme_quick_start_schema_excerpt_matches_reshape():
    readme = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"collapses to three classes:\n\n```\n(.*?)```", readme, re.S)
    excerpt = [line for line in block.splitlines() if line != "..."]
    schema = serialize_schema(reshape(*generate_synthetic(SynthConfig(6, 100))))
    lines = iter(schema.splitlines())
    # an ordered subsequence: each excerpt line occurs after the previous one
    assert all(line in lines for line in excerpt)
