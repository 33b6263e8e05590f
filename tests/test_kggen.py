"""Knowledge graph materialization and N-Triples round trips."""

from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset2
from ontoshape.errors import DatasetError, ParseError, SchemaError
from ontoshape.kggen import (
    KnowledgeGraph,
    generate_kg,
    load_ntriples,
    mint_entity_id,
    serialize_ntriples,
)
from ontoshape.mapping import MappingSet, UserInfo, parse_mappings
from ontoshape.metrics import _covered
from ontoshape.ontology import parse_ontology
from ontoshape.reshape import KGSchema, baseline_schema, reshape
from ontoshape.tabular import Dataset, Table
from test_generate_reference import _projected_reference, _run

MC = "WeldingOperation"


@pytest.fixture()
def reshaped(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    return reshape(ontology_wx, dataset_2, mappings_wx, userinfo_main)


def test_mint_plain_key():
    assert mint_entity_id("WeldingProgram", "pg1") == "WeldingProgram/pg1"


def test_mint_percent_encodes():
    assert mint_entity_id("C", "a b") == "C/a%20b"
    assert mint_entity_id("C", "x/y") == "C/x%2Fy"


def test_mint_rejects_empty_key():
    with pytest.raises(ValueError):
        mint_entity_id("C", "")


def test_mint_injective_per_class():
    keys = ["a", "b", "a b", "a%20b", "x/y", "x%2Fy", "röw"]
    ids = {mint_entity_id("C", k) for k in keys}
    assert len(ids) == len(keys)


def test_reshaped_fixture_kg(reshaped, dataset_2, mappings_wx):
    g = generate_kg(reshaped, dataset_2, mappings_wx, MC)
    by_class = {}
    for eid, (cls, dummy) in g.entities.items():
        assert not dummy
        by_class.setdefault(cls, []).append(eid)
    assert len(by_class["WeldingOperation"]) == 2
    assert len(by_class["WeldingProgram"]) == 2
    assert len(g.entities) == 4
    assert g.object_triples.keys() == {
        ("WeldingOperation/op1", "executes", "WeldingProgram/pg1"),
        ("WeldingOperation/op2", "executes", "WeldingProgram/pg2"),
    }
    assert len(g.literals) == 6
    values = g.literals
    assert ("WeldingProgram/pg1", "hasWeldingProgramID", "pg1") in values
    assert ("WeldingOperation/op1", "hasCurrentMeanValue", "10.5") in values
    assert ("WeldingOperation/op2", "hasCurrentArrayValue", "[3,4]") in values
    # the main key lives in entity ids, not literals, and counts as covered
    assert not {"op1", "op2"} & {v for _, _, v in values}
    assert ("welding_operation", "operation_id") in _covered(reshaped, dataset_2)


def test_reshaped_fixture_serializes_to_12_lines(reshaped, dataset_2, mappings_wx):
    g = generate_kg(reshaped, dataset_2, mappings_wx, MC)
    text = serialize_ntriples(g)
    lines = text.splitlines()
    assert len(lines) == 12
    assert lines == sorted(lines)
    assert serialize_ntriples(g) == text


def test_baseline_fixture_kg(ontology_wx, mappings_wx, dataset_2):
    s = baseline_schema(ontology_wx, dataset_2, mappings_wx, MC)
    g = generate_kg(s, dataset_2, mappings_wx, MC)
    dummies = [eid for eid, (_, dummy) in g.entities.items() if dummy]
    assert len(dummies) == 8  # 2 rows x 4 connector classes
    assert all(eid.startswith("_:dummy_") for eid in dummies)
    assert len(g.entities) - len(dummies) == 8
    # 7 ontology edges instantiated per row
    assert len(g.object_triples) == 14
    assert len(g.literals) == 6
    values = {(p, v) for _, p, v in g.literals}
    assert ("hasValue", "10.5") in values
    assert ("hasValue", "pg1") in values


def test_baseline_beats_reshape_in_triples(ontology_wx, mappings_wx, dataset_2, reshaped):
    b = baseline_schema(ontology_wx, dataset_2, mappings_wx, MC)
    gb = generate_kg(b, dataset_2, mappings_wx, MC)
    gr = generate_kg(reshaped, dataset_2, mappings_wx, MC)
    assert len(gb.object_triples) + len(gb.literals) > len(
        gr.object_triples
    ) + len(gr.literals)


def test_repeated_key_values_merge(reshaped, mappings_wx):
    rows = [
        {"operation_id": "op1", "program_id": "pg1", "current_mean": "1", "current_array": "a"},
        {"operation_id": "op2", "program_id": "pg2", "current_mean": "2", "current_array": "b"},
        {"operation_id": "op3", "program_id": "pg1", "current_mean": "3", "current_array": "c"},
    ]
    t = Table("welding_operation", list(rows[0]), rows)
    d = Dataset({t.name: t}, t.name)
    g = generate_kg(reshaped, d, mappings_wx, MC)
    programs = [eid for eid, (cls, _) in g.entities.items() if cls == "WeldingProgram"]
    assert sorted(programs) == ["WeldingProgram/pg1", "WeldingProgram/pg2"]
    assert ("WeldingOperation/op1", "executes", "WeldingProgram/pg1") in g.object_triples
    assert ("WeldingOperation/op3", "executes", "WeldingProgram/pg1") in g.object_triples


def _shared_program_dataset():
    rows = [
        {"operation_id": "op1", "program_id": "pg1", "current_mean": "1", "current_array": "a"},
        {"operation_id": "op2", "program_id": "pg2", "current_mean": "2", "current_array": "b"},
        {"operation_id": "op3", "program_id": "pg1", "current_mean": "3", "current_array": "c"},
    ]
    t = Table("welding_operation", list(rows[0]), rows)
    return Dataset({t.name: t}, t.name)


def test_triples_come_in_the_order_of_their_rows(reshaped, mappings_wx):
    g = generate_kg(reshaped, _shared_program_dataset(), mappings_wx, MC)
    assert list(g.object_triples) == [
        ("WeldingOperation/op1", "executes", "WeldingProgram/pg1"),
        ("WeldingOperation/op2", "executes", "WeldingProgram/pg2"),
        ("WeldingOperation/op3", "executes", "WeldingProgram/pg1"),
    ]
    # each row gives its operation two literals and its program one; row 2's
    # program literal is row 0's, so it is not made again
    first_row = {"WeldingOperation/op1": 0, "WeldingProgram/pg1": 0, "WeldingOperation/op2": 1,
                 "WeldingProgram/pg2": 1, "WeldingOperation/op3": 2}
    assert [first_row[subj] for subj, _, _ in g.literals] == [0, 0, 0, 1, 1, 1, 2, 2]


def test_a_triple_made_twice_keeps_its_first_place(reshaped, mappings_wx):
    d = _shared_program_dataset()
    d.tables["welding_operation"].rows[2]["operation_id"] = "op1"  # row 2 makes row 0's edge again
    g = generate_kg(reshaped, d, mappings_wx, MC)
    assert list(g.object_triples) == [
        ("WeldingOperation/op1", "executes", "WeldingProgram/pg1"),
        ("WeldingOperation/op2", "executes", "WeldingProgram/pg2"),
    ]
    literals = list(g.literals)
    row_1 = literals.index(("WeldingOperation/op2", "hasCurrentMeanValue", "2"))
    assert literals.index(("WeldingProgram/pg1", "hasWeldingProgramID", "pg1")) < row_1
    assert literals.index(("WeldingOperation/op1", "hasCurrentMeanValue", "3")) > row_1


def test_empty_dataset_empty_kg(reshaped, mappings_wx):
    t = Table("welding_operation",
              ["operation_id", "program_id", "current_mean", "current_array"], [])
    d = Dataset({t.name: t}, t.name)
    g = generate_kg(reshaped, d, mappings_wx, MC)
    assert g.entities == {}
    assert g.object_triples == {}
    assert g.literals == {}


def test_empty_key_skips_row(reshaped, mappings_wx, caplog):
    rows = [
        {"operation_id": "op1", "program_id": "", "current_mean": "1", "current_array": "a"},
        {"operation_id": "op2", "program_id": "pg2", "current_mean": "2", "current_array": "b"},
    ]
    t = Table("welding_operation", list(rows[0]), rows)
    d = Dataset({t.name: t}, t.name)
    with caplog.at_level(logging.WARNING):
        g = generate_kg(reshaped, d, mappings_wx, MC)
    assert "row skipped" in caplog.text
    assert "WeldingOperation/op1" not in g.entities
    assert "WeldingOperation/op2" in g.entities


def test_missing_values_produce_no_literal(reshaped, mappings_wx):
    rows = [
        {"operation_id": "op1", "program_id": "pg1", "current_mean": "", "current_array": "a"},
    ]
    t = Table("welding_operation", list(rows[0]), rows)
    d = Dataset({t.name: t}, t.name)
    g = generate_kg(reshaped, d, mappings_wx, MC)
    assert all(p != "hasCurrentMeanValue" for _, p, _ in g.literals)


def test_generate_requires_main_class(reshaped, dataset_2, mappings_wx):
    with pytest.raises(SchemaError):
        generate_kg(reshaped, dataset_2, mappings_wx, "Elsewhere")


def test_generate_rejects_missing_source_column(reshaped, mappings_wx):
    t = Table("welding_operation", ["operation_id", "program_id", "current_array"], [])
    d = Dataset({t.name: t}, t.name)
    with pytest.raises(DatasetError, match="current_mean"):
        generate_kg(reshaped, d, mappings_wx, MC)


SECONDARY_ONTOLOGY = """\
class Operation
class Sensor
class SensorID
class ReadingValue
objprop hasSensor Operation Sensor
objprop reads Sensor ReadingValue
"""

SECONDARY_MAPPINGS = """\
kind,table,attribute,class
table,operation,,Operation
table,sensor,,Sensor
attribute,operation,operation_id,OperationID
attribute,sensor,sensor_id,SensorID
attribute,sensor,operation_id,OperationID
attribute,sensor,reading,ReadingValue
"""


def _secondary_dataset(sensor_rows):
    op = Table("operation", ["operation_id"], [{"operation_id": "op1"}, {"operation_id": "op2"}])
    sensor = Table("sensor", ["sensor_id", "operation_id", "reading"], sensor_rows)
    return Dataset({"operation": op, "sensor": sensor}, "operation")


def test_secondary_table_joins_to_main(caplog):
    o = parse_ontology(SECONDARY_ONTOLOGY)
    m = parse_mappings(SECONDARY_MAPPINGS)
    d = _secondary_dataset([
        {"sensor_id": "s1", "operation_id": "op1", "reading": "5.0"},
        {"sensor_id": "s2", "operation_id": "op2", "reading": "6.5"},
    ])
    s = reshape(o, d, m, UserInfo("Operation"))
    assert s.class_tables == {"Operation": "operation", "Sensor": "sensor"}
    g = generate_kg(s, d, m, "Operation")
    assert ("Operation/op1", "hasSensor", "Sensor/s1") in g.object_triples
    assert ("Operation/op2", "hasSensor", "Sensor/s2") in g.object_triples
    values = g.literals
    assert ("Sensor/s1", "hasReadingValue", "5.0") in values
    assert ("Sensor/s1", "hasSensorID", "s1") in values
    assert not any(dummy for _, dummy in g.entities.values())


def test_secondary_row_without_match_is_free_standing(caplog):
    o = parse_ontology(SECONDARY_ONTOLOGY)
    m = parse_mappings(SECONDARY_MAPPINGS)
    d = _secondary_dataset([
        {"sensor_id": "s9", "operation_id": "op9", "reading": "1.0"},
    ])
    s = reshape(o, d, m, UserInfo("Operation"))
    with caplog.at_level(logging.WARNING):
        g = generate_kg(s, d, m, "Operation")
    assert "free-standing" in caplog.text
    assert "Sensor/s9" in g.entities
    assert not any(rel == "hasSensor" for _, rel, _ in g.object_triples)


def test_a_table_mapped_to_the_main_class_joins_into_the_anchors_slot():
    # "extra" is mapped to the main class M and holds M's key column k: a
    # row that joins puts its literals on the main entity in place of
    # minting M/extra_row<j>; a row that does not keeps that entity
    s = KGSchema(
        "M", {"M", "S"}, {("has", "M", "S")},
        {("p", "M", ("extra", "v")), ("q", "M", ("main", "w"))},
        {"M": ("main", "k"), "S": ("extra", "s")}, {"M": "extra"},
    )
    main = Table("main", ["k", "w"], [{"k": "k1", "w": "1"}])
    extra = Table("extra", ["k", "v", "s"], [{"k": "k1", "v": "a", "s": "x"}, {"k": "k9", "v": "b", "s": "y"}])
    d = Dataset({"main": main, "extra": extra}, "main")
    got, events = _run(generate_kg, s, d, "M")
    assert (got, events) == _run(_projected_reference, s, d, "M")
    entities, objects, literals, _ = got
    assert entities == [("M/k1", ("M", False)), ("S/x", ("S", False)),
                        ("M/extra_row1", ("M", False)), ("S/y", ("S", False))]
    assert ("M/k1", "p", "a") in literals and ("M/extra_row1", "p", "b") in literals
    assert list(objects) == [("M/k1", "has", "S/x"), ("M/extra_row1", "has", "S/y")]
    assert events == [("free-standing", "extra", 1, "k", "k9")]


def test_serialize_single_entity():
    g = KnowledgeGraph({"C/x": ("C", False)}, {}, {})
    assert serialize_ntriples(g) == (
        "<http://example.org/kg#C/x> "
        "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        "<http://example.org/kg#C> .\n"
    )


def test_serialize_rejects_bad_base_iri():
    g = KnowledgeGraph({}, {}, {})
    with pytest.raises(ValueError, match="base IRI"):
        serialize_ntriples(g, "http://example.org/kg")


def test_load_round_trip(reshaped, dataset_2, mappings_wx):
    g = generate_kg(reshaped, dataset_2, mappings_wx, MC)
    text = serialize_ntriples(g)
    # the graph is its triples: the read-back equals it in every field
    assert load_ntriples(text) == g
    assert load_ntriples(text, schema=reshaped) == g


def test_load_round_trip_keeps_blank_nodes(ontology_wx, mappings_wx, dataset_2):
    s = baseline_schema(ontology_wx, dataset_2, mappings_wx, MC)
    g = generate_kg(s, dataset_2, mappings_wx, MC)
    back = load_ntriples(serialize_ntriples(g), schema=s)
    assert back.entities == g.entities
    assert back.object_triples == g.object_triples


def test_load_rejects_junk():
    with pytest.raises(ParseError, match="line 2: not a recognized triple") as info:
        load_ntriples("<http://example.org/kg#C/x> <http://example.org/kg#p> \"ok\" .\nthis is not a triple\n")
    assert info.value.line == 2


@pytest.mark.parametrize("escape", [r"\u12", r"\uZZZZ", r"\U00110000"])
def test_load_rejects_bad_unicode_escape(escape):
    text = (
        "<http://example.org/kg#C/x> <http://example.org/kg#p> \"ok\" .\n"
        f"<http://example.org/kg#C/x> <http://example.org/kg#q> \"a{escape}\" .\n"
    )
    with pytest.raises(ParseError, match="line 2: bad escape"):
        load_ntriples(text)


def test_load_decodes_every_echar():
    text = r'<http://example.org/kg#C/x> <http://example.org/kg#p> "t\tb\bn\nr\rf\fq\"a\'s\\" .' + "\n"
    back = load_ntriples(text)
    assert {v for _, _, v in back.literals} == {"t\tb\bn\nr\rf\fq\"a's\\"}


@pytest.mark.parametrize("escape", [r"\q", r"\a", r"\0", r"\/"])
def test_load_rejects_escape_outside_ntriples(escape):
    text = (
        "<http://example.org/kg#C/x> <http://example.org/kg#p> \"ok\" .\n"
        f"<http://example.org/kg#C/x> <http://example.org/kg#q> \"a{escape}\" .\n"
    )
    with pytest.raises(ParseError, match="line 2: bad escape"):
        load_ntriples(text)


@settings(max_examples=200, deadline=None)
@given(value=st.text())
def test_literal_values_survive_round_trip(value):
    g = KnowledgeGraph(
        {"C/x": ("C", False)},
        {},
        {("C/x", "hasV", value): None},
    )
    back = load_ntriples(serialize_ntriples(g))
    assert back.literals.keys() == {("C/x", "hasV", value)}


@settings(max_examples=100, deadline=None)
@given(key=st.text(min_size=1))
def test_entity_keys_survive_round_trip(key):
    eid = mint_entity_id("C", key)
    g = KnowledgeGraph({eid: ("C", False)}, {}, {})
    back = load_ntriples(serialize_ntriples(g))
    assert back.entities == {eid: ("C", False)}
