"""Schema building: entity identification, connection, baseline."""

from __future__ import annotations

import logging
import re
import types
from urllib.parse import quote, unquote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ontoshape.ontology as ontology_module
import ontoshape.reshape as reshape_module
from conftest import make_dataset2
from ontoshape.errors import ParseError, SchemaError
from ontoshape.mapping import ConnectionRule, EntityRule, MappingSet, UserInfo, parse_mappings
from ontoshape.ontology import Ontology, parse_ontology
from ontoshape.reshape import (
    KGSchema,
    assign_data_properties,
    baseline_schema,
    connect_classes,
    identifier_stem,
    identify_entity_class,
    parse_schema,
    reshape,
    serialize_schema,
)
from ontoshape.syndata import SynthConfig, generate_synthetic
from ontoshape.tabular import Dataset, Table


def test_package_attribute_reshape_is_the_submodule():
    import ontoshape
    import ontoshape.reshape as r

    assert isinstance(r, types.ModuleType) and ontoshape.reshape is r
    assert r.reshape is reshape and callable(r.undirected_distances)


def _single_table(attributes, rows=()):
    t = Table("welding_operation", list(attributes), [dict(r) for r in rows])
    return Dataset({t.name: t}, t.name)


def test_attribute_mapped_class_is_never_an_entity_candidate():
    o = parse_ontology(
        "class M\nclass Sensor\nclass SensorID\n"
        "objprop watches M Sensor\nobjprop hasID Sensor SensorID\n"
    )
    d = Dataset({"t": Table("t", ["sid", "reading"], []), "sensor": Table("sensor", ["x"], [])}, "t")
    m = MappingSet({"t": "M", "sensor": "Sensor"}, {("t", "sid"): "SensorID"})
    s = reshape(o, d, m, UserInfo("M"))
    assert s.class_keys["Sensor"] == ("t", "sid")
    assert s.class_tables["Sensor"] == "sensor"

    # once an attribute maps onto Sensor, neither its ID nor its table makes it an entity class
    m.attribute_map[("t", "reading")] = "Sensor"
    s = reshape(o, d, m, UserInfo("M"))
    assert s.classes == {"M"}
    assert s.class_keys == {} and s.class_tables == {"M": "t"}


def test_table_of_an_attribute_class_is_dropped_with_a_warning(caplog):
    o = parse_ontology("class M\nclass Sensor\nobjprop watches M Sensor\n")
    d = Dataset({"t": Table("t", ["reading"], []), "sensor": Table("sensor", ["x"], [])}, "t")
    m = MappingSet({"t": "M", "sensor": "Sensor"}, {("t", "reading"): "Sensor", ("sensor", "x"): "Sensor"})
    with caplog.at_level(logging.WARNING, logger="ontoshape.reshape"):
        s = reshape(o, d, m, UserInfo("M"))
    assert "sensor" not in s.class_tables.values()
    dropped = [r.getMessage() for r in caplog.records if "table dropped" in r.getMessage()]
    assert dropped == ["table sensor maps to Sensor, which an attribute also maps to; table dropped"]


def test_undeclared_attribute_class_is_not_a_candidate(ontology_wx, mappings_wx, caplog):
    # WeldingOperationID is mapped but not declared: a table mapped onto it is ignored
    d = make_dataset2()
    d.tables["ops"] = Table("ops", ["x"], [])
    m = MappingSet({**mappings_wx.table_map, "ops": "WeldingOperationID"}, mappings_wx.attribute_map)
    with caplog.at_level(logging.WARNING):
        s = reshape(ontology_wx, d, m, UserInfo("WeldingOperation"))
    assert "table ops maps to undeclared class WeldingOperationID; ignored" in caplog.text
    assert s.classes == {"WeldingOperation", "WeldingProgram"}
    assert "WeldingOperationID" not in s.class_tables


def test_every_declared_class_is_a_candidate_without_attribute_mappings(ontology_wx):
    tables = {c.lower(): Table(c.lower(), ["x"], []) for c in ontology_wx.classes}
    d = Dataset(tables, "weldingoperation")
    m = MappingSet({c.lower(): c for c in ontology_wx.classes}, {})
    s = reshape(ontology_wx, d, m, UserInfo("WeldingOperation"))
    assert s.classes == ontology_wx.classes
    assert s.class_tables == {c: c.lower() for c in ontology_wx.classes}


def test_identify_by_suffix(ontology_wx, userinfo_main):
    assert identify_entity_class("WeldingProgramID", ontology_wx.classes, userinfo_main) == "WeldingProgram"


def test_identify_no_suffix_match(ontology_wx, userinfo_main):
    assert identify_entity_class("CurrentMeanValue", ontology_wx.classes, userinfo_main) is None


def test_identify_user_rule_wins():
    u = UserInfo("M", (EntityRule("SensorID", "SensorChannel", "hasCode"),))
    assert identify_entity_class("SensorID", {"Sensor", "SensorChannel"}, u) == "SensorChannel"


def test_identify_suffix_is_case_insensitive():
    u = UserInfo("M")
    assert identify_entity_class("Sensorid", {"Sensor"}, u) == "Sensor"
    assert identify_entity_class("SensorName", {"Sensor"}, u) == "Sensor"


def test_identify_requires_entity_candidate():
    # the stripped stem must be a candidate, not merely a declared class
    assert identify_entity_class("SensorID", {"Other"}, UserInfo("M")) is None


LABEL_RULE = EntityRule("SensorLabel", "Sensor", "viaLabel")
CODE_RULE = EntityRule("SensorCode", "Sensor", "viaCode")


@pytest.mark.parametrize("rules", [(LABEL_RULE, CODE_RULE), (CODE_RULE, LABEL_RULE)])
def test_link_takes_the_relation_of_the_first_rule_naming_the_class(rules):
    # t.code keys Sensor in both orders; the minted link follows rule order
    o = parse_ontology(
        "class Op\nclass Sensor\nclass SensorLabel\nclass SensorCode\n"
        "objprop hasLabel Sensor SensorLabel\nobjprop hasCode Sensor SensorCode\n"
    )
    d = Dataset({"t": Table("t", ["code", "label"], [])}, "t")
    m = MappingSet({"t": "Op"}, {("t", "code"): "SensorCode", ("t", "label"): "SensorLabel"})
    text = serialize_schema(reshape(o, d, m, UserInfo("Op", rules))).splitlines()
    assert "key Sensor t.code" in text
    assert f"objprop {rules[0].relation} Op Sensor" in text
    assert f"objprop {rules[1].relation} Op Sensor" not in text


def test_connect_direct_relation(ontology_wx, userinfo_main):
    s = KGSchema("WeldingOperation", {"WeldingOperation", "WeldingProgram"}, set())
    out = connect_classes(s, ontology_wx, userinfo_main)
    assert out == {("executes", "WeldingOperation", "WeldingProgram")}


def test_connect_single_class_is_noop(ontology_wx, userinfo_main):
    s = KGSchema("WeldingOperation", {"WeldingOperation"}, set())
    out = connect_classes(s, ontology_wx, userinfo_main)
    assert out == set()


INDIRECT_ONTOLOGY = """\
class M
class X
class A
class Y
class B
objprop mx M X
objprop xa X A
objprop ay A Y
objprop yb Y B
"""


def test_connect_indirect_hangs_both_off_main():
    o = parse_ontology(INDIRECT_ONTOLOGY)
    s = KGSchema("M", {"M", "A", "B"}, set())
    out = connect_classes(s, o, UserInfo("M"))
    assert out == {("hasA", "M", "A"), ("hasB", "M", "B")}


def test_connect_indirect_user_rule():
    o = parse_ontology(INDIRECT_ONTOLOGY)
    s = KGSchema("M", {"M", "A", "B"}, set())
    u = UserInfo("M", connection_rules=(ConnectionRule("A", "B", "feeds"),))
    out = connect_classes(s, o, u)
    assert ("feeds", "A", "B") in out


def test_connect_rule_with_unknown_class_is_skipped(caplog):
    o = parse_ontology(INDIRECT_ONTOLOGY)
    s = KGSchema("M", {"M", "A", "B"}, set())
    u = UserInfo("M", connection_rules=(ConnectionRule("A", "Nowhere", "feeds"),))
    with caplog.at_level(logging.WARNING):
        out = connect_classes(s, o, u)
    assert "skipped" in caplog.text
    assert out == {("hasA", "M", "A"), ("hasB", "M", "B")}


def test_connect_links_isolated_class_to_main():
    o = parse_ontology("class M\nclass Z\n")
    s = KGSchema("M", {"M", "Z"}, set())
    out = connect_classes(s, o, UserInfo("M"))
    assert out == {("hasZ", "M", "Z")}


def test_connect_stitches_disconnected_cluster(caplog):
    # A and B relate to each other but neither reaches M through the ontology
    o = parse_ontology("class M\nclass A\nclass B\nobjprop ab A B\n")
    s = KGSchema("M", {"M", "A", "B"}, set())
    with caplog.at_level(logging.WARNING):
        out = connect_classes(s, o, UserInfo("M"))
    assert ("ab", "A", "B") in out
    assert ("hasA", "M", "A") in out
    assert "cannot reach" in caplog.text


def test_connect_requires_main_in_schema(ontology_wx, userinfo_main):
    s = KGSchema("WeldingOperation", {"WeldingProgram"}, set())
    with pytest.raises(SchemaError):
        connect_classes(s, ontology_wx, userinfo_main)


def test_reshape_fixture(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    s = reshape(ontology_wx, dataset_2, mappings_wx, userinfo_main)
    assert s.main_class == "WeldingOperation"
    assert s.classes == {"WeldingOperation", "WeldingProgram"}
    assert s.edges == {("executes", "WeldingOperation", "WeldingProgram")}
    assert s.data_attachments == {
        ("hasCurrentMeanValue", "WeldingOperation", ("welding_operation", "current_mean")),
        ("hasCurrentArrayValue", "WeldingOperation", ("welding_operation", "current_array")),
        ("hasWeldingProgramID", "WeldingProgram", ("welding_operation", "program_id")),
    }
    assert s.class_keys == {
        "WeldingOperation": ("welding_operation", "operation_id"),
        "WeldingProgram": ("welding_operation", "program_id"),
    }
    assert s.class_tables == {"WeldingOperation": "welding_operation"}


def test_reshape_is_deterministic(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    a = reshape(ontology_wx, dataset_2, mappings_wx, userinfo_main)
    b = reshape(ontology_wx, dataset_2, mappings_wx, userinfo_main)
    assert a == b


def test_reshape_empty_rules_equal_minimal_userinfo(ontology_wx, mappings_wx, dataset_2):
    a = reshape(ontology_wx, dataset_2, mappings_wx, UserInfo("WeldingOperation"))
    b = reshape(ontology_wx, dataset_2, mappings_wx, UserInfo("WeldingOperation", (), ()))
    assert a == b


def test_reshape_nothing_mapped(ontology_wx, userinfo_main, caplog):
    d = _single_table(["a", "b"])
    with caplog.at_level(logging.WARNING):
        s = reshape(ontology_wx, d, MappingSet({}, {}), userinfo_main)
    assert s.classes == {"WeldingOperation"}
    assert s.edges == set()
    assert s.data_attachments == set()
    assert "no mapping" in caplog.text


def test_reshape_value_only_mapping_collapses_to_main(ontology_w, userinfo_main):
    # both value classes sit nearest to the main class, so one class remains
    m = parse_mappings(
        "kind,table,attribute,class\n"
        "table,welding_operation,,WeldingOperation\n"
        "attribute,welding_operation,current_mean,CurrentMeanValue\n"
        "attribute,welding_operation,current_array,CurrentArrayValue\n"
    )
    d = _single_table(["current_mean", "current_array"])
    s = reshape(ontology_w, d, m, userinfo_main)
    assert s.classes == {"WeldingOperation"}
    assert s.edges == set()
    assert s.data_attachments == {
        ("hasCurrentMeanValue", "WeldingOperation", ("welding_operation", "current_mean")),
        ("hasCurrentArrayValue", "WeldingOperation", ("welding_operation", "current_array")),
    }


def test_reshape_include_unmapped(ontology_wx, mappings_wx, userinfo_main):
    d = make_dataset2()
    d.main.attributes.append("note")
    for row in d.main.rows:
        row["note"] = "n"
    s = reshape(ontology_wx, d, mappings_wx, userinfo_main, include_unmapped=True)
    assert ("hasnote", "WeldingOperation", ("welding_operation", "note")) in s.data_attachments
    s2 = reshape(ontology_wx, d, mappings_wx, userinfo_main)
    assert all(src != ("welding_operation", "note") for _, _, src in s2.data_attachments)


def test_reshape_rejects_unknown_main_class(ontology_wx, mappings_wx, dataset_2):
    with pytest.raises(SchemaError, match="not declared"):
        reshape(ontology_wx, dataset_2, mappings_wx, UserInfo("Nope"))


def test_reshape_entity_rule_introduces_class(ontology_wx, dataset_2):
    # SensorChannelCode is not an ontology class; the rule still keys it
    m = parse_mappings(
        "kind,table,attribute,class\n"
        "table,welding_operation,,WeldingOperation\n"
        "attribute,welding_operation,program_id,SensorChannelCode\n"
    )
    u = UserInfo(
        "WeldingOperation",
        (EntityRule("SensorChannelCode", "SensorChannel", "hasChannel"),),
    )
    s = reshape(ontology_wx, dataset_2, m, u)
    assert "SensorChannel" in s.classes
    assert s.class_keys["SensorChannel"] == ("welding_operation", "program_id")
    assert ("hasChannel", "WeldingOperation", "SensorChannel") in s.edges
    assert ("hasSensorChannelCode", "SensorChannel", ("welding_operation", "program_id")) in s.data_attachments


def test_assign_prefers_nearest_class(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    # CurrentMeanValue sits 4 undirected hops from WeldingOperation but 5
    # from WeldingProgram, so the main class owns it
    s = reshape(ontology_wx, dataset_2, mappings_wx, userinfo_main)
    owners = {src: owner for _, owner, src in s.data_attachments}
    assert owners[("welding_operation", "current_mean")] == "WeldingOperation"


def test_assign_unreachable_class_falls_back_to_main(userinfo_main, caplog):
    o = parse_ontology(
        "class WeldingOperation\nclass Island\nclass Peak\nobjprop up Island Peak\n"
    )
    m = parse_mappings(
        "kind,table,attribute,class\n"
        "table,welding_operation,,WeldingOperation\n"
        "attribute,welding_operation,x,Peak\n"
    )
    d = _single_table(["x"])
    with caplog.at_level(logging.WARNING):
        s = reshape(o, d, m, userinfo_main)
    assert ("hasPeak", "WeldingOperation", ("welding_operation", "x")) in s.data_attachments


_names = st.sampled_from("ABCDEFGH")


@st.composite
def _owner_cases(draw):
    """A random ontology, main class, schema classes (one maybe undeclared)
    and single-table dataset whose attributes map to random classes."""
    classes = sorted(draw(st.frozensets(_names, min_size=1, max_size=8)))
    edges = draw(st.frozensets(st.tuples(st.sampled_from(classes), st.sampled_from(classes)), max_size=12))
    o = Ontology(frozenset(classes), frozenset((f"r_{a}{b}", a, b) for a, b in edges), frozenset())
    mc = draw(st.sampled_from(classes))
    schema = {mc} | draw(st.frozensets(st.sampled_from(classes + ["Ghost"]), max_size=4))
    targets = draw(st.lists(st.sampled_from(classes + ["Nowhere"]), min_size=1, max_size=8))
    attrs = [f"a{i}" for i in range(len(targets))]
    m = MappingSet({"t": mc}, {("t", a): cp for a, cp in zip(attrs, targets)})
    return o, mc, schema, Dataset({"t": Table("t", attrs, [])}, "t"), m


def _all_pairs_undirected(o):
    """Floyd-Warshall over the ontology with edge direction ignored."""
    inf = float("inf")
    dist = {a: {b: 0 if a == b else inf for b in o.classes} for a in o.classes}
    for _, a, b in o.object_properties:
        if a != b:
            dist[a][b] = dist[b][a] = 1
    for k in o.classes:
        for a in o.classes:
            for b in o.classes:
                if dist[a][k] + dist[k][b] < dist[a][b]:
                    dist[a][b] = dist[a][k] + dist[k][b]
    return dist


@settings(max_examples=300, deadline=None)
@given(case=_owner_cases())
def test_assign_owner_matches_all_pairs_oracle(case):
    o, mc, schema, d, m = case
    s = KGSchema(mc, set(schema), set())
    got = assign_data_properties(s, o, m, d)
    owners = {src: owner for _, owner, src in got}
    dist = _all_pairs_undirected(o)
    for (table, attr), cp in m.attribute_map.items():
        near = [
            (dist[c][cp], c != mc, c)
            for c in schema
            if c in o.classes and cp in o.classes and dist[c][cp] != float("inf")
        ]
        assert owners[(table, attr)] == (min(near)[2] if near else mc)


def test_reshape_runs_one_bfs_seeded_with_the_declared_schema_classes(monkeypatch):
    o, d, m, u = generate_synthetic(SynthConfig(n_attributes=30, n_rows=2, chain_depth=3))
    # a user rule adds a class the ontology does not declare
    u = UserInfo(u.main_class, (EntityRule("Value000", "Ghost", "hasGhost"),))
    calls = []

    def counted(adj, *sources):
        if adj is o._und:
            calls.append(sources)
        return real(adj, *sources)

    real = ontology_module._bfs
    # reshape imports _bfs by name, so both modules are patched
    monkeypatch.setattr(ontology_module, "_bfs", counted)
    monkeypatch.setattr(reshape_module, "_bfs", counted)
    s = reshape(o, d, m, u)
    assert "Ghost" in s.classes
    assert calls == [tuple(sorted(c for c in s.classes if c in o.classes))]
    assert len(calls[0]) == 3


def test_schema_connectivity_invariant(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    s = reshape(ontology_wx, dataset_2, mappings_wx, userinfo_main)
    seen = {s.main_class}
    frontier = [s.main_class]
    while frontier:
        node = frontier.pop()
        for _, f, t in s.edges:
            for nxt in ((t,) if f == node else (f,) if t == node else ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    assert seen == s.classes


def test_baseline_fixture(ontology_wx, mappings_wx, dataset_2):
    s = baseline_schema(ontology_wx, dataset_2, mappings_wx, "WeldingOperation")
    assert s.classes == {
        "WeldingOperation",
        "CurrentMeanValue",
        "CurrentArrayValue",
        "WeldingProgramID",
        "WeldingSoftwareSystem",
        "MeasurementModule",
        "OperationCurveCurrent",
        "WeldingProgram",
    }
    assert s.edges == ontology_wx.object_properties
    assert s.data_attachments == {
        ("hasValue", "CurrentMeanValue", ("welding_operation", "current_mean")),
        ("hasValue", "CurrentArrayValue", ("welding_operation", "current_array")),
        ("hasValue", "WeldingProgramID", ("welding_operation", "program_id")),
    }
    # the main class is keyed through its out-of-ontology ID attribute
    assert s.class_keys["WeldingOperation"] == ("welding_operation", "operation_id")
    # connectors stay keyless and tableless
    for connector in ("WeldingSoftwareSystem", "MeasurementModule", "OperationCurveCurrent", "WeldingProgram"):
        assert connector not in s.class_keys
        assert connector not in s.class_tables


def test_baseline_adjacent_classes_need_no_connectors():
    o = parse_ontology("class M\nclass A\nobjprop ma M A\n")
    m = parse_mappings(
        "kind,table,attribute,class\n"
        "table,welding_operation,,M\n"
        "attribute,welding_operation,x,A\n"
    )
    d = _single_table(["x"])
    s = baseline_schema(o, d, m, "M")
    assert s.classes == {"M", "A"}


def test_baseline_keeps_disconnected_pair(caplog):
    o = parse_ontology("class M\nclass A\n")
    m = parse_mappings(
        "kind,table,attribute,class\n"
        "table,welding_operation,,M\n"
        "attribute,welding_operation,x,A\n"
    )
    d = _single_table(["x"])
    with caplog.at_level(logging.WARNING):
        s = baseline_schema(o, d, m, "M")
    assert s.classes == {"M", "A"}
    assert s.edges == set()
    assert "disconnected" in caplog.text


def test_baseline_warns_once_for_all_unconnected_pairs(caplog):
    # two parts of four mapped classes each: 16 pairs have no path
    o = parse_ontology(
        "".join(f"class {c}\n" for c in "MABCWXYZ")
        + "objprop p M A\nobjprop q A B\nobjprop r B C\n"
        + "objprop s W X\nobjprop t X Y\nobjprop u Y Z\n"
    )
    m = MappingSet(
        {"welding_operation": "M"}, {("welding_operation", c.lower()): c for c in "ABCWXYZ"}
    )
    d = _single_table([c.lower() for c in "ABCWXYZ"])
    with caplog.at_level(logging.WARNING, logger="ontoshape.reshape"):
        s = baseline_schema(o, d, m, "M")
    assert s.classes == set("MABCWXYZ")
    records = [r for r in caplog.records if r.name == "ontoshape.reshape"]
    assert len(records) == 1
    assert records[0].args == (16, [("A", "W"), ("A", "X"), ("A", "Y")])
    assert "disconnected" in records[0].getMessage()


def test_baseline_covers_full_chain(ontology_w, dataset_2):
    m = parse_mappings(
        "kind,table,attribute,class\n"
        "table,welding_operation,,WeldingOperation\n"
        "attribute,welding_operation,current_mean,CurrentMeanValue\n"
        "attribute,welding_operation,current_array,CurrentArrayValue\n"
    )
    s = baseline_schema(ontology_w, dataset_2, m, "WeldingOperation")
    assert s.classes == ontology_w.classes  # the whole four-hop chain survives


def test_reshaped_is_smaller_than_baseline(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    r = reshape(ontology_wx, dataset_2, mappings_wx, userinfo_main)
    b = baseline_schema(ontology_wx, dataset_2, mappings_wx, "WeldingOperation")
    assert len(r.classes) < len(b.classes)


def test_schema_round_trip(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    for s in (
        reshape(ontology_wx, dataset_2, mappings_wx, userinfo_main),
        baseline_schema(ontology_wx, dataset_2, mappings_wx, "WeldingOperation"),
    ):
        text = serialize_schema(s)
        assert parse_schema(text) == s
        assert serialize_schema(parse_schema(text)) == text


def test_schema_source_tokens_survive_odd_names(userinfo_main):
    o = parse_ontology("class WeldingOperation\nclass V\n")
    m = MappingSet(
        {"weird.table": "WeldingOperation"},
        {("weird.table", "col.with dots"): "V"},
    )
    # the unmapped column attaches as "hasmy_attr"; its source token holds the dotted table name
    t = Table("weird.table", ["col.with dots", "my_attr"], [])
    d = Dataset({t.name: t}, t.name)
    s = reshape(o, d, m, userinfo_main, include_unmapped=True)
    assert ("hasmy_attr", "WeldingOperation", ("weird.table", "my_attr")) in s.data_attachments
    assert parse_schema(serialize_schema(s)) == s


@pytest.mark.parametrize("column", ["my attr", "attr/%", "é", "x.y"])
def test_include_unmapped_rejects_a_column_that_makes_no_identifier(userinfo_main, column):
    o = parse_ontology("class WeldingOperation\n")
    t = Table("t", [column], [])
    with pytest.raises(SchemaError, match=re.escape(f"unmapped attribute t.{column} ")):
        reshape(o, Dataset({"t": t}, "t"), MappingSet({}, {}), userinfo_main, include_unmapped=True)


@settings(max_examples=500, deadline=None)
@given(text=st.text())
def test_schema_token_is_quote_with_dots_encoded(text):
    assert reshape_module._enc(text) == quote(text, safe="_-").replace(".", "%2E")


@settings(max_examples=300, deadline=None)
@given(
    prop=st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True),
    tokens=st.lists(st.text(min_size=1), min_size=2, max_size=2, unique=True),
)
def test_attach_key_and_table_tokens_round_trip(prop, tokens):
    # a property goes into an IRI, so it is an identifier; table and attribute
    # tokens are any text. They are distinct: M and K name the tables table
    # and attr, and one table maps to one class
    table, attr = tokens
    s = KGSchema(
        "M", {"M", "K"}, {("r", "M", "K")},
        {(prop, "M", (table, attr)), ("p", "K", (attr, table))},
        {"K": (table, attr)}, {"M": table, "K": attr},
    )
    text = serialize_schema(s)
    assert parse_schema(text) == s
    assert serialize_schema(parse_schema(text)) == text


@pytest.mark.parametrize("name", ["has%20x", "a>b", "é"])
@pytest.mark.parametrize(
    "line", ["attach {} M t.a", "main {}", "class {}", "objprop {} M M", "objprop r {} M", "objprop r M {}"]
)
def test_parse_schema_rejects_a_name_that_is_no_identifier(line, name):
    # the attach property is percent-decoded first: has%20x names "has x"
    bad = unquote(name) if line.startswith("attach") else name
    with pytest.raises(ParseError, match=f"line 2: invalid identifier {re.escape(repr(bad))}"):
        parse_schema("class M\n" + line.format(name) + "\nmain M\n")


def test_parse_schema_rejects_duplicate_main():
    with pytest.raises(ParseError, match="duplicate main"):
        parse_schema("main A\nmain B\nclass A\nclass B\n")


@pytest.mark.parametrize("first, second", [("key A t.a", "key A t.b"), ("table A t", "table A u")])
def test_parse_schema_rejects_duplicate_key_and_table_lines(first, second):
    with pytest.raises(ParseError, match=f"line 4: duplicate {first.split()[0]} line for A"):
        parse_schema(f"main A\nclass A\n{first}\n{second}\n")


@pytest.mark.parametrize("second", ["table B t.u", "table B t%2Eu"])
def test_parse_schema_rejects_a_table_named_by_two_classes(second):
    # generate_kg would otherwise mint only one of the two classes from the table's rows
    with pytest.raises(ParseError, match=r"line 5: table 't\.u' is already mapped to A"):
        parse_schema(f"main A\nclass A\nclass B\ntable A t.u\n{second}\n")


def test_parse_schema_requires_main():
    with pytest.raises(ParseError, match="missing main"):
        parse_schema("class A\n")


def test_parse_schema_rejects_undeclared_edge_class():
    with pytest.raises(ParseError, match="undeclared class B"):
        parse_schema("main A\nclass A\nobjprop p A B\n")


@pytest.mark.parametrize("line", ["attach p Ghost t.a", "key Ghost t.a", "table Ghost t"])
def test_parse_schema_rejects_undeclared_class_in_source_lines(line):
    with pytest.raises(ParseError, match="line 3: undeclared class Ghost"):
        parse_schema(f"main A\nclass A\n{line}\n")


@pytest.mark.parametrize("line", ["objprop p A Ghost", "objprop p Ghost A"])
def test_parse_schema_gives_line_of_undeclared_edge_class(line):
    with pytest.raises(ParseError, match="line 3: undeclared class Ghost"):
        parse_schema(f"main A\nclass A\n{line}\n")


@pytest.mark.parametrize(
    "name, stem",
    [("WeldingProgramID", "WeldingProgram"), ("ToolName", "Tool"), ("sensorid", "sensor"),
     ("ID", None), ("Name", None), ("Value", None), ("Identity", None)],
)
def test_identifier_stem(name, stem):
    assert identifier_stem(name) == stem
