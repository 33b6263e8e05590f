"""Golden digests: schema files and N-Triples output stay byte-identical.

Each case builds a schema and a graph through the public API and compares
the sha256 of ``serialize_schema`` and of ``serialize_ntriples`` with the
digests recorded below. The cases cover both schema builders on synthetic
and welding inputs, literals and keys with characters that need escaping,
and hand-written multi-table schemas that reach every way a table row can
produce entities: keyed and row-numbered ids, dummies, joins that match
and joins that do not, and empty keys. One reshape case needs every
wiring pass of ``connect_classes``.

A change that alters output on purpose updates the digests and says why;
``PYTHONPATH=src python tests/test_golden.py`` prints the current ones.
"""

from __future__ import annotations

import hashlib

import pytest
from conftest import MAPPINGS_WX, ONTOLOGY_WX

from ontoshape.kggen import generate_kg, serialize_ntriples
from ontoshape.mapping import ConnectionRule, EntityRule, MappingSet, UserInfo, parse_mappings
from ontoshape.ontology import parse_ontology
from ontoshape.reshape import KGSchema, baseline_schema, reshape, serialize_schema
from ontoshape.syndata import SynthConfig, generate_synthetic
from ontoshape.tabular import Dataset, Table

MC = "WeldingOperation"
ODD = ["a b", "x/y", "50%", 'say "hi"', "back\\slash", "two\nlines", "grüße ✓"]


def _table(name: str, attributes: list[str], rows: list[list[str]]) -> Table:
    return Table(name, attributes, [dict(zip(attributes, r)) for r in rows])


def _dataset(main: Table, *others: Table) -> Dataset:
    return Dataset({t.name: t for t in (main, *others)}, main.name)


def _synthetic():
    return generate_synthetic(SynthConfig(n_attributes=5, n_rows=4, chain_depth=3))


def _odd_characters():
    """Welding inputs whose key and value cells need escaping, plus an
    attribute whose name needs encoding in the schema file."""
    attrs = ["operation_id", "program_id", "current_mean", "current_array", "mean value/%"]
    rows = [
        [f"op{i} {v}", f"pg {v}", v, f"[{v}]", f"m{i}{v}"] for i, v in enumerate(ODD)
    ]
    m = parse_mappings(MAPPINGS_WX)
    m.attribute_map[("welding_operation", "mean value/%")] = "CurrentMeanValue"
    d = _dataset(_table("welding_operation", attrs, rows))
    return parse_ontology(ONTOLOGY_WX), d, m, UserInfo(MC)


def _welding_tables():
    """Welding inputs over three tables: a program table keyed on its own
    column and a trace table joined to operations by operation id."""
    m = parse_mappings(
        MAPPINGS_WX
        + "table,welding_program,,WeldingProgram\n"
        + "attribute,welding_program,program_id,WeldingProgramID\n"
        + "table,welding_trace,,OperationCurveCurrent\n"
        + "attribute,welding_trace,operation_id,WeldingOperationID\n"
        + "attribute,welding_trace,current_array,CurrentArrayValue\n"
    )
    op = _table(
        "welding_operation",
        ["operation_id", "program_id", "current_mean", "current_array"],
        [["op1", "pg1", "1.5", "[1]"], ["op2", "pg2", "2.5", ""], ["", "pg3", "3.5", "[3]"]],
    )
    program = _table("welding_program", ["program_id"], [["pg1"], ["pg9"], [""]])
    trace = _table(
        "welding_trace",
        ["operation_id", "current_array"],
        [["op1", "[1,1]"], ["op7", "[7]"], ["", "[0]"], ["op2", "[2,2]"]],
    )
    return parse_ontology(ONTOLOGY_WX), _dataset(op, program, trace), m, UserInfo(MC)


def _wiring_passes():
    """Welding inputs whose reshape needs every wiring pass. Software and
    the curve relate only indirectly, under a user rule; Spot is declared
    without relations; Robot and Gun form a cluster the main class cannot
    reach; SensorChannel comes from an entity rule the ontology does not
    declare, and a rule naming it links it; a rule naming Ghost is skipped."""
    o = parse_ontology(
        ONTOLOGY_WX
        + "class Robot\nclass Gun\nclass GunForce\nclass Spot\n"
        + "objprop holds Robot Gun\nobjprop hasForce Gun GunForce\n"
    )
    m = parse_mappings(
        MAPPINGS_WX
        + "attribute,welding_operation,robot_id,RobotID\n"
        + "attribute,welding_operation,spot_id,SpotID\n"
        + "attribute,welding_operation,channel_code,SensorChannelCode\n"
        + "table,welding_curve,,OperationCurveCurrent\n"
        + "attribute,welding_curve,operation_id,WeldingOperationID\n"
        + "attribute,welding_curve,current_array,CurrentArrayValue\n"
        + "table,software,,WeldingSoftwareSystem\n"
        + "attribute,software,software_id,WeldingSoftwareSystemID\n"
        + "table,gun,,Gun\n"
        + "attribute,gun,gun_id,GunID\n"
        + "attribute,gun,force,GunForce\n"
    )
    op = _table(
        "welding_operation",
        ["operation_id", "program_id", "current_mean", "current_array", "robot_id", "spot_id",
         "channel_code"],
        [["op1", "pg1", "1.5", "[1]", "r1", "s1", "ch1"], ["op2", "pg1", "2.5", "[2]", "r2", "s1", "ch2"]],
    )
    curve = _table("welding_curve", ["operation_id", "current_array"], [["op1", "[1,1]"], ["op3", "[3]"]])
    software = _table("software", ["software_id", "version"], [["sw1", "1.0"], ["sw2", "2.0"]])
    gun = _table("gun", ["gun_id", "force"], [["g1", "3.5"], ["g2", ""]])
    u = UserInfo(
        MC,
        (EntityRule("SensorChannelCode", "SensorChannel", "hasChannel"),),
        (ConnectionRule("WeldingSoftwareSystem", "OperationCurveCurrent", "recordsCurve"),
         ConnectionRule("SensorChannel", "OperationCurveCurrent", "feeds"),
         ConnectionRule("Ghost", MC, "haunts")),
    )
    return o, _dataset(op, curve, software, gun), m, u


def _renamed_table(inputs, old: str, new: str):
    """The same inputs with table ``old`` called ``new``."""
    o, d, m, u = inputs
    name = {old: new}
    tables = [Table(name.get(t.name, t.name), t.attributes, t.rows) for t in d.tables.values()]
    m = MappingSet(
        {name.get(t, t): c for t, c in m.table_map.items()},
        {(name.get(t, t), a): c for (t, a), c in m.attribute_map.items()},
    )
    return o, Dataset({t.name: t for t in tables}, d.main_table), m, u


def _built(builder, inputs):
    o, d, m, u = inputs
    if builder is reshape:
        return reshape(o, d, m, u), d, m, u.main_class
    return baseline_schema(o, d, m, u.main_class), d, m, u.main_class


# Hand-written schemas. Op is the main class on table "op"; Mod and Curve
# carry neither key nor table, so they are dummies; Station is mapped to
# the main table without a key; Robot is keyed in a table no class is
# mapped to, so it never materializes.

_HAND_CLASSES = {"Op", "Tool", "Station", "Mod", "Curve", "Program", "Machine", "Sensor", "Robot"}
_HAND_EDGES = {
    ("hasTool", "Op", "Tool"),
    ("at", "Op", "Station"),
    ("stationTool", "Station", "Tool"),
    ("hasMod", "Op", "Mod"),
    ("hasCurve", "Mod", "Curve"),
    ("runs", "Op", "Program"),
    ("uses", "Program", "Machine"),
    ("on", "Sensor", "Machine"),
    ("sensed", "Op", "Sensor"),
    ("drives", "Robot", "Op"),
}
_HAND_ATTACHMENTS = {
    ("hasNote", "Op", ("op", "note")),
    ("hasTemp", "Curve", ("op", "temp")),
    ("hasStation", "Station", ("op", "station")),
    ("hasToolID", "Tool", ("op", "tool_id")),
    ("hasPName", "Program", ("prog", "pname")),
    ("hasCount", "Op", ("prog", "count")),
    ("hasStray", "Tool", ("prog", "pname")),
    ("hasReading", "Sensor", ("sensor", "reading")),
    ("hasMachineID", "Machine", ("sensor", "machine_id")),
    ("hasMsg", "Op", ("oplog", "msg")),
}


def _hand_dataset() -> Dataset:
    op = _table(
        "op",
        ["op_id", "tool_id", "temp", "note", "station"],
        [
            ["op1", "t1", "21.5", "a b/c%", "st A"],
            ["", "t2", "22", "no key", "st B"],
            ["op3", "", "23", "no tool", "st C"],
            ["op4", "t1", "", 'q"uote\\', "ü\nst"],
        ],
    )
    oplog = _table("oplog", ["op_id", "msg"], [["op1", "hello"], ["op9", "lost"], ["", "blank"]])
    prog = _table(
        "prog",
        ["pid", "op_id", "pname", "count"],
        [["p1", "op1", "alpha", "1"], ["p2", "op4", "beta", ""], ["p3", "op7", "gamma", "3"],
         ["", "op3", "delta", "4"]],
    )
    sensor = _table(
        "sensor",
        ["machine_id", "op_id", "reading"],
        [["m1", "op1", "0.1"], ["", "op4", "0.2"], ["m2", "op2", "0.3"], ["m1", "op4", ""]],
    )
    spare = _table("spare", ["rid"], [["r1"]])
    return _dataset(op, oplog, prog, sensor, spare)


def _hand_schema(class_keys: dict, class_tables: dict) -> KGSchema:
    return KGSchema(
        "Op", set(_HAND_CLASSES), set(_HAND_EDGES), set(_HAND_ATTACHMENTS),
        class_keys, class_tables,
    )


_HAND_KEYS = {"Tool": ("op", "tool_id"), "Program": ("prog", "pid"),
              "Machine": ("sensor", "machine_id"), "Robot": ("spare", "rid")}
_HAND_TABLES = {"Station": "op", "Program": "prog", "Sensor": "sensor"}


def _hand(mc_key, mc_table):
    keys = dict(_HAND_KEYS)
    if mc_key is not None:
        keys["Op"] = mc_key
    tables = dict(_HAND_TABLES)
    if mc_table is not None:
        tables["Op"] = mc_table
    return _hand_schema(keys, tables), _hand_dataset(), MappingSet({}, {}), "Op"


CASES = {
    "synthetic_baseline": lambda: _built(baseline_schema, _synthetic()),
    "synthetic_reshape": lambda: _built(reshape, _synthetic()),
    "odd_characters_baseline": lambda: _built(baseline_schema, _odd_characters()),
    "odd_characters_reshape": lambda: _built(reshape, _odd_characters()),
    "welding_tables_baseline": lambda: _built(baseline_schema, _welding_tables()),
    "welding_tables_reshape": lambda: _built(reshape, _welding_tables()),
    "wiring_passes_reshape": lambda: _built(reshape, _wiring_passes()),
    # main class keyed on the main table, joined from prog, sensor and
    # oplog; oplog is the main class's own secondary table
    "hand_main_keyed": lambda: _hand(("op", "op_id"), "oplog"),
    # main class without a key: row-numbered ids and no joins
    "hand_main_unkeyed": lambda: _hand(None, None),
    # main class keyed from a secondary table it is mapped to: the main
    # table falls back to row numbers and oplog mints keyed main entities
    "hand_main_key_elsewhere": lambda: _hand(("oplog", "op_id"), "oplog"),
}

GOLDEN = {
    'hand_main_key_elsewhere': ('27a3f6186af40d7063bf95cc70696885c8749bfaa6430e44f373f5c106daf922', 'df89944b787c845a519639b45bc884fbe59accc4da511a65d9823d326b71c284'),
    'hand_main_keyed': ('f87e8f7dcee54a5556c29afa28dbf2f32f30cd897bc492f48e20b17c5368e443', '8ddcc1d60637a9978303f157117eccd1430a6918d9eeba48203fc5f1fcd54a34'),
    'hand_main_unkeyed': ('a0c85378ffc05cf54d26c0a934d78bc07469e759e357471efd4dd126f713436b', '315da5be8aa2fce1a3bf98c6a2f3390b32c1102b1e5050636d6dfe35eb3d9baa'),
    'odd_characters_baseline': ('d3095a3c367c9c1999d851e21ca87f5b2aa55dbd15919cdfd758e4268be38f47', 'bf8421e350994a339e1fc31f1322579361d4f4430769a940b02994578f2551ef'),
    'odd_characters_reshape': ('cc8212ca8cb093ee48ebaa28998d8ca7487cd37f85c339db99fd03b8aa0232aa', 'faf091227103950dd145ae0efc288125322fdfaf2f11531cc647689fd6d32a81'),
    'synthetic_baseline': ('71196494fb77462a83140baae758128be58a51bf7ceed5976cb8c15c631095a4', '445243d89a5d8c5784f9a5a5a054813dd773f1b2fe1856d3201efd8c4cda2195'),
    'synthetic_reshape': ('79c6772a77d9281030e3aecc6ab9a0534e1f1bcefb35e0f807a09d3f88696817', '919ef983dddf6f06d9f727c40161c84d42267654d23f6d69000bc7af247ca732'),
    'welding_tables_baseline': ('b955c3c445bcdcad6d1cbf5cf4d4fb69441292c050742de17056141439ce2fb4', 'b6f9ababdf01b4bbf4c63dec30b7d1404762425970721ade4306e69f52ff49e2'),
    'welding_tables_reshape': ('138d98b60fcf9496003b737de5497083c5b81171540e43ddbdac3d99552b63ce', '6ef20a64e32372fa485a85609de31f82d585db0283ef1062a48a076c80c5da73'),
    'wiring_passes_reshape': ('36fb11039da813d9a1404ac8685af7d0a21b6569a91265ba388d7bc68cd84268', 'eb3ffc519e1609248db5d1b36e7a432ff641d77df5189dc8f98adb7d9a7278f2'),
}


def digests(name: str) -> tuple[str, str]:
    s, d, m, mc = CASES[name]()
    schema_text = serialize_schema(s)
    triples = serialize_ntriples(generate_kg(s, d, m, mc))
    return (
        hashlib.sha256(schema_text.encode("utf-8")).hexdigest(),
        hashlib.sha256(triples.encode("utf-8")).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_digest(name):
    assert digests(name) == GOLDEN[name]


@pytest.mark.parametrize("builder", [baseline_schema, reshape])
def test_table_names_do_not_pick_the_main_key(builder):
    # curve_log sorts before welding_operation and repeats its operation_id;
    # the main table's column must still key the main class
    outputs = []
    for inputs in (_welding_tables(), _renamed_table(_welding_tables(), "welding_trace", "curve_log")):
        s, d, m, mc = _built(builder, inputs)
        text = serialize_schema(s) + serialize_ntriples(generate_kg(s, d, m, mc))
        outputs.append(sorted(text.replace("welding_trace", "curve_log").splitlines()))
    assert outputs[0] == outputs[1]


def test_every_case_has_a_golden_digest():
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {digests(case)!r},")
