"""Synthetic fixture generator."""

from __future__ import annotations

import pytest

from ontoshape.kggen import generate_kg
from ontoshape.reshape import reshape
from ontoshape.syndata import MAIN_CLASS, MAIN_TABLE, SynthConfig, generate_synthetic, write_fixture_tree
from ontoshape.mapping import parse_mappings, parse_userinfo
from ontoshape.ontology import parse_ontology
from ontoshape.tabular import load_dataset


def test_shape_counts():
    o, d, m, u = generate_synthetic(SynthConfig(n_attributes=5, n_rows=7, chain_depth=3, n_entity_classes=2))
    # main + 2 satellite pairs + 5 chains of (depth-1 intermediates + leaf)
    assert len(o.classes) == 1 + 4 + 5 * 3
    assert len(o.object_properties) == 4 + 5 * 3
    assert u.main_class == MAIN_CLASS
    assert d.main_table == MAIN_TABLE
    assert len(d.main.rows) == 7
    assert len(d.main.attributes) == 1 + 2 + 5
    # every attribute mapped, table mapped to the main class
    assert m.table_map == {MAIN_TABLE: MAIN_CLASS}
    assert len(m.attribute_map) == len(d.main.attributes)


def test_operation_id_maps_outside_the_ontology():
    o, _, m, _ = generate_synthetic(SynthConfig(1, 1))
    cls = m.attribute_map[(MAIN_TABLE, "operation_id")]
    assert cls == "OperationID"
    assert cls not in o.classes


def test_cell_values_are_row_unique():
    _, d, _, _ = generate_synthetic(SynthConfig(n_attributes=3, n_rows=4))
    seen = set()
    for row in d.main.rows:
        for value in row.values():
            assert value not in seen
            seen.add(value)


def test_determinism():
    cfg = SynthConfig(n_attributes=6, n_rows=5, chain_depth=2, n_entity_classes=1)
    assert generate_synthetic(cfg) == generate_synthetic(cfg)


def test_zero_attributes_reshapes_to_entities_only():
    o, d, m, u = generate_synthetic(SynthConfig(n_attributes=0, n_rows=2, n_entity_classes=2))
    s = reshape(o, d, m, u)
    assert s.classes == {MAIN_CLASS, "Program", "Machine"}
    g = generate_kg(s, d, m, MAIN_CLASS)
    assert not any(dummy for _, dummy in g.entities.values())


def test_config_validation():
    with pytest.raises(ValueError, match="chain_depth"):
        SynthConfig(1, 1, chain_depth=0)
    with pytest.raises(ValueError, match="nonnegative"):
        SynthConfig(-1, 1)


def test_fixture_tree_round_trips(tmp_path):
    cfg = SynthConfig(n_attributes=4, n_rows=3, chain_depth=2, n_entity_classes=1)
    write_fixture_tree(cfg, tmp_path)
    o, d, m, u = generate_synthetic(cfg)
    assert parse_ontology((tmp_path / "ontology.osf").read_text()) == o
    assert parse_mappings((tmp_path / "mappings.csv").read_text()) == m
    assert parse_userinfo((tmp_path / "userinfo.json").read_text()) == u
    loaded = load_dataset(tmp_path / "data", MAIN_TABLE)
    assert loaded.main.attributes == d.main.attributes
    assert loaded.main.rows == d.main.rows
