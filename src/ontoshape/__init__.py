"""Ontology reshaping and table-to-knowledge-graph generation."""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import DatasetError, OntoshapeError, ParseError, SchemaError
from .kggen import KnowledgeGraph, generate_kg, load_ntriples, mint_entity_id, serialize_ntriples
from .mapping import (
    ConnectionRule,
    EntityRule,
    MappingSet,
    UserInfo,
    parse_mappings,
    parse_userinfo,
    serialize_mappings,
    serialize_userinfo,
)
from .ontology import Ontology, parse_ontology, serialize_ontology
from .reshape import KGSchema, baseline_schema, parse_schema, serialize_schema
from .tabular import Dataset, Table, list_attributes, load_dataset, load_table, subsample_attributes

__all__ = [
    "ConnectionRule",
    "Dataset",
    "DatasetError",
    "EntityRule",
    "KGSchema",
    "KnowledgeGraph",
    "MappingSet",
    "Ontology",
    "OntoshapeError",
    "ParseError",
    "SchemaError",
    "Table",
    "UserInfo",
    "baseline_schema",
    "generate_kg",
    "list_attributes",
    "load_dataset",
    "load_ntriples",
    "load_table",
    "mint_entity_id",
    "parse_mappings",
    "parse_ontology",
    "parse_schema",
    "parse_userinfo",
    "serialize_mappings",
    "serialize_ntriples",
    "serialize_ontology",
    "serialize_schema",
    "serialize_userinfo",
    "subsample_attributes",
    "__version__",
]
