"""Coverage, counts, and depth measurements.

depth_metrics gets cross-checked against a Floyd-Warshall oracle on random
graphs; the implementation under test uses BFS sweeps, so any disagreement
points at a real defect rather than shared assumptions.
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_generate_reference import _inputs, _reference_generate_kg
from test_ntriples import _reference_load

from ontoshape import metrics as metrics_module
from ontoshape.errors import DatasetError, SchemaError
from ontoshape.kggen import KnowledgeGraph, generate_kg, load_ntriples, serialize_ntriples
from ontoshape.mapping import MappingSet
from ontoshape.metrics import (
    ROW_LABELS,
    MetricsReport,
    build_report,
    data_coverage,
    depth_metrics,
    kg_counts,
    report_text,
)
from ontoshape.reshape import KGSchema, baseline_schema, reshape
from ontoshape.syndata import MAIN_CLASS, MAIN_TABLE, SynthConfig, generate_synthetic
from ontoshape.tabular import Dataset, Table, list_attributes

MC = "WeldingOperation"


def _fixture_graphs(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    rs = reshape(ontology_wx, dataset_2, mappings_wx, userinfo_main)
    bs = baseline_schema(ontology_wx, dataset_2, mappings_wx, MC)
    return (
        (rs, generate_kg(rs, dataset_2, mappings_wx, MC)),
        (bs, generate_kg(bs, dataset_2, mappings_wx, MC)),
    )


def test_coverage_full(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    for s, _ in _fixture_graphs(ontology_wx, mappings_wx, dataset_2, userinfo_main):
        assert data_coverage(s, dataset_2) == 1.0


def test_coverage_counts_missing_attribute(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    (s, _), _ = _fixture_graphs(ontology_wx, mappings_wx, dataset_2, userinfo_main)
    table = dataset_2.tables["welding_operation"]
    for row in table.rows:
        row["current_array"] = ""
    g = generate_kg(s, dataset_2, mappings_wx, MC)
    assert not any(prop == "hasCurrentArrayValue" for _, prop, _ in g.literals)
    assert data_coverage(s, dataset_2) == 0.75


def test_coverage_vacuous():
    s = KGSchema("M", {"M"}, set())
    d = Dataset({"m": Table("m", [], [])}, "m")
    assert data_coverage(s, d) == 1.0


def test_dummy_counts(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    (rs, gr), (bs, gb) = _fixture_graphs(ontology_wx, mappings_wx, dataset_2, userinfo_main)
    # kg_counts leaves dummies out of its entity count
    for s, g, dummies in ((rs, gr, 0), (bs, gb, 8), (rs, KnowledgeGraph({}, set(), set()), 0)):
        assert len(g.entities) - kg_counts(g, s)[3] == dummies


def test_kg_counts(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    (rs, gr), (bs, gb) = _fixture_graphs(ontology_wx, mappings_wx, dataset_2, userinfo_main)
    assert kg_counts(gr, rs) == (2, 2, 6, 4)
    assert kg_counts(gb, bs) == (8, 14, 6, 8)


def test_report_counts_match_read_back_when_rows_share_keys():
    o, d, m, u = generate_synthetic(SynthConfig(n_attributes=3, n_rows=8, chain_depth=2))
    table = d.tables[MAIN_TABLE]
    for r, row in enumerate(table.rows):
        for attr in table.attributes[1:]:  # entity keys and values alike
            row[attr] = f"{attr}_{r % 3}"
    for s in (baseline_schema(o, d, m, MAIN_CLASS), reshape(o, d, m, u)):
        g = generate_kg(s, d, m, MAIN_CLASS)
        text = serialize_ntriples(g)
        literal_lines = sum(1 for line in text.splitlines() if line.endswith('" .'))
        cells = sum(1 for _, _, (_, attr) in s.data_attachments for row in table.rows if row[attr])
        assert literal_lines == len(g.literals) < cells  # rows repeat literals
        reports = [
            build_report(graph, s, d, m, MAIN_CLASS, storage_bytes=len(text))
            for graph in (g, load_ntriples(text, schema=s))
        ]
        assert reports[0].data_prop_count == literal_lines
        assert reports[0] == reports[1]  # every field, coverage included


def _per_row_report(
    g: KnowledgeGraph, covered: frozenset[tuple[str, str]], s: KGSchema, d: Dataset, mc: str
) -> MetricsReport:
    """``build_report``'s rules for a graph whose literals may repeat as
    (subject, property, value, (table, attribute, row)), one per source
    row, as graphs kept them before they kept a set of distinct triples,
    with ``covered`` the (table, attribute) pairs the graph represents."""
    attrs = list_attributes(d)
    dummies = sum(1 for _, dummy in g.entities.values() if dummy)
    root_depth, global_depth = depth_metrics(g, mc)
    return MetricsReport(
        data_coverage=sum(1 for ta in attrs if ta in covered) / len(attrs) if attrs else 1.0,
        time_cost_ms=0.0,
        storage_bytes=0,
        class_count=len(s.classes),
        object_prop_count=len(g.object_triples),
        data_prop_count=len({t[:3] for t in g.literals}),
        entity_count=len(g.entities) - dummies,
        dummy_count=dummies,
        root_to_leaf_depth=root_depth,
        global_depth=global_depth,
    )


@settings(max_examples=300, deadline=None)
@given(inputs=_inputs())
def test_report_matches_the_per_row_literal_rules(inputs):
    s, d, mc = inputs
    m = MappingSet({}, {})
    try:
        per_row, key_sources = _reference_generate_kg(s, d, m, mc)
    except (DatasetError, SchemaError):
        assume(False)
    covered = key_sources | {src[:2] for *_, src in per_row.literals}
    g = generate_kg(s, d, m, mc)
    assert build_report(g, s, d, m, mc) == _per_row_report(per_row, covered, s, d, mc)
    text = serialize_ntriples(g)
    back = load_ntriples(text, schema=s)
    assert build_report(back, s, d, m, mc) == _per_row_report(_reference_load(text), covered, s, d, mc)


def test_kg_counts_empty():
    s = KGSchema("M", {"M"}, set())
    g = KnowledgeGraph({}, set(), set())
    assert kg_counts(g, s) == (1, 0, 0, 0)


def test_depths_fixture(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    (_, gr), (_, gb) = _fixture_graphs(ontology_wx, mappings_wx, dataset_2, userinfo_main)
    assert depth_metrics(gr, MC) == (1, 1)
    root, global_depth = depth_metrics(gb, MC)
    assert root == 4  # operation to the mean/array leaves
    assert global_depth == 6  # leaf value to the program id across the hub


def test_depths_trivial():
    assert depth_metrics(KnowledgeGraph({}, set(), set()), MC) == (0, 0)
    single = KnowledgeGraph({"M/x": ("M", False)}, set(), set())
    assert depth_metrics(single, "M") == (0, 0)


def test_depths_cycle_component():
    # triangle with a tail; cyclic components must not take tree shortcuts
    entities = {e: (e[0], False) for e in ["M1", "X1", "Y1", "Z1"]}
    edges = {
        ("M1", "r", "X1"),
        ("X1", "r", "Y1"),
        ("Y1", "r", "Z1"),
        ("Z1", "r", "X1"),
    }
    g = KnowledgeGraph(entities, edges, set())
    assert depth_metrics(g, "M") == (2, 2)


def test_depths_ignore_direction_and_parallel_edges():
    entities = {"M/a": ("M", False), "C/b": ("C", False)}
    edges = {("M/a", "p", "C/b"), ("C/b", "q", "M/a")}
    g = KnowledgeGraph(entities, edges, set())
    assert depth_metrics(g, "M") == (1, 1)


def test_global_depth_spans_components_without_main_entities():
    entities = {
        "M/a": ("M", False),
        "C/b": ("C", False), "C/c": ("C", False), "C/d": ("C", False),
    }
    edges = {("C/b", "r", "C/c"), ("C/c", "r", "C/d")}
    g = KnowledgeGraph(entities, edges, set())
    # the main entity is isolated; the other component still sets the global
    assert depth_metrics(g, "M") == (0, 2)


def _oracle_depths(entities, object_triples, mc):
    """All-pairs shortest paths by Floyd-Warshall; the slow reference."""
    ids = sorted(entities)
    idx = {e: i for i, e in enumerate(ids)}
    n = len(ids)
    inf = float("inf")
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for subj, _, obj in object_triples:
        a, b = idx[subj], idx[obj]
        if a != b:
            dist[a][b] = dist[b][a] = 1.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    root = 0
    widest = 0
    for i in range(n):
        from_main = entities[ids[i]][0] == mc
        for j in range(n):
            hops = dist[i][j]
            if hops == inf:
                continue
            widest = max(widest, int(hops))
            if from_main:
                root = max(root, int(hops))
    return root, widest


def _random_kg(rng, max_entities=50):
    n = rng.randint(1, max_entities)
    entities = {}
    for i in range(n):
        cls = "M" if rng.random() < 0.25 else f"C{rng.randint(0, 3)}"
        entities[f"{cls}/e{i}"] = (cls, False)
    ids = list(entities)
    edges = set()
    if n > 1:
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.sample(ids, 2)
            edges.add((a, f"r{rng.randint(0, 2)}", b))
    return KnowledgeGraph(entities, edges, set())


def test_depths_match_floyd_warshall_oracle():
    rng = random.Random(416)
    for _ in range(50):
        g = _random_kg(rng)
        expected = _oracle_depths(g.entities, g.object_triples, "M")
        assert depth_metrics(g, "M") == expected


def test_depths_match_oracle_when_rows_share_entities():
    # program and machine keys drawn from 2-3 values: rows share entities.
    # 10 rows over at most 9 key pairs means two rows share both keys, which
    # closes a cycle through two main entities
    ontology, dataset, mappings, userinfo = generate_synthetic(SynthConfig(3, 10, chain_depth=2))
    table = dataset.tables[MAIN_TABLE]
    for seed in range(4):
        rng = random.Random(seed)
        values = 2 + seed % 2
        rows = [
            {**row, "program_id": f"p{rng.randrange(values)}", "machine_id": f"m{rng.randrange(values)}"}
            for row in table.rows
        ]
        shared = Dataset({MAIN_TABLE: Table(MAIN_TABLE, table.attributes, rows)}, MAIN_TABLE)
        for schema in (
            baseline_schema(ontology, shared, mappings, MAIN_CLASS),
            reshape(ontology, shared, mappings, userinfo),
        ):
            g = generate_kg(schema, shared, mappings, MAIN_CLASS)
            expected = _oracle_depths(g.entities, g.object_triples, MAIN_CLASS)
            assert depth_metrics(g, MAIN_CLASS) == expected, f"seed {seed}"


@st.composite
def _sparse_graphs(draw):
    """A random forest plus 0-3 chords, with 0-4 main entities."""
    n = draw(st.integers(1, 30))
    pairs = set()
    for i in range(1, n):
        parent = draw(st.integers(-1, i - 1))  # -1 starts a new tree
        if parent >= 0:
            pairs.add((i, parent))
    for _ in range(draw(st.integers(0, 3))):
        pairs.add((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
    mains = draw(st.sets(st.integers(0, n - 1), max_size=4))
    entities = {f"e{i}": ("M" if i in mains else "C", False) for i in range(n)}
    return KnowledgeGraph(entities, {(f"e{a}", "r", f"e{b}") for a, b in pairs}, set())


@settings(max_examples=300, deadline=None)
@given(g=_sparse_graphs())
def test_depths_match_oracle_on_sparse_graphs(g):
    assert depth_metrics(g, "M") == _oracle_depths(g.entities, g.object_triples, "M")


@st.composite
def _trees_with_redundant_triples(draw):
    """A random forest whose edges also appear reversed, under a second
    relation, or both, plus 0-3 self-loops and 0-4 main entities."""
    n = draw(st.integers(2, 30))
    triples = set()
    for i in range(1, n):
        parent = draw(st.integers(-1, i - 1))  # -1 starts a new tree
        if parent < 0:
            continue
        triples.add((f"e{i}", "r", f"e{parent}"))
        if draw(st.booleans()):
            triples.add((f"e{parent}", "r", f"e{i}"))
        if draw(st.booleans()):
            triples.add((f"e{i}", "s", f"e{parent}"))
    for v in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        triples.add((f"e{v}", "r", f"e{v}"))
    mains = draw(st.sets(st.integers(0, n - 1), max_size=4))
    entities = {f"e{i}": ("M" if i in mains else "C", False) for i in range(n)}
    return KnowledgeGraph(entities, triples, set())


@settings(max_examples=300, deadline=None)
@given(g=_trees_with_redundant_triples())
def test_redundant_triples_keep_a_tree_on_the_tree_path(g):
    tree_flags = []
    real = metrics_module._component_depths

    def spy(ecc, far, comp, mains, tree):
        tree_flags.append(tree)
        return real(ecc, far, comp, mains, tree)

    with mock.patch.object(metrics_module, "_component_depths", spy):
        got = depth_metrics(g, "M")
    # one call per component with an edge, each on the tree path
    assert tree_flags == [True] * len(_components_with_edges(g))
    assert got == _oracle_depths(g.entities, g.object_triples, "M")


@settings(max_examples=200, deadline=None)
@given(g=st.one_of(_sparse_graphs(), _trees_with_redundant_triples()), rnd=st.randoms())
def test_depths_do_not_depend_on_entity_order(g, rnd):
    # the entities dict's order picks where each component's first sweep starts
    items = list(g.entities.items())
    shuffled = items[:]
    rnd.shuffle(shuffled)
    want = depth_metrics(g, "M")
    for order in (items[::-1], shuffled):
        reordered = KnowledgeGraph(dict(order), g.object_triples, g.literals)
        assert depth_metrics(reordered, "M") == want


def _components_with_edges(g):
    """Connected components with at least one edge, by union-find."""
    parent = {e: e for e in g.entities}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for a, _, b in g.object_triples:
        parent[find(a)] = find(b)
    return {find(a) for a, _, b in g.object_triples if a != b}


def test_root_never_exceeds_global():
    rng = random.Random(77)
    for _ in range(30):
        g = _random_kg(rng, max_entities=30)
        root, widest = depth_metrics(g, "M")
        assert root <= widest


def test_build_report_fields(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    (rs, gr), _ = _fixture_graphs(ontology_wx, mappings_wx, dataset_2, userinfo_main)
    size = len(serialize_ntriples(gr).encode("utf-8"))
    r = build_report(gr, rs, dataset_2, mappings_wx, MC, time_cost_ms=42.0, storage_bytes=size)
    assert r.data_coverage == 1.0
    assert r.class_count == 2
    assert r.object_prop_count == 2
    assert r.data_prop_count == 6
    assert r.entity_count == 4
    assert r.dummy_count == 0
    assert (r.root_to_leaf_depth, r.global_depth) == (1, 1)
    assert r.time_cost_ms == 42.0
    assert r.storage_bytes == size


def test_report_text_contains_all_labels(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    (rs, gr), _ = _fixture_graphs(ontology_wx, mappings_wx, dataset_2, userinfo_main)
    text = report_text(build_report(gr, rs, dataset_2, mappings_wx, MC))
    for label in ROW_LABELS:
        assert label in text
    assert text.splitlines()[0].startswith("data coverage")
