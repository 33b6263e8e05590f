"""Coverage, counts, and depth measurements.

depth_metrics gets cross-checked against a Floyd-Warshall oracle on random
graphs, and against it and a BFS from every entity on graph families built
for each of its reductions (pendant trees, false twins, parallel chains);
the implementation under test peels, reduces and bounds, so any
disagreement points at a real defect rather than shared assumptions.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
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
    for s, g, dummies in ((rs, gr, 0), (bs, gb, 8), (rs, KnowledgeGraph({}, {}, {}), 0)):
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
    g = KnowledgeGraph({}, {}, {})
    assert kg_counts(g, s) == (1, 0, 0, 0)


def test_depths_fixture(ontology_wx, mappings_wx, dataset_2, userinfo_main):
    (_, gr), (_, gb) = _fixture_graphs(ontology_wx, mappings_wx, dataset_2, userinfo_main)
    assert depth_metrics(gr, MC) == (1, 1)
    root, global_depth = depth_metrics(gb, MC)
    assert root == 4  # operation to the mean/array leaves
    assert global_depth == 6  # leaf value to the program id across the hub


def test_depths_trivial():
    assert depth_metrics(KnowledgeGraph({}, {}, {}), MC) == (0, 0)
    single = KnowledgeGraph({"M/x": ("M", False)}, {}, {})
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
    g = KnowledgeGraph(entities, dict.fromkeys(edges), {})
    assert depth_metrics(g, "M") == (2, 2)


def test_depths_ignore_direction_and_parallel_edges():
    entities = {"M/a": ("M", False), "C/b": ("C", False)}
    edges = {("M/a", "p", "C/b"), ("C/b", "q", "M/a")}
    g = KnowledgeGraph(entities, dict.fromkeys(edges), {})
    assert depth_metrics(g, "M") == (1, 1)


def test_global_depth_spans_components_without_main_entities():
    entities = {
        "M/a": ("M", False),
        "C/b": ("C", False), "C/c": ("C", False), "C/d": ("C", False),
    }
    edges = {("C/b", "r", "C/c"), ("C/c", "r", "C/d")}
    g = KnowledgeGraph(entities, dict.fromkeys(edges), {})
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
    return KnowledgeGraph(entities, dict.fromkeys(edges), {})


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
    return KnowledgeGraph(entities, {(f"e{a}", "r", f"e{b}"): None for a, b in pairs}, {})


@settings(max_examples=300, deadline=None)
@given(g=_sparse_graphs())
def test_depths_match_oracle_on_sparse_graphs(g):
    assert depth_metrics(g, "M") == _oracle_depths(g.entities, g.object_triples, "M")


@st.composite
def _with_redundant_triples(draw, family):
    """A graph of ``family``, given as (node count, node pairs, main nodes),
    each pair also reversed, under a second relation, or both, plus 0-3
    self-loops."""
    n, pairs, mains = draw(family)
    triples = set()
    for a, b in pairs:
        triples.add((f"e{a}", "r", f"e{b}"))
        if draw(st.booleans()):
            triples.add((f"e{b}", "r", f"e{a}"))
        if draw(st.booleans()):
            triples.add((f"e{a}", "s", f"e{b}"))
    for v in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        triples.add((f"e{v}", "r", f"e{v}"))
    entities = {f"e{i}": ("M" if i in mains else "C", False) for i in range(n)}
    return KnowledgeGraph(entities, dict.fromkeys(triples), {})


@st.composite
def _forests(draw):
    """A random forest of 2-30 nodes, as (node count, node pairs, main
    nodes), with 0-4 main nodes."""
    n = draw(st.integers(2, 30))
    pairs = set()
    for i in range(1, n):
        parent = draw(st.integers(-1, i - 1))  # -1 starts a new tree
        if parent >= 0:
            pairs.add((i, parent))
    return n, pairs, draw(st.sets(st.integers(0, n - 1), max_size=4))


@settings(max_examples=300, deadline=None)
@given(g=_with_redundant_triples(_forests()))
def test_redundant_triples_keep_a_tree_on_the_tree_path(g):
    # a pair that several triples join is left unpeeled at first; once the
    # lists hold it once, the tree peels, and no core is reduced or swept
    with mock.patch.object(metrics_module, "_reduce", side_effect=AssertionError("a tree has no core")):
        got, count = _bfs_count(g, "M")
    assert count == 0
    assert got == _oracle_depths(g.entities, g.object_triples, "M")


def _brute_force_depths(g, mc):
    """One BFS from every entity over the undirected graph: the other slow
    reference, independent of Floyd-Warshall's matrix."""
    adj = {e: set() for e in g.entities}
    for a, _, b in g.object_triples:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    root = widest = 0
    for source in g.entities:
        dist = {source: 0}
        queue = [source]
        for a in queue:
            for b in adj[a]:
                if b not in dist:
                    dist[b] = dist[a] + 1
                    queue.append(b)
        ecc = max(dist.values())
        widest = max(widest, ecc)
        if g.entities[source][0] == mc:
            root = max(root, ecc)
    return root, widest


def _hang_path(pairs, at, length, n):
    """Adds a path of ``length`` new nodes, numbered from ``n``, hanging
    from node ``at``; returns the next free number."""
    for _ in range(length):
        pairs.add((at, n))
        at, n = n, n + 1
    return n


@st.composite
def _hub_graphs(draw):
    """Bipartite hubs: 2-4 hubs, and 2-14 nodes each joined to one of 1-3
    hub sets, so that neighbour sets repeat, each with a pendant path of 0-2
    edges; 0-4 main nodes anywhere."""
    hubs = draw(st.integers(2, 4))
    hub_sets = draw(st.lists(st.sets(st.integers(0, hubs - 1), min_size=1), min_size=1, max_size=3))
    pairs, n = set(), hubs
    for _ in range(draw(st.integers(2, 14))):
        v, n = n, n + 1
        pairs.update((v, h) for h in draw(st.sampled_from(hub_sets)))
        n = _hang_path(pairs, v, draw(st.integers(0, 2)), n)
    return n, pairs, draw(st.sets(st.integers(0, n - 1), max_size=4))


@st.composite
def _pendant_graphs(draw):
    """A cycle of 3-8 nodes with 0-2 chords, and 0-20 more nodes, each
    hanging from the node before it or from any earlier one: pendant trees
    of mixed heights. 1-4 main nodes, drawn from the tree nodes when there
    are any, and at most one on the cycle."""
    c = draw(st.integers(3, 8))
    pairs = {(i, (i + 1) % c) for i in range(c)}
    for _ in range(draw(st.integers(0, 2))):
        pairs.add((draw(st.integers(0, c - 1)), draw(st.integers(0, c - 1))))
    n = c + draw(st.integers(0, 20))
    pairs.update((i, i - 1 if draw(st.booleans()) else draw(st.integers(0, i - 1))) for i in range(c, n))
    mains = draw(st.sets(st.integers(c if n > c else 0, n - 1), min_size=1, max_size=4))
    return n, pairs, mains | draw(st.sets(st.integers(0, c - 1), max_size=1))


@st.composite
def _chain_graphs(draw):
    """2-3 hubs joined by 3-10 parallel chains of 2-4 edges, each drawn from
    1-3 profiles (ends, length, pendant path height at each inner node), so
    that equal chains repeat beside unequal ones; 0-3 main nodes on the
    chains' inner nodes, and at most one anywhere."""
    hubs = draw(st.integers(2, 3))
    profiles = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(2, 4))
        ends = (draw(st.integers(0, hubs - 1)), draw(st.integers(0, hubs - 1)))
        profiles.append((ends, [draw(st.integers(0, 2)) for _ in range(length - 1)]))
    pairs, n, inner = set(), hubs, []
    for _ in range(draw(st.integers(3, 10))):
        (a, b), heights = draw(st.sampled_from(profiles))
        prev = a
        for h in heights:
            v, n = n, n + 1
            inner.append(v)
            pairs.add((prev, v))
            n = _hang_path(pairs, v, h, n)
            prev = v
        pairs.add((prev, b))
    mains = draw(st.sets(st.sampled_from(inner), max_size=3))
    return n, pairs, mains | draw(st.sets(st.integers(0, n - 1), max_size=1))


def _check_both_oracles(g):
    want = _oracle_depths(g.entities, g.object_triples, "M")
    assert _brute_force_depths(g, "M") == want
    assert depth_metrics(g, "M") == want


@settings(max_examples=200, deadline=None)
@given(g=_with_redundant_triples(_hub_graphs()))
def test_depths_match_oracles_on_hubs_with_repeated_neighbour_sets(g):
    _check_both_oracles(g)


@settings(max_examples=200, deadline=None)
@given(g=_with_redundant_triples(_pendant_graphs()))
def test_depths_match_oracles_with_mains_inside_pendant_trees(g):
    _check_both_oracles(g)


@settings(max_examples=200, deadline=None)
@given(g=_with_redundant_triples(_chain_graphs()))
def test_depths_match_oracles_on_parallel_chains(g):
    _check_both_oracles(g)


def _peel_roots(n, pairs):
    """Where a peel of the forest ``pairs`` over nodes ``0..n-1`` ends, one
    node per tree with an edge: leaves peeled in index order, then as they
    appear, each tree's last node left is its root."""
    nbrs = [set() for _ in range(n)]
    for a, b in pairs:
        nbrs[a].add(b)
        nbrs[b].add(a)
    queue = [v for v in range(n) if len(nbrs[v]) == 1]
    roots = set()
    for v in queue:
        if not nbrs[v]:
            roots.add(v)
            continue
        p = nbrs[v].pop()
        nbrs[p].discard(v)
        if len(nbrs[p]) == 1:
            queue.append(p)
    return roots


def _renumber(draw, n, pairs, groups):
    """``pairs`` and ``groups`` (lists of nodes) under a drawn order of
    ``0..n-1``, so that the peel starts anywhere."""
    order = draw(st.permutations(range(n)))
    return {(order[a], order[b]) for a, b in pairs}, [[order[v] for v in group] for group in groups]


@st.composite
def _trees_with_mains_off_root(draw):
    """1-3 trees of 2-12 nodes, numbered in a drawn order, each with 1-4
    main nodes, none where the peel ends: several mains walk up one tree."""
    pairs, trees, n = set(), [], 0
    for size in draw(st.lists(st.integers(2, 12), min_size=1, max_size=3)):
        for i in range(n + 1, n + size):
            pairs.add((i, i - 1 if draw(st.booleans()) else draw(st.integers(n, i - 1))))
        trees.append(range(n, n + size))
        n += size
    pairs, trees = _renumber(draw, n, pairs, trees)
    roots, mains = _peel_roots(n, pairs), set()
    for tree in trees:
        mains |= draw(st.sets(st.sampled_from([v for v in tree if v not in roots]), min_size=1, max_size=4))
    return n, pairs, mains


@st.composite
def _stars_with_mains_off_root(draw):
    """A star of 2-8 legs of 1-3 edges, numbered in a drawn order, with 1-4
    main nodes, none where the peel ends."""
    pairs, n = set(), 1
    for length in draw(st.lists(st.integers(1, 3), min_size=2, max_size=8)):
        n = _hang_path(pairs, 0, length, n)
    pairs, _ = _renumber(draw, n, pairs, [])
    (root,) = _peel_roots(n, pairs)
    return n, pairs, draw(st.sets(st.sampled_from([v for v in range(n) if v != root]), min_size=1, max_size=4))


@st.composite
def _plain(draw, family):
    """A graph of ``family``, one triple per pair."""
    n, pairs, mains = draw(family)
    entities = {f"e{i}": ("M" if i in mains else "C", False) for i in range(n)}
    return KnowledgeGraph(entities, {(f"e{a}", "r", f"e{b}"): None for a, b in pairs}, {})


@st.composite
def _trees_with_pairs_both_ways(draw):
    """A tree of 2-20 nodes, numbered in a drawn order, of which 1-3 pairs
    are also given reversed; 0-4 main nodes anywhere."""
    n = draw(st.integers(2, 20))
    pairs = {(i, i - 1 if draw(st.booleans()) else draw(st.integers(0, i - 1))) for i in range(1, n)}
    pairs, _ = _renumber(draw, n, pairs, [])
    both = draw(st.sets(st.sampled_from(sorted(pairs)), min_size=1, max_size=3))
    triples = {(f"e{a}", "r", f"e{b}") for a, b in pairs} | {(f"e{b}", "r", f"e{a}") for a, b in both}
    mains = draw(st.sets(st.integers(0, n - 1), max_size=4))
    return KnowledgeGraph({f"e{i}": ("M" if i in mains else "C", False) for i in range(n)}, dict.fromkeys(triples), {})


@st.composite
def _isolated_mains_and_self_loops(draw):
    """A graph of ``_sparse_graphs`` plus 1-4 isolated nodes, 1-4 of them
    main, and self-loops on 1-3 nodes, isolated ones among them."""
    g = draw(_sparse_graphs())
    n, extra = len(g.entities), draw(st.integers(1, 4))
    entities = dict(g.entities)
    for i in range(n, n + extra):
        entities[f"e{i}"] = ("M" if i == n or draw(st.booleans()) else "C", False)
    loops = draw(st.sets(st.integers(0, n + extra - 1), min_size=1, max_size=3)) | {n + extra - 1}
    return KnowledgeGraph(entities, g.object_triples | {(f"e{v}", "r", f"e{v}"): None for v in loops}, {})


@settings(max_examples=200, deadline=None)
@given(g=_plain(_trees_with_mains_off_root()))
def test_depths_match_oracles_with_mains_off_the_peel_root(g):
    _check_both_oracles(g)


@settings(max_examples=200, deadline=None)
@given(g=_plain(_stars_with_mains_off_root()))
def test_depths_match_oracles_on_stars_rooted_off_the_mains(g):
    _check_both_oracles(g)


@settings(max_examples=200, deadline=None)
@given(g=_trees_with_pairs_both_ways())
def test_depths_match_oracles_on_trees_with_pairs_both_ways(g):
    _check_both_oracles(g)


@settings(max_examples=200, deadline=None)
@given(g=_isolated_mains_and_self_loops())
def test_depths_match_oracles_with_isolated_mains_and_self_loops(g):
    _check_both_oracles(g)


def _bfs_count(g, mc):
    """(depths, BFS runs) of one ``depth_metrics`` call."""
    made = []
    real = metrics_module._Eccentricities

    def make(*args):
        made.append(real(*args))
        return made[-1]

    with mock.patch.object(metrics_module, "_Eccentricities", make):
        depths = depth_metrics(g, mc)
    return depths, made[0].sweeps if made else 0


def test_a_forest_takes_no_bfs():
    o, d, m, _ = generate_synthetic(SynthConfig(60, 30))
    g = generate_kg(baseline_schema(o, d, m, MAIN_CLASS), d, m, MAIN_CLASS)
    # every row is its own tree
    assert _bfs_count(g, MAIN_CLASS) == ((4, 8), 0)


def test_a_forest_holds_no_list_per_entity():
    o, d, m, _ = generate_synthetic(SynthConfig(60, 100, chain_depth=4))
    g = generate_kg(baseline_schema(o, d, m, MAIN_CLASS), d, m, MAIN_CLASS)
    assert len(g.entities) == 24_500

    def lists():
        return sum(type(x) is list for x in gc.get_objects())

    grown, real = [], metrics_module._walk_up

    def spy(*args):
        grown.append(lists() - before)
        return real(*args)

    before = lists()
    with mock.patch.object(metrics_module, "_walk_up", spy):
        depth_metrics(g, MAIN_CLASS)
    # flat lists over the entities, none per entity
    assert grown and max(grown) < 100, grown


def _shared_key_graph(approach, rows):
    """``SynthConfig(10, rows)`` with program and machine keys redrawn from
    10 values each: rows share entities, and one component holds them."""
    o, d, m, u = generate_synthetic(SynthConfig(10, rows))
    rng = random.Random(1)
    for row in d.tables[MAIN_TABLE].rows:
        row["program_id"] = f"p{rng.randrange(10)}"
        row["machine_id"] = f"m{rng.randrange(10)}"
    s = reshape(o, d, m, u) if approach == "reshape" else baseline_schema(o, d, m, MAIN_CLASS)
    return generate_kg(s, d, m, MAIN_CLASS)


@pytest.mark.parametrize(
    "approach, rows, want",
    [
        ("baseline", 100, ((16, 20), 29)),
        ("baseline", 1000, ((12, 16), 25)),
        ("reshape", 100, ((6, 6), 109)),
        ("reshape", 1000, ((4, 4), 220)),
    ],
)
def test_bfs_count_is_pinned_on_rows_that_share_entities(approach, rows, want):
    # the order of the sweeps decides how many run: a change to it shows
    # here, not only when the count grows with the rows
    assert _bfs_count(_shared_key_graph(approach, rows), MAIN_CLASS) == want


def test_bfs_count_does_not_grow_with_rows_that_share_entities():
    # from about 1,000 rows on, each of the 100 (program, machine) pairs is
    # drawn at least twice, so the reduced core stops growing; below that it
    # grows with the pairs drawn, and the count with it
    real = metrics_module._reduce
    for approach, depths in (("reshape", (4, 4)), ("baseline", (12, 16))):
        counts, cores = [], []

        def spy(*args):
            kept = real(*args)
            cores.append(len(kept))
            return kept

        for rows in (1000, 2000, 4000):
            with mock.patch.object(metrics_module, "_reduce", spy):
                got, count = _bfs_count(_shared_key_graph(approach, rows), MAIN_CLASS)
            assert got == depths
            counts.append(count)
        assert counts[0] >= counts[1] >= counts[2], (approach, counts)
        assert len(cores) == 3 and cores[0] >= cores[1] >= cores[2], (approach, cores)


def test_bfs_count_does_not_depend_on_the_hash_seed():
    # the triples are a set, iterated in string-hash order; the core's
    # lists are kept in entity order, so its BFS are the same in any process
    src = str(Path(metrics_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))
    code = "from test_metrics import _bfs_count, _shared_key_graph; print(_bfs_count(_shared_key_graph('baseline', 400), 'WeldingOperation'))"
    outputs = set()
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs


@settings(max_examples=200, deadline=None)
@given(g=st.one_of(_sparse_graphs(), _with_redundant_triples(_forests())), rnd=st.randoms())
def test_depths_do_not_depend_on_entity_order(g, rnd):
    # the entities dict's order picks where each component's first sweep starts
    items = list(g.entities.items())
    shuffled = items[:]
    rnd.shuffle(shuffled)
    want = depth_metrics(g, "M")
    for order in (items[::-1], shuffled):
        reordered = KnowledgeGraph(dict(order), g.object_triples, g.literals)
        assert depth_metrics(reordered, "M") == want


@settings(max_examples=200, deadline=None)
@given(g=st.one_of(_sparse_graphs(), _with_redundant_triples(_forests())), rnd=st.randoms())
def test_depths_and_bfs_count_do_not_depend_on_triple_order(g, rnd):
    # a graph keeps its triples in the order they were made; the core's
    # lists are sorted, so neither the depths nor the sweeps may follow it
    triples = list(g.object_triples)
    shuffled = triples[:]
    rnd.shuffle(shuffled)
    want = _bfs_count(g, "M")
    for order in (triples[::-1], shuffled):
        reordered = KnowledgeGraph(g.entities, dict.fromkeys(order), g.literals)
        assert reordered == g
        assert _bfs_count(reordered, "M") == want


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
