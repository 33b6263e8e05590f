"""``baseline_schema`` against a straightforward pairwise reference copy.

``_reference_baseline`` is the plain version: one BFS per mapped class in
every call, then one lexicographically smallest shortest walk for every
pair of mapped classes, listing every pair no path connects. The
package's version peels unmapped leaves first, takes each component of
what is left that has no cycle whole, walks only in components that keep
one, and counts unconnected pairs from component sizes. On every ontology
here, including tie-heavy and disconnected ones, trees with a few chords,
forests, and ontologies with self-loops and long pendant chains of
unmapped classes, and across several mapped subsets that share one
``Ontology``, it must build the same ``KGSchema`` and report the same
unconnected pairs.
"""

from __future__ import annotations

import logging
from collections import deque
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from ontoshape.mapping import MappingSet
from ontoshape.ontology import Ontology
from ontoshape.reshape import KGSchema, _claim_key, _main_table_first, baseline_schema, identifier_stem
from ontoshape.tabular import Dataset, Table


def _reference_neighbors(o: Ontology, c: str) -> set[str]:
    props = o.object_properties
    return {rng for _, dom, rng in props if dom == c} | {dom for _, dom, rng in props if rng == c}


def _reference_distances(o: Ontology, source: str) -> dict[str, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nxt in _reference_neighbors(o, node):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


def _reference_walk(o: Ontology, source: str, target: str, dist: dict[str, int]) -> list[str]:
    path = [source]
    current = source
    while current != target:
        want = dist[current] - 1
        current = min(w for w in _reference_neighbors(o, current) if dist.get(w) == want)
        path.append(current)
    return path


def _reference_baseline(o: Ontology, d: Dataset, m: MappingSet, mc: str) -> tuple[KGSchema, list]:
    """The naive schema and its unconnected pairs, in visiting order."""
    attr_classes = []
    for table, attr in _main_table_first(d):
        cls = m.attribute_map.get((table, attr))
        if cls is not None and cls in o.classes:
            attr_classes.append((table, attr, cls))
    table_classes: dict[str, str] = {}
    for tname in sorted(d.tables):
        cls = m.table_map.get(tname)
        if cls is not None and cls in o.classes:
            table_classes.setdefault(cls, tname)

    mapped = {mc} | {cls for _, _, cls in attr_classes} | set(table_classes)
    classes = set(mapped)
    names = sorted(mapped)
    dist_maps = {c: _reference_distances(o, c) for c in names}
    unconnected = []
    for i, ci in enumerate(names):
        dist = dist_maps[ci]
        for cj in names[i + 1 :]:
            if cj not in dist:
                unconnected.append((ci, cj))
                continue
            classes.update(_reference_walk(o, cj, ci, dist)[1:-1])

    edges = {
        (rel, dom, rng)
        for rel, dom, rng in o.object_properties
        if dom in classes and rng in classes
    }
    attachments = set()
    class_keys: dict[str, tuple[str, str]] = {}
    for table, attr, cls in attr_classes:
        attachments.add(("hasValue", cls, (table, attr)))
        _claim_key(class_keys, cls, (table, attr))
    if mc not in class_keys:
        for table, attr in _main_table_first(d):
            cp = m.attribute_map.get((table, attr))
            if cp is not None and cp not in o.classes and identifier_stem(cp) == mc:
                class_keys[mc] = (table, attr)
                break
    return KGSchema(mc, classes, edges, attachments, class_keys, dict(table_classes)), unconnected


@st.composite
def _ontologies(draw) -> Ontology:
    """Up to three parts with no edge between them. Inside a part, edges
    join consecutive layers, so many shortest paths tie; a few extra edges
    may skip layers."""
    names = [f"C{i:02d}" for i in range(draw(st.integers(2, 14)))]
    parts, layers = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    part = {c: draw(st.integers(0, parts - 1)) for c in names}
    layer = {c: draw(st.integers(0, layers - 1)) for c in names}
    props = set()
    for a in names:
        for b in names:
            if part[a] == part[b] and layer[b] == layer[a] + 1 and draw(st.booleans()):
                dom, rng = (a, b) if draw(st.booleans()) else (b, a)
                props.add((f"r_{dom}_{rng}", dom, rng))
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names), st.sampled_from("pq"))
    for a, b, rel in draw(st.lists(pairs, max_size=5)):
        if a != b and part[a] == part[b]:
            props.add((rel, a, b))
    return Ontology(frozenset(names), frozenset(props), frozenset())


@st.composite
def _inputs(draw, o: Ontology) -> tuple[Dataset, MappingSet, str]:
    """A main table and a side table whose columns map onto a random subset
    of ``o``'s classes, plus names ``o`` does not declare."""
    pool = sorted(o.classes)
    mc = draw(st.sampled_from(pool))
    targets = st.sampled_from(pool + [mc + "ID", "Ghost"])
    tables = {}
    attribute_map = {}
    for tname in ("main", "side"):
        cols = [f"{tname}_{i}" for i in range(draw(st.integers(0, 6)))]
        tables[tname] = Table(tname, cols, [])
        for col in cols:
            if draw(st.booleans()):
                attribute_map[(tname, col)] = draw(targets)
    table_map = {t: draw(st.sampled_from(pool)) for t in tables if draw(st.booleans())}
    return Dataset(tables, "main"), MappingSet(table_map, attribute_map), mc


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_baseline_matches_pairwise_reference(data):
    o = data.draw(_ontologies())
    logger = logging.getLogger("ontoshape.reshape")
    # several runs share one Ontology, so later ones read a warm memo
    for _ in range(data.draw(st.integers(1, 3))):
        d, m, mc = data.draw(_inputs(o))
        expected, unconnected = _reference_baseline(o, d, m, mc)
        handler = _Records()
        logger.addHandler(handler)
        try:
            got = baseline_schema(o, d, m, mc)
        finally:
            logger.removeHandler(handler)
        assert got == expected
        warned = [r.args for r in handler.records if "disconnected" in r.getMessage()]
        assert warned == ([(len(unconnected), unconnected[:3])] if unconnected else [])
        names = sorted(
            {mc} | set(expected.class_tables) | {cls for _, cls, _ in expected.data_attachments}
        )
        assert [
            (a, b) for a, b in combinations(names, 2) if b not in _reference_distances(o, a)
        ] == unconnected


@st.composite
def _trees(draw, size: int, chords: int) -> set[tuple[str, str, str]]:
    """The properties of a random tree over ``size`` classes, each edge in a
    random direction, plus up to ``chords`` more edges between any two of
    them. Names are shuffled, so sorted order does not follow the tree."""
    names = draw(st.permutations([f"T{i:02d}" for i in range(size)]))
    pairs = [(names[i], names[draw(st.integers(0, i - 1))]) for i in range(1, size)]
    pairs += draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=chords))
    return {(f"r_{a}_{b}", a, b) if draw(st.booleans()) else (f"r_{b}_{a}", b, a) for a, b in pairs}


def _ontology(props: set[tuple[str, str, str]], extra: tuple[str, ...] = ()) -> Ontology:
    classes = {c for _, dom, rng in props for c in (dom, rng)} | set(extra)
    return Ontology(frozenset(classes), frozenset(props), frozenset())


@st.composite
def _chorded_trees(draw) -> Ontology:
    """A tree of 2 to 16 classes with 0 to 3 chords."""
    return _ontology(draw(_trees(draw(st.integers(2, 16)), draw(st.integers(0, 3)))))


@st.composite
def _forests(draw) -> Ontology:
    """Two to four trees with no edge between them, and up to two lone classes."""
    props = set()
    for k in range(draw(st.integers(2, 4))):
        tree = draw(_trees(draw(st.integers(2, 6)), 0))
        props |= {(f"{rel}_{k}", f"{dom}_{k}", f"{rng}_{k}") for rel, dom, rng in tree}
    return _ontology(props, tuple(f"Lone{i}" for i in range(draw(st.integers(0, 2)))))


@st.composite
def _pendant_chains(draw) -> Ontology:
    """A tree with up to two chords, one to three chains of up to eight
    classes hanging from its classes, and self-loops on some classes."""
    props = draw(_trees(draw(st.integers(2, 8)), 2))
    for k in range(draw(st.integers(1, 3))):
        prev = draw(st.sampled_from(sorted({c for _, dom, rng in props for c in (dom, rng)})))
        for j in range(draw(st.integers(1, 8))):
            node = f"P{k}_{j}"
            props.add((f"p_{prev}_{node}", prev, node) if draw(st.booleans()) else (f"p_{node}_{prev}", node, prev))
            prev = node
    names = sorted({c for _, dom, rng in props for c in (dom, rng)})
    props |= {(f"self_{c}", c, c) for c in draw(st.lists(st.sampled_from(names), max_size=4))}
    return _ontology(props)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_baseline_matches_pairwise_reference_on_trees_forests_and_pendant_chains(data):
    o = data.draw(st.one_of(_chorded_trees(), _forests(), _pendant_chains()))
    logger = logging.getLogger("ontoshape.reshape")
    for _ in range(data.draw(st.integers(1, 3))):
        d, m, mc = data.draw(_inputs(o))
        expected, unconnected = _reference_baseline(o, d, m, mc)
        handler = _Records()
        logger.addHandler(handler)
        try:
            got = baseline_schema(o, d, m, mc)
        finally:
            logger.removeHandler(handler)
        assert got == expected
        warned = [r.args for r in handler.records if "disconnected" in r.getMessage()]
        assert warned == ([(len(unconnected), unconnected[:3])] if unconnected else [])
