"""Ontology parsing, serialization, and path queries.

The path queries are checked against an exhaustive simple-path enumerator
on small random graphs, with self-loops, so the BFS never gets to define
its own correctness.
"""

from __future__ import annotations

import pickle
from collections import deque
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontoshape import ontology as ontology_module
from ontoshape.errors import ParseError
from ontoshape.ontology import (
    ClassPair,
    Ontology,
    direct_relation,
    parse_ontology,
    serialize_ontology,
    shortest_walks,
    undirected_distances,
)

from conftest import ONTOLOGY_W


def _enumerate_simple_paths(o, src, dst, undirected=False):
    """All simple paths src..dst as lists of class names. Brute force."""
    step = o.neighbors if undirected else o.successors
    paths = []

    def walk(node, seen, acc):
        if node == dst:
            paths.append(list(acc))
            return
        for nxt in step(node):
            if nxt not in seen:
                seen.add(nxt)
                acc.append(nxt)
                walk(nxt, seen, acc)
                acc.pop()
                seen.remove(nxt)

    walk(src, {src}, [src])
    return paths


def test_parse_fixture():
    o = parse_ontology(ONTOLOGY_W)
    assert len(o.classes) == 6
    assert len(o.object_properties) == 5
    assert ("measures", "MeasurementModule", "OperationCurveCurrent") in o.object_properties


def test_parse_empty_document():
    o = parse_ontology("")
    assert o.classes == frozenset()
    assert o.object_properties == frozenset()


def test_parse_ignores_comments_and_blank_lines():
    o = parse_ontology("# heading\n\nclass A\n  # indented comment\nclass B\n")
    assert o.classes == {"A", "B"}


def test_parse_undeclared_class():
    with pytest.raises(ParseError, match="undeclared class A"):
        parse_ontology("objprop p A B\nclass B\n")


def test_parse_duplicate_class_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_ontology("class A\nclass A\n")


def test_parse_bad_directive_reports_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_ontology("class A\nclass B\nobjprop p A\n")


def test_parse_rejects_bad_identifier():
    with pytest.raises(ParseError, match="invalid identifier"):
        parse_ontology("class 9lives\n")


def test_declaration_order_irrelevant():
    a = parse_ontology("objprop p A B\nclass B\nclass A\n")
    b = parse_ontology("class A\nclass B\nobjprop p A B\n")
    assert a == b


def test_serialize_round_trip():
    o = parse_ontology(ONTOLOGY_W)
    assert parse_ontology(serialize_ontology(o)) == o


def test_serialize_empty():
    assert serialize_ontology(Ontology(frozenset(), frozenset(), frozenset())) == ""


def test_serialize_single_class():
    o = Ontology(frozenset({"Z"}), frozenset(), frozenset())
    assert serialize_ontology(o) == "class Z\n"


def test_serialize_is_sorted_and_stable():
    o = parse_ontology("class B\nclass A\nobjprop q B A\nobjprop p A B\n")
    text = serialize_ontology(o)
    assert text == "class A\nclass B\nobjprop p A B\nobjprop q B A\n"
    assert serialize_ontology(parse_ontology(text)) == text


def test_class_pair_rejects_equal_names():
    with pytest.raises(ValueError):
        ClassPair("A", "A")


def test_direct_relation(ontology_w):
    pair = ClassPair("WeldingOperation", "WeldingSoftwareSystem")
    assert direct_relation(ontology_w, pair) == "operatedUnder"
    assert direct_relation(ontology_w, ClassPair("WeldingOperation", "CurrentMeanValue")) is None


def test_direct_relation_requires_declared_classes(ontology_w):
    with pytest.raises(ValueError, match="undeclared class Nope"):
        direct_relation(ontology_w, ClassPair("WeldingOperation", "Nope"))


def test_direct_relation_parallel_edges_pick_smallest():
    o = parse_ontology("class A\nclass B\nobjprop zz A B\nobjprop aa A B\n")
    assert direct_relation(o, ClassPair("A", "B")) == "aa"


def _reach(o, src):
    """Classes ``src`` reaches along edge direction, itself included."""
    return set(ontology_module._bfs(o._succ, src))


def test_directed_reach_follows_edge_direction(ontology_w):
    assert "CurrentMeanValue" in _reach(ontology_w, "WeldingOperation")
    assert _reach(ontology_w, "CurrentMeanValue") == {"CurrentMeanValue"}
    assert _reach(ontology_w, "MeasurementModule") == {
        "MeasurementModule", "OperationCurveCurrent", "CurrentMeanValue", "CurrentArrayValue"
    }


def test_indirect_cycle_does_not_fake_a_path():
    # a cycle through U and a self-loop on V: the walk ends, and V reaches nothing
    o = parse_ontology(
        "class U\nclass V\nclass W\nobjprop a U W\nobjprop b W U\nobjprop c U V\nobjprop d V V\n"
    )
    assert _reach(o, "U") == _reach(o, "W") == {"U", "V", "W"}
    assert _reach(o, "V") == {"V"}


def test_direct_and_indirect_are_independent():
    text = "class A\nclass B\nclass C\nobjprop e A C\nobjprop f C B\n"
    o = parse_ontology(text + "objprop d A B\n")
    assert direct_relation(o, ClassPair("A", "B")) == "d"
    # B stays reachable through C once the direct edge is gone
    assert "B" in _reach(o, "A") and "B" in _reach(parse_ontology(text), "A")


def _shortest_path(o, src, dst):
    """What ``shortest_walks`` reaches from ``src`` alone toward ``dst``;
    None when ``src`` cannot reach ``dst``. Position along a shortest path
    is fixed by distance, so the node set names the path."""
    got = shortest_walks(o, dst, [src])
    return got if src in got else None


def test_shortest_path_unreachable():
    o = parse_ontology("class A\nclass B\n")
    assert _shortest_path(o, "A", "B") is None
    assert shortest_walks(o, "B", ["A"]) == {"B"}


def test_shortest_path_undirected(ontology_w):
    path = _shortest_path(ontology_w, "CurrentMeanValue", "CurrentArrayValue")
    assert path == {"CurrentMeanValue", "OperationCurveCurrent", "CurrentArrayValue"}


def test_shortest_path_tie_break_is_lexicographic():
    o = parse_ontology(
        "class A\nclass B\nclass C\nclass D\n"
        "objprop p A B\nobjprop q A C\nobjprop r B D\nobjprop s C D\n"
    )
    assert _shortest_path(o, "A", "D") == {"A", "B", "D"}
    assert _shortest_path(o, "D", "A") == {"D", "B", "A"}


def test_undirected_distances_requires_declared_class():
    o = parse_ontology("class A\n")
    with pytest.raises(ValueError, match="undeclared class Nope"):
        undirected_distances(o, "Nope")


_names = st.sampled_from("ABCDEFGH")


@st.composite
def small_ontologies(draw):
    classes = draw(st.frozensets(_names, min_size=2, max_size=8))
    pool = sorted(classes)
    edges = draw(
        st.frozensets(  # self-loops included
            st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
            max_size=14,
        )
    )
    props = frozenset((f"r_{d}{r}", d, r) for d, r in edges)
    return Ontology(classes, props, frozenset())


@settings(max_examples=200, deadline=None)
@given(o=small_ontologies())
def test_shortest_path_matches_exhaustive_enumeration(o):
    pool = sorted(o.classes)
    for dst in pool:
        dist = undirected_distances(o, dst)
        for src in pool:
            paths = _enumerate_simple_paths(o, src, dst, undirected=True)
            if not paths:
                assert src not in dist
                continue
            best = min(len(p) for p in paths)
            assert dist[src] == best - 1
            # the lexicographically smallest next class at every step; its
            # hops are real edges because the enumerated paths' are
            assert _shortest_path(o, src, dst) == set(min(p for p in paths if len(p) == best))


@settings(max_examples=200, deadline=None)
@given(o=small_ontologies())
def test_indirect_relation_matches_simple_path_oracle(o):
    pool = sorted(o.classes)
    for src in pool:
        reach = _reach(o, src)
        for dst in pool:
            paths = _enumerate_simple_paths(o, src, dst)
            assert (dst in reach) == bool(paths)
            # connect_classes asks for reach only without a direct edge; then
            # it is the same as a path through a class other than both ends
            if src != dst and direct_relation(o, ClassPair(src, dst)) is None:
                assert (dst in reach) == any(len(p) >= 3 for p in paths)


@settings(max_examples=200, deadline=None)
@given(o=small_ontologies(), data=st.data())
def test_walks_from_several_sources_are_the_union_of_single_walks(o, data):
    pool = sorted(o.classes)
    target = data.draw(st.sampled_from(pool))
    sources = data.draw(st.lists(st.sampled_from(pool), max_size=8))
    expected = {target}
    for src in sources:
        expected |= _shortest_path(o, src, target) or set()
    assert shortest_walks(o, target, sources) == expected


def _queue_bfs(adj, source):
    """The BFS as a FIFO queue: the order and hop counts the level-by-level
    ``_bfs`` must keep."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nxt in adj[node]:
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


def _generator_walks(o, target, sources):
    """``shortest_walks`` with its next hop found by a generator over the
    neighbours: the walks the plain loop must keep."""
    dist = _queue_bfs(o._und, target)
    reached = {target}
    for node in sources:
        while node in dist and node not in reached:
            reached.add(node)
            step = dist[node] - 1
            node = next(w for w in o._und[node] if dist[w] == step)
    return reached


@settings(max_examples=200, deadline=None)
@given(o=small_ontologies())
def test_bfs_matches_a_queue_bfs_in_distances_and_order(o):
    for adj in (o._succ, o._und):
        for c in sorted(o.classes):
            assert list(ontology_module._bfs(adj, c).items()) == list(_queue_bfs(adj, c).items())


@st.composite
def layered_ontologies(draw):
    """Two to five layers of one to four classes, edges only between
    neighbouring layers and in either direction: most classes have several
    neighbours at the same distance from a target, so the tie-break decides
    the walk."""
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    layers = [[f"L{i}_{j}" for j in range(w)] for i, w in enumerate(widths)]
    props = set()
    for upper, lower in zip(layers, layers[1:]):
        pairs = sorted(product(upper, lower))
        for (a, b), down in draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), min_size=1)):
            d, r = (a, b) if down else (b, a)
            props.add((f"r_{d}_{r}", d, r))
    return Ontology(frozenset(c for layer in layers for c in layer), frozenset(props), frozenset())


@settings(max_examples=300, deadline=None)
@given(o=layered_ontologies(), data=st.data())
def test_walks_match_generator_walks_on_tie_heavy_layers(o, data):
    pool = sorted(o.classes)
    target = data.draw(st.sampled_from(pool))
    sources = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=10))
    assert shortest_walks(o, target, sources) == _generator_walks(o, target, sources)


@settings(max_examples=100, deadline=None)
@given(o=small_ontologies())
def test_distance_memo_matches_a_fresh_bfs_on_every_call(o):
    for _ in range(2):
        for c in sorted(o.classes):
            got = undirected_distances(o, c)
            assert dict(got) == ontology_module._bfs(o._und, c)
            assert got is undirected_distances(o, c)


def test_distance_map_is_read_only(ontology_w):
    dist = undirected_distances(ontology_w, "WeldingOperation")
    with pytest.raises(TypeError):
        dist["WeldingOperation"] = 5
    with pytest.raises(TypeError):
        del dist["WeldingOperation"]
    assert undirected_distances(ontology_w, "WeldingOperation")["WeldingOperation"] == 0


def test_equality_and_pickle_ignore_the_distance_memo():
    warm = parse_ontology(ONTOLOGY_W)
    for c in sorted(warm.classes):
        undirected_distances(warm, c)
    cold = parse_ontology(ONTOLOGY_W)
    assert warm == cold
    back = pickle.loads(pickle.dumps(warm))
    assert back == warm
    assert back._dist == {} and len(warm._dist) == len(warm.classes)
    assert undirected_distances(back, "WeldingOperation") == undirected_distances(warm, "WeldingOperation")
