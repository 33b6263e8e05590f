"""Ontology parsing, serialization, and path queries.

The path queries are checked against an exhaustive simple-path enumerator
on small random graphs, with self-loops, so the BFS never gets to define
its own correctness.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontoshape import ontology as ontology_module
from ontoshape.errors import ParseError
from ontoshape.ontology import (
    Ontology,
    directed_reach,
    parse_ontology,
    serialize_ontology,
    shortest_walks,
    undirected_distances,
)

from conftest import ONTOLOGY_W


def _enumerate_simple_paths(o, src, dst, undirected=False):
    """All simple paths src..dst as lists of class names. Brute force."""
    adj = o._und if undirected else o._succ
    paths = []

    def walk(node, seen, acc):
        if node == dst:
            paths.append(list(acc))
            return
        for nxt in adj[node]:
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


def test_direct_relation(ontology_w):
    assert ontology_w._direct[("WeldingOperation", "WeldingSoftwareSystem")] == "operatedUnder"
    assert ("WeldingOperation", "CurrentMeanValue") not in ontology_w._direct


def test_direct_relation_parallel_edges_pick_smallest():
    o = parse_ontology("class A\nclass B\nobjprop zz A B\nobjprop aa A B\n")
    assert o._direct[("A", "B")] == "aa"


def test_directed_reach_follows_edge_direction(ontology_w):
    assert "CurrentMeanValue" in directed_reach(ontology_w, "WeldingOperation")
    assert directed_reach(ontology_w, "CurrentMeanValue") == {"CurrentMeanValue"}
    assert directed_reach(ontology_w, "MeasurementModule") == {
        "MeasurementModule", "OperationCurveCurrent", "CurrentMeanValue", "CurrentArrayValue"
    }


def test_indirect_cycle_does_not_fake_a_path():
    # a cycle through U and a self-loop on V: the walk ends, and V reaches nothing
    o = parse_ontology(
        "class U\nclass V\nclass W\nobjprop a U W\nobjprop b W U\nobjprop c U V\nobjprop d V V\n"
    )
    assert directed_reach(o, "U") == directed_reach(o, "W") == {"U", "V", "W"}
    assert directed_reach(o, "V") == {"V"}


def test_direct_and_indirect_are_independent():
    text = "class A\nclass B\nclass C\nobjprop e A C\nobjprop f C B\n"
    o = parse_ontology(text + "objprop d A B\n")
    assert o._direct[("A", "B")] == "d"
    # B stays reachable through C once the direct edge is gone
    assert "B" in directed_reach(o, "A") and "B" in directed_reach(parse_ontology(text), "A")


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
        reach = directed_reach(o, src)
        for dst in pool:
            paths = _enumerate_simple_paths(o, src, dst)
            assert (dst in reach) == bool(paths)
            # connect_classes asks for reach only without a direct edge; then
            # it is the same as a path through a class other than both ends
            if src != dst and (src, dst) not in o._direct:
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


def _queue_bfs(adj, *sources):
    """The BFS as a FIFO queue: the order and hop counts the level-by-level
    ``_bfs`` must keep."""
    dist = dict.fromkeys(sources, 0)
    queue = deque(dist)
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
@given(o=small_ontologies(), data=st.data())
def test_bfs_matches_a_queue_bfs_in_distances_and_order(o, data):
    sources = data.draw(st.lists(st.sampled_from(sorted(o.classes)), unique=True))
    for adj in (o._succ, o._und):
        for c in sorted(o.classes):
            assert list(ontology_module._bfs(adj, c).items()) == list(_queue_bfs(adj, c).items())
        # from several sources at once: the hop count from the nearest one
        got = ontology_module._bfs(adj, *sources)
        assert list(got.items()) == list(_queue_bfs(adj, *sources).items())
        for c in o.classes:
            hops = [ontology_module._bfs(adj, s).get(c) for s in sources]
            assert got.get(c) == min((h for h in hops if h is not None), default=None)


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
            reach = directed_reach(o, c)
            assert reach == set(ontology_module._bfs(o._succ, c))
            assert reach is directed_reach(o, c)


def test_distance_map_is_read_only(ontology_w):
    dist = undirected_distances(ontology_w, "WeldingOperation")
    with pytest.raises(TypeError):
        dist["WeldingOperation"] = 5
    with pytest.raises(TypeError):
        del dist["WeldingOperation"]
    assert undirected_distances(ontology_w, "WeldingOperation")["WeldingOperation"] == 0


def test_equality_ignores_the_distance_memo():
    warm = parse_ontology(ONTOLOGY_W)
    for c in sorted(warm.classes):
        undirected_distances(warm, c)
        directed_reach(warm, c)
    cold = parse_ontology(ONTOLOGY_W)
    assert warm == cold
    assert cold._dist == {} and len(warm._dist) == len(warm.classes)
    assert cold._reach == {} and len(warm._reach) == len(warm.classes)


# --- the OSF reader against the line-by-line reader it replaced -------------

_REF_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _reference_check_ident(name, lineno):
    if not _REF_IDENT.match(name):
        raise ParseError(f"invalid identifier {name!r}", lineno)


def _reference_parse_ontology(text):
    """The reader that strips, splits and checks every line on its own, with
    its declaration checks: the classes, object properties and data
    properties that ``parse_ontology`` must return, or its ``ParseError``."""
    classes = {}
    objprops = {}
    dataprops = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "class" and len(parts) == 2:
            name = parts[1]
            _reference_check_ident(name, lineno)
            if name in classes:
                raise ParseError(f"duplicate class declaration {name!r}", lineno)
            classes[name] = lineno
        elif parts[0] == "objprop" and len(parts) == 4:
            rel, dom, rng = parts[1], parts[2], parts[3]
            for name in (rel, dom, rng):
                _reference_check_ident(name, lineno)
            key = (rel, dom, rng)
            if key in objprops:
                raise ParseError(f"duplicate object property {rel} {dom} {rng}", lineno)
            objprops[key] = lineno
        elif parts[0] == "dataprop" and len(parts) == 3:
            prop, dom = parts[1], parts[2]
            for name in (prop, dom):
                _reference_check_ident(name, lineno)
            key = (prop, dom)
            if key in dataprops:
                raise ParseError(f"duplicate data property {prop} {dom}", lineno)
            dataprops[key] = lineno
        else:
            raise ParseError(f"unrecognized directive {line!r}", lineno)
    for (rel, dom, rng), lineno in sorted(objprops.items(), key=lambda kv: kv[1]):
        for name in (dom, rng):
            if name not in classes:
                raise ParseError(f"undeclared class {name}", lineno)
    for (prop, dom), lineno in sorted(dataprops.items(), key=lambda kv: kv[1]):
        if dom not in classes:
            raise ParseError(f"undeclared class {dom}", lineno)
    return frozenset(classes), frozenset(objprops), frozenset(dataprops)


def _reference_require_declared(classes, objprops, dataprops):
    """The ``ValueError`` a direct ``Ontology(...)`` raises: the first
    undeclared class in sorted property order."""
    for _, dom, rng in sorted(objprops):
        for name in (dom, rng):
            if name not in classes:
                raise ValueError(f"undeclared class {name}")
    for _, dom in sorted(dataprops):
        if dom not in classes:
            raise ValueError(f"undeclared class {dom}")


def _reference_adjacency(classes, objprops):
    """Successors, neighbours and the smallest direct relation per ordered
    pair, from one set per class sorted at the end."""
    succ = {c: set() for c in classes}
    und = {c: set() for c in classes}
    direct = {}
    for rel, dom, rng in objprops:
        succ[dom].add(rng)
        und[dom].add(rng)
        und[rng].add(dom)
        if (dom, rng) not in direct or rel < direct[dom, rng]:
            direct[dom, rng] = rel
    return ({c: tuple(sorted(v)) for c, v in succ.items()},
            {c: tuple(sorted(v)) for c, v in und.items()}, direct)


def _assert_same_queries(o, classes, objprops):
    succ, und, direct = _reference_adjacency(classes, objprops)
    for c in sorted(classes):
        assert o._succ[c] == succ[c]
        assert o._und[c] == und[c]
    for a, b in product(sorted(classes), repeat=2):
        assert o._direct.get((a, b)) == direct.get((a, b))


_osf_names = st.sampled_from(["A", "B", "C", "_x", "Z9", "abc", "A_1", "classy"])
_osf_rels = st.sampled_from(["p", "q", "r_1", "class", "objprop"])
_PADS = [" ", "\t", "\x1f", "\xa0", "　", "\x0b", "\x0c"]
_BAD_NAMES = ["9lives", "a-b", "é", "A.B", "x%", "Ａ", "#c", "a​b"]


@st.composite
def osf_documents(draw):
    """A serialized random ontology, then hand edits: blank and comment
    lines, padding, bad names, repeated and dropped lines, extra tokens and
    unknown directives."""
    classes = draw(st.frozensets(_osf_names, max_size=6))
    pool = sorted(classes) or ["A"]
    objprops = draw(st.frozensets(st.tuples(_osf_rels, st.sampled_from(pool), st.sampled_from(pool)), max_size=8))
    dataprops = draw(st.frozensets(st.tuples(_osf_rels, st.sampled_from(pool)), max_size=4))
    lines = [f"class {c}" for c in classes]
    lines += [f"objprop {r} {d} {g}" for r, d, g in objprops]
    lines += [f"dataprop {p} {d}" for p, d in dataprops]
    lines = draw(st.permutations(lines))
    pad = st.text(st.sampled_from(_PADS), min_size=1, max_size=3)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(
            ["blank", "comment", "pad", "bad_name", "repeat", "drop", "trailing", "directive", "bare"]))
        if kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", draw(pad)])))
        elif kind == "comment":
            lines.insert(at, draw(st.sampled_from(["", draw(pad)])) + "# " + draw(st.text(max_size=5)))
        elif kind == "bare":
            lines.insert(at, draw(st.sampled_from(["class", "objprop", "dataprop", "objprop p A", "#"])))
        elif lines and (tokens := lines[min(at, len(lines) - 1)].split()):
            at = min(at, len(lines) - 1)
            if kind == "pad":
                gaps = [draw(pad) for _ in range(len(tokens) + 1)]
                gaps[0] = draw(st.sampled_from(["", gaps[0]]))
                gaps[-1] = draw(st.sampled_from(["", gaps[-1]]))
                lines[at] = gaps[0] + "".join(t + g for t, g in zip(tokens, gaps[1:]))
            elif kind == "bad_name":
                tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_BAD_NAMES))
                lines[at] = " ".join(tokens)
            elif kind == "repeat":
                lines.insert(draw(st.integers(0, len(lines))), lines[at])
            elif kind == "drop":
                del lines[at]
            elif kind == "trailing":
                lines[at] += " " + draw(st.sampled_from(["A", "x", "9"]))
            else:
                tokens[0] = draw(st.sampled_from(["klass", "Class", "prop", "objprop", "class", "dataprop"]))
                lines[at] = " ".join(tokens)
    return "".join(line + "\n" for line in lines)


@settings(max_examples=600, deadline=None)
@given(text=osf_documents())
def test_parse_matches_the_line_by_line_reference(text):
    try:
        expected = _reference_parse_ontology(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_ontology(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return
    o = parse_ontology(text)
    assert (o.classes, o.object_properties, o.data_properties) == expected
    assert o == Ontology(*expected)
    _assert_same_queries(o, expected[0], expected[1])


@settings(max_examples=400, deadline=None)
@given(
    classes=st.frozensets(_osf_names, max_size=5),
    objprops=st.frozensets(st.tuples(_osf_rels, _osf_names, _osf_names), max_size=8),
    dataprops=st.frozensets(st.tuples(_osf_rels, _osf_names), max_size=4),
)
def test_direct_construction_matches_the_reference_checks(classes, objprops, dataprops):
    try:
        _reference_require_declared(classes, objprops, dataprops)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Ontology(classes, objprops, dataprops)
        assert str(got.value) == str(exc)
        return
    _assert_same_queries(Ontology(classes, objprops, dataprops), classes, objprops)
