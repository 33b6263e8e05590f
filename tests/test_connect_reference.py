"""``connect_classes`` against a reference copy of its pairwise version.

``_reference_connect`` asks a separate directed question for every pair of
schema classes without a direct ontology relation: is there a path of two
or more edges through classes other than the two ends
(``_reference_has_indirect``)? It then finds the schema's components with
its own depth-first search (``_reference_components``) and links each one
the main class does not reach. The package's version reads one directed
reach set per source class and runs the ontology's BFS over the schema
edges instead. On ontologies with self-loops and parallel edges, schema
classes the ontology does not declare, edges set before the call and
connection rules that name classes outside the schema, both must build
the same schema and log the same warnings in the same order.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from ontoshape.errors import SchemaError
from ontoshape.mapping import ConnectionRule, EntityRule, UserInfo
from ontoshape.ontology import Ontology
from ontoshape.reshape import KGSchema, _link_relation, connect_classes

log = logging.getLogger("ontoshape.reshape")


def _reference_successors(o: Ontology, c: str) -> set[str]:
    return {rng for _, dom, rng in o.object_properties if dom == c}


def _reference_direct(o: Ontology, ci: str, cj: str) -> str | None:
    return min((rel for rel, dom, rng in o.object_properties if (dom, rng) == (ci, cj)), default=None)


def _reference_has_indirect(o: Ontology, src: str, dst: str) -> bool:
    queue = deque(w for w in _reference_successors(o, src) if w != dst)
    seen = set(queue) | {src}
    while queue:
        node = queue.popleft()
        for nxt in _reference_successors(o, node):
            if nxt == dst:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def _reference_components(classes: set[str], edges: set[tuple[str, str, str]]) -> list[set[str]]:
    adj: dict[str, set[str]] = {c: set() for c in classes}
    for _, f, t in edges:
        if f in adj and t in adj:
            adj[f].add(t)
            adj[t].add(f)
    seen: set[str] = set()
    out = []
    for start in sorted(classes):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        seen |= comp
        out.append(comp)
    return out


def _reference_connect(s: KGSchema, mc: str, o: Ontology, u: UserInfo) -> KGSchema:
    if mc not in s.classes:
        raise SchemaError(f"main class {mc!r} is not part of the schema")
    edges = set(s.edges)
    linked = {frozenset((f, t)) for _, f, t in edges}

    usable_rules = []
    for rule in u.connection_rules:
        if rule.from_class in s.classes and rule.to_class in s.classes:
            usable_rules.append(rule)
        else:
            log.warning(
                "connection rule %s(%s -> %s) names a class not in the schema; skipped",
                rule.relation,
                rule.from_class,
                rule.to_class,
            )
    rule_for: dict[tuple[str, str], str] = {}
    for rule in usable_rules:
        rule_for.setdefault((rule.from_class, rule.to_class), rule.relation)

    def add(rel: str, f: str, t: str) -> None:
        edges.add((rel, f, t))
        linked.add(frozenset((f, t)))

    def ensure_mc_link(c: str) -> None:
        if c != mc and frozenset((mc, c)) not in linked:
            add(_link_relation(c, u), mc, c)

    names = sorted(s.classes)
    for ci in names:
        for cj in names:
            if ci == cj or frozenset((ci, cj)) in linked:
                continue
            if ci not in o.classes or cj not in o.classes:
                continue
            rel = _reference_direct(o, ci, cj)
            if rel is not None:
                add(rel, ci, cj)
            elif _reference_has_indirect(o, ci, cj):
                user_rel = rule_for.get((ci, cj))
                if user_rel is not None:
                    add(user_rel, ci, cj)
                else:
                    ensure_mc_link(ci)
                    ensure_mc_link(cj)

    touched = {f for _, f, _ in edges} | {t for _, _, t in edges}
    for c in names:
        if c == mc or c in touched:
            continue
        for rule in usable_rules:
            if c in (rule.from_class, rule.to_class):
                add(rule.relation, rule.from_class, rule.to_class)
                touched |= {rule.from_class, rule.to_class}
                break
        else:
            add(_link_relation(c, u), mc, c)
            touched |= {mc, c}

    for comp in _reference_components(s.classes, edges):
        if mc in comp:
            continue
        rep = min(comp)
        log.warning("classes %s cannot reach %s through the ontology; linking %s", sorted(comp), mc, rep)
        add(_link_relation(rep, u), mc, rep)

    return KGSchema(
        s.main_class,
        set(s.classes),
        edges,
        set(s.data_attachments),
        dict(s.class_keys),
        dict(s.class_tables),
    )


_DECLARABLE = list("ABCDEFGH")
_UNDECLARED = ["U", "V"]


@st.composite
def _inputs(draw) -> tuple[KGSchema, str, Ontology, UserInfo]:
    declared = sorted(draw(st.frozensets(st.sampled_from(_DECLARABLE), min_size=1)))
    # self-loops and parallel edges (two names for one ordered pair) allowed
    props = draw(st.frozensets(
        st.tuples(st.sampled_from("pq"), st.sampled_from(declared), st.sampled_from(declared)),
        max_size=16,
    ))
    o = Ontology(frozenset(declared), props, frozenset())
    classes = draw(st.frozensets(st.sampled_from(_DECLARABLE + _UNDECLARED), min_size=1))
    mc = draw(st.sampled_from(sorted(classes)))
    pool = sorted(classes) + ["Ghost"]
    edges = draw(st.frozensets(
        st.tuples(st.sampled_from(["pre", "p"]), st.sampled_from(pool), st.sampled_from(pool)),
        max_size=3,
    ))
    rules = draw(st.lists(
        st.builds(ConnectionRule, st.sampled_from(pool), st.sampled_from(pool), st.sampled_from(["r1", "r2"])),
        max_size=4,
    ))
    entity_rules = draw(st.lists(
        st.builds(EntityRule, st.just("XCode"), st.sampled_from(pool), st.sampled_from(["e1", "e2"])),
        max_size=2,
    ))
    u = UserInfo(mc, tuple(entity_rules), tuple(rules), draw(st.sampled_from(["has", "link"])))
    return KGSchema(mc, set(classes), set(edges)), mc, o, u


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _run(connect, s, mc, o, u):
    handler = _Records()
    log.addHandler(handler)
    try:
        return connect(s, mc, o, u), handler.messages
    finally:
        log.removeHandler(handler)


@settings(max_examples=600, deadline=None)
@given(inputs=_inputs())
def test_connect_matches_pairwise_reference(inputs):
    s, mc, o, u = inputs
    expected, expected_warnings = _run(_reference_connect, s, mc, o, u)
    got, warnings = _run(lambda s, mc, o, u: replace(s, edges=connect_classes(s, o, u)), s, mc, o, u)
    assert got == expected
    assert warnings == expected_warnings
