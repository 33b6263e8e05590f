"""Directed labeled class graph: data model, text format, and path queries.

An ontology here is reduced to the fragment the schema builders need: a set
of named classes, object properties connecting them, and data properties
that ride along for round-tripping. The text format (OSF) is line oriented:

    # comment
    class <Name>
    objprop <relation> <DomainClass> <RangeClass>
    dataprop <property> <DomainClass>

Names are case-sensitive identifiers matching ``[A-Za-z_][A-Za-z0-9_]*``.
Parsing is order-independent: a property may textually precede the class
declarations it refers to. Serialization sorts each section so that
parse/serialize round-trips are byte stable.

A line is accepted by one compiled pattern (``_DECLARATION``) that takes
the directive, the identifiers and any whitespace around them, as
``str.split`` would. Only a line the pattern rejects is stripped, split and
checked token by token: it is skipped when blank or a comment, and
otherwise raises the ``ParseError`` that names its fault, with the same
message and line as a reader that checks every line that way.

The schema builders read the ontology through three maps built once per
``Ontology``: ``_direct``, the smallest relation per (domain, range) pair,
and the sorted successor (``_succ``) and neighbour (``_und``) tuples per
class. One BFS (``_bfs``) runs over either, following edge direction for
which classes a class reaches (``directed_reach``) or ignoring it for
distances (``undirected_distances``), each memoised per ontology and
read-only. The BFS runs level by level from all its sources at once, so
every class of a level gets the same hop count, from the nearest source;
``reshape`` finds owners by one unmemoised BFS from all its schema
classes. Lexicographically smallest shortest walks over the memoised
distances stop at reached classes; each step takes the first neighbour,
in sorted order, that is one hop closer.

Ontology values are treated as immutable once constructed; all query
functions are pure up to memoisation.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import ParseError

_NAME = "[A-Za-z_][A-Za-z0-9_]*"
_IDENT = re.compile(rf"{_NAME}\Z")
_ID = f"({_NAME})"
# a well-formed declaration line, padding included: \s and str.split agree
# on whitespace, so each group is exactly one token that _IDENT accepts
_DECLARATION = re.compile(
    rf"\s*(?:class\s+{_ID}|objprop\s+{_ID}\s+{_ID}\s+{_ID}|dataprop\s+{_ID}\s+{_ID})\s*\Z"
)
_ARITY = {"class": 2, "objprop": 4, "dataprop": 3}


@dataclass
class Ontology:
    """Immutable class graph.

    ``object_properties`` holds (relation, domain, range) triples and
    ``data_properties`` holds (property, domain) pairs. Every referenced
    class must be declared in ``classes``. Cycles and disconnected parts
    are allowed.
    """

    classes: frozenset[str]
    object_properties: frozenset[tuple[str, str, str]]
    data_properties: frozenset[tuple[str, str]]
    _succ: dict[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _und: dict[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _direct: dict[tuple[str, str], str] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _dist: dict[str, MappingProxyType] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _reach: dict[str, frozenset[str]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        self.classes = frozenset(self.classes)
        self.object_properties = frozenset(self.object_properties)
        self.data_properties = frozenset(self.data_properties)
        # one pass in sorted order: the first relation a (domain, range) pair
        # meets is its smallest
        succ: dict[str, list[str]] = {}
        und: dict[str, list[str]] = {}
        direct = self._direct
        props = sorted(self.object_properties)
        for rel, dom, rng in props:
            if (dom, rng) not in direct:
                direct[dom, rng] = rel
                succ.setdefault(dom, []).append(rng)
                und.setdefault(dom, []).append(rng)
                und.setdefault(rng, []).append(dom)
        if (und.keys() | {dom for _, dom in self.data_properties}) - self.classes:
            # name the first undeclared class in sorted property order
            for _, dom, rng in props:
                _require_declared(self, dom, rng)
            for _, dom in sorted(self.data_properties):
                _require_declared(self, dom)
        self._succ = {name: tuple(sorted(succ.get(name, ()))) for name in self.classes}
        self._und = {name: tuple(sorted(set(und.get(name, ())))) for name in self.classes}


def _check_ident(name: str, lineno: int) -> None:
    if not _IDENT.match(name):
        raise ParseError(f"invalid identifier {name!r}", lineno)


def _check_rejected(raw: str, lineno: int) -> None:
    """Pass a blank or comment line; raise the ``ParseError`` of any other
    line that ``_DECLARATION`` rejects."""
    line = raw.strip()
    if not line or line.startswith("#"):
        return
    parts = line.split()
    if _ARITY.get(parts[0]) == len(parts):
        for name in parts[1:]:
            _check_ident(name, lineno)
    raise ParseError(f"unrecognized directive {line!r}", lineno)


def parse_ontology(text: str) -> Ontology:
    """Parse an OSF document into an :class:`Ontology`.

    Raises :class:`ParseError` on unknown directives, malformed names,
    duplicate declarations, or properties referencing undeclared classes.
    """
    classes: dict[str, int] = {}
    objprops: dict[tuple[str, str, str], int] = {}
    dataprops: dict[tuple[str, str], int] = {}
    lines = text.splitlines()
    for lineno, decl in enumerate(map(_DECLARATION.match, lines), start=1):
        if decl is None:
            _check_rejected(lines[lineno - 1], lineno)
            continue
        name, rel, dom, rng, prop, prop_dom = decl.groups()
        if name is not None:
            if name in classes:
                raise ParseError(f"duplicate class declaration {name!r}", lineno)
            classes[name] = lineno
        elif rel is not None:
            key = (rel, dom, rng)
            if key in objprops:
                raise ParseError(f"duplicate object property {rel} {dom} {rng}", lineno)
            objprops[key] = lineno
        else:
            key = (prop, prop_dom)
            if key in dataprops:
                raise ParseError(f"duplicate data property {prop} {prop_dom}", lineno)
            dataprops[key] = lineno
    used = {c for _, dom, rng in objprops for c in (dom, rng)}
    used.update(dom for _, dom in dataprops)
    if used - classes.keys():
        # name the first undeclared class in line order
        for (rel, dom, rng), lineno in sorted(objprops.items(), key=lambda kv: kv[1]):
            for name in (dom, rng):
                if name not in classes:
                    raise ParseError(f"undeclared class {name}", lineno)
        for (prop, dom), lineno in sorted(dataprops.items(), key=lambda kv: kv[1]):
            if dom not in classes:
                raise ParseError(f"undeclared class {dom}", lineno)
    return Ontology(frozenset(classes), frozenset(objprops), frozenset(dataprops))


def serialize_ontology(o: Ontology) -> str:
    """Render an ontology back to OSF text, sections sorted for determinism."""
    lines = sorted(f"class {c}" for c in o.classes)
    lines += sorted(f"objprop {r} {d} {g}" for r, d, g in o.object_properties)
    lines += sorted(f"dataprop {p} {d}" for p, d in o.data_properties)
    return "".join(line + "\n" for line in lines)


def _require_declared(o: Ontology, *names: str) -> None:
    for name in names:
        if name not in o.classes:
            raise ValueError(f"undeclared class {name}")


def _bfs(adj: Mapping[str, Iterable[str]], *sources: str) -> dict[str, int]:
    """Hop count from the nearest of ``sources`` to every class reachable in
    ``adj``, in the order the BFS reaches them: pass ``Ontology._succ`` to
    follow edge direction, ``Ontology._und`` to ignore it."""
    dist = dict.fromkeys(sources, 0)
    level = list(dist)
    hops = 0
    while level:
        hops += 1
        nxt_level = []
        for node in level:
            for nxt in adj[node]:
                if nxt not in dist:
                    dist[nxt] = hops
                    nxt_level.append(nxt)
        level = nxt_level
    return dist


def undirected_distances(o: Ontology, source: str) -> MappingProxyType:
    """Read-only distance from ``source`` to every reachable class, edge
    direction ignored. The BFS runs once per ontology and source."""
    if (dist := o._dist.get(source)) is None:
        _require_declared(o, source)
        dist = o._dist[source] = MappingProxyType(_bfs(o._und, source))
    return dist


def directed_reach(o: Ontology, source: str) -> frozenset[str]:
    """Every class ``source`` reaches along edge direction, itself included.
    The BFS runs once per ontology and source."""
    if (reach := o._reach.get(source)) is None:
        _require_declared(o, source)
        reach = o._reach[source] = frozenset(_bfs(o._succ, source))
    return reach


def shortest_walks(o: Ontology, target: str, sources: list[str]) -> set[str]:
    """``target`` plus every class on the lexicographically smallest shortest
    undirected walk to it from each source that reaches it. A walk stops at
    the first class already reached: the next hop depends on (target, class)."""
    dist = undirected_distances(o, target)
    und = o._und
    reached = {target}
    for node in sources:
        while node in dist and node not in reached:
            reached.add(node)
            step = dist[node] - 1
            for node in und[node]:  # the first neighbour one hop closer
                if dist[node] == step:
                    break
    return reached
