"""Measurements over generated graphs: coverage, size, counts, and depth.

Entity and dummy counts are disjoint: ``entity_count`` covers only entities
that correspond to raw data, ``dummy_count`` only the placeholders minted
because the schema demanded a class the data never fills. Depths are
measured on the undirected instance graph induced by object triples;
literal triples never contribute. The root-to-leaf depth looks out from the
main-class entities, the global depth is the largest shortest-path distance
found in any connected component.

Both depths are exact. Each component's first BFS starts at its first
main entity, if it has one, and also finds the component's nodes. On a
tree component a double sweep (that BFS, then one from the farthest node
it reached) gives the diameter. On any other component the double sweep
and a BFS from the middle of its path (iFUB's 4-sweep, Crescenzi et al.,
TCS 2013) seed per-node eccentricity bounds (Takes & Kosters, CIKM 2011);
more BFS run only while some node's upper bound exceeds the largest
eccentricity found. The root-to-leaf depth comes from the same bounds,
restricted to main-class nodes.

This costs a few BFS per component on trees, such as graphs whose rows
share no entity, but not in general. When rows share entities, nearly every
node's eccentricity equals the diameter, so a BFS from ``u`` bounds another
node ``v`` only by ``ecc(u) + d(u, v)``, which lies above the diameter, and
the loop can sweep from almost every node: O(V·E). One 1,000-row baseline
graph with shared program and machine keys took 226 s (ROADMAP item 1).

``ROWS`` is the one definition of the report rows, in report order: (label,
report field, divisor into the shown unit, how repeated runs combine).
``row_values`` applies it, for ``report_text`` and ``bench`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from operator import itemgetter
from statistics import mean

from .kggen import KnowledgeGraph
from .mapping import MappingSet
from .reshape import KGSchema
from .tabular import Dataset, list_attributes

ROWS = (
    ("time cost (sec)", "time_cost_ms", 1000.0, mean),
    ("storage space (MB)", "storage_bytes", 1e6, mean),
    ("#avg. class", "class_count", 1, mean),
    ("#max. class", "class_count", 1, max),
    ("#object prop.", "object_prop_count", 1, mean),
    ("#data prop.", "data_prop_count", 1, mean),
    ("#entities", "entity_count", 1, mean),
    ("#avg. dummy entities", "dummy_count", 1, mean),
    ("#max. dummy entities", "dummy_count", 1, max),
    ("avg. root to leaf depth", "root_to_leaf_depth", 1, mean),
    ("max. root to leaf depth", "root_to_leaf_depth", 1, max),
    ("avg. global depth", "global_depth", 1, mean),
    ("max. global depth", "global_depth", 1, max),
)

ROW_LABELS = [label for label, _, _, _ in ROWS]
EFFICIENCY_LABELS = ROW_LABELS[:7]
SIMPLICITY_LABELS = ROW_LABELS[7:]


@dataclass
class MetricsReport:
    data_coverage: float
    time_cost_ms: float
    storage_bytes: int
    class_count: int
    object_prop_count: int
    data_prop_count: int
    entity_count: int
    dummy_count: int
    root_to_leaf_depth: int
    global_depth: int


def data_coverage(g: KnowledgeGraph, d: Dataset) -> float:
    """Fraction of the dataset's attributes represented in the graph.

    An attribute counts as covered when it is one of the graph's
    ``literal_sources``, which gave at least one literal triple, or one of
    its ``key_sources``, whose values were consumed as entity keys. A
    dataset without attributes is fully covered by definition.
    """
    attrs = list_attributes(d)
    if not attrs:
        return 1.0
    covered = g.literal_sources | g.key_sources
    return sum(1 for ta in attrs if ta in covered) / len(attrs)


def kg_counts(g: KnowledgeGraph, s: KGSchema) -> tuple[int, int, int, int]:
    """(class count, object triple count, literal triple count, entity
    count), with dummies excluded from the entity count. The graph keeps
    each literal triple once however many source rows gave it, so each
    counts once, as in the N-Triples file."""
    non_dummy = len(g.entities) - sum(map(itemgetter(1), g.entities.values()))
    return (len(s.classes), len(g.object_triples), len(g.literals), non_dummy)


class _Eccentricities:
    """Lower and upper eccentricity bounds for every node of a graph.

    Each BFS tightens them (Takes & Kosters, CIKM 2011): after a BFS from a
    node with eccentricity ``e``, a node at distance ``d`` from it has
    eccentricity at least ``max(d, e - d)`` and at most ``e + d``. A node a
    BFS started from has both bounds equal to its eccentricity.
    """

    def __init__(self, adj: list[list[int]]):
        n = len(adj)
        self.adj = adj
        self.lo = [0] * n
        self.hi = [n] * n
        # distance from the source of the latest BFS in the node's component
        self.dist = [0] * n
        # number of the latest BFS that reached the node; 0 until one does
        self.seen = [0] * n
        self.sweeps = 0

    def sweep(self, start: int) -> list[list[int]]:
        """BFS from ``start`` over its component; tightens the bounds of
        every node reached and returns the levels: the nodes at distance 0,
        1, ... from ``start``, the farthest last."""
        self.sweeps += 1
        tag = self.sweeps
        adj, seen = self.adj, self.seen
        seen[start] = tag
        frontier = [start]
        levels = [frontier]
        while True:
            nxt = []
            for node in frontier:
                for other in adj[node]:
                    if seen[other] != tag:
                        seen[other] = tag
                        nxt.append(other)
            if not nxt:
                break
            levels.append(nxt)
            frontier = nxt
        ecc = len(levels) - 1
        lo, hi, dist = self.lo, self.hi, self.dist
        for d, level in enumerate(levels):
            low, high = max(d, ecc - d), ecc + d
            for node in level:
                dist[node] = d
                if lo[node] < low:
                    lo[node] = low
                if hi[node] > high:
                    hi[node] = high
        return levels


def _component_depths(
    ecc: _Eccentricities, far: int, comp: list[int], mains: list[int], tree: bool
) -> tuple[int, int]:
    """(largest eccentricity of a node in ``mains``, diameter) of one
    connected component with at least two nodes, once its first sweep has
    run and found ``far`` farthest."""
    lo, hi = ecc.lo, ecc.hi
    levels = ecc.sweep(far)
    end, diameter = levels[-1][0], len(levels) - 1
    # on a tree the double sweep is exact; elsewhere it is a lower bound
    if not tree:
        # iFUB's 4-sweep: the middle of the double-sweep path lies near a
        # centre, whose BFS caps every upper bound at twice its eccentricity
        adj, dist = ecc.adj, ecc.dist
        centre = end
        for _ in range(diameter // 2):
            centre = next(v for v in adj[centre] if dist[v] == dist[centre] - 1)
        ecc.sweep(centre)
        widest = True
        while True:
            open_nodes = [v for v in comp if hi[v] > diameter]
            if not open_nodes:
                break
            if widest:
                pick = max(open_nodes, key=hi.__getitem__)
            else:
                pick = min(open_nodes, key=lo.__getitem__)
            widest = not widest
            diameter = max(diameter, len(ecc.sweep(pick)) - 1)
    if not mains:
        return 0, diameter
    while True:
        root = max(lo[v] for v in mains)
        # no eccentricity exceeds the diameter; a tree's bounds need not know it
        open_mains = [v for v in mains if min(hi[v], diameter) > root]
        if not open_mains:
            return root, diameter
        ecc.sweep(max(open_mains, key=hi.__getitem__))


def depth_metrics(g: KnowledgeGraph, mc: str) -> tuple[int, int]:
    """(root-to-leaf depth, global depth) over the undirected entity graph.

    Root-to-leaf is the largest distance from any main-class entity to an
    entity reachable from it; global is the largest distance between any
    two entities in the same component. An empty graph yields (0, 0).
    Both are exact. A tree component costs a few BFS; when rows share
    entities, a component can cost one BFS per node, O(V·E) (see the
    module docstring).
    """
    index = {eid: i for i, eid in enumerate(g.entities)}
    n = len(index)
    if n == 0:
        return (0, 0)
    # a node pair joined by several triples repeats in the lists
    adj: list[list[int]] = [[] for _ in range(n)]
    for subj, _, obj in g.object_triples:
        a, b = index.get(subj), index.get(obj)
        if a is None or b is None or a == b:
            continue
        adj[a].append(b)
        adj[b].append(a)
    is_main = [cls == mc for cls, _ in g.entities.values()]

    ecc = _Eccentricities(adj)
    seen = ecc.seen
    root_depth = global_depth = 0
    # main entities first, so that a component holding one starts there;
    # each component's first sweep also finds its nodes
    for start in chain(compress(range(n), is_main), range(n)):
        if seen[start] or not adj[start]:
            continue
        levels = ecc.sweep(start)
        comp = [node for level in levels for node in level]
        edges = sum(len(adj[node]) for node in comp) // 2
        tree = edges == len(comp) - 1 or sum(len(set(adj[node])) for node in comp) // 2 == len(comp) - 1
        mains = [node for node in comp if is_main[node]]
        root, diameter = _component_depths(ecc, levels[-1][0], comp, mains, tree)
        root_depth = max(root_depth, root)
        global_depth = max(global_depth, diameter)
    return (root_depth, global_depth)


def build_report(
    g: KnowledgeGraph,
    s: KGSchema,
    d: Dataset,
    m: MappingSet,
    mc: str,
    time_cost_ms: float = 0.0,
    storage_bytes: int = 0,
) -> MetricsReport:
    """Assemble a full report for one generated graph."""
    coverage = data_coverage(g, d)
    class_count, object_props, data_props, entity_count = kg_counts(g, s)
    root_depth, global_depth = depth_metrics(g, mc)
    return MetricsReport(
        data_coverage=coverage,
        time_cost_ms=time_cost_ms,
        storage_bytes=storage_bytes,
        class_count=class_count,
        object_prop_count=object_props,
        data_prop_count=data_props,
        entity_count=entity_count,
        dummy_count=len(g.entities) - entity_count,
        root_to_leaf_depth=root_depth,
        global_depth=global_depth,
    )


def row_values(reports: list[MetricsReport]) -> dict[str, float]:
    """The mean data coverage, then every ``ROWS`` row over a nonempty list
    of reports: each combines its field over the reports, then divides."""
    values = {"data coverage": mean(r.data_coverage for r in reports)}
    for label, field, divisor, combine in ROWS:
        values[label] = combine(getattr(r, field) for r in reports) / divisor
    return values


def format_value(value: float) -> str:
    return f"{value:.4f}"


def report_text(r: MetricsReport) -> str:
    """Aligned label/value block for terminal inspection."""
    values = row_values([r])
    width = max(len(label) for label in values)
    return "".join(f"{label:<{width}}  {format_value(v)}\n" for label, v in values.items())
