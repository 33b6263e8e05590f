"""Measurements over generated graphs: coverage, size, counts, and depth.

Coverage alone reads no graph: it walks ``generate_kg``'s plans over the
schema and the tables, so a graph and its read-back report the same.

Entity and dummy counts are disjoint: ``entity_count`` covers only entities
that correspond to raw data, ``dummy_count`` only the placeholders minted
because the schema demanded a class the data never fills. Depths are
measured on the undirected instance graph induced by object triples;
literal triples never contribute. The root-to-leaf depth looks out from the
main-class entities, the global depth is the largest shortest-path distance
found in any connected component.

Both depths are exact, and no tree needs an adjacency list. One pass over
the object triples gives each entity its degree (its count of triples)
and the XOR of its neighbours' indices. Leaves are peeled, in index order
and then as they appear; a leaf's one neighbour, its parent, is its XOR,
and once it is peeled the XOR still names it. A node left with no
neighbour is the root of a tree component. A node is peeled after all its
children, so the same pass hangs it from its parent: it gives the height
``h(a)`` of what hangs from each node and the longest path inside a tree,
where a node's two tallest branches meet.
Each main entity in a tree walks up to its top, the root or the core node
its tree hangs from, for the longest path that leaves each node on the way
through its parent; no node is walked twice. Its eccentricity within its
tree is the larger of that and its height, and ``m(a)`` is the depth of the
deepest main entity below a core node ``a`` (0 for a main core node, none
without one).

Only the nodes left, the core, get adjacency lists, deduplicated and in
index order. A pair that several triples join counts twice in the degree
and cancels in the XOR, so it is left at first; with its lists it is peeled
like any leaf, and a tree never reaches the reductions. The core is then
reduced in linear time:

- of false twins (core nodes with one neighbour set) of equal height, two
  are kept: each other node is as far from all of them as from one, and a
  twin is as far from the kept pair as from its own twins;
- of parallel chains (paths of degree-2 nodes) with the same ends and the
  same heights along them, two are kept, for the same reason.

A node kept for others takes the deepest main entity among them. In the
core, the farthest entity from anywhere is a tip of a hanging tree, so each
core node ``v`` has a reach ``r(v) = max(d(v, b) + h(b) for core b != v)``.
The diameter is the larger of the longest path inside a hanging tree and
``max(h(v) + r(v))``; a main entity at depth ``m(v)`` below ``v`` has
eccentricity ``m(v) + r(v)``, or its eccentricity within its tree if that is
larger. Takes & Kosters' eccentricity bounds (CIKM 2011) carry over to
reaches: after a BFS over the core from ``s``, let ``R(v)`` be the largest
``d(s, b) + h(b)`` over core nodes ``b != v``; then a core node ``v`` at
distance ``d`` from ``s`` has ``max(d + h(s), R(v) - d) <= r(v) <= d + R(v)``,
and ``r(s) = R(s)``. Each core component's first BFS, from its first
main-holding node if it has one, seeds these bounds; a BFS from the node
farthest by ``d + h`` and one from near the middle of that path follow
(iFUB's 4-sweep, Crescenzi et al., TCS 2013). More BFS run while some
node's ``h(v)`` plus upper bound exceeds the diameter found, then while
some main-holding node's ``m(v)`` plus upper bound exceeds the
root-to-leaf depth found. Both are maxima over the whole graph, so the
longest path in a tree and what earlier components found count as found.

A forest costs the pass and the peel, O(V + E), and no BFS. Any other
graph also costs a second pass for the core's lists and the reductions,
O(V + E), plus one BFS over the reduced core per bounded sweep: one queue,
whose order the bounds then read. When rows share entities, the core holds
the shared entities and two rows at most for each combination of them, so
it, and the count of BFS, stop growing with the rows. On
``SynthConfig(10, rows)`` with program and machine keys drawn from 10
values each, 1,000 to 4,000 rows take 25 BFS on baseline graphs and 220 on
reshaped ones, where every core node's eccentricity equals the diameter,
so no bound prunes and each core node takes its own BFS. A graph keeps
each distinct triple once, in the order it was first made or read, and
equal graphs may differ in that order; the core's lists are sorted into
entity order, so neither the depths nor the count depend on it. Row order
only speeds up the passes over the triples, which then read the entities'
strings and array slots about in turn.

``ROWS`` is the one definition of the report rows, in report order: (label,
report field, divisor into the shown unit, how repeated runs combine).
``row_values`` applies it, for ``report_text`` and ``bench`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import itemgetter, xor
from statistics import mean

from .kggen import KnowledgeGraph, _plans
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


def _covered(s: KGSchema, d: Dataset) -> set[tuple[str, str]]:
    """The (table, attribute) pairs of ``d`` that ``generate_kg`` with the
    schema's main class represents, by a walk of its plans over the tables:
    each key column a plan reads, and each attachment or join column whose
    cell is nonempty in a kept row that yields its owner. The joined main
    entity is yielded, and the join column covered, only where the join
    value keys a kept main-table row. A table's walk stops once its sources
    are found; it logs nothing and raises as ``generate_kg`` does."""
    plans = _plans(s, d, s.main_class)
    covered: set[tuple[str, str]] = set()
    main_keys: set[str] | None = None
    for p in plans:
        covered.update((p.name, attr) for _, attr in p.entries if attr is not None)
        always = {cls for cls, _ in p.entries}.union(p.dummies)
        todo = [(owner, attr) for _, owner, attr in p.attaches]
        if p.join is not None:
            todo.append((None, p.join))  # no row yields owner None: only a joined row covers it
        todo = [(owner, attr) for owner, attr in todo if (p.name, attr) not in covered]
        if todo and p.join is not None and main_keys is None:  # a join implies a keyed main class
            main_keys = {row[plans[0].entries[0][1]] for _, row in plans[0].kept_rows()}
        for _, row in p.kept_rows() if todo else ():
            joined = p.join is not None and row[p.join] in main_keys
            found = {attr for owner, attr in todo if row[attr] and (joined or owner in always)}
            if found:
                covered.update((p.name, attr) for attr in found)
                if not (todo := [(owner, attr) for owner, attr in todo if attr not in found]):
                    break
    return covered


def data_coverage(s: KGSchema, d: Dataset) -> float:
    """Fraction of the dataset's attributes that ``generate_kg`` represents
    (see ``_covered``): the schema and the tables decide it, however the
    graph was built or read. A dataset without attributes is fully covered."""
    attrs = list_attributes(d)
    return len(_covered(s, d)) / len(attrs) if attrs else 1.0


def kg_counts(g: KnowledgeGraph, s: KGSchema) -> tuple[int, int, int, int]:
    """(class count, object triple count, literal triple count, entity
    count), with dummies excluded from the entity count. The graph keeps
    each literal triple once however many source rows gave it, so each
    counts once, as in the N-Triples file."""
    non_dummy = len(g.entities) - sum(map(itemgetter(1), g.entities.values()))
    return (len(s.classes), len(g.object_triples), len(g.literals), non_dummy)


class _Eccentricities:
    """Bounded BFS over a reduced core, each counted in ``sweeps``, and
    bounds ``lo`` and ``hi`` on the reach of every core node, whose
    ``height`` is that of the trees peeled off it (see the module
    docstring)."""

    def __init__(self, adj: list, height: list[int]):
        n = len(adj)
        self.adj = adj
        self.height = height
        self.lo = [0] * n
        self.hi = [n] * n
        # distance from the latest source
        self.dist = [0] * n
        # number of the latest BFS that reached the node; 0 until one does
        self.seen = [0] * n
        self.sweeps = 0

    def sweep(self, start: int) -> tuple[int, list[int]]:
        """BFS from ``start`` over its component of the core, leaving each
        node's distance in ``dist``, then tightens the reach bounds of the
        nodes it reached. Returns the farthest node by distance plus height
        and the nodes reached, in BFS order."""
        self.sweeps += 1
        tag = self.sweeps
        adj, seen, dist, height, lo, hi = self.adj, self.seen, self.dist, self.height, self.lo, self.hi
        seen[start] = tag
        dist[start] = 0
        order = [start]
        # the largest and second-largest distance plus height, and where
        # the largest is: a node's reach from the source excludes itself
        best = base = height[start]
        second, far = -1, start
        for node in order:
            d = dist[node] + 1
            for other in adj[node]:
                if seen[other] != tag:
                    seen[other] = tag
                    dist[other] = d
                    order.append(other)
                    x = d + height[other]
                    if x > second:
                        if x > best:
                            second, best, far = best, x, other
                        else:
                            second = x
        for node in order:
            d = dist[node]
            reach = second if node == far else best
            # low is max(d + base, reach - d), without a call per node
            low, high = d + base, d + reach
            if low < reach - d:
                low = reach - d
            if lo[node] < low:
                lo[node] = low
            if hi[node] > high:
                hi[node] = high
        lo[start] = hi[start] = second if start == far else best
        return far, order


def _peel(queue: list[int], deg: list[int], link: list[int], height: list[int], second: list[int]) -> int:
    """Peels leaves from ``queue`` on, appending each node whose ``deg``
    falls to 1. A leaf's one neighbour, its parent, is ``link[v]``, the XOR
    of the neighbours it has left, so no list is read. A peeled node's
    ``deg`` becomes 0 and its ``link`` stays its parent; a node left with no
    neighbour is the root of a tree, and its ``deg`` becomes -1. A node is
    peeled after all its children, and hangs from its parent as it goes:
    ``height[p]`` and ``second[p]`` become the tallest and the
    second-tallest branch below ``p`` (both start at 0). Returns the longest
    path found, where the two tallest branches of a node meet."""
    longest = 0
    for v in queue:
        if deg[v] == 0:
            deg[v] = -1
            continue
        p = link[v]
        deg[v] = 0
        link[p] ^= v
        deg[p] -= 1
        if deg[p] == 1:
            queue.append(p)
        h = height[v] + 1
        if h > second[p]:
            if h > height[p]:
                second[p] = height[p]
                height[p] = h
            else:
                second[p] = h
            if height[p] + second[p] > longest:
                longest = height[p] + second[p]
    return longest


def _walk_up(mains: list[int], deg: list[int], link: list[int], height: list[int], second: list[int], main_depth: list[int]) -> int:
    """The largest eccentricity of a node in ``mains`` within its tree, once
    every tree is peeled and hung. Each main walks up to its top, a root or
    a core node, and back down, taking at each step the longest path that
    leaves a node through its parent: one edge, then the parent's own such
    path or its tallest branch other than the node's. A node walked once is
    not walked again. ``main_depth`` gets, for each core node, the depth of
    the deepest main below it (0 for a main core node)."""
    walked: dict[int, tuple[int, int, int]] = {}  # node: (path up, depth, top)
    root = 0
    for m in mains:
        path, v = [], m
        while deg[v] == 0 and v not in walked:
            path.append(v)
            v = link[v]
        up, depth, top = walked.get(v, (0, 0, v))
        for c in reversed(path):
            p = link[c]
            other = second[p] if height[c] + 1 == height[p] else height[p]
            up, depth = 1 + (up if up > other else other), depth + 1
            walked[c] = (up, depth, top)
        root = max(root, height[m], up)
        if deg[top] > 0 and depth > main_depth[top]:
            main_depth[top] = depth
    return root


def _drop(node: int, keep: int, adj: list[list[int]], deg: list[int], main_depth: list[int]) -> None:
    """Removes ``node`` from the core in favour of ``keep``, which stands
    for it: same reach, so ``keep`` takes its deepest main."""
    deg[node] = 0
    for other in adj[node]:
        if deg[other]:
            deg[other] -= 1
    if main_depth[node] > main_depth[keep]:
        main_depth[keep] = main_depth[node]


def _reduce(core: list[int], adj: list[list[int]], deg: list[int], height: list[int], main_depth: list[int]) -> list[int]:
    """Of the ``core`` (every node's ``deg`` > 0, its list in index order),
    keeps two of each set of false twins with one height, and two of each
    set of equal parallel chains; returns the nodes kept, in order, with
    their adjacency lists cut to them."""
    for v in core:
        adj[v] = [u for u in adj[v] if deg[u] > 0]
    twins: dict[tuple[int, ...], list[int]] = {}
    for v in core:
        kept = twins.setdefault((height[v], *adj[v]), [])
        if len(kept) < 2:
            kept.append(v)
        else:
            _drop(v, kept[0], adj, deg, main_depth)
    chains: dict[tuple, list[list[int]]] = {}
    walked = set()
    for v in core:
        if deg[v] != 2 or v in walked:
            continue
        sides, ends = [], []
        for first in [u for u in adj[v] if deg[u]]:
            prev, cur, side = v, first, []
            while deg[cur] == 2 and cur != v:
                side.append(cur)
                for u in adj[cur]:
                    if deg[u] and u != prev:
                        prev, cur = cur, u
                        break
            sides.append(side)
            ends.append(cur)
        path = sides[0][::-1] + [v] + sides[1]
        walked.update(path)
        if ends[0] == v:  # a cycle of degree-2 nodes: no ends to share
            continue
        key = (ends[0], ends[1], tuple(height[u] for u in path))
        turned = (ends[1], ends[0], key[2][::-1])
        if turned < key:
            key, path = turned, path[::-1]
        kept = chains.setdefault(key, [])
        if len(kept) < 2:
            kept.append(path)
        else:
            for u, keep in zip(path, kept[0]):
                _drop(u, keep, adj, deg, main_depth)
    core = [v for v in core if deg[v]]
    for v in core:
        adj[v] = [u for u in adj[v] if deg[u]]
    return core


def _settle(ecc: _Eccentricities, start: int, main_depth: list[int], root: int, longest: int) -> tuple[int, int]:
    """The root-to-leaf depth and the diameter, once the component of
    ``start`` in the reduced core is settled, given the largest main
    eccentricity ``root`` and the longest path ``longest`` found so far:
    bounded BFS over the component until the reach bounds settle both. What
    is found so far is a floor, so a node that cannot beat it needs no BFS."""
    adj, dist, lo, hi, height = ecc.adj, ecc.dist, ecc.lo, ecc.hi, ecc.height
    far, core = ecc.sweep(start)
    end, _ = ecc.sweep(far)
    # iFUB's 4-sweep: a BFS from near the middle of the longest path found
    # caps every upper bound at about twice its reach
    centre, span = end, dist[end]
    for _ in range(min(span, max(0, (span + height[far] - height[end]) // 2))):
        centre = next(u for u in adj[centre] if dist[u] == dist[centre] - 1)
    ecc.sweep(centre)
    widest = True
    swept = {start, far, centre}
    while True:
        diameter = max(longest, max(height[v] + lo[v] for v in core))
        open_nodes = [v for v in core if height[v] + hi[v] > diameter]
        if not open_nodes:
            break
        if widest:
            pick = max(open_nodes, key=lambda v: height[v] + hi[v])
        else:
            # a hub bounds the most nodes at the least distance
            pick = min((v for v in core if v not in swept), key=lambda v: (-len(adj[v]), lo[v]))
        widest = not widest
        swept.add(pick)
        ecc.sweep(pick)
    holders = [v for v in core if main_depth[v] >= 0]
    while holders:
        root = max(root, max(main_depth[v] + lo[v] for v in holders))
        open_mains = [v for v in holders if min(main_depth[v] + hi[v], diameter) > root]
        if not open_mains:
            break
        ecc.sweep(max(open_mains, key=lambda v: main_depth[v] + hi[v]))
    return root, diameter


def depth_metrics(g: KnowledgeGraph, mc: str) -> tuple[int, int]:
    """(root-to-leaf depth, global depth) over the undirected entity graph.

    Root-to-leaf is the largest distance from any main-class entity to an
    entity reachable from it; global is the largest distance between any
    two entities in the same component. An empty graph yields (0, 0).
    Both are exact. A forest costs one pass over the triples and a peel of
    its leaves, O(V + E), no adjacency list and no BFS. Any other graph
    also builds lists for its core alone and reduces it, O(V + E), then
    runs one BFS over the reduced core per bounded sweep; when rows share
    entities, the core and the count of BFS stop growing with the rows
    (see the module docstring).
    """
    index = {eid: i for i, eid in enumerate(g.entities)}
    n = len(index)
    # each node's count of triples and the XOR of their other ends: a
    # leaf's one neighbour, read without a list
    deg, link = [0] * n, [0] * n
    for subj, _, obj in g.object_triples:
        a, b = index.get(subj), index.get(obj)
        if a is None or b is None or a == b:
            continue
        deg[a] += 1
        deg[b] += 1
        link[a] ^= b
        link[b] ^= a
    mains = [v for v, (cls, _) in enumerate(g.entities.values()) if cls == mc and deg[v]]
    height, second = [0] * n, [0] * n
    diameter = _peel([v for v in range(n) if deg[v] == 1], deg, link, height, second)
    core: list[int] = []
    if max(deg, default=0) > 0:  # some triples are left: lists for their ends
        core = [v for v in range(n) if deg[v] > 0]
        adj: list = [None] * n
        for v in core:
            adj[v] = []
        for subj, _, obj in g.object_triples:
            a, b = index.get(subj), index.get(obj)
            if a is not None and b is not None and a != b and deg[a] > 0 and deg[b] > 0:
                adj[a].append(b)
                adj[b].append(a)
        # a pair that several triples join counts twice in ``deg`` and
        # cancels in ``link``: once its lists hold it once, it peels
        leaves = []
        for v in core:
            nbrs = adj[v] = sorted(set(adj[v]))
            if len(nbrs) < deg[v]:
                deg[v], link[v] = len(nbrs), reduce(xor, nbrs)
                if deg[v] == 1:
                    leaves.append(v)
        diameter = max(diameter, _peel(leaves, deg, link, height, second))
        core = [v for v in core if deg[v] > 0]
    main_depth = [-1] * n
    root = _walk_up(mains, deg, link, height, second, main_depth)
    if core:
        ecc = _Eccentricities(adj, height)
        core = _reduce(core, adj, deg, height, main_depth)
        # a component holding a main entity starts at the first one
        for start in chain([v for v in core if main_depth[v] >= 0], core):
            if not ecc.seen[start]:
                root, diameter = _settle(ecc, start, main_depth, root, diameter)
    return (root, diameter)


def build_report(
    g: KnowledgeGraph,
    s: KGSchema,
    d: Dataset,
    m: MappingSet,
    mc: str,
    time_cost_ms: float = 0.0,
    storage_bytes: int = 0,
) -> MetricsReport:
    """Assemble a full report for graph ``g``, generated from ``s`` and
    ``d`` with main class ``mc``, the schema's. Its coverage comes from
    ``s`` and ``d`` alone; every other field from ``g``."""
    coverage = data_coverage(s, d)
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
