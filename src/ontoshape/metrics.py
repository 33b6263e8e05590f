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

Both depths are exact. Each component's first BFS starts at its first
main entity, if it has one, finds the component's nodes and records each
node's parent; it bounds nothing. On a tree component (as many distinct
edges as nodes, less one) that BFS is all it takes. Heights folded in
reverse BFS order give the diameter where a node's two tallest branches
meet, and the start's eccentricity is its height. With several main
entities, rerooting gives each one's eccentricity: the larger of its
height and the longest path that leaves it through its parent.

Any other component is reduced first, in linear time, to a core:

- the pendant trees are peeled, leaves first, into the height ``h(a)`` of
  what hangs from each core node ``a`` and the depth ``m(a)`` of the
  deepest main entity in it (0 for a main core node, none without one);
  the same heights give the longest path inside a hanging tree, and
  rerooting gives each main entity's eccentricity within its tree;
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
and ``r(s) = R(s)``. The first BFS seeds these bounds; a BFS from the node
farthest by ``d + h`` and one from near the middle of that path follow
(iFUB's 4-sweep, Crescenzi et al., TCS 2013). More BFS run while some
node's ``h(v)`` plus upper bound exceeds the largest ``h(v)`` plus lower
bound, then while some main-holding node's ``m(v)`` plus upper bound
exceeds the root-to-leaf depth found.

A tree component costs one BFS, O(V + E). Any other component costs that
BFS and the reductions, O(V + E), plus one BFS over the reduced core per
bounded sweep. When rows share entities, the core holds the shared
entities and two rows at most for each combination of them, so it, and the
count of BFS, stop growing with the rows. On ``SynthConfig(10, rows)``
with program and machine keys drawn from 10 values each, 1,000 to 4,000
rows take 25 BFS on baseline graphs and 220 on reshaped ones, where every
core node's eccentricity equals the diameter, so no bound prunes and each
core node takes its own BFS.

``ROWS`` is the one definition of the report rows, in report order: (label,
report field, divisor into the shown unit, how repeated runs combine).
``row_values`` applies it, for ``report_text`` and ``bench`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import itemgetter
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
    are found, the whole walk once every attribute is; it logs nothing and
    raises as ``generate_kg`` does."""
    plans, total = _plans(s, d, s.main_class), sum(len(t.attributes) for t in d.tables.values())
    covered: set[tuple[str, str]] = set()
    main_keys: set[str] | None = None
    for p in plans:
        if len(covered) == total:
            break
        covered.update((p.name, attr) for _, attr in p.entries if attr is not None)
        always = {cls for cls, _ in p.entries}.union(p.dummies)
        todo = [(owner, attr) for _, owner, attr in p.attaches]
        if p.join is not None:
            todo.append((None, p.join))  # no row yields owner None: only a joined row covers it
            if main_keys is None:  # a join implies a keyed main class
                main_keys = {row[plans[0].entries[0][1]] for _, row in plans[0].kept_rows()}
        todo = [(owner, attr) for owner, attr in todo if (p.name, attr) not in covered]
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
    """BFS over one graph, each counted in ``sweeps``, and bounds on the
    reach of every node of a reduced core.

    A bare BFS (``bfs``) orders a component and records parents; it bounds
    nothing. A bounded BFS (``sweep``) runs over a reduced core, whose nodes
    carry the height of the trees peeled off them, and tightens every core
    node's bounds ``lo`` and ``hi`` on its reach (see the module docstring).
    On a tree, ``lo`` and ``hi`` hold heights and ``dist`` parents instead.
    """

    def __init__(self, adj: list[list[int]]):
        n = len(adj)
        self.adj = adj
        self.lo = [0] * n
        self.hi = [0] * n
        # parent in the latest bare BFS, else distance from the latest source
        self.dist = [0] * n
        # number of the latest BFS that reached the node; 0 until one does
        self.seen = [0] * n
        self.sweeps = 0
        # height, second, link, deg and main_depth, one entry per node:
        # allocated by the first component that is not a tree
        self.core_arrays: tuple[list[int], ...] | None = None

    def bfs(self, start: int) -> list[int]:
        """Bare BFS from ``start``: its component in BFS order, with each
        node's parent left in ``dist`` (``start``'s is itself)."""
        self.sweeps += 1
        tag = self.sweeps
        adj, seen, parent = self.adj, self.seen, self.dist
        seen[start] = tag
        parent[start] = start
        order = [start]
        for node in order:
            for other in adj[node]:
                if seen[other] != tag:
                    seen[other] = tag
                    parent[other] = node
                    order.append(other)
        return order

    def sweep(self, start: int) -> int:
        """Bounded BFS from ``start`` over its reduced core; returns what
        ``bound`` returns."""
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
        return self.bound(levels)

    def bound(self, levels: list[list[int]]) -> int:
        """Tightens the reach bounds of the core nodes in ``levels``, those
        at distance 0, 1, ... from the source ``levels[0][0]``, and leaves
        each one's distance in ``dist``. Returns the farthest node by
        distance plus height."""
        height, lo, hi, dist = self.core_arrays[0], self.lo, self.hi, self.dist
        # the largest and second-largest distance plus height, and where
        # the largest is: a node's reach from the source excludes itself
        best = second = -1
        far = start = levels[0][0]
        for d, level in enumerate(levels):
            for node in level:
                x = d + height[node]
                if x > second:
                    if x > best:
                        second, best, far = best, x, node
                    else:
                        second = x
        base = height[start]
        for d, level in enumerate(levels):
            for node in level:
                dist[node] = d
                reach = second if node == far else best
                low, high = max(d + base, reach - d), d + reach
                if lo[node] < low:
                    lo[node] = low
                if hi[node] > high:
                    hi[node] = high
        lo[start] = hi[start] = second if start == far else best
        return far


def _hang(nodes, parent: list[int], height: list[int], second: list[int]) -> int:
    """Hangs each of ``nodes`` from its parent, every child before its
    parent: ``height[p]`` and ``second[p]`` become the tallest and the
    second-tallest branch below ``p`` (both start at 0). Returns the longest
    path found, where the two tallest branches of a node meet."""
    longest = 0
    for node in nodes:
        p = parent[node]
        h = height[node] + 1
        if h > second[p]:
            if h > height[p]:
                second[p] = height[p]
                height[p] = h
            else:
                second[p] = h
            if height[p] + second[p] > longest:
                longest = height[p] + second[p]
    return longest


def _reroot(nodes, link: list[int], height: list[int], second: list[int]) -> None:
    """Replaces ``link[v]``, the parent of each of ``nodes`` (every parent
    before its children), with the longest path that leaves ``v`` through
    its parent: one edge, then the parent's own such path, or its tallest
    branch other than ``v``'s. A root's ``link`` must be 0. A node's
    eccentricity in the tree is then ``max(height[v], link[v])``."""
    for node in nodes:
        p = link[node]
        other = second[p] if height[node] + 1 == height[p] else height[p]
        link[node] = 1 + (link[p] if link[p] > other else other)


def _tree_depths(ecc: _Eccentricities, order: list[int], mains: list[int]) -> tuple[int, int]:
    """(largest eccentricity of a node in ``mains``, diameter) of a tree
    component, from its bare BFS: ``order`` from its first main, if it has
    one, with the parents in ``ecc.dist``."""
    parent, height, second = ecc.dist, ecc.lo, ecc.hi
    start = order[0]
    diameter = _hang(islice(reversed(order), len(order) - 1), parent, height, second)
    if len(mains) < 2:
        return (height[start] if mains else 0), diameter
    parent[start] = 0
    _reroot(islice(order, 1, None), parent, height, second)
    return max(max(height[v], parent[v]) for v in mains), diameter


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
    """Of the ``core`` (BFS order, every node's ``deg`` > 0), keeps two of
    each set of false twins with one height, and two of each set of equal
    parallel chains; returns the nodes kept, in order, with their adjacency
    lists cut to them. The first node is always kept."""
    for v in core:
        adj[v] = [u for u in adj[v] if deg[u]]
    twins: dict[tuple[int, ...], list[int]] = {}
    for v in core:
        kept = twins.setdefault((height[v], *sorted(adj[v])), [])
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


def _core_depths(ecc: _Eccentricities, order: list[int], mains: list[int]) -> tuple[int, int]:
    """(largest eccentricity of a node in ``mains``, diameter) of a
    component whose adjacency lists hold more entries than a tree's, from
    its bare BFS: ``order`` from its first main, if it has one, with the
    parents in ``ecc.dist``. A tree whose lists repeat a pair goes on to
    ``_tree_depths`` once the repeats are gone."""
    adj, dist = ecc.adj, ecc.dist
    if ecc.core_arrays is None:
        # each node is set up once: no two components share one
        n = len(adj)
        ecc.core_arrays = ([0] * n, [0] * n, [0] * n, [0] * n, [-1] * n)
    height, _, _, deg, main_depth = ecc.core_arrays
    edges, leaves = 0, []
    for v in order:
        nbrs = adj[v]
        k = len(nbrs)
        if k == 2 and nbrs[0] == nbrs[1] or k > 2 and len(set(nbrs)) < k:
            nbrs = adj[v] = list(dict.fromkeys(nbrs))  # several triples join one pair
            k = len(nbrs)
        if k == 1:
            leaves.append(v)
        deg[v] = k
        edges += k
    if edges == 2 * len(order) - 2:
        return _tree_depths(ecc, order, mains)
    inner, root = _peel(ecc, leaves, mains)
    core = [v for v in order if deg[v]]
    # the bare BFS reached every core node through the first one, and each
    # other core node through a core node: their distances from the first
    dist[core[0]] = 0
    for v in islice(core, 1, None):
        dist[v] = dist[dist[v]] + 1
    return _settle(ecc, _reduce(core, adj, deg, height, main_depth), inner, root)


def _peel(ecc: _Eccentricities, peeled: list[int], mains: list[int]) -> tuple[int, int]:
    """Peels the pendant trees off a component from its ``peeled`` leaves,
    to which it adds each node it peels, every one hanging from ``link[v]``:
    every node left keeps ``deg`` > 0, its height and its deepest main.
    Returns the longest path inside a hanging tree and the largest
    eccentricity of a main node within its tree."""
    adj = ecc.adj
    height, second, link, deg, main_depth = ecc.core_arrays
    for v in mains:
        main_depth[v] = 0
    for v in peeled:
        deg[v] = 0
        for p in adj[v]:
            if deg[p]:
                break
        link[v] = p
        if main_depth[v] >= 0 and main_depth[v] >= main_depth[p]:
            main_depth[p] = main_depth[v] + 1
        deg[p] -= 1
        if deg[p] == 1:
            peeled.append(p)
    inner = _hang(peeled, link, height, second)
    if any(not deg[v] for v in mains):
        _reroot(reversed(peeled), link, height, second)
    return inner, max((max(height[v], link[v]) for v in mains), default=0)


def _settle(ecc: _Eccentricities, core: list[int], inner: int, root: int) -> tuple[int, int]:
    """(root-to-leaf depth, diameter) of a component from its reduced
    ``core``, in BFS order with the distances from its first node in
    ``ecc.dist``, given the longest path ``inner`` inside a hanging tree and
    the largest eccentricity ``root`` of a main node within its tree: bounded
    BFS over the core until the reach bounds settle both."""
    adj, dist, lo, hi = ecc.adj, ecc.dist, ecc.lo, ecc.hi
    height, _, _, _, main_depth = ecc.core_arrays
    for v in core:
        lo[v], hi[v] = 0, len(adj)
    # the bare BFS, seen from the first core node, is the first sweep
    levels: list[list[int]] = []
    for v in core:
        d = dist[v]
        if d == len(levels):
            levels.append([])
        levels[d].append(v)
    far = ecc.bound(levels)
    end = ecc.sweep(far)
    # iFUB's 4-sweep: a BFS from near the middle of the longest path found
    # caps every upper bound at about twice its reach
    centre, span = end, dist[end]
    for _ in range(min(span, max(0, (span + height[far] - height[end]) // 2))):
        centre = next(u for u in adj[centre] if dist[u] == dist[centre] - 1)
    ecc.sweep(centre)
    widest = True
    swept = {core[0], far, centre}
    while True:
        diameter = max(inner, max(height[v] + lo[v] for v in core))
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
    Both are exact. A tree component costs one BFS, O(V + E). Any other
    component costs that BFS and linear reductions, O(V + E), plus one BFS
    over its reduced core per bounded sweep; when rows share entities, the
    core and the count of BFS stop growing with the rows (see the module
    docstring).
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
    # each component's first BFS also finds its nodes
    for start in chain(compress(range(n), is_main), range(n)):
        if seen[start] or not adj[start]:
            continue
        order = ecc.bfs(start)
        mains = [v for v in order if is_main[v]]
        # a tree's lists hold one entry per edge end, unless a pair repeats
        tree = sum(map(len, map(adj.__getitem__, order))) == 2 * len(order) - 2
        depths = _tree_depths if tree else _core_depths
        root, diameter = depths(ecc, order, mains)
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
