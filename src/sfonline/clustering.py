"""Agglomerative clustering hierarchy over a terminal metric.

Per arrival the hierarchy is rebuilt from scratch: starting from the trivial
clustering, level i merges the connected components of the level-i virtual
graph, whose vertices are the i-active clusters (cluster level >= i) and
whose edges join active clusters at contracted distance strictly below
2^(i+1). A terminal's level is ceil(log2 dist(v, mate(v))), computed via bit
length so there is no floating point anywhere.

Contracted distances are carried incrementally, never rebuilt: merging
clusters is adding zero-weight edges, so each level's closed metric is the
previous level's updated in O(K^2) per merge (ContractedMetric), and no
Floyd-Warshall runs on any path.

A Clustering is a plain partition with no level label. Most levels merge
nothing and share their predecessor's object; contract_clustering returns an
assignment tuple, so each distinct partition is built once.

A Hierarchy is immutable and holds only what a trace records.
build_hierarchy returns each level's virtual edges and contracted metric
beside it, for use on the one arrival, so kept hierarchies hold no arrays.

Everything here is deterministic: cluster ids are the minimum member
terminal id, edges are ordered by (min endpoint, max endpoint), and
shortest-path ties are broken toward the lexicographically smallest
super-node sequence.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError
from .metric import InstanceView, mate
from .unionfind import UnionFind

MAX_LEVEL = 63


def terminal_level(view: InstanceView, v: int) -> int:
    """ceil(log2 dist(v, mate(v))), exact integer arithmetic."""
    d = view.d(v, mate(v))
    return (d - 1).bit_length()


def terminal_levels(view: InstanceView) -> tuple[int, ...]:
    return tuple(terminal_level(view, v) for v in range(view.num_terminals))


class Clustering:
    """A partition of the arrived terminals, with no level of its own.

    assignment[k] is the cluster id of terminal k; cluster ids are canonical
    (minimum member id). Cluster level is the max member level; a cluster is
    active at level j iff its level >= j. The levels of a hierarchy that
    merge nothing share one object.
    """

    __slots__ = ("assignment", "cluster_ids", "members", "cluster_level")

    def __init__(self, assignment, term_levels):
        if len(assignment) % 2 or len(term_levels) < len(assignment):
            raise ConfigError("assignment is not one cluster id per arrived terminal")
        groups: dict[int, list[int]] = {}
        for k, cid in enumerate(assignment):
            groups.setdefault(cid, []).append(k)
        # Canonicalize: cluster id = min member, the first one listed.
        self.assignment = tuple(groups[cid][0] for cid in assignment)
        self.members = {ms[0]: tuple(ms) for ms in groups.values()}
        self.cluster_ids = tuple(sorted(self.members))
        self.cluster_level = {cid: max(term_levels[k] for k in ms)
                              for cid, ms in self.members.items()}


def contract_clustering(cl: Clustering, cluster_edges) -> tuple[int, ...]:
    """Canonical assignment of `cl` with the clusters of each (cid1, cid2) edge merged."""
    uf = UnionFind(cl.cluster_ids)
    for c1, c2 in cluster_edges:
        uf.union(c1, c2)
    return tuple(uf.find(cid) for cid in cl.assignment)


def check_refinement(fine: Clustering, coarse: Clustering) -> bool:
    """True iff every fine cluster is contained in one coarse cluster."""
    if len(fine.assignment) > len(coarse.assignment):
        raise ConfigError("fine clustering covers terminals the coarse one lacks")
    for ms in fine.members.values():
        target = coarse.assignment[ms[0]]
        if any(coarse.assignment[k] != target for k in ms[1:]):
            return False
    return True


@dataclasses.dataclass(frozen=True, eq=False)
class ContractedMetric:
    """Exact shortest-path metric of a clustering's contracted graph.

    `ids` are the cluster ids (minimum member terminal) in ascending order,
    `W` the one-hop super-edge weights (minimum original distance between
    members, zero diagonal) and `D` their closure. Contracting clusters is
    adding zero-weight edges, so a closed D is updated exactly in O(K^2) per
    merged pair (Ausiello, Italiano, Marchetti-Spaccamela and Nanni,
    "Incremental algorithms for minimal length paths", J. Algorithms 1991).
    W and D are never written after construction, so metrics share arrays.
    """

    ids: tuple[int, ...]
    W: np.ndarray
    D: np.ndarray

    @classmethod
    def trivial(cls, dist):
        """Metric of the trivial clustering: the instance metric is closed."""
        return cls(tuple(range(len(dist))), dist, dist)

    @classmethod
    def of(cls, dist, assignment):
        """Metric of any canonical clustering, merged up from the trivial one
        at O(T^2) per merged terminal: only for inputs with no finer metric."""
        return cls.trivial(dist).coarsen(assignment)

    def coarsen(self, assignment):
        """Metric of a canonical clustering that this one refines."""
        return self.merge((c, assignment[c]) for c in self.ids if assignment[c] != c)

    def merge(self, pairs):
        """Metric after joining the two clusters of every (id, id) pair."""
        uf = UnionFind(self.ids)
        pos = D = None
        for a, b in pairs:
            if not uf.union(a, b):
                continue
            if D is None:
                pos = {cid: k for k, cid in enumerate(self.ids)}
                D = self.D.copy()
            # D[x, y] = min(D[x, y], D[x, a] + D[b, y], D[x, b] + D[a, y]); the
            # second sum is the transpose of the first since D is symmetric.
            # Entries are <= MAX_DIST, so a sum of two fits in int64.
            via = D[:, pos[a], None] + D[pos[b]]
            np.minimum(D, via, out=D)
            np.minimum(D, via.T, out=D)
        if D is None:
            return self
        # The root of a group is its smallest id, so groups sorted by root
        # position come out in canonical order.
        root = np.array([pos[uf.find(c)] for c in self.ids])
        keep = np.flatnonzero(root == np.arange(len(root)))
        order = np.argsort(root, kind="stable")
        starts = np.searchsorted(root[order], keep)
        W = np.minimum.reduceat(self.W[order], starts, axis=0)
        W = np.minimum.reduceat(W[:, order], starts, axis=1)
        return ContractedMetric(tuple(self.ids[k] for k in keep), W, D[np.ix_(keep, keep)])


def level_metrics(dist, clusterings):
    """Yield the contracted metric of each clustering of a recorded hierarchy.

    A level that refines the next is followed by merging; anything else
    (recorded hierarchies are untrusted) starts over from the trivial metric.
    """
    prev = metric = None
    for cl in clusterings:
        if prev is None or not check_refinement(prev, cl):
            metric = ContractedMetric.of(dist, cl.assignment)
        elif cl.assignment != prev.assignment:
            metric = metric.coarsen(cl.assignment)
        prev = cl
        yield metric


@dataclasses.dataclass(frozen=True)
class ClusterPath:
    """Shortest super-node path with one realized original edge per hop."""

    distance: int
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def _realize_hop(dist, members_p, members_q):
    """Cheapest original edge between two super-nodes.

    Ties broken by the lexicographically smallest normalized (min, max) pair.
    """
    sub = dist[np.ix_(members_p, members_q)]
    w = int(sub.min())
    ends = ((members_p[x], members_q[y]) for x, y in np.argwhere(sub == w))
    return w, min((min(a, b), max(a, b)) for a, b in ends)


def cluster_distance(view: InstanceView, assignment, contracted_by, C1: int, C2: int,
                     metric: ContractedMetric | None = None) -> ClusterPath:
    """Shortest path between two clusters in the doubly contracted graph.

    The graph contracts each cluster of `assignment` to a vertex, then merges
    vertices joined by the original edges in `contracted_by`. Returns the
    distance together with the realized original edge of every hop; ties go
    to the lexicographically smallest super-node id sequence. `metric`, if
    given, is the contracted metric of `assignment`; only the pairs of
    `contracted_by` that cross clusters are merged into it.
    """
    if C1 not in assignment or C2 not in assignment:
        raise ConfigError(f"cluster {C1 if C1 not in assignment else C2} not in clustering")
    T = view.num_terminals
    uf = UnionFind()
    cross = []
    for a, b in contracted_by:
        if a >= T or b >= T:
            raise ConfigError("contracted_by touches a terminal that has not arrived")
        if uf.union(assignment[a], assignment[b]):
            cross.append((assignment[a], assignment[b]))
    src, dst = uf.find(C1), uf.find(C2)
    if src == dst:
        return ClusterPath(0, (src,), ())

    dist = view.dist_matrix()
    if metric is None:
        metric = ContractedMetric.of(dist, assignment)
    m = metric.merge(cross)
    W, D = m.W, m.D
    pos = {cid: k for k, cid in enumerate(m.ids)}
    members = {cid: [] for cid in m.ids}
    for k, cid in enumerate(assignment):
        members[uf.find(cid)].append(k)
    si, di = pos[src], pos[dst]
    total = int(D[si, di])
    to_dst = D[:, di]

    # Greedy walk: always step to the smallest super id that still completes
    # a shortest path; super-edge weights are >= 1 so this terminates. The
    # test W + D == total - sofar keeps to sums of two entries <= MAX_DIST,
    # which fit in int64.
    nodes = [src]
    edges = []
    ci = si
    rest = total
    while ci != di:
        hit = np.flatnonzero(W[ci] + to_dst == rest)
        hit = hit[hit != ci]
        if not hit.size:
            raise AssertionError("shortest-path walk stalled (internal bug)")
        qi = int(hit[0])
        w, edge = _realize_hop(dist, members[m.ids[ci]], members[m.ids[qi]])
        if w != int(W[ci, qi]):
            raise AssertionError("realized hop weight mismatch (internal bug)")
        rest -= w
        edges.append(edge)
        nodes.append(m.ids[qi])
        ci = qi
    if rest != 0:
        raise AssertionError("path length mismatch (internal bug)")
    return ClusterPath(total, tuple(nodes), tuple(edges))


def level_threshold(i: int) -> int:
    # Distances are capped at 2^62 - 1, so clamping the threshold there keeps
    # the comparison exact while staying inside int64.
    return min(1 << (i + 1), 1 << 62)


def active_virtual_edges(D, ids, cluster_level, i: int):
    """(edges of H_i, least contracted distance between two i-active clusters)
    given contracted distances D over `ids` (canonical order) and the level of
    every cluster. With fewer than two active clusters the gap is 2^62."""
    act = [k for k, cid in enumerate(ids) if cluster_level[cid] >= i]
    if len(act) < 2:
        return (), 1 << 62
    x, y = np.triu_indices(len(act), k=1)  # row-major: canonical edge order
    a = np.array(act)
    dxy = D[a[x], a[y]]
    close = np.flatnonzero(dxy < level_threshold(i))
    return tuple((ids[act[x[k]]], ids[act[y[k]]]) for k in close), int(dxy.min())


@dataclasses.dataclass(frozen=True)
class Hierarchy:
    """Per-arrival clustering hierarchy C_0 .. C_{L+1}, exactly what a trace
    records: a run and the trace loader build this same shape."""

    t: int
    L: int
    clusterings: tuple[Clustering, ...]  # length L + 2
    term_levels: tuple[int, ...]

    def clustering(self, i: int) -> Clustering:
        # Levels above the top alias C_{L+1}.
        return self.clusterings[min(i, self.L + 1)]

    @property
    def top(self) -> Clustering:
        return self.clusterings[self.L + 1]


def build_hierarchy(view: InstanceView):
    """Run the clustering procedure for one arrival prefix.

    Returns (hierarchy, virtual edges of H_0 .. H_L, contracted metrics of
    C_0 .. C_L); the caller keeps the last two for this arrival only. Each
    level's metric is the previous one with that level's virtual edges merged
    in; a level that merges nothing keeps it, and its clustering, as is.
    """
    if view.t < 1:
        raise ConfigError("hierarchy needs at least one arrived pair")
    levels = terminal_levels(view)
    L = max(levels)

    cl = Clustering(tuple(range(view.num_terminals)), levels)
    clusterings = [cl]
    vgraphs = []
    metric = ContractedMetric.trivial(view.dist_matrix())
    metrics = []
    for i in range(L + 1):
        metrics.append(metric)
        edges, gap = active_virtual_edges(metric.D, metric.ids, cl.cluster_level, i)
        # Distinct i-active clusters must sit at contracted distance >= 2^i:
        # level i-1 already merged anything closer.
        if gap < min(1 << i, 1 << 62):
            raise AssertionError(f"active clusters too close at level {i} (internal bug)")

        vgraphs.append(edges)
        if edges:
            cl = Clustering(contract_clustering(cl, edges), levels)
            metric = metric.merge(edges)
        clusterings.append(cl)

    top = clusterings[-1]
    for u, v in view.demands:
        if top.assignment[u] != top.assignment[v]:
            raise AssertionError("demand pair split at the top clustering (internal bug)")
    return Hierarchy(view.t, L, tuple(clusterings), levels), tuple(vgraphs), tuple(metrics)


def dump_hierarchy(h: Hierarchy) -> str:
    """Stable debug dump: one line per (level, cluster)."""
    lines = []
    for i, cl in enumerate(h.clusterings):
        for cid in cl.cluster_ids:
            tag = "active" if cl.cluster_level[cid] >= i else "inactive"
            ms = " ".join(str(k) for k in cl.members[cid])
            lines.append(f"{i} | {cid}: {ms} [{tag}]")
    return "\n".join(lines) + "\n"
