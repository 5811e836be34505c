"""Agglomerative clustering hierarchy over a terminal metric.

Per arrival the clusterings are rebuilt: starting from the trivial
clustering, level i merges the connected components of the level-i virtual
graph, whose vertices are the i-active clusters (cluster level >= i) and
whose edges join active clusters at contracted distance strictly below
2^(i+1). A terminal's level is ceil(log2 dist(v, mate(v))), which the
instance computes once by bit length (InstanceView.levels), so there is no
floating point anywhere.

Contracted distances are carried incrementally, never rebuilt, and a
contracted metric is its distance closure alone: no one-hop weight matrix
is kept. Merging clusters is adding zero-weight edges, so a merge folds
each merged group's rows and columns into its root's by minimum and runs
one Floyd-Warshall pivot per merged group (ContractedMetric._fold). Across
arrivals, the previous arrival's level-i clustering refines this arrival's
level i (the invariant the recourse analysis rests on), so a level's
metric is the previous arrival's, extended by the two new terminals as
singletons and then coarsened. A full Floyd-Warshall runs on no path.

build_hierarchy takes the previous arrival's (clusterings, metrics, virtual
edges) as `prev`, arrival zero's (NO_TERMINALS, NO_METRIC) by default. Most
levels of an arrival are the previous arrival's plus the two new singletons,
and on that unchanged prefix, from C_0 up, only the new terminals' two rows
of the metric can add a virtual edge: when neither does, the level reuses
the previous H_i and C_{i+1} in O(K) steps instead of searching the O(K^2)
metric and contracting.

A Clustering is a plain partition with no level label. Most levels merge
nothing and share their predecessor's object. A level that merges is
contracted from its parent (Clustering.contract): the union-find runs over
the merged clusters only and every other cluster's entry is copied, so a
level costs O(K + merged members) Python steps, not O(T) (K clusters, T
terminals). contract_clustering gives the same assignment as a tuple, for
checks that compare partitions without building one.

A Hierarchy is immutable and holds only what a trace records.
build_hierarchy returns each level's virtual edges and contracted metric
beside it, so kept hierarchies hold no arrays; the online state keeps the
metrics of the latest arrival only, for the next one to carry.

cluster_distance realizes a virtual edge as a shortest path of original
edges in a level's metric with some pairs merged in, walking on the
closure and realizing one-hop weights only for the hops it tries. Its
Python work is O(pairs + tried hops): terminal -> super-node is one array,
and only the super-nodes the walk tries get their members listed.

Everything here is deterministic: cluster ids are the minimum member
terminal id, edges are ordered by (min endpoint, max endpoint), and
shortest-path ties are broken toward the lexicographically smallest
super-node sequence.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator

import numpy as np

from .errors import ConfigError
from .metric import MAX_DIST, InstanceView
from .unionfind import UnionFind


class Clustering:
    """A partition of the arrived terminals, with no level of its own.

    assignment[k] is the cluster id of terminal k; cluster ids are canonical
    (minimum member id). Cluster level is the max member level; a cluster is
    active at level j iff its level >= j. The levels of a hierarchy that
    merge nothing share one object. `from_parts` takes canonical parts as
    they are, `contract` derives a coarser partition from this one, and
    `grown` adds the terminals of a later arrival (NO_TERMINALS.grown gives
    the singletons) and, for the trace loader, a stored level's new clusters.
    """

    __slots__ = ("assignment", "cluster_ids", "members", "cluster_level")

    @classmethod
    def from_parts(cls, assignment, members, cluster_level) -> Clustering:
        """The clustering with these canonical parts, taken as they are."""
        out = object.__new__(cls)
        out.assignment, out.members, out.cluster_level = assignment, members, cluster_level
        out.cluster_ids = tuple(sorted(members))
        return out

    def contract(self, cluster_edges) -> Clustering:
        """This partition with the clusters of each (cid1, cid2) edge merged;
        every endpoint must be one of its cluster ids.

        A UnionFind over the edges roots each merged group at its least id.
        Only the merged clusters are rebuilt: their members are the sorted
        union and their level the max. Every other cluster's entry is copied.
        """
        root = UnionFind(cluster_edges).roots()
        a = self.assignment
        return self.merged(root, tuple(map(root.get, a, a)))

    def merged(self, root, assignment) -> Clustering:
        """This partition with every id of the `root` map moved into its
        root's cluster; `assignment` is the result's, as the map gives it."""
        members = dict(self.members)
        level = dict(self.cluster_level)
        groups: dict[int, list[int]] = {}
        for cid, r in root.items():
            groups.setdefault(r, []).append(cid)
        for r, cids in groups.items():
            if len(cids) > 1:
                members[r] = tuple(sorted(itertools.chain.from_iterable(map(members.pop, cids))))
                level[r] = max(map(level.pop, cids))
        return Clustering.from_parts(assignment, members, level)

    def grown(self, term_levels, clusters=()) -> Clustering:
        """This partition with the terminals past it appended as singletons,
        one per entry of `term_levels`, and then the member lists of
        `clusters` in place of every cluster they touch: ValueError unless
        those are nonempty and disjoint, hold arrived terminals only and
        cover each touched cluster whole. O(K) steps, of which O(new
        terminals + listed members) run in Python."""
        T0, T = len(self.assignment), len(term_levels)
        assignment = [*self.assignment, *range(T0, T)]
        members = {**self.members, **{k: (k,) for k in range(T0, T)}}
        level = {**self.cluster_level, **{k: term_levels[k] for k in range(T0, T)}}
        parts = [sorted(ms) for ms in clusters]  # a cluster's id is its least member
        claimed = set(itertools.chain.from_iterable(parts))
        if not all(parts) or min(claimed, default=0) < 0 or max(claimed, default=0) >= T:
            raise ValueError(f"a member list is empty or holds a terminal outside 0..{T - 1}")
        if len(claimed) != sum(map(len, parts)):
            raise ValueError("member lists overlap")
        for cid in {assignment[k] for k in claimed}:
            if not claimed.issuperset(members.pop(cid)):
                raise ValueError(f"member lists cover part of cluster {cid}")
            del level[cid]
        for ms in parts:
            members[ms[0]] = tuple(ms)
            level[ms[0]] = max(map(term_levels.__getitem__, ms))
            for k in ms:
                assignment[k] = ms[0]
        return Clustering.from_parts(tuple(assignment), members, level)


def contract_clustering(cl: Clustering, cluster_edges) -> tuple[int, ...]:
    """Canonical assignment of `cl` with the clusters of each (cid1, cid2) edge
    merged. The union-find covers the edge endpoints only and a terminal whose
    cluster no edge touches keeps its id. Recorded edges need not be valid:
    the certifier compares the result with the partition it should give."""
    if not cluster_edges:
        return cl.assignment
    root = UnionFind(cluster_edges).roots()
    a = cl.assignment
    return tuple(map(root.get, a, a))


def check_refinement(fine: Clustering, coarse: Clustering) -> bool:
    """True iff every fine cluster is contained in one coarse cluster."""
    if len(fine.assignment) > len(coarse.assignment):
        raise ConfigError("fine clustering covers terminals the coarse one lacks")
    # A fine cluster id is a member, so every terminal must share the coarse
    # cluster of its fine cluster id.
    c = coarse.assignment
    return all(map(operator.eq, map(c.__getitem__, fine.assignment), c))


@dataclasses.dataclass(frozen=True, eq=False)
class ContractedMetric:
    """Exact shortest-path metric of a clustering's contracted graph.

    `ids` are the cluster ids (minimum member terminal) in ascending order
    and `D` the closure of the one-hop super-edge weights (minimum original
    distance between members, zero diagonal). No one-hop matrix is kept: a
    shortest-path walk finds its hops on D and realizes the one-hop weight
    of each hop it tries from the instance (cluster_distance). Contracting
    clusters is adding zero-weight edges: each merged group's rows and
    columns fold into its root's by minimum, and pivots on the merged groups
    alone, O(K^2) each, then close D exactly (Ausiello, Italiano,
    Marchetti-Spaccamela and Nanni, "Incremental algorithms for minimal
    length paths", J. Algorithms 1991). Appending terminals as singletons
    costs O(K^2) per terminal and leaves the old entries as they are (vertex
    insertion; Demetrescu and Italiano, "A new approach to dynamic all pairs
    shortest paths", J. ACM 2004). D is never written after construction, so
    metrics share arrays.
    """

    ids: tuple[int, ...]
    D: np.ndarray

    @classmethod
    def trivial(cls, dist):
        """Metric of the trivial clustering: the instance metric is closed."""
        return cls(tuple(range(len(dist))), dist)

    @classmethod
    def of(cls, dist, assignment):
        """Metric of any canonical clustering, merged up from the trivial one
        at O(T^2) per merged group: only for inputs with no finer metric."""
        return cls.trivial(dist).coarsen(assignment)

    def coarsen(self, assignment):
        """Metric of a canonical clustering that this one refines: id c folds into assignment[c]."""
        return self._fold([(c, assignment[c]) for c in self.ids if assignment[c] != c])

    def _fold(self, moves):
        """Metric with each (id, root id) move's cluster folded into its root's:
        moved rows first, then moved columns, so an entry between two roots is
        the minimum over both groups' members. A pivot per merged group closes
        the result; unmerged clusters need none, as a path through one never
        beats the direct entry (D is closed). With no move it is this metric."""
        if not moves:
            return self
        ids, K = self.ids, len(self.ids)
        pos = dict(zip(ids, range(K)))
        src = np.array([pos[c] for c, _ in moves])
        kept = np.bincount(src, minlength=K) == 0
        keep = kept.nonzero()[0]
        root = keep.searchsorted([pos[r] for _, r in moves])  # position after the drop
        # Flat indices (into K' x K, then K' x K') keep minimum.at on its 1-D fast path.
        rows = (root[:, None] * K + np.arange(K)).ravel()
        cols = (np.arange(0, len(keep) ** 2, len(keep))[:, None] + root).ravel()
        A = self.D.take(keep, axis=0)
        np.minimum.at(A.reshape(-1), rows, self.D.take(src, axis=0).reshape(-1))
        D = A.take(keep, axis=1)
        np.minimum.at(D.reshape(-1), cols, A.take(src, axis=1).reshape(-1))
        # Entries are <= MAX_DIST, so a sum of two fits in int64.
        for g in set(root.tolist()):
            np.minimum(D, D[:, g, None] + D[g], out=D)
        return ContractedMetric(tuple(itertools.compress(ids, kept.tolist())), D)

    def extend(self, dist, assignment):
        """Metric of the same clustering with the terminals past `assignment`
        (its canonical assignment, empty for NO_METRIC) appended as singletons.

        `dist` is the metric over all terminals. A new terminal u's one-hop
        row Wn[u], local to this call, is its least distance to each cluster's
        members; its new row of D is min_y Wn[u, y] + D[y, :]. Old entries
        stay: a singleton never shortens a path between others, since
        entering and leaving it costs at least the direct distance (triangle
        inequality), and so a path from a new terminal never needs another
        new one in between either.
        """
        T0 = len(assignment)
        asn = np.asarray(assignment)
        order = np.argsort(asn, kind="stable")
        starts = np.searchsorted(asn[order], self.ids)
        new = dist[T0:]
        Wn = np.minimum.reduceat(new[:, order], starts, axis=1)  # new x old
        # Sums of two entries <= MAX_DIST fit in int64, which caps empty minima.
        Dn = (Wn[:, :, None] + self.D[None]).min(axis=1, initial=MAX_DIST)  # new x old
        Dnn = np.minimum(new[:, T0:], (Wn[:, None, :] + Dn[None]).min(axis=2, initial=MAX_DIST))
        return ContractedMetric(self.ids + tuple(range(T0, len(dist))),
                                _bordered(self.D, Dn, Dnn))


# Arrival zero, before the first: its clustering (no terminal has arrived), that
# clustering's metric, and its (clusterings, metrics, virtual edges).
NO_TERMINALS = Clustering.from_parts((), {}, {})
NO_METRIC = ContractedMetric((), np.zeros((0, 0), np.int64))
_ARRIVAL_ZERO = ((NO_TERMINALS,), (NO_METRIC,), ())


def _bordered(M, rows, corner):
    """Symmetric M with `rows` appended as rows and as columns."""
    K = len(M)
    out = np.empty((K + len(rows),) * 2, dtype=M.dtype)
    out[:K, :K] = M
    out[K:, :K] = rows
    out[:K, K:] = rows.T
    out[K:, K:] = corner
    return out


def _extended(dist, prev, i, extended):
    """The previous arrival's level-i metric extended by the new terminals as
    singletons. `prev` starts with that arrival's clusterings and metrics,
    C_0 .. C_{L+1}; levels above its top alias the top. `extended` caches
    one extension per distinct previous metric."""
    clusterings, metrics = prev[0], prev[1]
    j = min(i, len(clusterings) - 1)
    base = metrics[j]
    if base not in extended:
        extended[base] = base.extend(dist, clusterings[j].assignment)
    return extended[base]


def _carried(dist, prev, i, cl, extended):
    """Metric of `cl`, level i of an arrival, from the previous arrival's
    level-i metric extended by the new terminals; None when that level does
    not refine `cl`."""
    clusterings = prev[0]
    if not check_refinement(clusterings[min(i, len(clusterings) - 1)], cl):
        return None
    return _extended(dist, prev, i, extended).coarsen(cl.assignment)


def level_metrics(dist, clusterings, prev=_ARRIVAL_ZERO):
    """Yield the contracted metric of each clustering of a recorded hierarchy.

    A level follows the previous recorded arrival's level when that level,
    of `prev` (the arrival's clusterings and metrics, arrival zero's by
    default), refines this one. An untrusted recorded hierarchy that breaks
    the refinement starts over from the trivial metric. A level equal to the
    one below shares its metric.
    """
    below = metric = None
    extended = {}
    for i, cl in enumerate(clusterings):
        if below is None or cl.assignment != below.assignment:
            metric = (_carried(dist, prev, i, cl, extended)
                      or ContractedMetric.of(dist, cl.assignment))
        below = cl
        yield metric


@dataclasses.dataclass(frozen=True)
class ClusterPath:
    """Shortest super-node path with one realized original edge per hop."""

    distance: int
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def _realize_hop(dist, members_p, members_q):
    """Cheapest original edge between two super-nodes, given their member
    arrays. Ties go to the least normalized (min, max) pair; the endpoints
    are Python ints, as the trace's JSON encoder needs."""
    sub = dist[members_p][:, members_q]
    w = sub.min()
    x, y = np.nonzero(sub == w)
    ends = zip(members_p[x].tolist(), members_q[y].tolist())
    return int(w), min((a, b) if a < b else (b, a) for a, b in ends)


def cluster_distance(view: InstanceView, assignment, contracted_by, C1: int, C2: int,
                     metric: ContractedMetric) -> ClusterPath:
    """Shortest path between two clusters in the doubly contracted graph.

    The graph contracts each cluster of `assignment` to a vertex, then merges
    vertices joined by the original edges in `contracted_by`. Returns the
    distance together with the realized original edge of every hop; ties go
    to the lexicographically smallest super-node id sequence. `metric` is
    the contracted metric of `assignment`, into which the cluster pairs of
    `contracted_by` are merged. The walk reads that metric's closure and
    realizes the one-hop weight of each hop it tries. A UnionFind over the
    pairs' clusters covers only the clusters they touch, so the Python work
    is O(pairs + tried hops).
    """
    if C1 not in assignment or C2 not in assignment:
        raise ConfigError(f"cluster {C1 if C1 not in assignment else C2} not in clustering")
    T = view.num_terminals
    pairs = []
    for a, b in contracted_by:
        if not (0 <= a < T and 0 <= b < T):
            raise ConfigError("contracted_by touches a terminal that has not arrived")
        pairs.append((assignment[a], assignment[b]))
    moves = [(c, r) for c, r in UnionFind(pairs).roots().items() if c != r]
    root = dict(moves)
    src, dst = root.get(C1, C1), root.get(C2, C2)
    if src == dst:
        return ClusterPath(0, (src,), ())

    dist = view.dist_matrix()
    m = metric._fold(moves)
    D, ids = m.D, m.ids
    sup = np.asarray(assignment)
    if moves:
        lookup = np.arange(T)
        lookup[list(root)] = list(root.values())
        sup = lookup[sup]
    si, di = ids.index(src), ids.index(dst)
    total = int(D[si, di])
    to_dst = D[:, di]

    # Greedy walk: step to the smallest super id q that still completes a
    # shortest path through a single hop, i.e. D[ci, q] + D[q, dst] == rest
    # and q's cheapest original edge from here costs D[ci, q] exactly. One-hop
    # weights are never below D, so these are the q with one-hop weight plus
    # D[q, dst] equal to rest. Every hop costs >= 1, so the walk terminates.
    # Sums of two entries <= MAX_DIST fit in int64.
    nodes = [src]
    edges = []
    ci = si
    here = np.flatnonzero(sup == src)
    rest = total
    while ci != di:
        row = D[ci]
        for qi in np.flatnonzero(row + to_dst == rest).tolist():
            if qi == ci:
                continue
            there = np.flatnonzero(sup == ids[qi])
            w, edge = _realize_hop(dist, here, there)
            if w == row[qi]:
                break
        else:
            raise AssertionError("shortest-path walk stalled (internal bug)")
        rest -= w
        edges.append(edge)
        nodes.append(ids[qi])
        ci, here = qi, there
    return ClusterPath(total, tuple(nodes), tuple(edges))


def level_threshold(i: int) -> int:
    # Distances are capped at 2^62 - 1, so clamping the threshold there keeps
    # the comparison exact while staying inside int64.
    return min(1 << (i + 1), 1 << 62)


def active_virtual_edges(D, ids, cluster_level, i: int):
    """(edges of H_i, least contracted distance between two i-active clusters)
    given contracted distances D over `ids` (canonical order) and the level of
    every cluster. With fewer than two active clusters the gap is 2^62.

    The active block of D is copied once with its diagonal set to 2^62, at
    or above every threshold, so its entries below the threshold above the
    diagonal are H_i's edges and its minimum is the gap. The flat indices
    of a row-major block come in canonical edge order."""
    levels = np.fromiter(map(cluster_level.__getitem__, ids), np.int64, len(ids))
    act = np.flatnonzero(levels >= i)
    if len(act) < 2:
        return (), 1 << 62
    sub = D.take(act, axis=0).take(act, axis=1)
    np.fill_diagonal(sub, 1 << 62)
    x, y = np.divmod(np.flatnonzero(sub < level_threshold(i)), len(act))
    upper = x < y
    pick = ids.__getitem__
    edges = tuple(zip(map(pick, act[x[upper]].tolist()), map(pick, act[y[upper]].tolist())))
    return edges, int(sub.min())


@dataclasses.dataclass(frozen=True)
class Hierarchy:
    """Per-arrival clustering hierarchy C_0 .. C_{L+1}, exactly what a trace
    records: a run and the trace loader build this same shape."""

    L: int
    clusterings: tuple[Clustering, ...]  # length L + 2

    def clustering(self, i: int) -> Clustering:
        # Levels above the top alias C_{L+1}.
        return self.clusterings[min(i, self.L + 1)]

    @property
    def top(self) -> Clustering:
        return self.clusterings[self.L + 1]


def _new_row_edge(metric, cluster_level, i: int, new: int) -> bool:
    """True iff one of the last `new` rows of `metric`, the new terminals',
    holds an entry below 2^(i+1) between two distinct i-active clusters."""
    ids, K = metric.ids, len(metric.ids)
    hits = np.argwhere(metric.D[K - new:] < level_threshold(i)).tolist()
    return any(c != K - new + r and
               min(cluster_level[ids[K - new + r]], cluster_level[ids[c]]) >= i
               for r, c in hits)


def build_hierarchy(view: InstanceView, prev=_ARRIVAL_ZERO):
    """Run the clustering procedure for one arrival prefix.

    Returns (hierarchy, virtual edges of H_0 .. H_L, contracted metrics of
    C_0 .. C_{L+1}); the caller keeps the last two for this arrival only, or
    passes the hierarchy's clusterings, the metrics and the virtual edges on
    as `prev` to the next arrival's call; the default is arrival zero's. A
    level that merges nothing keeps the metric, and the clustering, of the
    level below. Any other level's metric is the previous arrival's level-i
    metric extended by the new terminals and coarsened, as that level
    refines this one.

    The levels from C_0 up where C_i is still the previous C_i plus the new
    singletons skip the search: the metric there extends the previous one,
    old entries unchanged, and old clusters keep their levels,
    so only the new terminals' rows can add an edge to the previous H_i.
    While none does, H_i is the previous H_i and C_{i+1} the previous one
    plus the singletons; the first level where one does, and every level
    above, searches. The prefix needs the previous C_0 trivial over fewer
    terminals; after arrival zero every row is new.
    """
    if view.t < 1:
        raise ConfigError("hierarchy needs at least one arrived pair")
    levels = view.levels
    L = max(levels)

    dist = view.dist_matrix()
    cl = NO_TERMINALS.grown(levels)
    clusterings = [cl]
    vgraphs = []
    metric = ContractedMetric.trivial(dist)
    metrics = [metric]
    extended = {}
    prev_cls, _, prev_vgraphs = prev
    new = len(levels) - len(prev_cls[0].assignment)
    grown = new > 0 and len(prev_cls[0].cluster_ids) == len(prev_cls[0].assignment)
    for i in range(L + 1):
        grown = grown and not _new_row_edge(metric, cl.cluster_level, i, new)
        if grown:
            edges = prev_vgraphs[i] if i < len(prev_vgraphs) else ()
            if edges:
                cl = prev_cls[i + 1].grown(levels)
                metric = _extended(dist, prev, i + 1, extended)
        else:
            edges, gap = active_virtual_edges(metric.D, metric.ids, cl.cluster_level, i)
            # Distinct i-active clusters must sit at contracted distance >= 2^i:
            # level i-1 already merged anything closer.
            if gap < level_threshold(i - 1):
                raise AssertionError(f"active clusters too close at level {i} (internal bug)")
            if edges:
                cl = cl.contract(edges)
                metric = _carried(dist, prev, i + 1, cl, extended)
                if metric is None:
                    raise AssertionError(f"previous C_{i + 1} does not refine C_{i + 1} "
                                         "(internal bug)")
        vgraphs.append(edges)
        clusterings.append(cl)
        metrics.append(metric)

    top = clusterings[-1]
    for u, v in view.demands:
        if top.assignment[u] != top.assignment[v]:
            raise AssertionError("demand pair split at the top clustering (internal bug)")
    return Hierarchy(L, tuple(clusterings)), tuple(vgraphs), tuple(metrics)


def dump_hierarchy(h: Hierarchy) -> str:
    """Stable debug dump: one line per (level, cluster)."""
    lines = []
    for i, cl in enumerate(h.clusterings):
        for cid in cl.cluster_ids:
            tag = "active" if cl.cluster_level[cid] >= i else "inactive"
            ms = " ".join(str(k) for k in cl.members[cid])
            lines.append(f"{i} | {cid}: {ms} [{tag}]")
    return "\n".join(lines) + "\n"
